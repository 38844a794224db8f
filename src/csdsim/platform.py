"""Platform-level machinery: content sampling, population spawning, ratios."""

from __future__ import annotations

import math
from typing import Optional

from .config import RunConfig
from .domain import BeltTable, ordered_sum


def poisson_count(rng, lam: float) -> int:
    """Poisson draw via exponential inter-arrival sums; safe for large rates."""
    if lam <= 0.0:
        return 0
    total = 0.0
    count = 0
    while True:
        total += -math.log(1.0 - rng.random())  # an Exp(1) gap, written out as the engine's
        if total > lam:
            return count
        count += 1


def arrival_times(rng, rate: float, cfg: RunConfig) -> list:
    """One run's arrival times: a Poisson count under the configured rate
    unit, then a uniform time on the horizon for each arrival."""
    lam = rate * cfg.horizon_days if cfg.arrival_rate_unit == "per_day" else rate
    return [cfg.horizon_days * rng.random() for _ in range(poisson_count(rng, lam))]


def sample_similarity(rng, cfg: RunConfig) -> float:
    """Similarity of a new posting to the platform's recent history.

    An openness gate narrows the whole posting mix around the gate value;
    the regime changes what the platform publishes, not just one task.
    """
    if cfg.openness_gate is None:
        return rng.uniform(cfg.similarity_low, cfg.similarity_high)
    low = max(cfg.similarity_low, cfg.openness_gate - cfg.openness_halfwidth)
    high = min(cfg.similarity_high, cfg.openness_gate + cfg.openness_halfwidth)
    return rng.uniform(low, high)


def sample_experience(rng, cfg: RunConfig) -> float:
    """Ratings pile up near the bottom; a long thin tail carries the elite."""
    return rng.betavariate(cfg.experience_alpha, cfg.experience_beta) * cfg.experience_max


def _below(getrandbits, n: int) -> int:
    """``Random._randbelow(n)``: a uniform int in [0, n), for n > 0."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def sample_skill_mask(rng, lo: int, hi: int, vocabulary) -> int:
    """Bit mask of ``rng.sample(range(len(vocabulary)), rng.randint(lo, hi))``, drawn by
    their stdlib algorithm on ``getrandbits`` so no draw depends on their internals."""
    n = len(vocabulary)
    if not 0 <= lo <= hi <= n:
        raise ValueError(f"need 0 <= lo <= hi <= {n}, got lo={lo}, hi={hi}")
    getrandbits = rng.getrandbits
    count = lo + _below(getrandbits, hi - lo + 1)
    mask = 0
    if n <= 21 + (4 ** math.ceil(math.log(count * 3, 4)) if count > 5 else 0):
        pool = list(range(n))  # sample's small-population branch: a partial shuffle
        for i in range(count):
            j = _below(getrandbits, n - i)
            mask |= 1 << pool[j]
            pool[j] = pool[n - i - 1]
    else:
        for _ in range(count):  # its set branch: redraw an index already taken
            j = _below(getrandbits, n)
            while mask >> j & 1:
                j = _below(getrandbits, n)
            mask |= 1 << j
    return mask


def spawn_agent(exp_rng, skill_rng, cfg: RunConfig, belt_table: BeltTable) -> tuple:
    """One agent's ``(rating, belt, skills)``: its rating, then its skill mask."""
    rating = sample_experience(exp_rng, cfg)
    skills = sample_skill_mask(skill_rng, cfg.agent_skills_min, cfg.agent_skills_max, cfg.skill_vocabulary)
    return rating, belt_table.belt_of(rating), skills


def utilization(busy_agents: int, total_agents: int) -> float:
    if total_agents <= 0:
        return 0.0
    return busy_agents / total_agents


def pool_openness(similarity_sum: float, pool_size: int) -> float:
    """Mean similarity across the currently browsable pool."""
    if pool_size <= 0:
        return 0.0
    return similarity_sum / pool_size


def _ibeta_alpha1(b: float, x: float) -> float:
    """``betainc(1, b, x)`` bit for bit, for x in [0, 1]; see ``rating_share``."""
    if x <= 0.0 or x >= 1.0 or b == 1.0:
        return x
    if x < 0.5:
        return -math.expm1(b * math.log1p(-x))
    if b * x < 0.5:  # Boost's -powm1(1 - x, b); its b < 0.2 case implies this one
        return -math.expm1(b * math.log(1.0 - x))
    return 1.0 - (1.0 - x) ** b


def rating_share(lower: float, upper: float, cfg: RunConfig) -> float:
    """Population mass whose rating lands in (lower, upper] under the
    configured experience distribution.

    At ``experience_alpha == 1``, the default, I_x(1, b) = 1 - (1 - x)**b is
    taken on the branches of Boost's ``ibeta``, which scipy's ``betainc`` calls,
    so every bit matches: x at x <= 0, x >= 1 or b == 1; ``-expm1(b*log1p(-x))``
    below x = 0.5; above it ``-expm1(b*log(1 - x))`` when b*x < 0.5, else
    ``1 - (1 - x)**b``. Other alphas import ``betainc``."""
    scale = cfg.experience_max
    lo = min(max(lower / scale, 0.0), 1.0)
    hi = min(max(upper / scale, 0.0), 1.0) if not math.isinf(upper) else 1.0
    a, b = cfg.experience_alpha, cfg.experience_beta
    if a == 1.0:
        return _ibeta_alpha1(b, hi) - _ibeta_alpha1(b, lo)
    from scipy.special import betainc
    return float(betainc(a, b, hi) - betainc(a, b, lo))


def implied_belt_shares(belt_table: BeltTable, cfg: RunConfig) -> dict:
    """Each belt's population share: the rating distribution's mass in its interval."""
    shares = {}
    lower = 0.0
    for row in belt_table.rows:
        shares[row.belt] = rating_share(lower, row.upper_bound, cfg)
        lower = row.upper_bound
    return shares


def supply_concentration(
    belt_table: BeltTable, admitted: Optional[frozenset], cfg: RunConfig
) -> float:
    """Attention multiplier for a belt-gated platform.

    Gating shrinks the labour supply; the platform concentrates what is
    left by steering the admitted belts across more candidate tasks per
    browsing session. Capped so a near-empty gate cannot explode.
    """
    if not admitted:
        return 1.0
    shares = implied_belt_shares(belt_table, cfg)
    mass = ordered_sum(shares[belt] for belt in shares if belt in admitted)  # table order, not set order
    if mass <= 0.0:
        return cfg.supply_concentration_max
    return min(cfg.supply_concentration_max, 1.0 / mass)
