"""Platform-level machinery: content sampling, population spawning, ratios.

Every draw is written out on ``random()`` or ``getrandbits()`` as the
stdlib ``random`` module of Python 3.10-3.13 makes it, so no artifact
depends on that module's internals.
"""

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
    low, high = cfg.similarity_low, cfg.similarity_high
    if cfg.openness_gate is not None:
        low = max(low, cfg.openness_gate - cfg.openness_halfwidth)
        high = min(high, cfg.openness_gate + cfg.openness_halfwidth)
    return low + (high - low) * rng.random()  # uniform(low, high)


def sample_duration(rng, cfg: RunConfig) -> float:
    """``triangular(duration_min, duration_max, duration_mode)``; a zero-width
    range returns its bound after the draw, as the stdlib's does."""
    u = rng.random()
    low, high = cfg.duration_min, cfg.duration_max
    if low == high:
        return low
    c = (cfg.duration_mode - low) / (high - low)
    if u > c:
        u, c, low, high = 1.0 - u, 1.0 - c, high, low
    return low + (high - low) * math.sqrt(u * c)


_LOG4, _SG_MAGICCONST = math.log(4.0), 1.0 + math.log(4.5)


def _gamma(random, alpha: float) -> float:
    """``gammavariate(alpha, 1.0)``: for alpha > 1 Cheng's rejection method (Applied
    Statistics, 1977), at 1 the exponential, below 1 Kennedy and Gentle's algorithm GS."""
    if alpha > 1.0:
        ainv = math.sqrt(2.0 * alpha - 1.0)
        bbb, ccc = alpha - _LOG4, alpha + ainv
        while True:
            u1 = random()
            if not 1e-7 < u1 < 0.9999999:
                continue
            u2 = 1.0 - random()
            v = math.log(u1 / (1.0 - u1)) / ainv
            x = alpha * math.exp(v)
            z = u1 * u1 * u2
            r = bbb + ccc * v - x
            if r + _SG_MAGICCONST - 4.5 * z >= 0.0 or r >= math.log(z):
                return x
    if alpha == 1.0:
        return -math.log(1.0 - random())
    b = (math.e + alpha) / math.e
    while True:
        p = b * random()
        x = p ** (1.0 / alpha) if p <= 1.0 else -math.log((b - p) / alpha)
        if random() <= (x ** (alpha - 1.0) if p > 1.0 else math.exp(-x)):
            return x


def sample_experience(rng, cfg: RunConfig) -> float:
    """Ratings pile up near the bottom; a long thin tail carries the elite:
    ``betavariate(experience_alpha, experience_beta) * experience_max``."""
    y = _gamma(rng.random, cfg.experience_alpha)
    return (y / (y + _gamma(rng.random, cfg.experience_beta)) if y else 0.0) * cfg.experience_max


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
