"""Arrival processes, samplers, and population-level quantities."""

import dataclasses
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc

import csdsim
from csdsim import RunConfig
from csdsim.domain import DEFAULT_BELT_TABLE
from csdsim.platform import (
    _ibeta_alpha1,
    arrival_times,
    implied_belt_shares,
    poisson_count,
    pool_openness,
    rating_share,
    sample_experience,
    sample_similarity,
    sample_skill_mask,
    spawn_agent,
    supply_concentration,
    utilization,
)

CFG = RunConfig()


def test_poisson_zero_rate_is_zero():
    rng = random.Random(1)
    assert poisson_count(rng, 0.0) == 0
    assert poisson_count(rng, -5.0) == 0


def test_poisson_mean_within_four_sigma():
    rng = random.Random(2)
    n = 400
    lam = 87.0
    counts = [poisson_count(rng, lam) for _ in range(n)]
    mean = sum(counts) / n
    assert abs(mean - lam) < 4 * math.sqrt(lam / n)


@given(lam=st.floats(min_value=0, max_value=40), seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_poisson_count_is_a_count(lam, seed):
    value = poisson_count(random.Random(seed), lam)
    assert isinstance(value, int)
    assert value >= 0


def test_arrival_count_rate_units():
    times = arrival_times(random.Random(3), 87.0, CFG)
    assert all(0.0 <= t < CFG.horizon_days for t in times)
    per_run = len(times)
    per_day_cfg = dataclasses.replace(CFG, arrival_rate_unit="per_day")
    per_day = len(arrival_times(random.Random(3), 87.0, per_day_cfg))
    # per-day scales by the horizon: wildly more arrivals
    assert per_day > per_run * 10


def test_similarity_bounds():
    rng = random.Random(4)
    draws = [sample_similarity(rng, CFG) for _ in range(2000)]
    assert 0.30 <= min(draws)
    assert max(draws) <= 0.98


def test_similarity_gate_narrows_the_band():
    gated = dataclasses.replace(CFG, openness_gate=0.90)
    rng = random.Random(5)
    draws = [sample_similarity(rng, gated) for _ in range(2000)]
    assert min(draws) >= 0.82 - 1e-12
    assert max(draws) <= 0.98 + 1e-12


def test_similarity_gate_clamps_to_global_bounds():
    gated = dataclasses.replace(CFG, openness_gate=0.32)
    rng = random.Random(6)
    draws = [sample_similarity(rng, gated) for _ in range(2000)]
    assert min(draws) >= 0.30  # the global floor wins over gate - halfwidth
    assert max(draws) <= 0.40 + 1e-12


def test_experience_bounds():
    rng = random.Random(8)
    draws = [sample_experience(rng, CFG) for _ in range(2000)]
    assert 0.0 <= min(draws) and max(draws) <= 3000.0


def test_skill_mask_counts():
    rng = random.Random(9)
    vocab = CFG.skill_vocabulary
    for _ in range(300):
        mask = sample_skill_mask(rng, 1, 3, vocab)
        assert 1 <= bin(mask).count("1") <= 3
        assert mask < (1 << len(vocab))


def stdlib_mask(rng, lo, hi, n):
    mask = 0
    for index in rng.sample(range(n), rng.randint(lo, hi)):
        mask |= 1 << index
    return mask


def test_skill_mask_draws_what_randint_and_sample_draw():
    """The mask and the stream state after it equal ``randint`` plus ``sample`` on a twin.

    n runs from 1 to 60 with a spread of lo <= hi <= n, so both of ``sample``'s
    branches are hit: the pool shuffle, and the set branch (n > 21, count <= 5).
    """
    cases = set_branch = 0
    for n in range(1, 61):
        vocab = tuple(f"skill{i}" for i in range(n))
        bounds = {(lo, hi) for lo in range(n + 1) for hi in range(lo, min(n, lo + 6) + 1)}
        bounds |= {(0, n), (1, n), (n // 2, n)}
        for lo, hi in sorted(bounds):
            rng = random.Random(f"{n}/{lo}/{hi}")
            twin = random.Random()
            twin.setstate(rng.getstate())
            assert sample_skill_mask(rng, lo, hi, vocab) == stdlib_mask(twin, lo, hi, n)
            assert rng.getstate() == twin.getstate()
            cases += 1
            set_branch += n > 21 and hi <= 5
    assert set_branch > 800 and cases > 12_000


@pytest.mark.parametrize("lo,hi", [(2, 1), (-1, 2), (1, 11)])
def test_skill_mask_refuses_bounds_outside_0_to_n(lo, hi):
    """Bad bounds raise instead of letting the rejection loop spin forever."""
    with pytest.raises(ValueError):
        sample_skill_mask(random.Random(1), lo, hi, CFG.skill_vocabulary)


def test_spawn_agent_is_consistent():
    rating, belt, skills = spawn_agent(random.Random(10), random.Random(11), CFG, DEFAULT_BELT_TABLE)
    assert belt == DEFAULT_BELT_TABLE.belt_of(rating)
    # the rating is the experience stream's first draw, the mask the skills stream's
    assert rating == sample_experience(random.Random(10), CFG)
    assert skills == sample_skill_mask(
        random.Random(11), CFG.agent_skills_min, CFG.agent_skills_max, CFG.skill_vocabulary
    )


def test_utilization_edges():
    assert utilization(0, 0) == 0.0
    assert utilization(3, 4) == 0.75


def test_pool_openness_edges():
    assert pool_openness(0.0, 0) == 0.0
    assert pool_openness(1.8, 3) == pytest.approx(0.6)


# ------------------------------------------------------------- belt shares


def test_gray_share_matches_beta_cdf():
    # Beta(1,5) CDF: F(x) = 1 - (1-x)^5; at 900/3000 that is 0.83193
    share = rating_share(0.0, 900.0, CFG)
    assert share == pytest.approx(1.0 - 0.7**5, abs=1e-9)


# The x = 1 rows with b < 0.5 pin the edge where log(1 - x) would be log(0).
@pytest.mark.parametrize("b", [0.05, 0.19, 0.2, 0.49, 0.5, 1.0, 5.0, 50.0, 1000.0])
@pytest.mark.parametrize(
    "x",
    [0.0, 5e-324, 1e-300, math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0), 0.9, 1 - 2**-53, 1.0],
)
def test_closed_form_is_betainc_on_grid(x, b):
    assert _ibeta_alpha1(b, x) == float(betainc(1.0, b, x))


def test_closed_form_is_betainc_on_random_pairs():
    rng = random.Random(17)
    xs = [rng.random() for _ in range(20_000)]
    bs = [math.exp(rng.uniform(math.log(0.01), math.log(1000.0))) for _ in xs]
    expected = betainc(1.0, np.array(bs), np.array(xs)).tolist()
    assert [_ibeta_alpha1(b, x) for b, x in zip(bs, xs)] == expected


def test_closed_form_at_unit_beta_is_x():
    # Boost returns x itself when a == b == 1; the expm1 branches would round
    rng = random.Random(18)
    xs = [rng.random() for _ in range(2_000)]
    assert betainc(1.0, 1.0, np.array(xs)).tolist() == xs
    assert [_ibeta_alpha1(1.0, x) for x in xs] == xs


@pytest.mark.parametrize("alpha", [1.0, 2.5])
def test_rating_share_is_the_betainc_difference(alpha):
    cfg = dataclasses.replace(CFG, experience_alpha=alpha)
    lower = 0.0
    for row in DEFAULT_BELT_TABLE.rows:
        hi = 1.0 if math.isinf(row.upper_bound) else row.upper_bound / cfg.experience_max
        lo = lower / cfg.experience_max
        expected = float(betainc(alpha, cfg.experience_beta, hi) - betainc(alpha, cfg.experience_beta, lo))
        assert rating_share(lower, row.upper_bound, cfg) == expected, row.belt
        lower = row.upper_bound


def test_implied_shares_sum_to_one():
    shares = implied_belt_shares(DEFAULT_BELT_TABLE, CFG)
    assert set(shares) == set(DEFAULT_BELT_TABLE.names())
    assert sum(shares.values()) == pytest.approx(1.0, abs=1e-9)
    # the published table understates how gray the population really is
    assert shares["gray"] > 0.8
    assert shares["red"] < 0.01


@pytest.mark.parametrize(
    "admitted,expected",
    [
        (None, 1.0),
        (frozenset({"gray", "green", "blue", "yellow", "red"}), 1.0),
        (frozenset({"green", "blue", "yellow", "red"}), 1.0 / 0.7**5),
        (frozenset({"blue", "yellow", "red"}), 1.0 / 0.6**5),
        (frozenset({"yellow", "red"}), 25.0),  # 1/0.03125 = 32, capped
    ],
)
def test_supply_concentration(admitted, expected):
    value = supply_concentration(DEFAULT_BELT_TABLE, admitted, CFG)
    assert value == pytest.approx(expected, abs=1e-6)


def test_supply_concentration_empty_gate_hits_cap():
    value = supply_concentration(DEFAULT_BELT_TABLE, frozenset({"nobody"}), CFG)
    assert value == CFG.supply_concentration_max


def test_supply_concentration_does_not_depend_on_the_hash_seed():
    """Four admitted belts whose float sum moves in its last bit with the
    order it is taken in: the sum follows the table, not the set's hash order."""
    code = (
        "from csdsim import RunConfig, Simulation; print(repr(Simulation(RunConfig("
        "experience_beta=0.7926274014247991, experience_max=3936.3561275707348, "
        "admitted_belts=('green', 'blue', 'yellow', 'red'))).concentration))"
    )
    paths = [str(Path(csdsim.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    values = {
        subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**env, "PYTHONHASHSEED": str(hash_seed)},
        ).stdout.strip()
        for hash_seed in range(8)
    }
    assert values == {"1.2284631709615652"}
