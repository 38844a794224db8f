"""Scenario drivers and the statistics helpers behind the evaluation."""

import dataclasses
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.stats as scipy_stats

import csdsim.engine
import csdsim.scenarios
from csdsim import (
    ConfigError,
    RunConfig,
    calibrate_fps,
    run_replication,
    run_replications,
    run_sweep,
    what_if_posting_day,
)
from csdsim.domain import BeltTable, reported_failures
from csdsim.history import mre, pearson_with_p, t_test_one_sample
from csdsim.scenarios import (
    DIVERSITY_POLICIES,
    OPENNESS_GATES,
    baseline_outcome,
    diversity_policies,
    mean,
)


# -------------------------------------------------------------- statistics


def test_pearson_matches_scipy_randomized():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(3, 40)
        xs = [rng.gauss(0, 1) for _ in range(n)]
        ys = [0.3 * x + rng.gauss(0, 1) for x in xs]
        mine = pearson_with_p(xs, ys)
        ref = scipy_stats.pearsonr(xs, ys)
        assert mine[0] == pytest.approx(ref.statistic, abs=1e-9)
        assert mine[1] == pytest.approx(ref.pvalue, abs=1e-9)


def test_pearson_exact_engineered_correlation():
    """Build series whose sample correlation is 0.42 by construction."""
    rho = 0.42
    rng = np.random.default_rng(99)
    x = rng.normal(size=50)
    noise = rng.normal(size=50)
    xc = (x - x.mean()) / np.linalg.norm(x - x.mean())
    nc = noise - noise.mean()
    nc = nc - (nc @ xc) * xc  # strip every trace of x out of the noise
    nc = nc / np.linalg.norm(nc)
    y = rho * xc + math.sqrt(1 - rho * rho) * nc
    r, p = pearson_with_p(list(x), list(y))
    assert r == pytest.approx(rho, abs=1e-9)
    assert 0.0 < p < 1.0


def test_pearson_degenerate_cases():
    assert pearson_with_p([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) is None
    assert pearson_with_p([1.0, 2.0], [1.0, 2.0]) is None
    with pytest.raises(ValueError):
        pearson_with_p([1.0, 2.0, 3.0], [1.0, 2.0])


def test_pearson_perfect_line():
    r, p = pearson_with_p([1.0, 2.0, 3.0, 4.0], [3.0, 5.0, 7.0, 9.0])
    assert r == pytest.approx(1.0, abs=1e-12)
    assert p < 1e-9
    r, _ = pearson_with_p([1.0, 2.0, 3.0, 4.0], [9.0, 7.0, 5.0, 3.0])
    assert r == pytest.approx(-1.0, abs=1e-12)


def test_ttest_matches_scipy_randomized():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(2, 40)
        xs = [rng.gauss(0.2, 1.5) for _ in range(n)]
        popmean = rng.choice([0.0, 0.1, -0.3])
        mine = t_test_one_sample([x - popmean for x in xs])
        ref = scipy_stats.ttest_1samp(xs, popmean)
        assert mine[0] == pytest.approx(ref.statistic, abs=1e-9)
        assert mine[1] == pytest.approx(ref.pvalue, abs=1e-9)


def test_ttest_degenerate_cases():
    assert t_test_one_sample([5.0]) is None
    assert t_test_one_sample([]) is None
    stat, p = t_test_one_sample([2.0 - 2.0] * 3)
    assert (stat, p) == (0.0, 1.0)
    stat, p = t_test_one_sample([2.0 - 1.0] * 3)
    assert stat == math.inf and p == 0.0
    stat, _ = t_test_one_sample([2.0 - 3.0] * 2)
    assert stat == -math.inf


def test_mre_signed_and_guarded():
    assert mre(1000.0, 989.0) == pytest.approx(0.011, abs=1e-12)
    assert mre(1000.0, 1020.0) == pytest.approx(-0.020, abs=1e-12)
    assert mre(0.0, 5.0) is None


# ---------------------------------------------------------------- scenarios


@pytest.fixture()
def scenario_cfg(tiny_cfg):
    return dataclasses.replace(tiny_cfg, replications=3)


def test_policy_constants():
    assert OPENNESS_GATES == (0.60, 0.70, 0.80, 0.90)
    assert tuple(label for label, _ in DIVERSITY_POLICIES) == (
        "elite_only",
        "mid_and_up",
        "green_and_up",
        "all_welcome",
    )
    assert dict(DIVERSITY_POLICIES)["all_welcome"] is None


def test_run_sweep_aggregates_replications(scenario_cfg):
    cfg = dataclasses.replace(scenario_cfg, focal_enabled=True, openness_gate=0.7)
    other = dataclasses.replace(cfg, openness_gate=0.9)
    report, results = run_sweep("probe", [("first", cfg), ("second", other)])
    assert report.name == "probe"
    assert [o.label for o in report.outcomes] == ["first", "second"]
    for outcome in report.outcomes:
        assert outcome.replications == 3
        assert len(outcome.per_rep_failed) == 3
        assert outcome.fail + outcome.success == 3
        assert outcome.failure_rate == pytest.approx(outcome.fail / 3)
    # the results are the first policy's, one per replication on seed + r
    assert [r.trace_hash for r in results] == [
        run_replication(dataclasses.replace(cfg, seed=cfg.seed + r)).trace_hash for r in range(3)
    ]
    assert all(r.focal is not None for r in results)
    first = report.outcomes[0]
    assert first.per_rep_failed == tuple(bool(r.focal["failed"]) for r in results)
    assert first.mean_registrants == pytest.approx(
        sum(r.focal["registrants"] for r in results) / 3
    )


def test_run_sweep_runs_replication_r_of_every_policy_before_r_plus_one(
    scenario_cfg, monkeypatch
):
    cfg = dataclasses.replace(scenario_cfg, focal_enabled=True)
    original = csdsim.engine.Simulation.run
    seen = []

    def recording(sim):
        seen.append((sim.cfg.seed, sim.cfg.focal_arrival))
        return original(sim)

    monkeypatch.setattr(csdsim.engine.Simulation, "run", recording)
    what_if_posting_day(cfg, 20.0)
    assert seen == [(cfg.seed + r, day) for r in range(3) for day in (15.0, 20.0)]


def test_run_sweep_is_deterministic(scenario_cfg):
    cfg = dataclasses.replace(scenario_cfg, focal_enabled=True, openness_gate=0.7)
    first, _ = run_sweep("probe", [("probe", cfg)])
    second, _ = run_sweep("probe", [("probe", cfg)])
    assert first == second


def test_run_sweep_validates_every_policy_before_any_replication(
    scenario_cfg, monkeypatch, tmp_path
):
    # the 30 day focal window from day 40 ends past the 60 day horizon, so
    # such a policy cannot even be built
    with pytest.raises(ConfigError, match="focal_arrival"):
        dataclasses.replace(scenario_cfg, focal_enabled=True, focal_arrival=40.0)
    table = tmp_path / "belts.csv"
    table.write_text("belt,upper_bound,p_qualified\ngray,1000,0.3\nred,,0.6\n")
    valid = dataclasses.replace(scenario_cfg, focal_enabled=True)
    # gray and red have follow-through keys; only the admitted blue belt is absent
    blue = dataclasses.replace(valid, belt_table_path=str(table), admitted_belts=("blue",))
    ran = []
    monkeypatch.setattr(csdsim.engine.Simulation, "run", ran.append)
    with pytest.raises(ConfigError, match="admitted_belts"):
        run_sweep("probe", [("valid", valid), ("blue", blue)])
    assert ran == []


def test_run_sweep_refuses_an_empty_policy_list(scenario_cfg):
    with pytest.raises(ConfigError, match="openness"):
        run_sweep("openness", [])


def test_baseline_outcome_counts_resolved_tasks_over_all_replications(tiny_cfg):
    results = list(run_replications(tiny_cfg))
    outcome = baseline_outcome(tiny_cfg, results)
    assert outcome.label == "baseline"
    assert outcome.replications == 2
    assert outcome.per_rep_failed == ()
    assert outcome.fail == sum(reported_failures(r.counters) for r in results)
    assert outcome.success == sum(r.counters["completed"] for r in results)
    assert outcome.failure_rate == outcome.fail / (outcome.fail + outcome.success)
    assert outcome.mean_registrants == sum(sum(r.reg_by_belt.values()) for r in results) / 2


def test_what_if_posting_day_labels(scenario_cfg):
    report, results = what_if_posting_day(scenario_cfg, day=25.0)
    assert report.name == "whatif"
    labels = [o.label for o in report.outcomes]
    assert labels == ["post_day_15", "post_day_25"]
    assert len(results) == scenario_cfg.replications
    assert [o.replications for o in report.outcomes] == [scenario_cfg.replications] * 2
    # the time-series results are the day-15 baseline's
    assert report.outcomes[0].per_rep_failed == tuple(bool(r.focal["failed"]) for r in results)


def test_calibrate_fps_degenerate_fits():
    # no task reaches its deadline inside a one day horizon: no points
    short = RunConfig(replications=1, horizon_days=1.0, duration_min=2.0)
    assert calibrate_fps(short) == (0.0, 0.0, 0)
    # with no agents every task starves at the same ratio: a flat line at 1
    slope, intercept, points = calibrate_fps(RunConfig(replications=1, agent_gamma=0.0))
    assert (slope, intercept) == (0.0, 1.0)
    assert points > 0


def test_calibrate_fps_fits_something(tiny_cfg):
    slope, intercept, n = calibrate_fps(tiny_cfg)
    assert n > 50  # plenty of resolved tasks even in a tiny run
    assert math.isfinite(slope) and math.isfinite(intercept)
    # refitting under the same seed is reproducible
    assert (slope, intercept, n) == calibrate_fps(tiny_cfg)


@pytest.mark.parametrize("n", [26, 379, 5000])
def test_calibrate_fps_matches_polyfit_on_drawn_points(n, monkeypatch):
    """The closed form agrees with ``np.polyfit`` to 1e-12 relative (about 1e-15 seen)."""
    rng = random.Random(n)
    xs = [rng.random() for _ in range(n)]
    ys = [float(rng.random() < 0.2 + 0.6 * x) for x in xs]
    log = [
        {"outcome": "failed" if y else "completed", "tsr_at_resolution": x}
        for x, y in zip(xs, ys)
    ]
    monkeypatch.setattr(csdsim.scenarios, "run_replications", lambda cfg: [SimpleNamespace(task_log=log)])
    slope, intercept, points = calibrate_fps(RunConfig())
    ref_slope, ref_intercept = np.polyfit(xs, ys, 1)
    assert points == n
    assert slope == pytest.approx(ref_slope, rel=1e-12)
    assert intercept == pytest.approx(ref_intercept, rel=1e-12)


def test_diversity_policies_admit_by_rank():
    # on the built-in table the rank policies spell out these belts
    assert DIVERSITY_POLICIES == (
        ("elite_only", ("yellow", "red")),
        ("mid_and_up", ("blue", "yellow", "red")),
        ("green_and_up", ("green", "blue", "yellow", "red")),
        ("all_welcome", None),
    )
    two = BeltTable.from_rows([("low", 1000.0, 0.3), ("high", math.inf, 0.6)])
    assert diversity_policies(two) == (
        ("elite_only", ("low", "high")),
        ("mid_and_up", ("low", "high")),
        ("green_and_up", ("high",)),
        ("all_welcome", None),
    )


def test_mean_sums_left_to_right():
    # 0.1 from a compensated sum, as ``sum()`` is from Python 3.12 on
    assert mean([0.1] * 10) == 0.09999999999999999
    assert mean([]) == 0.0
