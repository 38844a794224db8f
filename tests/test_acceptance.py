"""Acceptance gate: one test per criterion, in order.

Each test prints a single CRITERION line (visible with -s or on failure)
and the pytest -v report gives the same one-line pass/fail per criterion.
Expensive simulations are shared through module-scoped fixtures.
"""

import dataclasses
import math
import random
import statistics
import time

import pytest
import scipy.stats as scipy_stats

from csdsim import RunConfig, emit_outputs, run_replication
from csdsim.domain import DEFAULT_BELT_TABLE, LEGAL_TRANSITIONS
from csdsim.engine import RngStreams, Simulation
from csdsim.history import (
    evaluate_forecast,
    ingest_history,
    ingest_predictions,
    mre,
    pearson_with_p,
    t_test_one_sample,
)
from csdsim.lifecycle import (
    compute_fpr,
    compute_fps,
    compute_tcr,
    compute_tfr,
    compute_tsr,
    sample_duration,
)
from csdsim.outputs import OUTPUT_FILES
from csdsim.platform import (
    rating_share,
    sample_experience,
    sample_similarity,
    spawn_agent,
)
from csdsim.scenarios import run_diversity_scenario, run_openness_scenario

MODULE_T0 = time.monotonic()

BASELINE_REPLICATIONS = 30


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n}: {detail}"


@pytest.fixture(scope="module")
def baseline_30():
    """Thirty default-config replications, each with its audit trail."""
    runs = []
    for r in range(BASELINE_REPLICATIONS):
        cfg = dataclasses.replace(RunConfig(), seed=RunConfig().seed + r)
        sim = Simulation(cfg)
        runs.append((sim, sim.run()))
    return runs


# --------------------------------------------------------------- criterion 1


def test_criterion_01_formula_oracles():
    """Every published formula matches an independent reference, 1000x."""

    def reference_fpr(pairs):
        total = sum(re for re, _ in pairs)
        weighted = sum(re * p for re, p in pairs)
        return min(1.0, weighted / (3.0 if total > 2.0 else 2.0 if total > 1.0 else 1.0))

    started = time.monotonic()
    rng = random.Random(1234)
    checks = 0

    for _ in range(1000):
        pairs = [
            (rng.uniform(0, 1.5), rng.uniform(0, 1)) for _ in range(rng.randint(0, 9))
        ]
        assert abs(compute_fpr(pairs) - reference_fpr(pairs)) < 1e-9
        checks += 1

    for _ in range(1000):
        registered = rng.randint(1, 5000)
        submitted = rng.randint(0, registered)
        completed = rng.randint(0, registered)
        assert abs(compute_tsr(submitted, registered) - (1 - submitted / registered)) < 1e-9
        assert abs(compute_tcr(completed, registered) - completed / registered) < 1e-9
        assert abs(compute_tfr(completed, registered) - (1 - completed / registered)) < 1e-9
        tsr = rng.random()
        slope, intercept = rng.uniform(-1, 1), rng.uniform(-1, 1)
        assert abs(compute_fps(tsr, slope, intercept) - (slope * tsr + intercept)) < 1e-9
        actual = rng.uniform(1, 5000)
        predicted = rng.uniform(0, 5000)
        assert abs(mre(actual, predicted) - (actual - predicted) / actual) < 1e-9
        checks += 5

    for _ in range(1000):
        n = rng.randint(3, 30)
        xs = [rng.gauss(0, 1) for _ in range(n)]
        ys = [0.5 * x + rng.gauss(0, 1) for x in xs]
        mine_r, mine_p = pearson_with_p(xs, ys)
        ref = scipy_stats.pearsonr(xs, ys)
        assert abs(mine_r - ref.statistic) < 1e-9
        assert abs(mine_p - ref.pvalue) < 1e-9
        mine_t, mine_tp = t_test_one_sample(xs, 0.1)
        ref_t = scipy_stats.ttest_1samp(xs, 0.1)
        assert abs(mine_t - ref_t.statistic) < 1e-9
        assert abs(mine_tp - ref_t.pvalue) < 1e-9
        checks += 2

    elapsed = time.monotonic() - started
    _report(
        1,
        elapsed < 5.0,
        f"{checks} randomized oracle checks at 1e-9 in {elapsed:.2f}s (< 5s)",
    )


# --------------------------------------------------------------- criterion 2


def test_criterion_02_determinism(tmp_path):
    """Same seed, byte-identical CSVs, and no pathological slowdown."""
    cfg = dataclasses.replace(RunConfig(), replications=2)

    def one_pass(out_dir):
        results = [
            run_replication(dataclasses.replace(cfg, seed=cfg.seed + r))
            for r in range(cfg.replications)
        ]
        emit_outputs(cfg, results, out_dir)

    started = time.monotonic()
    one_pass(tmp_path / "first")
    single = time.monotonic() - started
    one_pass(tmp_path / "second")
    total = time.monotonic() - started

    identical = all(
        (tmp_path / "first" / name).read_bytes()
        == (tmp_path / "second" / name).read_bytes()
        for name in OUTPUT_FILES
    )
    budget_ok = total < 2.0 * single + 1.0
    _report(
        2,
        identical and budget_ok,
        f"{len(OUTPUT_FILES)} files byte-identical, {total:.2f}s for both passes"
        f" vs {single:.2f}s single",
    )


# --------------------------------------------------------------- criterion 3


def test_criterion_03_distribution_fidelity():
    """Chi-square GOF at 0.01 for the three platform samplers."""
    started = time.monotonic()
    cfg = RunConfig()
    n = 10_000

    def chi_square(observed, expected):
        return sum((o - e) ** 2 / e for o, e in zip(observed, expected))

    failures = []

    # similarity: uniform on [0.30, 0.98], 20 equal bins
    rng = RngStreams(4242).get("similarity")
    draws = [sample_similarity(rng, cfg) for _ in range(n)]
    bins = 20
    lo, hi = cfg.similarity_low, cfg.similarity_high
    counts = [0] * bins
    for d in draws:
        counts[min(bins - 1, int((d - lo) / (hi - lo) * bins))] += 1
    stat = chi_square(counts, [n / bins] * bins)
    crit = scipy_stats.chi2.ppf(0.99, bins - 1)
    if stat >= crit:
        failures.append(f"similarity chi2 {stat:.1f} >= {crit:.1f}")

    # duration: triangular(1, 16, 30) against its closed-form CDF
    def tri_cdf(x, a=1.0, c=16.0, b=30.0):
        if x <= a:
            return 0.0
        if x <= c:
            return (x - a) ** 2 / ((b - a) * (c - a))
        if x < b:
            return 1.0 - (b - x) ** 2 / ((b - a) * (b - c))
        return 1.0

    rng = RngStreams(4242).get("duration")
    draws = [sample_duration(rng, cfg) for _ in range(n)]
    edges = [1.0 + i * (29.0 / 12) for i in range(13)]
    counts = [0] * 12
    for d in draws:
        counts[min(11, int((d - 1.0) / (29.0 / 12)))] += 1
    expected = [n * (tri_cdf(edges[i + 1]) - tri_cdf(edges[i])) for i in range(12)]
    stat = chi_square(counts, expected)
    crit = scipy_stats.chi2.ppf(0.99, 11)
    if stat >= crit:
        failures.append(f"duration chi2 {stat:.1f} >= {crit:.1f}")

    mean = sum(draws) / n
    if abs(mean - 15.667) > 0.3:
        failures.append(f"duration mean {mean:.3f} outside 15.667 +- 0.3")

    # experience: Beta(1,5) scaled to [0, 3000]; F(x) = 1 - (1 - x/3000)^5
    def beta_cdf(x):
        return 1.0 - (1.0 - x / 3000.0) ** 5

    rng = RngStreams(4242).get("experience")
    draws = [sample_experience(rng, cfg) for _ in range(n)]
    counts = [0] * 12
    for d in draws:
        counts[min(11, int(d / 250.0))] += 1
    expected = [n * (beta_cdf((i + 1) * 250.0) - beta_cdf(i * 250.0)) for i in range(12)]
    stat = chi_square(counts, expected)
    crit = scipy_stats.chi2.ppf(0.99, 11)
    if stat >= crit:
        failures.append(f"experience chi2 {stat:.1f} >= {crit:.1f}")

    # gray-belt share, analytic and sampled
    analytic = rating_share(0.0, 900.0, cfg)
    if abs(analytic - 0.832) > 0.001:
        failures.append(f"analytic gray share {analytic:.4f} differs from 0.832")
    streams = RngStreams(4242)
    exp_rng = streams.get("experience-agents")
    skill_rng = streams.get("skills")
    gray = sum(
        spawn_agent(exp_rng, skill_rng, cfg, DEFAULT_BELT_TABLE)[1] == "gray"
        for _ in range(n)
    )
    if abs(gray / n - 0.832) > 0.02:
        failures.append(f"sampled gray share {gray / n:.4f} outside 0.832 +- 0.02")

    elapsed = time.monotonic() - started
    ok = not failures and elapsed < 10.0
    _report(
        3,
        ok,
        failures[0]
        if failures
        else f"similarity/duration/experience GOF at 0.01, mean {mean:.3f},"
        f" gray {gray / n:.3f}, {elapsed:.2f}s (< 10s)",
    )


# --------------------------------------------------------------- criterion 4


def test_criterion_04_state_machine_legality(baseline_30):
    """30 x 60 days: only legal transitions; starved/dropped are failures."""
    transitions = 0
    for sim, result in baseline_30:
        for (src, dst), count in sim.transition_counts.items():
            assert dst in LEGAL_TRANSITIONS[src], (src.value, dst.value)
            transitions += count
        c = result.counters
        assert result.reported_failures == c["starved"] + c["dropped"] + c["failed_review"]
        logged_starved = sum(1 for r in result.task_log if r["outcome"] == "starved")
        logged_dropped = sum(1 for r in result.task_log if r["outcome"] == "dropped")
        assert logged_starved == c["starved"]
        assert logged_dropped == c["dropped"]
    _report(
        4,
        True,
        f"{transitions} transitions across {len(baseline_30)} replications,"
        f" all legal; every starved and dropped task reported as a failure",
    )


# --------------------------------------------------------------- criterion 5


def test_criterion_05_structural_invariants(baseline_30):
    counter_keys = (
        "arrived",
        "registered",
        "submitted",
        "completed",
        "failed",
        "starved",
        "dropped",
        "failed_review",
        "reposted",
    )
    tasks_checked = 0
    for sim, result in baseline_30:
        assert all(
            len(agent.open_list) <= sim.cfg.open_list_cap
            for agent in sim.agents.values()
        )
        for task in sim.tasks.values():
            assert {s.agent_id for s in task.submissions} <= set(task.registrants)
            tasks_checked += 1
        previous = dict.fromkeys(counter_keys, 0)
        for row in result.daily:
            for key in counter_keys:
                assert row[key] >= previous[key], key
                previous[key] = row[key]
            if row["registered"] > 0:
                assert abs(row["tcr"] + row["tfr"] - 1.0) < 1e-12
        c = result.counters
        assert c["completed"] + c["failed"] <= c["registered"]
    _report(
        5,
        True,
        f"open-list cap, submissions within registrants over {tasks_checked} tasks,"
        f" TCR+TFR=1, monotone counters",
    )


# --------------------------------------------------------------- criterion 6


def test_criterion_06_openness_scenario_ordering():
    started = time.monotonic()
    report, _ = run_openness_scenario(RunConfig())
    elapsed = time.monotonic() - started

    fails = {o.label: o.fail for o in report.outcomes}
    rates = {o.label: o.failure_rate for o in report.outcomes}
    low, mid, high, top = (
        fails["openness_0.60"],
        fails["openness_0.70"],
        fails["openness_0.80"],
        fails["openness_0.90"],
    )
    ordering = low < min(mid, high, top) and high > max(low, mid, top)

    published = {"openness_0.60": 0.60, "openness_0.70": 0.73,
                 "openness_0.80": 0.83, "openness_0.90": 0.77}
    bands = {
        label: abs(rates[label] - published[label]) <= 0.15 for label in published
    }
    band_note = "all rates within 15pp of the published table" if all(
        bands.values()
    ) else "informational bands missed: " + ", ".join(
        label for label, ok in bands.items() if not ok
    )

    _report(
        6,
        ordering and elapsed < 60.0,
        f"fails per gate 0.60/0.70/0.80/0.90 = {low}/{mid}/{high}/{top};"
        f" 0.60 min and 0.80 max; {band_note}; {elapsed:.1f}s (< 60s)",
    )


# --------------------------------------------------------------- criterion 7


def test_criterion_07_diversity_scenario_ordering():
    started = time.monotonic()
    report, _ = run_diversity_scenario(RunConfig())
    elapsed = time.monotonic() - started

    fails = {o.label: o.fail for o in report.outcomes}
    mids = (fails["mid_and_up"], fails["green_and_up"])
    extremes = (fails["elite_only"], fails["all_welcome"])
    ordering = all(m < e for m in mids for e in extremes)

    _report(
        7,
        ordering and elapsed < 60.0,
        f"fails elite/mid/green/all = {fails['elite_only']}/{fails['mid_and_up']}"
        f"/{fails['green_and_up']}/{fails['all_welcome']};"
        f" both mid policies beat both extremes; {elapsed:.1f}s (< 60s)",
    )


# --------------------------------------------------------------- criterion 8


def test_criterion_08_baseline_ratio_identities(baseline_30):
    results = [result for _, result in baseline_30]
    success = statistics.mean(r.success_ratio for r in results)
    unqualified = statistics.mean(r.unqualified_ratio for r in results)
    zero_sub = statistics.mean(r.zero_submission_ratio for r in results)
    for r in results:
        total = r.success_ratio + r.unqualified_ratio + r.zero_submission_ratio
        assert abs(total - 1.0) < 1e-12  # so the sum can never top 100%
        failure_rate = 1.0 - r.success_ratio
        assert abs(failure_rate - (r.unqualified_ratio + r.zero_submission_ratio)) < 1e-12
    _report(
        8,
        True,
        f"mean shares: success {success:.1%}, unqualified {unqualified:.1%},"
        f" zero-submission {zero_sub:.1%} (published 71%/19%/7% is informational;"
        f" identities hold exactly)",
    )


# --------------------------------------------------------------- criterion 9


def test_criterion_09_evaluation_fixture(data_dir):
    history = ingest_history(str(data_dir / "eval_history.csv"))
    predictions = ingest_predictions(str(data_dir / "eval_predictions.csv"))
    scored = evaluate_forecast(history, predictions)
    reg = scored["registration"].mre
    sub = scored["submission"].mre
    ok = abs(reg - 0.011) < 1e-9 and abs(sub - 0.020) < 1e-9
    _report(
        9,
        ok,
        f"fixture MREs: registration {reg!r}, submission {sub!r}"
        f" against oracle 0.011 and 0.020 at 1e-9",
    )


# -------------------------------------------------------------- criterion 10


def test_criterion_10_runtime_budget():
    elapsed = time.monotonic() - MODULE_T0
    _report(
        10,
        elapsed < 300.0,
        f"criteria 1-9 finished in {elapsed:.1f}s (< 300s)",
    )
