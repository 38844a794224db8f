"""Property test over small configs: each one is refused when built, or runs.

A config that ``RunConfig`` accepts must run one replication to completion
under ``conftest.CheckedSimulation``, which asserts the model's runtime
rules at every step (criterion 5's open-list cap and register-before-submit,
each repost's lineage and repost cap, no permanently excluded agent
registered). It must also keep every forecast a probability, write a
``task_predictions.csv`` that the predictions ingester reads back to the
same latest forecasts, and log tasks that the history ingester accepts. Each
task ends in the one terminal state its registrants and submissions allow. A
second profile, a small busy market built to reach review, keeps the same
rules, and its logs and forecasts score to a finite-or-None MRE and p-values
in [0, 1]. Registration and submission rates whose mean gap falls below the
clock's resolution are refused when built; arrival rates stay small, because
a huge one is a memory limit rather than a config error.

Tier-1 runs no search: under the profile ``conftest`` loads, each property
test draws the same examples on every run. ``PINNED``, an example of both
property tests, reposts, completes and fails review, and plain tests assert
each. ``MIXED_REVIEW``, an example of the busy-market test, reviews a task
whose first submission is unqualified and a later one qualified, and a plain
test asserts that the task completes.
"""

import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CheckedSimulation, assert_structural_invariants, load_script
from csdsim import ConfigError, RunConfig, TaskState, emit_outputs
from csdsim.config import FOLLOW_THROUGH_FIELDS
from csdsim.domain import DEFAULT_BELT_TABLE
from csdsim.history import evaluate_forecast, ingest_history, ingest_predictions, result_latest_predictions

write_history = load_script("make_history_fixture").write_history

# Keys for which every drawn bad value (NaN, +inf, -inf, -1) is out of range.
BAD_KEYS = (
    "horizon_days",
    "task_lambda",
    "agent_gamma",
    "reg_rate_per_day",
    "sub_rate_per_day",
    "openness_gate",
    "fps_intercept",
)
BAD_VALUES = (math.nan, math.inf, -math.inf, -1.0)


@st.composite
def small_configs(draw):
    changes = {
        "seed": draw(st.integers(0, 10_000)),
        "replications": 1,
        "horizon_days": draw(st.floats(3.0, 10.0)),
        "task_lambda": draw(st.floats(0.0, 30.0)),
        "agent_gamma": draw(st.floats(0.0, 60.0)),
        "arrival_rate_unit": draw(st.sampled_from(("per_run", "per_day"))),
        # mostly valid levers, with edges that validation must refuse
        "openness_gate": draw(st.none() | st.floats(0.1, 1.0)),
        "admitted_belts": draw(
            st.none()
            | st.lists(st.sampled_from(DEFAULT_BELT_TABLE.names()), min_size=1, max_size=3, unique=True).map(tuple)
        ),
        "fps_slope": draw(st.floats(-0.1, 0.6)),
        "fps_intercept": draw(st.floats(0.0, 0.6)),
        "focal_enabled": draw(st.booleans()),
        "focal_arrival": draw(st.floats(-0.5, 7.0)),
        "focal_duration": draw(st.floats(0.5, 3.0)),
    }
    bad = draw(st.none() | st.tuples(st.sampled_from(BAD_KEYS), st.sampled_from(BAD_VALUES)))
    if bad is not None:
        changes[bad[0]] = bad[1]
    return changes, bad


@st.composite
def busy_markets(draw):
    """A small market that reaches review: short tasks, an eager crowd, an easy pass."""
    duration_mode = draw(st.floats(1.0, 3.0))
    return {
        "seed": draw(st.integers(0, 10_000)),
        "replications": 1,
        "horizon_days": draw(st.floats(5.0, 20.0)),
        "task_lambda": draw(st.floats(5.0, 30.0)),
        "agent_gamma": draw(st.floats(20.0, 80.0)),
        "duration_min": 1.0,
        "duration_mode": duration_mode,
        "duration_max": draw(st.floats(duration_mode, 6.0)),
        "quality_pass": draw(st.floats(10.0, 60.0)),
        "sub_product_threshold": draw(st.floats(0.5, 1.0)),
        **{key: draw(st.floats(0.7, 1.0)) for key in FOLLOW_THROUGH_FIELDS},
    }


# The default config at full size, which reposts, completes and fails review:
# the small drawn configs complete almost no task, so only here do
# registrants' windows hold qualified outcomes. It is an example of both
# property tests, and the two tests below assert each behaviour on it.
PINNED = {"seed": 1000, "replications": 1}


# A busy market inside ``busy_markets``' ranges whose review reads a mixed
# field. Of seeds 0-39, seeds 20 and 27 each end one reviewed task whose first
# submission is unqualified and a later one qualified; this is the first.
MIXED_REVIEW = dict(
    seed=20, replications=1, horizon_days=12.0, task_lambda=20.0, agent_gamma=60.0,
    duration_min=1.0, duration_mode=2.0, duration_max=4.0, quality_pass=40.0,
    sub_product_threshold=0.8, **dict.fromkeys(FOLLOW_THROUGH_FIELDS, 0.9),
)


@pytest.fixture(scope="module")
def pinned_counters():
    return CheckedSimulation(RunConfig(**PINNED)).run().counters


def test_a_drawn_config_reposts(pinned_counters):
    assert pinned_counters["reposted"] > 0


@pytest.mark.parametrize("counter", ["completed", "failed_review"])
def test_a_drawn_busy_market_reaches_review(pinned_counters, counter):
    assert pinned_counters[counter] > 0


def test_a_review_of_a_mixed_field_completes_on_a_later_qualified_submission():
    sim = CheckedSimulation(RunConfig(**MIXED_REVIEW))
    sim.run()
    reviewed = [t for t in sim.tasks.values() if t.state in (TaskState.COMPLETED, TaskState.FAILED)]
    mixed = [
        task for task in reviewed
        if not task.submissions[0].qualified and any(s.qualified for s in task.submissions[1:])
    ]
    assert [task.state for task in mixed] == [TaskState.COMPLETED]


def test_every_property_test_draws_one_fixed_set_of_examples():
    # the profile conftest loads: the same examples on every run, none replayed, no timing verdict
    assert (settings.default.derandomize, settings.default.database, settings.default.deadline) == (True, None, None)


@settings(max_examples=60)
@given(changes=busy_markets())
@example(changes=PINNED)
@example(changes=MIXED_REVIEW)
def test_a_busy_market_keeps_its_invariants_and_scores(changes):
    sim = CheckedSimulation(RunConfig(**changes))
    result = sim.run()
    assert_structural_invariants(sim, result)
    if not result.task_log:
        return
    with tempfile.TemporaryDirectory() as out:
        rows = logged_history(result, Path(out) / "history.csv")
    for scored in evaluate_forecast(rows, result_latest_predictions(result)).values():
        assert scored.mre is None or math.isfinite(scored.mre)
        assert all(p is None or 0.0 <= p <= 1.0 for p in (scored.pearson_p, scored.t_p))


@settings(max_examples=150)
@given(drawn=small_configs())
@example(drawn=(PINNED, None))
def test_a_config_is_refused_when_built_or_runs(drawn):
    changes, bad = drawn
    if bad is not None:
        # finiteness is checked before any range, so a non-finite key is the one named
        key, value = bad
        with pytest.raises(ConfigError, match=None if value == -1.0 else f"{key}: must be finite"):
            RunConfig(**changes)
        return
    try:
        cfg = RunConfig(**changes)
    except ConfigError:
        return
    sim = CheckedSimulation(cfg)
    result = sim.run()
    assert_structural_invariants(sim, result)
    assert all(0.0 <= value <= 1.0 for _tid, _day, _phase, value in result.predictions)
    assert (result.focal is not None) == cfg.focal_enabled
    with tempfile.TemporaryDirectory() as out:
        emit_outputs(cfg, [result], out)
        written = ingest_predictions(str(Path(out) / "task_predictions.csv"))
        # an empty history is refused by design, so only a logged task is read back
        if result.task_log:
            assert len(logged_history(result, Path(out) / "history.csv")) == len(result.task_log)
    assert written == result_latest_predictions(result)


def logged_history(result, path):
    """The replication's task log written as the fixture script writes it, read back by the ingester."""
    write_history(result, path, "a drawn replication")
    return ingest_history(str(path))

