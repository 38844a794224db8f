"""Property test over small configs: each one is refused when built, or runs.

A config that ``RunConfig`` accepts must run one replication to completion,
keep criterion 5's structural invariants (the open-list cap and
register-before-submit at every step, not only at the end), keep each
repost's lineage and repost cap, register no permanently excluded agent,
keep every forecast a probability, write a ``task_predictions.csv`` that the
predictions ingester reads back to the same latest forecasts, and log tasks
that the history ingester accepts. Each task ends in the one terminal state
its registrants and submissions allow. A second profile, a small busy market,
reaches review: its drawn runs complete and fail tasks, and their logs and
forecasts score to a finite-or-None MRE and p-values in [0, 1].
Registration and submission rates whose mean gap falls below the clock's
resolution are refused when built; arrival rates stay small, because a huge
one is a memory limit rather than a config error.
"""

import csv
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import Phase, example, find, given, settings
from hypothesis import strategies as st

from csdsim import ConfigError, RunConfig, Simulation, TaskState, emit_outputs
from csdsim.agents import permanent_exclusion, preference_weight
from csdsim.config import FOLLOW_THROUGH_FIELDS
from csdsim.domain import DEFAULT_BELT_TABLE
from csdsim.history import (
    HISTORY_COLUMNS,
    evaluate_forecast,
    ingest_history,
    ingest_predictions,
    result_latest_predictions,
)
from csdsim.lifecycle import compute_tsr

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

# Cumulative daily counters, which never fall from one day to the next.
DAILY_COUNTERS = (
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


class CheckedSimulation(Simulation):
    """Asserts the engine's structural rules around every registration and submission.

    A registration also re-checks what the scan no longer does: the agent is
    not permanently excluded, and the task's stored appeal is its belt's weight.
    And each registrant's stored reliability, which the forecast reads, is its
    window's qualified fraction. Every daily event re-counts the busy agents
    that the engine keeps as registrations open and tasks resolve. Every repost
    keeps its root's lineage and stays within ``repost_max``. Every finalized
    task is in the terminal state that its registrants and submissions allow.
    After every pool change each pooled task sits at its ``_pool_pos`` index
    and is registrable, which the scan relies on; every submission and
    finalized task leaves ``current_tsr`` equal to the TSR of ``counters()``.
    """

    def _register(self, agent, task):
        assert permanent_exclusion(agent, self.admitted) is None
        assert task.appeal[agent.belt] == preference_weight(task.similarity, agent.belt, self.cfg)
        super()._register(agent, task)
        assert len(agent.open_list) <= self.cfg.open_list_cap
        for aid in task.registrants:
            window = self.agents[aid].recent_outcomes
            expected = sum(window) / len(window) if window else 0.0
            assert self.agents[aid].reliability == expected

    def _pool_add(self, task):
        super()._pool_add(task)
        self._check_pool()

    def _pool_remove(self, task):
        super()._pool_remove(task)
        self._check_pool()

    def _check_pool(self):
        assert len(self._pool_pos) == len(self.pool)
        for i, t in enumerate(self.pool):
            assert self._pool_pos[t.task_id] == i
            assert t.state in (TaskState.ARRIVED, TaskState.REGISTERED)

    def _check_tsr(self):
        c = self.counters()
        assert self.current_tsr() == compute_tsr(c["submitted"], c["registered"])

    def _submit(self, agent, task):
        assert agent.agent_id in task.registrants
        super()._submit(agent, task)
        self._check_tsr()

    def _on_daily(self, day):
        assert self.busy == sum(1 for agent in self.agents.values() if agent.open_list)
        super()._on_daily(day)

    def _finalize(self, task):
        assert task.state is terminal_state(task)
        new_id = len(self.tasks)
        super()._finalize(task)
        self._check_tsr()
        clone = self.tasks.get(new_id)
        if clone is not None:  # a repost
            assert clone.root_id == task.root_id
            assert clone.repost_count == task.repost_count + 1 <= self.cfg.repost_max


def terminal_state(task):
    """COMPLETED has a qualified submission, FAILED has submissions and none
    qualified, DROPPED has registrants and no submission, STARVED no registrant."""
    if not task.registrants:
        return TaskState.STARVED
    if not task.submissions:
        return TaskState.DROPPED
    return TaskState.COMPLETED if any(s.qualified for s in task.submissions) else TaskState.FAILED


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


# the first example found is enough, and shrinking a busy run costs seconds
FIRST_FOUND = settings(database=None, phases=[Phase.generate])


@pytest.mark.parametrize("counter", ["completed", "failed_review"])
def test_a_drawn_busy_market_reaches_review(counter):
    changes = find(
        busy_markets(),
        lambda changes: CheckedSimulation(RunConfig(**changes)).run().counters[counter] > 0,
        settings=FIRST_FOUND,
    )
    assert Simulation(RunConfig(**changes)).run().counters[counter] > 0


@settings(max_examples=60, deadline=None)
@given(changes=busy_markets())
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


def test_a_drawn_config_reposts():
    """Reposts, the only draws on ``attraction`` after setup, are among the
    steps the property test checks."""

    def reposts(drawn):
        changes, bad = drawn
        if bad is not None:
            return False
        try:
            cfg = RunConfig(**changes)
        except ConfigError:
            return False
        return CheckedSimulation(cfg).run().counters["reposted"] > 0

    changes, _bad = find(small_configs(), reposts, settings=settings(database=None))
    sim = CheckedSimulation(RunConfig(**changes))
    sim.run()
    assert any(task.repost_count for task in sim.tasks.values())


@settings(max_examples=150, deadline=None)
@given(drawn=small_configs())
# The default config at full size: the small drawn configs complete almost no
# task, so only here do registrants' windows hold qualified outcomes.
@example(drawn=({"seed": 1000, "replications": 1}, None))
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
    """The replication's task log written as a history CSV and read back by the ingester."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HISTORY_COLUMNS)
        writer.writerows([rec[c] for c in HISTORY_COLUMNS] for rec in result.task_log)
    return ingest_history(str(path))


def assert_structural_invariants(sim, result):
    """Criterion 5: the open-list cap, submissions within registrants, monotone counters."""
    assert all(len(agent.open_list) <= sim.cfg.open_list_cap for agent in sim.agents.values())
    for task in sim.tasks.values():
        assert {s.agent_id for s in task.submissions} <= set(task.registrants)
    previous = dict.fromkeys(DAILY_COUNTERS, 0)
    for row in result.daily:
        for key in DAILY_COUNTERS:
            assert row[key] >= previous[key], key
            previous[key] = row[key]
    c = result.counters
    assert c["completed"] + c["failed"] <= c["registered"]
