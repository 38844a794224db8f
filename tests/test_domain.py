"""Task state machine, belt table semantics, skill masks and float sums."""

import ast
import dataclasses
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from csdsim import Agent, ConfigError, ModelInvariantError, RunConfig, Task, TaskState, run_replication
from csdsim.agents import REASON_SKILL_MISMATCH, registration_preconditions
from csdsim.domain import (
    DEFAULT_BELT_TABLE,
    FAILURE_STATES,
    LEGAL_TRANSITIONS,
    TERMINAL_STATES,
    BeltRow,
    BeltTable,
    load_belt_table,
    ordered_sum,
    reported_failures,
    resolve_belt_table,
    resolved_count,
    resolved_shares,
)

ALL_STATES = list(TaskState)

EXPECTED_EDGES = {
    (TaskState.ARRIVED, TaskState.REGISTERED),
    (TaskState.ARRIVED, TaskState.STARVED),
    (TaskState.REGISTERED, TaskState.SUBMITTED),
    (TaskState.REGISTERED, TaskState.DROPPED),
    (TaskState.SUBMITTED, TaskState.PEER_REVIEW),
    (TaskState.PEER_REVIEW, TaskState.COMPLETED),
    (TaskState.PEER_REVIEW, TaskState.FAILED),
}


def make_task(state=TaskState.ARRIVED) -> Task:
    task = Task(task_id=1, arrival=0.0, duration=5.0, similarity=0.5, skills=0, attractable=True)
    task.state = state
    return task


def test_exactly_seven_legal_edges():
    edges = {(src, dst) for src, dsts in LEGAL_TRANSITIONS.items() for dst in dsts}
    assert edges == EXPECTED_EDGES
    assert len(edges) == 7


def test_every_state_but_arrived_has_one_legal_source():
    # Simulation.counters() counts the moves into a state as the tasks that took
    # its one edge; a second source would make it count two edges as one
    for state in TaskState:
        sources = [src for src, nxt in LEGAL_TRANSITIONS.items() if state in nxt]
        expected = 0 if state is TaskState.ARRIVED else 1
        assert len(sources) == expected, state.value


def test_terminal_states_have_no_exits():
    assert TERMINAL_STATES == frozenset(
        {TaskState.COMPLETED, TaskState.FAILED, TaskState.STARVED, TaskState.DROPPED}
    )
    for state in TERMINAL_STATES:
        assert LEGAL_TRANSITIONS[state] == frozenset()


def test_failure_states():
    assert FAILURE_STATES == frozenset(
        {TaskState.FAILED, TaskState.STARVED, TaskState.DROPPED}
    )


@pytest.mark.parametrize("src", ALL_STATES)
@pytest.mark.parametrize("dst", ALL_STATES)
def test_transition_agrees_with_edge_set(src, dst):
    task = make_task(src)
    if (src, dst) in EXPECTED_EDGES:
        task.transition(dst)
        assert task.state is dst
    else:
        with pytest.raises(ModelInvariantError):
            task.transition(dst)
        assert task.state is src  # a refused move must not corrupt the task


def test_deadline_is_arrival_plus_duration():
    task = Task(task_id=3, arrival=2.5, duration=10.0, similarity=0.5, skills=0, attractable=True)
    assert task.deadline == 12.5


def test_root_id_defaults_to_task_id():
    task = make_task()
    assert task.root_id == task.task_id
    clone = Task(
        task_id=9, arrival=1.0, duration=2.0, similarity=0.4, skills=0, attractable=True, root_id=1
    )
    assert clone.root_id == 1


# ------------------------------------------------------------------ belts


@pytest.mark.parametrize(
    "rating,belt",
    [
        (0.0, "gray"),
        (899.99, "gray"),
        (900.0, "gray"),  # bounds are inclusive
        (900.01, "green"),
        (1200.0, "green"),
        (1500.0, "blue"),
        (2200.0, "yellow"),
        (2200.01, "red"),
        (3000.0, "red"),
    ],
)
def test_belt_of_boundaries(rating, belt):
    assert DEFAULT_BELT_TABLE.belt_of(rating) == belt


def test_default_p_qualified():
    expected = {"gray": 0.25, "green": 0.45, "blue": 0.39, "yellow": 0.60, "red": 0.60}
    assert {row.belt: row.p_qualified for row in DEFAULT_BELT_TABLE.rows} == expected


@pytest.mark.parametrize(
    "rows, message",
    [
        ([("a", 100.0, 0.5)], "last row must have an unbounded rating"),
        (
            [("a", 200.0, 0.5), ("b", 100.0, 0.5), ("c", float("inf"), 0.5)],
            "rows must be sorted by strictly ascending upper_bound",
        ),
        # the later of two equal bounds could never be assigned
        (
            [("gray", 900.0, 0.25), ("green", 900.0, 0.45), ("red", float("inf"), 0.6)],
            "rows must be sorted by strictly ascending upper_bound",
        ),
    ],
    ids=["tail_bounded", "bounds_descending", "bounds_equal"],
)
def test_from_rows_refuses_a_hidden_belt(rows, message):
    with pytest.raises(ConfigError, match=f"^belts.csv: {message}$"):
        BeltTable.from_rows(rows, source="belts.csv")


def test_belt_row_holds_only_the_table_columns():
    # follow-through is a config key the engine reads, and a belt's population
    # share follows from the rating distribution: neither is a table column
    assert [f.name for f in dataclasses.fields(BeltRow)] == ["belt", "upper_bound", "p_qualified"]


def test_resolve_belt_table_returns_the_active_table_itself(tmp_path):
    assert resolve_belt_table(RunConfig()) is DEFAULT_BELT_TABLE
    path = tmp_path / "belts.csv"
    path.write_text("belt,upper_bound,p_qualified\ngray,900,0.25\nred,,0.6\n")
    cfg = RunConfig(belt_table_path=str(path), familiarity_belts=("gray",))
    # the table depends only on its path, whatever the follow-through keys say
    other = dataclasses.replace(cfg, submit_follow_through_gray=0.9, submit_follow_through_red=0.1)
    assert resolve_belt_table(cfg) == resolve_belt_table(other) == load_belt_table(str(path))


# ------------------------------------------------------------------ skills


def skill_check(agent_mask, task_mask, mode):
    """``registration_preconditions`` on a pair that only the skill rule can turn down."""
    agent = Agent(agent_id=1, rating=500.0, belt="gray", skills=agent_mask, recent_outcomes=[])
    task = Task(task_id=1, arrival=0.0, duration=5.0, similarity=0.5, skills=task_mask, attractable=True)
    return registration_preconditions(agent, task, 5, mode)


@pytest.mark.parametrize(
    "agent,task,mode,expected",
    [
        (0b011, 0b001, "any", True),
        (0b011, 0b100, "any", False),
        (0b011, 0b011, "all", True),
        (0b011, 0b111, "all", False),
        (0b000, 0b000, "any", True),  # a task with no stated skills takes anyone
        (0b000, 0b000, "all", True),
        (0b000, 0b001, "any", False),
    ],
)
def test_skills_match(agent, task, mode, expected):
    assert skill_check(agent, task, mode) == (None if expected else REASON_SKILL_MISMATCH)


@given(
    agent=st.integers(min_value=0, max_value=2**10 - 1),
    task=st.integers(min_value=0, max_value=2**10 - 1),
)
def test_skills_match_any_iff_overlap(agent, task):
    for mode, matches in (("any", task == 0 or bool(agent & task)), ("all", task & agent == task)):
        assert skill_check(agent, task, mode) == (None if matches else REASON_SKILL_MISMATCH)


def test_platform_state_snapshot_keys():
    # an empty marketplace: no task and no agent ever arrives
    empty = dataclasses.replace(RunConfig(), replications=1, task_lambda=0.0, agent_gamma=0.0)
    snap = run_replication(empty).counters
    assert tuple(snap) == (
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
    assert all(type(v) is int and v == 0 for v in snap.values())


def outcome_counters(completed, failed_review, dropped, starved) -> dict:
    """A ``counters`` dict with these terminal tallies, ``failed`` as the engine forms it."""
    return {
        "completed": completed,
        "failed": dropped + failed_review,
        "starved": starved,
        "dropped": dropped,
        "failed_review": failed_review,
    }


def test_resolved_shares_of_nothing_resolved_are_zero():
    counters = outcome_counters(0, 0, 0, 0)
    assert resolved_count(counters) == 0
    assert resolved_shares(counters) == (0.0, 0.0, 0.0)


@given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=4, max_size=4))
def test_resolved_shares_partition_the_resolved_tasks(tallies):
    completed, failed_review, dropped, starved = tallies
    counters = outcome_counters(*tallies)
    resolved = resolved_count(counters)
    assert resolved == completed + failed_review + dropped + starved
    assert reported_failures(counters) == failed_review + dropped + starved
    shares = resolved_shares(counters)
    if not resolved:
        assert shares == (0.0, 0.0, 0.0)
        return
    assert shares == (completed / resolved, failed_review / resolved, (dropped + starved) / resolved)
    assert sum(shares) == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------------- float sums

SRC = Path(__file__).resolve().parents[1] / "src" / "csdsim"

# Each ``sum(`` call left in src/, by file and source text, with why it is exact.
EXACT_SUMS = {
    ("outputs.py", "sum(counter.values())"): "Counter of ints",
    ("outputs.py", "sum(i * i for i in ints)"): "ints",
    ("outputs.py", "sum(ints)"): "ints",
    ("scenarios.py", "sum(failed_flags)"): "bools",
    ("scenarios.py", 'sum((focal["reg_by_belt"] for focal in focals), Counter())'): "Counters",
    ("scenarios.py", 'sum((focal["sub_by_belt"] for focal in focals), Counter())'): "Counters",
    ("scenarios.py", "sum(reported_failures(r.counters) for r in results)"): "ints",
    ("scenarios.py", 'sum(r.counters["completed"] for r in results)'): "ints",
    ("scenarios.py", "sum(r.reg_by_belt.values())"): "Counter of ints",
    ("scenarios.py", "sum(r.sub_by_belt.values())"): "Counter of ints",
    ("scenarios.py", "sum((r.reg_by_belt for r in results), Counter())"): "Counters",
    ("scenarios.py", "sum((r.sub_by_belt for r in results), Counter())"): "Counters",
    # at most reliability_window 0.0/1.0 values: every partial sum is a small integer
    ("agents.py", "sum(outcomes)"): "0.0/1.0 outcomes",
}


def test_ordered_sum_adds_left_to_right():
    assert ordered_sum([]) == 0.0 and type(ordered_sum([])) is float  # written "0.0", as 12.0 is
    assert ordered_sum([0.1] * 10) == 0.9999999999999999  # 1.0 from 3.12's sum()
    assert ordered_sum([1e16, 1.0, -1e16]) == 0.0  # 1.0 when compensated
    assert ordered_sum(iter([1, 2, 3])) == 6.0


def test_no_bare_sum_outside_the_exact_allowlist():
    """Float sums go through ``ordered_sum``: ``sum()`` rounds differently from 3.12 on."""
    found = Counter()
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum":
                found[path.name, ast.get_source_segment(text, node)] += 1
    assert set(found) == set(EXACT_SUMS)
    assert all(count == 1 for count in found.values())
