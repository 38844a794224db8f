"""Task state machine, belt table semantics, and skill masks."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from csdsim import Agent, ConfigError, ModelInvariantError, RunConfig, Task, TaskState, run_replication
from csdsim.agents import REASON_SKILL_MISMATCH, registration_preconditions
from csdsim.domain import (
    DEFAULT_BELT_TABLE,
    FAILURE_STATES,
    LEGAL_TRANSITIONS,
    SOURCE_STATE,
    TERMINAL_STATES,
    BeltRow,
    BeltTable,
    can_transition,
    load_belt_table,
    resolve_belt_table,
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
    # Simulation.counters() reads the moves into a state off its one edge;
    # a second source would make it miscount silently
    for state in TaskState:
        sources = [src for src, nxt in LEGAL_TRANSITIONS.items() if state in nxt]
        if state is TaskState.ARRIVED:
            assert sources == [] and state not in SOURCE_STATE
        else:
            assert sources == [SOURCE_STATE[state]], state.value


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


@given(
    src=st.sampled_from(ALL_STATES),
    dst=st.sampled_from(ALL_STATES),
)
def test_can_transition_matches_table(src, dst):
    assert can_transition(src, dst) == (dst in LEGAL_TRANSITIONS[src])


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


def test_from_rows_renormalizes_shares():
    table = BeltTable.from_rows(
        [("a", 100.0, 0.2, 0.5), ("b", float("inf"), 0.2, 0.5)]
    )
    assert abs(table.rows[0].share - 0.5) < 1e-12
    assert abs(sum(r.share for r in table.rows) - 1.0) < 1e-12


def test_from_rows_rejects_bounded_tail():
    with pytest.raises(ConfigError):
        BeltTable.from_rows([("a", 100.0, 1.0, 0.5)])


def test_from_rows_rejects_unordered_bounds():
    with pytest.raises(ConfigError):
        BeltTable.from_rows(
            [("a", 200.0, 0.5, 0.5), ("b", 100.0, 0.3, 0.5), ("c", float("inf"), 0.2, 0.5)]
        )


@pytest.mark.parametrize(
    "rows, message",
    [
        # the later of two equal bounds could never be assigned
        (
            [("gray", 900.0, 0.9, 0.25), ("green", 900.0, 0.05, 0.45), ("red", float("inf"), 0.05, 0.6)],
            "rows must be sorted by strictly ascending upper_bound",
        ),
        ([("gray", 900.0, 2.0, 0.25), ("red", float("inf"), -1.0, 0.6)], "shares must be non-negative"),
    ],
    ids=["bounds_equal", "share_negative"],
)
def test_from_rows_refuses_a_hidden_belt_or_a_negative_share(rows, message):
    with pytest.raises(ConfigError, match=f"^belts.csv: {message}$"):
        BeltTable.from_rows(rows, source="belts.csv")


def test_from_rows_keeps_a_zero_share():
    table = BeltTable.from_rows([("gray", 900.0, 0.0, 0.25), ("red", float("inf"), 2.0, 0.6)])
    assert [row.share for row in table.rows] == [0.0, 1.0]


def test_belt_row_holds_only_the_table_columns():
    # follow-through is a config key the engine reads, not a table column
    assert [f.name for f in dataclasses.fields(BeltRow)] == ["belt", "upper_bound", "share", "p_qualified"]


def test_resolve_belt_table_returns_the_active_table_itself(tmp_path):
    assert resolve_belt_table(RunConfig()) is DEFAULT_BELT_TABLE
    path = tmp_path / "belts.csv"
    path.write_text("belt,upper_bound,share,p_qualified\ngray,900,0.9,0.25\nred,,0.1,0.6\n")
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
