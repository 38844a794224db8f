"""Prediction formulas, review resolution, and repost semantics."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from csdsim import RunConfig, Task, TaskState
from csdsim.domain import Submission, failure_phase
from csdsim.lifecycle import (
    compute_fpr,
    compute_fps,
    compute_tcr,
    compute_tfr,
    compute_tsr,
    repost,
    resolve_review,
    sample_duration,
)


def reference_fpr(profile) -> float:
    """Deliberately different shape from the production code."""
    pairs = list(profile)
    total = sum(re for re, _ in pairs)
    weighted = sum(re * p for re, p in pairs)
    divisor = 3.0 if total > 2.0 else 2.0 if total > 1.0 else 1.0
    return min(1.0, weighted / divisor)  # a probability


def test_fpr_hand_example():
    # two registrants: reliabilities 1.5 and 1.0, odds 0.25 and 0.45
    value = compute_fpr([(1.5, 0.25), (1.0, 0.45)])
    assert value == pytest.approx(0.275, abs=1e-9)


@pytest.mark.parametrize(
    "profile,expected",
    [
        ([], 0.0),
        ([(0.5, 0.4)], 0.2),  # total 0.5: no discount
        ([(1.0, 0.5)], 0.5),  # total exactly 1: still no discount
        ([(1.0000001, 0.5)], 0.5 * 1.0000001 / 2.0),
        ([(2.0, 0.5)], 0.5),  # total exactly 2: half, not a third
        ([(2.0000001, 0.5)], 0.5 * 2.0000001 / 3.0),
        ([(1.0, 0.6)] * 6, 1.0),  # 3.6 / 3 = 1.2 would not be a probability
    ],
)
def test_fpr_branch_boundaries(profile, expected):
    assert compute_fpr(profile) == pytest.approx(expected, abs=1e-12)


def test_fpr_randomized_against_reference():
    rng = random.Random(11)
    for _ in range(1000):
        profile = [
            (rng.uniform(0, 1.5), rng.uniform(0, 1)) for _ in range(rng.randint(0, 8))
        ]
        assert compute_fpr(profile) == pytest.approx(
            reference_fpr(profile), abs=1e-9
        )


def test_tsr_canonical_and_inverted():
    assert compute_tsr(30, 120) == pytest.approx(0.75)
    assert compute_tsr(30, 120, invert=True) == pytest.approx(0.25)
    assert compute_tsr(0, 0) == 0.0
    assert compute_tsr(5, 0) == 0.0


def test_fps_is_linear():
    assert compute_fps(0.0, 0.0473, 0.014) == pytest.approx(0.014)
    assert compute_fps(1.0, 0.0473, 0.014) == pytest.approx(0.0613)
    assert compute_fps(0.5, 2.0, -1.0) == pytest.approx(0.0)


@given(
    registered=st.integers(min_value=1, max_value=10_000),
    completed_frac=st.floats(min_value=0, max_value=1),
)
def test_tcr_plus_tfr_is_one(registered, completed_frac):
    completed = int(registered * completed_frac)
    assert compute_tcr(completed, registered) + compute_tfr(
        completed, registered
    ) == pytest.approx(1.0, abs=1e-12)


def test_tcr_undefined_is_zero():
    assert compute_tcr(0, 0) == 0.0
    assert compute_tfr(0, 0) == 1.0


def test_sample_duration_bounds_and_mean():
    cfg = RunConfig()
    rng = random.Random(5)
    draws = [sample_duration(rng, cfg) for _ in range(4000)]
    assert min(draws) >= cfg.duration_min
    assert max(draws) <= cfg.duration_max
    mean = sum(draws) / len(draws)
    assert mean == pytest.approx((1 + 16 + 30) / 3, abs=0.4)


# ------------------------------------------------------------------ review


def make_task(**kw) -> Task:
    defaults = dict(
        task_id=1,
        arrival=0.0,
        duration=5.0,
        similarity=0.5,
        skills=0,
        attractable=True,
    )
    defaults.update(kw)
    return Task(**defaults)


def reviewed_task(subs) -> Task:
    task = make_task()
    task.state = TaskState.PEER_REVIEW
    task.registrants.extend(s.agent_id for s in subs)
    task.submissions.extend(subs)
    return task


def test_resolve_review_completes_with_winner():
    # (agent_id, qualified) rows: one qualified submission is enough,
    # wherever it sits among unqualified ones
    for rows in (
        [(1, True), (2, True)],
        [(1, True)],
        [(1, False), (2, True), (3, False)],
        [(1, False), (2, False), (3, True)],
    ):
        task = reviewed_task([Submission(a, q) for a, q in rows])
        assert resolve_review(task) is TaskState.COMPLETED, rows
        assert task.state is TaskState.PEER_REVIEW  # the caller moves the task


def test_resolve_review_fails_without_qualified():
    # an unqualified submission never completes a task, however many there are
    for rows in ([(1, False)], [(1, False), (2, False), (3, False)]):
        task = reviewed_task([Submission(a, q) for a, q in rows])
        assert resolve_review(task) is TaskState.FAILED, rows
        assert task.state is TaskState.PEER_REVIEW


@pytest.mark.parametrize(
    "state,subs,expected",
    [
        (TaskState.STARVED, 0, "registration"),
        (TaskState.DROPPED, 0, "registration"),
        (TaskState.FAILED, 2, "submission"),
        (TaskState.COMPLETED, 2, None),
        (TaskState.ARRIVED, 0, None),
    ],
)
def test_failure_phase_of(state, subs, expected):
    assert failure_phase(state.value, subs) == expected


# ------------------------------------------------------------------ repost


def test_repost_restarts_the_clock():
    original = make_task(task_id=7, arrival=3.0, repost_count=1, root_id=4)
    original.state = TaskState.DROPPED
    original.registrants.extend([1, 2])
    clone = repost(original, now=20.0, new_id=99, attractable=False)
    assert clone.task_id == 99
    assert clone.root_id == 4
    assert clone.arrival == 20.0
    assert clone.deadline == 25.0
    assert clone.repost_count == 2
    assert clone.state is TaskState.ARRIVED
    assert clone.registrants == [] and clone.submissions == []
    assert clone.attractable is False
    assert not clone.focal
    # content rides along unchanged
    assert (clone.duration, clone.similarity, clone.skills) == (
        original.duration,
        original.similarity,
        original.skills,
    )
