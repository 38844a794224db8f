"""Agent decision rules: registration, submission, scoring, reliability."""

import dataclasses
import itertools
import math
import random
import struct
from collections import deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

from csdsim import Agent, RunConfig, Task, TaskState
from csdsim.agents import (
    REASON_ALREADY_REGISTERED,
    REASON_BELT_EXCLUDED,
    REASON_NOT_REGISTRABLE,
    REASON_OPEN_LIST_FULL,
    REASON_SKILL_MISMATCH,
    REASON_ZERO_RATING,
    decide_register,
    decide_submit,
    permanent_exclusion,
    preference_weight,
    registration_engagement,
    registration_preconditions,
    score_submission,
    submission_crowd_suppression,
    update_reliability,
)

CFG = RunConfig()
REGISTER_KNOBS = dict(
    threshold=CFG.reg_threshold,
    competition_cap=CFG.competition_cap,
    crowded_p=CFG.crowded_bernoulli_p,
)


def make_agent(**kw) -> Agent:
    defaults = dict(
        agent_id=1,
        rating=500.0,
        belt="gray",
        skills=0b1,
        recent_outcomes=[],
    )
    defaults.update(kw)
    return Agent(**defaults)


def make_task(**kw) -> Task:
    defaults = dict(
        task_id=10,
        arrival=0.0,
        duration=5.0,
        similarity=0.5,
        skills=0b1,
        attractable=True,
    )
    defaults.update(kw)
    return Task(**defaults)


# ------------------------------------------------------------- registration


@pytest.mark.parametrize(
    "count,draw,crowd_draw,expected",
    [
        (0, 0.95, 1.0, True),
        (17, 0.80, 0.99, True),  # threshold is inclusive
        (17, 0.79, 0.00, False),
        (18, 0.00, 0.29, True),  # over the cap only the crowd draw matters
        (18, 0.99, 0.30, False),
        (30, 0.99, 0.10, True),
    ],
)
def test_decide_register_pinned_rows(count, draw, crowd_draw, expected):
    assert decide_register(count, draw, crowd_draw, **REGISTER_KNOBS) is expected
    # the engine passes the knobs by position
    assert decide_register(count, draw, crowd_draw, *REGISTER_KNOBS.values()) is expected


@given(
    count=st.integers(min_value=0, max_value=17),
    draw=st.floats(min_value=0, max_value=1),
    crowd_a=st.floats(min_value=0, max_value=1),
    crowd_b=st.floats(min_value=0, max_value=1),
)
def test_under_cap_ignores_crowd_draw(count, draw, crowd_a, crowd_b):
    assert decide_register(count, draw, crowd_a, **REGISTER_KNOBS) == decide_register(
        count, draw, crowd_b, **REGISTER_KNOBS
    )


@given(
    count=st.integers(min_value=18, max_value=200),
    draw_a=st.floats(min_value=0, max_value=1),
    draw_b=st.floats(min_value=0, max_value=1),
    crowd=st.floats(min_value=0, max_value=1),
)
def test_over_cap_ignores_interest_draw(count, draw_a, draw_b, crowd):
    assert decide_register(count, draw_a, crowd, **REGISTER_KNOBS) == decide_register(
        count, draw_b, crowd, **REGISTER_KNOBS
    )


def check(agent, task, cap=CFG.open_list_cap, mode=CFG.match_mode):
    return registration_preconditions(agent, task, cap, mode)


def test_registration_preconditions_reason_codes():
    agent = make_agent()
    task = make_task()
    assert check(agent, task) is None

    done = make_task()
    done.state = TaskState.COMPLETED
    assert check(agent, done) == REASON_NOT_REGISTRABLE

    full = make_agent(open_list=[1, 2, 3, 4, 5])
    assert check(full, task) == REASON_OPEN_LIST_FULL
    assert check(full, task, cap=6) is None

    # permanent exclusion is the engine's check at agent start, not the scan's
    assert check(make_agent(rating=0.0), task) is None

    mismatched = make_agent(skills=0b10)
    assert check(mismatched, task) == REASON_SKILL_MISMATCH
    partial = make_agent(skills=0b01)
    assert check(partial, make_task(skills=0b11)) is None
    assert check(partial, make_task(skills=0b11), mode="all") == REASON_SKILL_MISMATCH

    repeat = make_agent(open_list=[task.task_id])
    assert check(repeat, task) == REASON_ALREADY_REGISTERED


def test_registration_preconditions_check_order():
    """not_registrable, then open_list_full, then skill_mismatch, then already_registered."""
    task = make_task()
    repeat_full_mismatched = make_agent(skills=0b10, open_list=[task.task_id, 1, 2, 3, 4])
    assert check(repeat_full_mismatched, task) == REASON_OPEN_LIST_FULL
    done = make_task()
    done.state = TaskState.SUBMITTED
    assert check(repeat_full_mismatched, done) == REASON_NOT_REGISTRABLE
    repeat_mismatched = make_agent(skills=0b10, open_list=[task.task_id])
    assert check(repeat_mismatched, task) == REASON_SKILL_MISMATCH


@pytest.mark.parametrize(
    "belt,rating,admitted,expected",
    [
        ("gray", 500.0, None, None),
        ("gray", 500.0, frozenset({"yellow", "red"}), REASON_BELT_EXCLUDED),
        ("red", 2500.0, frozenset({"yellow", "red"}), None),
        ("gray", 0.0, None, REASON_ZERO_RATING),
        ("red", 0.0, frozenset({"yellow", "red"}), REASON_ZERO_RATING),
        ("gray", 0.0, frozenset({"red"}), REASON_BELT_EXCLUDED),  # belt checked first
    ],
)
def test_permanent_exclusion_rows(belt, rating, admitted, expected):
    agent = make_agent(belt=belt, rating=rating)
    assert permanent_exclusion(agent, admitted) == expected


def test_preference_weight_novelty_branch():
    # similarity 0.3 and no rebound belt: plain novelty curve
    expected = (1.0 - 0.3) ** CFG.novelty_exponent
    assert preference_weight(0.3, "blue", CFG) == pytest.approx(expected, abs=1e-12)


def test_preference_weight_familiarity_rebound():
    # at high similarity the rebound term dominates for newcomer belts only
    s = 0.98
    novelty = (1.0 - s) ** CFG.novelty_exponent
    rebound = CFG.familiarity_gain * (s - CFG.familiarity_pivot)
    assert rebound > novelty
    assert preference_weight(s, "gray", CFG) == pytest.approx(rebound, abs=1e-12)
    assert preference_weight(s, "green", CFG) == pytest.approx(rebound, abs=1e-12)
    assert preference_weight(s, "blue", CFG) == pytest.approx(novelty, abs=1e-12)


def test_preference_weight_rebound_inactive_below_pivot():
    s = CFG.familiarity_pivot - 0.1
    assert preference_weight(s, "gray", CFG) == pytest.approx(
        (1.0 - s) ** CFG.novelty_exponent, abs=1e-12
    )


@given(
    similarity=st.floats(min_value=0, max_value=1),
    other=st.floats(min_value=0, max_value=1),
    belt=st.sampled_from(["gray", "green", "blue", "yellow", "red"]),
    concentration=st.floats(min_value=1, max_value=25),
)
def test_engagement_is_a_probability(similarity, other, belt, concentration):
    appeal = preference_weight(similarity, belt, CFG)
    p = registration_engagement(similarity, other, appeal, concentration, CFG)
    assert 0.0 <= p <= 1.0


def test_pool_crowding_factor_floor():
    """Engagement's lookalike-pool discount is 1 - coeff * similarity * mean_other, floored at 0."""
    appeal = 0.1  # small enough that the 1.0 cap stays out of the way
    plain = appeal * CFG.engagement_scale
    assert registration_engagement(1.0, 1.0, appeal, 1.0, CFG) == pytest.approx(0.5 * plain)
    assert registration_engagement(0.0, 1.0, appeal, 1.0, CFG) == pytest.approx(plain)
    crowded = dataclasses.replace(CFG, pool_crowding_coeff=2.0)  # would drive the factor to -1
    assert registration_engagement(1.0, 1.0, appeal, 1.0, crowded) == 0.0


# --------------------------------------------------------------- submission


@pytest.mark.parametrize(
    "p_belt,draw,expected",
    [
        (0.25, 0.10, True),  # gray: 0.025 < 0.051
        (0.60, 0.10, False),  # red: 0.060 is not
        (0.45, 0.10, True),  # green: 0.045
        (0.25, 0.204, False),  # 0.051 exactly: the gate is strict
        (0.25, 0.2039, True),
    ],
)
def test_decide_submit_pinned_rows(p_belt, draw, expected):
    assert decide_submit(draw, p_belt, CFG.sub_product_threshold) is expected


@given(
    draw=st.floats(min_value=0, max_value=1),
    p=st.floats(min_value=0.01, max_value=1),
)
def test_decide_submit_matches_product_rule(draw, p):
    assert decide_submit(draw, p, 0.051) == (draw * p < 0.051)


def test_submission_crowd_suppression_disabled_by_default():
    for n in (0, 18, 50, 500):
        assert submission_crowd_suppression(n, CFG) == 1.0


def test_submission_crowd_suppression_when_enabled():
    cfg = dataclasses.replace(CFG, crowd_penalty_coeff=0.5)
    assert submission_crowd_suppression(18, cfg) == 1.0
    assert submission_crowd_suppression(20, cfg) == pytest.approx(0.5)
    assert submission_crowd_suppression(17, cfg) == 1.0


# Floats at the clamps' edges: NaN, signed zeros and infinities, 1.0, and the
# nearest neighbours of 0 and 1.
EDGE_FLOATS = (
    math.nan, 0.0, -0.0, math.inf, -math.inf, 1.0, 0.5,
    math.nextafter(0.0, 1.0), math.nextafter(0.0, -1.0),
    math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0),
)


def reference_engagement(similarity, mean_other_similarity, appeal, concentration, cfg):
    """``registration_engagement`` with the builtin clamps."""
    crowding = max(0.0, 1.0 - cfg.pool_crowding_coeff * similarity * mean_other_similarity)
    return min(1.0, appeal * crowding * cfg.engagement_scale * concentration)


def reference_suppression(registrant_count, cfg):
    """``submission_crowd_suppression`` with the builtin clamp."""
    excess = max(0, registrant_count - cfg.competition_cap)
    return 1.0 / (1.0 + cfg.crowd_penalty_coeff * excess)


def same_bits(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return struct.pack("<d", a) == struct.pack("<d", b)


@pytest.mark.parametrize("coeff", [0.0, 0.5, 2.0])  # 2.0 drives the crowding factor negative
def test_engagement_clamps_give_the_builtin_bits(coeff):
    cfg = dataclasses.replace(CFG, pool_crowding_coeff=coeff)
    for args in itertools.product(EDGE_FLOATS, repeat=4):
        got = registration_engagement(*args, cfg)
        assert same_bits(got, reference_engagement(*args, cfg)), args


@pytest.mark.parametrize("coeff", [0.0, 0.5])
def test_crowd_suppression_clamp_gives_the_builtin_bits(coeff):
    cfg = dataclasses.replace(CFG, crowd_penalty_coeff=coeff)
    cap = cfg.competition_cap
    for count in (-5, 0, cap - 1, cap, cap + 1, 10**6):  # negative excess below the cap
        assert same_bits(submission_crowd_suppression(count, cfg), reference_suppression(count, cfg)), count


def test_score_submission_boundary():
    assert score_submission(0.75, 75.0) is True
    assert score_submission(0.7499, 75.0) is False
    assert score_submission(0.0, 75.0) is False
    assert score_submission(1.0, 75.0) is True


# -------------------------------------------------------------- reliability


def test_reliability_window_evicts_oldest():
    agent = make_agent()
    for _ in range(15):
        update_reliability(agent, False, 15)
    assert agent.reliability == 0.0
    for _ in range(5):
        update_reliability(agent, True, 15)
    # window now holds 10 misses and 5 hits
    assert agent.reliability == pytest.approx(5 / 15)
    assert len(agent.recent_outcomes) == 15


@pytest.mark.parametrize("window", range(1, 21))
def test_reliability_window_matches_a_bounded_deque(window):
    # the list holds, and sums in the same order, what deque(maxlen=window) holds
    rng = random.Random(window)
    agent, reference = make_agent(), deque(maxlen=window)
    for _ in range(3 * window):
        qualified = rng.random() < 0.5
        update_reliability(agent, qualified, window)
        reference.append(1.0 if qualified else 0.0)
        assert agent.recent_outcomes == list(reference)
        expected = sum(reference) / len(reference)
        assert struct.pack("<d", agent.reliability) == struct.pack("<d", expected)


def test_reliability_empty_is_zero():
    assert make_agent().reliability == 0.0
