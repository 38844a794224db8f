"""Agent decision rules.

Every function here is pure: draws are passed in, never made, so each rule
can be pinned by a table of (inputs, expected) rows and reused verbatim by
the event loop.
"""

from __future__ import annotations

from typing import Optional

from .config import RunConfig
from .domain import Agent, Task, TaskState

# Reasons a registration attempt dies before any dice are rolled.
REASON_NOT_REGISTRABLE = "not_registrable"
REASON_ALREADY_REGISTERED = "already_registered"
REASON_OPEN_LIST_FULL = "open_list_full"
REASON_SKILL_MISMATCH = "skill_mismatch"
REASON_ZERO_RATING = "zero_rating"
REASON_BELT_EXCLUDED = "belt_excluded"

_ARRIVED, _REGISTERED = TaskState.ARRIVED, TaskState.REGISTERED  # the registrable states


def permanent_exclusion(agent: Agent, admitted: Optional[frozenset] = None) -> Optional[str]:
    """Return a reason code when the agent can never register, else None.

    These reasons depend on the agent and the admission policy alone, never
    on the task or the clock, so the event loop skips such an agent's
    registration cycle instead of scanning tasks it must turn down.
    """
    if admitted is not None and agent.belt not in admitted:
        return REASON_BELT_EXCLUDED
    if agent.rating <= 0.0:
        return REASON_ZERO_RATING
    return None


def registration_preconditions(
    agent: Agent, task: Task, open_list_cap: int, match_mode: str
) -> Optional[str]:
    """Reason code when the pair cannot register, else None; never a permanent exclusion."""
    state = task.state
    if state is not _ARRIVED and state is not _REGISTERED:
        return REASON_NOT_REGISTRABLE
    if len(agent.open_list) >= open_list_cap:
        return REASON_OPEN_LIST_FULL
    need = task.skills  # mask 0 states no skills: every skill set is welcome
    if need and (agent.skills & need != need if match_mode == "all" else not agent.skills & need):
        return REASON_SKILL_MISMATCH
    if task.task_id in agent.open_list:
        return REASON_ALREADY_REGISTERED
    return None


def decide_register(
    registrant_count: int,
    draw: float,
    crowd_draw: float,
    threshold: float,
    competition_cap: int,
    crowded_p: float,
) -> bool:
    """Commit-or-balk rule at the registration desk.

    Under the cap the agent commits only on a high interest draw. At or over
    the cap interest no longer matters; a minority keeps piling in anyway.
    """
    if registrant_count < competition_cap:
        return draw >= threshold
    return crowd_draw < crowded_p


def preference_weight(similarity: float, belt: str, cfg: RunConfig) -> float:
    """How appealing a task looks given its similarity to past postings.

    Most of the crowd hunts novelty, so appeal falls steeply as similarity
    rises. Newcomer belts instead regain interest in highly familiar work
    past the pivot: repetition is their entry ticket.
    """
    novelty = (1.0 - similarity) ** cfg.novelty_exponent
    if belt in cfg.familiarity_belts:
        familiar = cfg.familiarity_gain * (similarity - cfg.familiarity_pivot)
        return max(0.0, novelty, familiar)
    return max(0.0, novelty)


def registration_engagement(
    similarity: float,
    mean_other_similarity: float,
    appeal: float,
    concentration: float,
    cfg: RunConfig,
) -> float:
    """Probability that a browsing agent stops on this task, given its belt's ``appeal``."""
    crowding = 1.0 - cfg.pool_crowding_coeff * similarity * mean_other_similarity
    p = appeal * (crowding if crowding > 0.0 else 0.0) * cfg.engagement_scale * concentration
    return p if p < 1.0 else 1.0  # the bits of max(0.0, c) and min(1.0, p), NaN and -0.0 too


def decide_submit(draw: float, p_qualified: float, threshold: float) -> bool:
    """Follow-through rule for turning a registration into a submission.

    The product gate makes low-odds belts submit more readily: with little
    reputation at stake they fire away, while strong belts hold work back
    unless the draw is unusually favourable.
    """
    return draw * p_qualified < threshold


def submission_crowd_suppression(registrant_count: int, cfg: RunConfig) -> float:
    """Odds multiplier once a task's field grows past the competition cap."""
    excess = registrant_count - cfg.competition_cap
    return 1.0 / (1.0 + cfg.crowd_penalty_coeff * (excess if excess > 0 else 0))


def score_submission(draw: float, quality_pass: float) -> bool:
    """Review verdict: a unit draw read as a 0..100 score qualifies at ``quality_pass``.

    Review quality is not belt dependent; belts only shape who submits.
    """
    return draw * 100.0 >= quality_pass


def update_reliability(agent: Agent, qualified: bool) -> None:
    """Record one registration outcome; as the window's only writer, refresh ``reliability``."""
    window = agent.recent_outcomes
    window.append(1.0 if qualified else 0.0)
    agent.reliability = sum(window) / len(window)
