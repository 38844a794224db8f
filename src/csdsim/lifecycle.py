"""Task lifecycle arithmetic: risk scores, review resolution, reposting.

The two forecast signals live here. FPR scores one task from who has
registered so far; FPS scores the platform-wide starvation trend and is
applied to every task that has reached the submission phase.
"""

from __future__ import annotations

from .config import RunConfig
from .domain import Task, TaskState


def compute_fpr(registrant_profile) -> float:
    """Failure prediction from the registrant roster.

    ``registrant_profile`` is an iterable of (reliability, p_qualified)
    pairs. The weighted mass is discounted harder as total reliability
    grows, since a deep roster has slack, and the result is capped at 1.
    """
    total_rel = 0.0
    weighted = 0.0
    for reliability, p_qualified in registrant_profile:
        total_rel += reliability
        weighted += reliability * p_qualified
    if total_rel > 2.0:
        weighted /= 3.0
    elif total_rel > 1.0:
        weighted /= 2.0
    return min(1.0, weighted)


def compute_tsr(submitted_total: int, registered_total: int, invert: bool = False) -> float:
    """Task starvation ratio: share of registered tasks still without work.

    With ``invert`` the complementary share (tasks that did get work) is
    returned instead; some deployments publish it that way round.
    """
    if registered_total <= 0:
        return 0.0
    fed = submitted_total / registered_total
    return fed if invert else 1.0 - fed


def compute_fps(tsr: float, slope: float, intercept: float) -> float:
    """Linear starvation-to-failure calibration applied platform wide."""
    return slope * tsr + intercept


def compute_tcr(completed_total: int, registered_total: int) -> float:
    if registered_total <= 0:
        return 0.0
    return completed_total / registered_total


def compute_tfr(completed_total: int, registered_total: int) -> float:
    return 1.0 - compute_tcr(completed_total, registered_total)


def sample_duration(rng, cfg: RunConfig) -> float:
    # random.triangular takes (low, high, mode), not (low, mode, high)
    return rng.triangular(cfg.duration_min, cfg.duration_max, cfg.duration_mode)


def resolve_review(task: Task) -> TaskState:
    """Score the review queue: COMPLETED if any submission qualified, else FAILED.

    Leaves the task as it is; the caller moves it, which counts the outcome,
    and updates reliability.
    """
    if any(s.qualified for s in task.submissions):
        return TaskState.COMPLETED
    return TaskState.FAILED


def repost(task: Task, now: float, new_id: int, attractable: bool) -> Task:
    """Clone a dead task as a fresh posting with the clock restarted."""
    return Task(
        task_id=new_id,
        arrival=now,
        duration=task.duration,
        similarity=task.similarity,
        skills=task.skills,
        attractable=attractable,
        repost_count=task.repost_count + 1,
        root_id=task.root_id,
    )
