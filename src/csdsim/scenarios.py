"""Policy scenarios and the FPS calibration fit.

Both scenario families inject one focal task into a live marketplace and
ask how often it fails across paired replications. Replication r of every
policy runs on seed ``base + r`` so policies face the same arrival history
and the same crowd, and differ only in the lever under study.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .domain import ModelInvariantError
from .engine import run_replication

OPENNESS_GATES = (0.60, 0.70, 0.80, 0.90)

# Admission policies for the crowd-diversity scenario, narrowest first.
DIVERSITY_POLICIES = (
    ("elite_only", ("yellow", "red")),
    ("mid_and_up", ("blue", "yellow", "red")),
    ("green_and_up", ("green", "blue", "yellow", "red")),
    ("all_welcome", None),
)


@dataclass(frozen=True)
class PolicyOutcome:
    """Aggregate focal-task outcome for one policy across replications."""

    label: str
    replications: int
    fail: int
    success: int
    failure_rate: float
    per_rep_failed: tuple
    mean_registrants: float
    mean_submissions: float
    reg_by_belt: Counter
    sub_by_belt: Counter
    mean_final_fpr: float
    mean_final_fps: float


@dataclass(frozen=True)
class ScenarioReport:
    name: str
    outcomes: tuple

    def outcome(self, label: str) -> PolicyOutcome:
        for out in self.outcomes:
            if out.label == label:
                return out
        raise KeyError(label)


def run_policy(cfg: RunConfig, label: str, keep_results: bool = False):
    """Run all replications of one policy config and aggregate the focal task.

    Returns (PolicyOutcome, results) where results is the per-replication
    list when requested (the first policy's run feeds the time-series files).
    """
    failed_flags = []
    registrants = []
    submissions = []
    fprs = []
    fpss = []
    reg_by_belt: Counter = Counter()
    sub_by_belt: Counter = Counter()
    results = []
    for r in range(cfg.replications):
        rep_cfg = dataclasses.replace(cfg, seed=cfg.seed + r)
        result = run_replication(rep_cfg)
        if result.focal is None:
            raise ModelInvariantError(
                f"policy {label}, replication {r}: focal task never resolved"
            )
        focal = result.focal
        failed_flags.append(bool(focal["failed"]))
        registrants.append(focal["registrants"])
        submissions.append(focal["submissions"])
        fprs.append(focal["final_fpr"])
        fpss.append(focal["final_fps"])
        reg_by_belt.update(focal["reg_by_belt"])
        sub_by_belt.update(focal["sub_by_belt"])
        if keep_results:
            results.append(result)
    n = len(failed_flags)
    fail = sum(failed_flags)
    outcome = PolicyOutcome(
        label=label,
        replications=n,
        fail=fail,
        success=n - fail,
        failure_rate=fail / n if n else 0.0,
        per_rep_failed=tuple(failed_flags),
        mean_registrants=sum(registrants) / n if n else 0.0,
        mean_submissions=sum(submissions) / n if n else 0.0,
        reg_by_belt=reg_by_belt,
        sub_by_belt=sub_by_belt,
        mean_final_fpr=sum(fprs) / n if n else 0.0,
        mean_final_fps=sum(fpss) / n if n else 0.0,
    )
    return outcome, results


def run_openness_scenario(base_cfg: RunConfig, gates=OPENNESS_GATES):
    """Vary platform openness; the focal task is posted at each gate level."""
    outcomes = []
    first_results = []
    for i, gate in enumerate(gates):
        cfg = dataclasses.replace(
            base_cfg,
            focal_enabled=True,
            openness_gate=gate,
            admitted_belts=None,
        )
        outcome, results = run_policy(cfg, f"openness_{gate:.2f}", keep_results=(i == 0))
        outcomes.append(outcome)
        if i == 0:
            first_results = results
    return ScenarioReport("openness", tuple(outcomes)), first_results


def run_diversity_scenario(base_cfg: RunConfig, policies=DIVERSITY_POLICIES):
    """Vary who may register platform-wide; the focal task rides along."""
    outcomes = []
    first_results = []
    for i, (label, belts) in enumerate(policies):
        cfg = dataclasses.replace(
            base_cfg,
            focal_enabled=True,
            openness_gate=None,
            admitted_belts=belts,
        )
        outcome, results = run_policy(cfg, label, keep_results=(i == 0))
        outcomes.append(outcome)
        if i == 0:
            first_results = results
    return ScenarioReport("diversity", tuple(outcomes)), first_results


def what_if_posting_day(base_cfg: RunConfig, day: float):
    """Compare posting the focal task now versus on another day."""
    baseline_cfg = dataclasses.replace(
        base_cfg, focal_enabled=True, openness_gate=None, admitted_belts=None
    )
    moved_cfg = dataclasses.replace(baseline_cfg, focal_arrival=day)
    baseline, results = run_policy(
        baseline_cfg, f"post_day_{baseline_cfg.focal_arrival:g}", keep_results=True
    )
    moved, _ = run_policy(moved_cfg, f"post_day_{day:g}")
    return ScenarioReport("whatif", (baseline, moved)), results


def calibrate_fps(cfg: RunConfig):
    """Fit the starvation-to-failure line on freshly simulated resolutions.

    Each resolved task contributes one point: the platform starvation ratio
    at its resolution against its failed flag. Returns (slope, intercept,
    points). Degenerate x collapses to a flat line at the failure rate.
    """
    xs = []
    ys = []
    for r in range(cfg.replications):
        rep_cfg = dataclasses.replace(cfg, seed=cfg.seed + r)
        result = run_replication(rep_cfg)
        for rec in result.task_log:
            if rec["outcome"] not in ("completed", "failed", "starved", "dropped"):
                continue
            xs.append(rec["tsr_at_resolution"])
            ys.append(1.0 if rec["outcome"] != "completed" else 0.0)
    if not xs:
        return 0.0, 0.0, 0
    x = np.asarray(xs)
    y = np.asarray(ys)
    if float(x.std()) == 0.0:
        return 0.0, float(y.mean()), len(xs)
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(intercept), len(xs)
