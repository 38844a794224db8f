"""Policy scenarios and the FPS calibration fit.

Every scenario is a table of ``(label, config)`` policies run by one sweep.
The scenarios inject one focal task into a live marketplace and ask how
often it fails across paired replications. Replication r of every policy
runs on seed ``base + r`` so policies face the same arrival history and the
same crowd, and differ only in the lever under study. A sweep runs
replication r of every policy before r + 1, so policies that differ only in
openness, admission or posting day reuse the seed's world instead of drawing
it again.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

from .config import ConfigError, RunConfig
from .domain import DEFAULT_BELT_TABLE, FAILURE_OUTCOMES, TERMINAL_STATES, ModelInvariantError
from .domain import REGISTRATION_PHASE, resolve_belt_table
from .engine import run_replication
from .history import result_latest_predictions
from .lifecycle import compute_fps, compute_tsr

OPENNESS_GATES = (0.60, 0.70, 0.80, 0.90)

# Admission policies for the crowd-diversity scenario, narrowest first: the
# belts each admits, by rank in the belt table; None admits everyone.
DIVERSITY_RANKS = (
    ("elite_only", slice(-2, None)),  # the top two belts
    ("mid_and_up", slice(-3, None)),  # the top three
    ("green_and_up", slice(1, None)),  # every belt above the lowest
    ("all_welcome", None),
)


def diversity_policies(table) -> tuple:
    """``(label, admitted_belts)`` for each rank policy, on ``table``'s belts."""
    names = table.names()
    return tuple((label, names[ranks] if ranks else None) for label, ranks in DIVERSITY_RANKS)


DIVERSITY_POLICIES = diversity_policies(DEFAULT_BELT_TABLE)


@dataclass(frozen=True)
class PolicyOutcome:
    """One scenario summary row: a policy, or the baseline of a plain run.

    A policy counts ``fail`` and ``success`` by focal task, one per
    replication; the baseline counts resolved tasks over all replications.
    """

    label: str
    replications: int
    fail: int
    success: int
    per_rep_failed: tuple
    mean_registrants: float
    mean_submissions: float
    reg_by_belt: Counter
    sub_by_belt: Counter
    mean_final_fpr: float
    mean_final_fps: float

    @property
    def failure_rate(self) -> float:
        resolved = self.fail + self.success
        return self.fail / resolved if resolved else 0.0


@dataclass(frozen=True)
class ScenarioReport:
    name: str
    outcomes: tuple


def run_replications(cfg: RunConfig):
    """Yield the results of ``cfg``'s replications in order.

    Replication r runs on seed ``cfg.seed`` plus r, so every caller that runs
    the same config with the same base seed sees the same replications.
    """
    for r in range(cfg.replications):
        yield run_replication(replace(cfg, seed=cfg.seed + r))


def mean(values) -> float:
    """Arithmetic mean, 0.0 for no values; summed left to right like ``sum``."""
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _policy_outcome(label: str, focals: list) -> PolicyOutcome:
    failed_flags = tuple(bool(focal["failed"]) for focal in focals)
    fail = sum(failed_flags)
    return PolicyOutcome(
        label=label,
        replications=len(focals),
        fail=fail,
        success=len(focals) - fail,
        per_rep_failed=failed_flags,
        mean_registrants=mean(focal["registrants"] for focal in focals),
        mean_submissions=mean(focal["submissions"] for focal in focals),
        reg_by_belt=sum((focal["reg_by_belt"] for focal in focals), Counter()),
        sub_by_belt=sum((focal["sub_by_belt"] for focal in focals), Counter()),
        mean_final_fpr=mean(focal["final_fpr"] for focal in focals),
        mean_final_fps=mean(focal["final_fps"] for focal in focals),
    )


def baseline_outcome(cfg: RunConfig, results) -> PolicyOutcome:
    """Platform-wide stand-in for a policy row when no scenario was run."""
    fpr_means = []
    for r in results:
        latest = result_latest_predictions(r)
        regs = [v for (_tid, phase), v in latest.items() if phase == REGISTRATION_PHASE]
        if regs:
            fpr_means.append(mean(regs))
    return PolicyOutcome(
        label="baseline",
        replications=len(results),
        fail=sum(r.reported_failures for r in results),
        success=sum(r.counters["completed"] for r in results),
        per_rep_failed=(),
        mean_registrants=mean(sum(r.reg_by_belt.values()) for r in results),
        mean_submissions=mean(sum(r.sub_by_belt.values()) for r in results),
        reg_by_belt=sum((r.reg_by_belt for r in results), Counter()),
        sub_by_belt=sum((r.sub_by_belt for r in results), Counter()),
        mean_final_fpr=mean(fpr_means),
        mean_final_fps=mean(
            compute_fps(
                compute_tsr(r.counters["submitted"], r.counters["registered"]),
                cfg.fps_slope,
                cfg.fps_intercept,
            )
            for r in results
        ),
    )


def run_sweep(name: str, policies):
    """Run each ``(label, cfg)`` pair of the ``policies`` sequence; aggregate its focal task.

    Every policy's belt table is resolved before the first replication, so a
    table error stops the sweep before any work. Returns the report and the
    first policy's replication results, which feed the time-series files.
    """
    if not policies:
        raise ConfigError(f"{name}: no policies to run")
    for _label, cfg in policies:
        resolve_belt_table(cfg)
    focals = [[] for _ in policies]
    first_results = []
    runs = zip(*(run_replications(cfg) for _label, cfg in policies), strict=True)
    for r, results in enumerate(runs):
        for (label, _cfg), result, policy_focals in zip(policies, results, focals):
            if result.focal is None:
                raise ModelInvariantError(
                    f"policy {label}, replication {r}: focal task never resolved"
                )
            policy_focals.append(result.focal)
        first_results.append(results[0])
    outcomes = [_policy_outcome(label, f) for (label, _cfg), f in zip(policies, focals)]
    return ScenarioReport(name, tuple(outcomes)), first_results


def _focal(base: RunConfig, **lever) -> RunConfig:
    """``base`` with the focal task on and ``lever`` applied.

    A sweep sets the platform levers itself, so a base that sets one is
    refused rather than silently overridden.
    """
    for key in ("openness_gate", "admitted_belts"):
        if getattr(base, key) is not None:
            raise ConfigError(f"{key}: a policy sweep sets this lever itself; leave it unset")
    return replace(base, focal_enabled=True, **lever)


def run_openness_scenario(base_cfg: RunConfig, gates=OPENNESS_GATES):
    """Vary platform openness; the focal task is posted at each gate level."""
    return run_sweep(
        "openness",
        [(f"openness_{gate:.2f}", _focal(base_cfg, openness_gate=gate)) for gate in gates],
    )


def run_diversity_scenario(base_cfg: RunConfig):
    """Vary who may register platform-wide, by belt rank; the focal task rides along."""
    table = resolve_belt_table(base_cfg)
    if len(table.rows) < 2:  # green_and_up would admit no belt
        raise ConfigError(
            f"scenario diversity needs at least two belts; {base_cfg.belt_table_path} has one"
        )
    policies = diversity_policies(table)
    return run_sweep(
        "diversity",
        [(label, _focal(base_cfg, admitted_belts=belts)) for label, belts in policies],
    )


def what_if_posting_day(base_cfg: RunConfig, day: float):
    """Compare posting the focal task now versus on another day."""
    now = _focal(base_cfg)
    return run_sweep(
        "whatif",
        [
            (f"post_day_{now.focal_arrival:g}", now),
            (f"post_day_{day:g}", _focal(base_cfg, focal_arrival=day)),
        ],
    )


def calibrate_fps(cfg: RunConfig):
    """Fit the starvation-to-failure line on freshly simulated resolutions.

    Each resolved task contributes one point: the platform starvation ratio
    at its resolution against its failed flag. Returns (slope, intercept,
    points). Degenerate x collapses to a flat line at the failure rate.
    """
    terminal = {state.value for state in TERMINAL_STATES}
    xs = []
    ys = []
    for result in run_replications(cfg):
        for rec in result.task_log:
            if rec["outcome"] not in terminal:
                continue
            xs.append(rec["tsr_at_resolution"])
            ys.append(1.0 if rec["outcome"] in FAILURE_OUTCOMES else 0.0)
    if not xs:
        return 0.0, 0.0, 0
    import numpy as np
    x = np.asarray(xs)
    y = np.asarray(ys)
    if float(x.std()) == 0.0:
        return 0.0, float(y.mean()), len(xs)
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(intercept), len(xs)
