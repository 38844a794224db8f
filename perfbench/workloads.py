"""The three benchmark workloads: their inputs, one unit of work, and its checks.

Every workload is a closed loop: one process, one caller, and each operation
starts after the previous one returns. A *unit* is a fixed amount of work
(``wall_s`` is the median unit time); an *operation* is the smaller piece
whose latency feeds ``op_ms_p50`` and ``op_ms_tail``. A run does whole units
until its time is up and at least ``min_ops`` operations are timed; the tail
percentile is fixed per workload as the highest one with ten operations
beyond it at ``min_ops``, so it does not move when the program gets faster.

Inputs come from the workload seed only. The simulated workloads walk a
fixed pool of replication seeds whose outcome digests are recorded in
``reference.json`` (see ``record_reference.py``); the workload seed picks the
order. A run stops only after whole passes over its pool, so every run
times the same inputs and runs differ by machine noise, not by input mix.
``history_eval`` generates its CSV pair from the seed, so no engine change
can alter its inputs.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import random
import time
from pathlib import Path

from csdsim import (
    RunConfig,
    emit_outputs,
    evaluate_forecast,
    ingest_history,
    ingest_predictions,
    run_replication,
    run_diversity_scenario,
)
import csdsim.scenarios
from csdsim.history import PHASES, result_latest_predictions
from csdsim.scenarios import DIVERSITY_POLICIES

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# run_default: a unit is what `csdsim run --set seed=<base> --set
# replications=4` does, for one of BLOCKS consecutive-seed blocks; a pass
# runs every block once.
RUN_DEFAULT_FIRST_SEED = 1000
RUN_DEFAULT_REPS = 4
RUN_DEFAULT_BLOCKS = 6

# diversity_sweep: a unit is the four admission policies on one CRN seed;
# a pass runs every seed once.
DIVERSITY_FIRST_SEED = 2000
DIVERSITY_SEEDS = 4

# history_eval: a unit is EVALUATIONS evaluations of one generated CSV pair.
HISTORY_TASKS = 8000
HISTORY_PREDICTIONS_PER_TASK = 5
HISTORY_EVALUATIONS = 4

# Only these CSVs are compared byte for byte; report.txt prints the trace
# hash and the event count, which outcome-neutral engine changes may move.
CHECKED_CSVS = (
    "platform_daily.csv",
    "task_predictions.csv",
    "scenario_summary.csv",
    "utilization_control_chart.csv",
    "evaluation.csv",
)


def policy_label(admitted_belts) -> str:
    for label, belts in DIVERSITY_POLICIES:
        if belts == admitted_belts:
            return label
    raise KeyError(admitted_belts)


def replication_digest(result) -> str:
    """sha256 of what a replication decided.

    Leaves out ``trace_hash`` and ``events_processed``: an engine change that
    processes fewer events but reaches the same outcomes keeps this digest.
    """
    payload = {
        "task_log": result.task_log,
        "predictions": result.predictions,
        "daily": result.daily,
        "focal": result.focal,
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def run_default_config(base_seed: int) -> RunConfig:
    return RunConfig(seed=base_seed, replications=RUN_DEFAULT_REPS)


def diversity_config(crn_seed: int) -> RunConfig:
    return RunConfig(seed=crn_seed, replications=1)


def diversity_policy_configs(crn_seed: int) -> list:
    """The per-policy configs run_diversity_scenario derives from its base."""
    base = diversity_config(crn_seed)
    return [
        dataclasses.replace(base, focal_enabled=True, openness_gate=None, admitted_belts=belts)
        for _label, belts in DIVERSITY_POLICIES
    ]


class OpClock:
    """Times each operation; ``layers`` opens a span around it when tracing."""

    def __init__(self, layers):
        self.layers = layers
        self.ops = []  # (label, ms)

    def call(self, label, fn, *args):
        self.layers.rep = len(self.ops)
        start = time.perf_counter()
        try:
            return self.layers.call("op", fn, *args)
        finally:
            self.ops.append((label, (time.perf_counter() - start) * 1000.0))
            self.layers.rep = None


@dataclasses.dataclass
class UnitResult:
    """One unit's timing and the number of its operations that failed."""

    ops: int
    wall_s: float
    failed: int
    error: str = ""


# ----------------------------------------------------------------- run_default


class RunDefault:
    name = "run_default"
    unit_ops = RUN_DEFAULT_REPS
    pass_units = RUN_DEFAULT_BLOCKS
    min_ops = 67
    tail_pct = 85

    def __init__(self, seed: int, work_dir: Path, reference: dict):
        order = list(range(RUN_DEFAULT_BLOCKS))
        random.Random(seed).shuffle(order)
        self.bases = [RUN_DEFAULT_FIRST_SEED + RUN_DEFAULT_REPS * b for b in order]
        self.work_dir = work_dir
        self.reference = reference["run_default"]

    @staticmethod
    def configs() -> list:
        return [
            run_default_config(RUN_DEFAULT_FIRST_SEED + RUN_DEFAULT_REPS * b)
            for b in range(RUN_DEFAULT_BLOCKS)
        ]

    def run_unit(self, index: int, clock: OpClock, layers) -> UnitResult:
        cfg = run_default_config(self.bases[index % len(self.bases)])
        out_dir = self.work_dir / "run_default"
        start = time.perf_counter()
        results = [
            clock.call("replication", run_replication, dataclasses.replace(cfg, seed=cfg.seed + r))
            for r in range(cfg.replications)
        ]
        paths = layers.call("outputs.emit", emit_outputs, cfg, results, out_dir)
        pred_path = out_dir / "task_predictions.csv"
        latest = layers.call("history.ingest_predictions", ingest_predictions, str(pred_path))
        wall = time.perf_counter() - start

        layers.add("outputs.bytes_written", sum(Path(p).stat().st_size for p in paths))
        layers.add("history.rows", len(results[0].predictions))
        ref = self.reference[str(cfg.seed)]
        failed = sum(
            replication_digest(res) != digest for res, digest in zip(results, ref["replications"])
        )
        unit_ok = all(file_sha256(out_dir / name) == ref["csv"][name] for name in CHECKED_CSVS)
        unit_ok = unit_ok and latest == result_latest_predictions(results[0])
        if not unit_ok:
            return UnitResult(len(results), wall, len(results), "emitted artifacts differ")
        return UnitResult(len(results), wall, failed, "replication digest differs" if failed else "")


# ------------------------------------------------------------- diversity_sweep


class DiversitySweep:
    name = "diversity_sweep"
    unit_ops = len(DIVERSITY_POLICIES)
    pass_units = DIVERSITY_SEEDS
    # p84 sits well inside the elite_only quarter of the operations; p80
    # sat near its lower edge and moved with the mid_and_up ones
    min_ops = 63
    tail_pct = 84

    def __init__(self, seed: int, work_dir: Path, reference: dict):
        order = list(range(DIVERSITY_SEEDS))
        random.Random(seed).shuffle(order)
        self.seeds = [DIVERSITY_FIRST_SEED + s for s in order]
        self.reference = reference["diversity_sweep"]

    @staticmethod
    def configs() -> list:
        return [
            cfg
            for s in range(DIVERSITY_SEEDS)
            for cfg in diversity_policy_configs(DIVERSITY_FIRST_SEED + s)
        ]

    def run_unit(self, index: int, clock: OpClock, layers) -> UnitResult:
        cfg = diversity_config(self.seeds[index % len(self.seeds)])
        # run_diversity_scenario looks run_replication up in its own module
        original = csdsim.scenarios.run_replication
        results = []

        def timed_replication(rep_cfg):
            label = policy_label(rep_cfg.admitted_belts)
            res = clock.call(label, original, rep_cfg)
            results.append((label, res))
            return res

        csdsim.scenarios.run_replication = timed_replication
        try:
            start = time.perf_counter()
            run_diversity_scenario(cfg)
            wall = time.perf_counter() - start
        finally:
            csdsim.scenarios.run_replication = original

        if len(results) != self.unit_ops:
            return UnitResult(self.unit_ops, wall, self.unit_ops, "wrong replication count")
        ref = self.reference[str(cfg.seed)]
        failed = sum(replication_digest(res) != ref[label] for label, res in results)
        return UnitResult(len(results), wall, failed, "replication digest differs" if failed else "")


# ---------------------------------------------------------------- history_eval


def _write_rows(path: Path, comment: str, header, rows) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def make_history_pair(seed: int, work_dir: Path):
    """Write a history/predictions CSV pair; return the paths and expected totals.

    Every latest prediction is a multiple of 1/8, so per-phase totals are
    exact in binary floating point and the MRE can be checked at 1e-9
    without a stored reference. Superseded predictions are arbitrary floats,
    so keeping one in place of the latest shows in the totals.
    """
    rng = random.Random(seed)
    history = []
    predictions = []
    actual = {phase: 0 for phase in PHASES}
    predicted = {phase: 0.0 for phase in PHASES}
    for i in range(HISTORY_TASKS):
        task_id = f"t{i:05d}"
        posted = float(rng.randrange(0, 120))
        duration = rng.choice((2.0, 5.0, 7.5, 10.0, 14.0, 30.0))
        kind = rng.random()
        if kind < 0.35:
            regs, subs, outcome, phase = 0, 0, "starved", "registration"
        elif kind < 0.55:
            regs, subs, outcome, phase = rng.randint(1, 20), 0, "dropped", "registration"
        elif kind < 0.80:
            regs = rng.randint(1, 20)
            subs, outcome, phase = rng.randint(1, regs), "failed", "submission"
        else:
            regs = rng.randint(1, 20)
            subs, outcome, phase = rng.randint(1, regs), "completed", None
        if phase is not None:
            actual[phase] += 1
        # half the failures leave the phase blank, so ingest infers it
        stated = phase if phase is not None and rng.random() < 0.5 else ""
        history.append((task_id, repr(posted), repr(duration), regs, subs, outcome, stated))

        day = posted
        for n in range(HISTORY_PREDICTIONS_PER_TASK):
            p = PHASES[0] if n < 3 else PHASES[1]
            last_of_phase = n in (2, HISTORY_PREDICTIONS_PER_TASK - 1)
            day += rng.choice((0.25, 0.5, 1.0))
            value = rng.randint(0, 8) / 8.0 if last_of_phase else rng.random() * 0.9 + 0.01
            if last_of_phase:
                predicted[p] += value
            predictions.append((task_id, repr(day), p, repr(value)))
    rng.shuffle(history)
    rng.shuffle(predictions)

    history_path = work_dir / "history.csv"
    predictions_path = work_dir / "predictions.csv"
    _write_rows(
        history_path,
        f"synthetic history, seed {seed}",
        ("task_id", "posted_day", "duration_days", "registrants", "submissions", "outcome", "failure_phase"),
        history,
    )
    _write_rows(
        predictions_path,
        f"synthetic predictions, seed {seed}",
        ("task_id", "day", "phase", "prediction"),
        predictions,
    )
    expected = {
        phase: (float(actual[phase]), predicted[phase], (actual[phase] - predicted[phase]) / actual[phase])
        for phase in PHASES
    }
    return history_path, predictions_path, len(history) + len(predictions), expected


class HistoryEval:
    name = "history_eval"
    unit_ops = HISTORY_EVALUATIONS
    pass_units = 1
    min_ops = 67
    tail_pct = 85

    def __init__(self, seed: int, work_dir: Path, reference: dict):
        pair_dir = work_dir / "history_eval"
        pair_dir.mkdir(parents=True, exist_ok=True)
        self.history, self.predictions, self.rows, self.expected = make_history_pair(seed, pair_dir)

    @staticmethod
    def configs() -> list:
        return []

    def _evaluate(self, layers):
        rows = layers.call("history.ingest_history", ingest_history, str(self.history))
        latest = layers.call("history.ingest_predictions", ingest_predictions, str(self.predictions))
        evaluation = layers.call("history.evaluate_forecast", evaluate_forecast, rows, latest)
        layers.add("history.rows", self.rows)
        return len(rows), evaluation

    def _evaluation_ok(self, n_rows: int, evaluation) -> bool:
        if n_rows != HISTORY_TASKS:
            return False
        for phase, (actual, predicted, mre) in self.expected.items():
            ev = evaluation[phase]
            if ev.actual_total != actual or ev.predicted_total != predicted:
                return False
            if ev.mre is None or abs(ev.mre - mre) > 1e-9:
                return False
        return True

    def run_unit(self, index: int, clock: OpClock, layers) -> UnitResult:
        start = time.perf_counter()
        done = [clock.call("evaluation", self._evaluate, layers) for _ in range(HISTORY_EVALUATIONS)]
        wall = time.perf_counter() - start
        failed = sum(not self._evaluation_ok(n, ev) for n, ev in done)
        return UnitResult(len(done), wall, failed, "evaluation differs from generated truth" if failed else "")


WORKLOADS = {cls.name: cls for cls in (RunDefault, DiversitySweep, HistoryEval)}
