"""csdsim benchmark: one workload, one seed, end-to-end or per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload run_default --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
units untraced and then traced and reports the per-layer metrics, with the
difference between the two as the tracing overhead. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. Full results, machine facts and spans go to
``perfbench/out/``.

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

from yardstick import NOMINAL_MS, YardstickProcess

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPS = 3
IMPORTTIME_REPS = 3
CHILD_TIMEOUT_S = 60
# stop starting units after this long, whatever min_ops says
HARD_STOP_S = 120

NOISE_NOTE = (
    "shared 2-vCPU VM: the same code runs up to 1.7x slower for stretches of tens of "
    "seconds; the run keeps its own processes on one CPU, and wall_s and op_ms_* are "
    "scaled by an interleaved yardstick"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units(policies, reasons, event_kinds) -> dict:
    """Every per-layer metric name with its unit, in output order."""
    units = {
        "engine.setup_ms": "ms",
        "engine.loop_ms": "ms",
        "engine.us_per_event": "us",
        "engine.events_per_rep": "count",
    }
    units.update({f"engine.events.{kind}": "count" for kind in event_kinds})
    units["engine.streams_per_rep"] = "count"
    units["engine.trace_hash_ms_replayed"] = "ms"
    units["agents.preconditions_calls"] = "count"
    units["agents.preconditions_pass_ratio"] = "ratio"
    units.update({f"agents.reject.{reason}": "count" for reason in reasons})
    units["agents.registrations_per_rep"] = "count"
    units["agents.submissions_per_rep"] = "count"
    for name in ("compute_fpr", "resolve_review", "repost"):
        units[f"lifecycle.{name}.calls"] = "count"
        units[f"lifecycle.{name}.ms"] = "ms"
    units["platform.spawn_agent.ms"] = "ms"
    units["platform.supply_concentration.ms"] = "ms"
    units.update({f"scenarios.policy_ms.{label}": "ms" for label in policies})
    units["outputs.emit_ms"] = "ms"
    units["outputs.bytes_written"] = "bytes"
    units["history.ingest_history_ms"] = "ms"
    units["history.ingest_predictions_ms"] = "ms"
    units["history.evaluate_forecast_ms"] = "ms"
    units["history.rows"] = "count"
    units["history.share_of_wall"] = "ratio"
    units["setup.import_scipy_ms"] = "ms"
    units["setup.import_csdsim_own_ms"] = "ms"
    units["trace.wall_s_untraced"] = "s"
    units["trace.wall_s_traced"] = "s"
    units["trace.overhead_s"] = "s"
    return units


# ----------------------------------------------------------------- helpers


def percentile(values, pct: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    rank = pct / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def machine_facts() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg_start": loadavg(),
        "noise": NOISE_NOTE,
    }


@contextmanager
def one_cpu():
    """Keep this process and the children it starts on one CPU.

    Work and yardstick then share one core's conditions: unpinned, the
    yardstick child ran ~100 or ~170 ms depending, it seems, on which vCPU
    it landed, while the workload's speed did not follow. This sets the
    affinity of the benchmark's own processes only, and restores it.
    """
    try:
        before = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(before)})
    except (AttributeError, OSError):
        yield None
        return
    try:
        yield min(before)
    finally:
        os.sched_setaffinity(0, before)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )


def measure_setup(workload: str) -> list:
    """Seconds per fresh process; the first, which may compile bytecode, is dropped."""
    probe = str(HERE / "setup_probe.py")
    times = [float(run_child([probe, workload]).stdout.strip()) for _ in range(SETUP_REPS + 1)]
    return times[1:]


def measure_importtime() -> dict:
    """Self time of scipy's and csdsim's own modules from ``-X importtime``."""
    scipy_ms = []
    own_ms = []
    for _ in range(IMPORTTIME_REPS):
        stderr = run_child(["-X", "importtime", "-c", "import csdsim"]).stderr
        totals = {"scipy": 0, "csdsim": 0}
        for line in stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = line[len("import time:"):].split("|")
            name = fields[2].strip()
            top = name.split(".")[0]
            if top in totals and fields[0].strip().isdigit():
                totals[top] += int(fields[0])
        scipy_ms.append(totals["scipy"] / 1000.0)
        own_ms.append(totals["csdsim"] / 1000.0)
    return {
        "setup.import_scipy_ms": statistics.median(scipy_ms),
        "setup.import_csdsim_own_ms": statistics.median(own_ms),
    }


def run_units(workload, layers, yard, *, seconds=None, min_ops=0, n_units=None, tracer=None):
    """Closed loop over whole passes of units, a yardstick call after each unit.

    Returns (operations as (label, ms, unit index), unit results, yardstick
    milliseconds after each unit).
    """
    from workloads import OpClock, UnitResult

    clock = OpClock(layers)
    units = []
    yard_ms = []
    op_units = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if n_units is not None:
            if len(units) >= n_units:
                break
        elif units and len(units) % workload.pass_units == 0 and (
            elapsed >= HARD_STOP_S or (elapsed >= seconds and len(clock.ops) >= min_ops)
        ):
            break
        try:
            unit = layers.call("unit", workload.run_unit, len(units), clock, layers)
        except Exception as exc:  # a failed operation is counted, not fatal
            unit = UnitResult(workload.unit_ops, float("nan"), workload.unit_ops, repr(exc))
        op_units.extend([len(units)] * (len(clock.ops) - len(op_units)))
        units.append(unit)
        if tracer is not None:
            tracer.replay_trace_hashes()
        yard_ms.append(yard.measure())
    ops = [(label, ms, unit) for (label, ms), unit in zip(clock.ops, op_units)]
    return ops, units, yard_ms


def speed_factors(yard_ms) -> list:
    """Per unit, the multiplier that scales its timings to the reference speed.

    It uses the yardstick calls just before and after the unit and the one
    after that. The box's slow and fast stretches last several units, so
    this follows a change of pace inside a run, which one factor per run did
    not: history_eval's tail then spread by 0.29 over ten runs, as it caught
    the slow stretch of runs that had one. One call alone is too noisy.
    """
    return [
        NOMINAL_MS / statistics.median(yard_ms[max(0, i - 1):i + 2]) for i in range(len(yard_ms))
    ]


def pass_walls(units, pass_units: int, factors=None) -> list:
    """Seconds per whole pass, leaving out passes in which a unit raised.

    Every pass runs the same inputs, so pass times differ only by noise;
    units of one pass differ in cost by their inputs. With ``factors``, each
    unit's time is scaled by its own factor first.
    """
    factors = factors or [1.0] * len(units)
    walls = []
    for start in range(0, len(units) - pass_units + 1, pass_units):
        wall = sum(u.wall_s * f for u, f in zip(units[start:start + pass_units], factors[start:]))
        if wall == wall:
            walls.append(wall)
    return walls


# ----------------------------------------------------------------- metrics


def end_to_end(workload, setup_times, ops, units, yard_ms) -> tuple:
    """End-to-end metrics; wall_s and the op latencies scaled to reference speed."""
    factors = speed_factors(yard_ms)
    op_ms = [ms for _label, ms, _unit in ops]
    scaled_ms = [ms * factors[unit] for _label, ms, unit in ops]
    walls = pass_walls(units, workload.pass_units)
    scaled_walls = pass_walls(units, workload.pass_units, factors)
    measured = {
        "wall_s": statistics.median(walls) if walls else float("nan"),
        "op_ms_p50": percentile(op_ms, 50),
        "op_ms_tail": percentile(op_ms, workload.tail_pct),
    }
    metrics = {
        "wall_s": statistics.median(scaled_walls) if scaled_walls else float("nan"),
        "op_ms_p50": percentile(scaled_ms, 50),
        "op_ms_tail": percentile(scaled_ms, workload.tail_pct),
    }
    metrics["setup_s"] = statistics.median(setup_times)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    details = {
        "tail_percentile": workload.tail_pct,
        "ops_timed": len(op_ms),
        "ops_beyond_tail": sum(ms > metrics["op_ms_tail"] for ms in scaled_ms),
        "units": len(units),
        "speed_factor": statistics.median(factors),
        "unit_speed_factors": factors,
        "measured_unscaled": measured,
        "yardstick_ms": yard_ms,
        "passes": len(walls),
        "pass_walls_s": walls,
        "setup_times_s": setup_times,
    }
    return metrics, details


def per_layer(tracer, untraced, traced, importtime, pass_units) -> dict:
    """Per-layer metrics, as measured; only trace.wall_s_* are scaled, per phase."""
    from csdsim import agents, engine
    from csdsim.scenarios import DIVERSITY_POLICIES

    policies = [label for label, _belts in DIVERSITY_POLICIES]
    reasons = [
        getattr(agents, name) for name in sorted(vars(agents)) if name.startswith("REASON_")
    ]
    kinds = list(engine.Simulation._HANDLERS)
    untraced_ops, untraced_units, untraced_yard = untraced
    _, traced_units, traced_yard = traced
    traced_walls = pass_walls(traced_units, pass_units)
    scaled = {
        phase: statistics.median(pass_walls(phase_units, pass_units, speed_factors(yard_ms)))
        for phase, phase_units, yard_ms in (
            ("untraced", untraced_units, untraced_yard),
            ("traced", traced_units, traced_yard),
        )
    }
    reps = tracer.replications
    n = len(reps)

    def per_rep(total):
        return total / n if n else 0.0

    def mean_ms(name):
        calls = tracer.calls[name]
        return tracer.seconds[name] * 1000.0 / calls if calls else 0.0

    loop_s = sum(r["run_s"] - r["setup_s"] for r in reps)
    events = sum(r["events"] for r in reps)
    checks = sum(tracer.reasons.values())
    history_s = sum(
        tracer.seconds[name]
        for name in ("history.ingest_history", "history.ingest_predictions", "history.evaluate_forecast")
    )
    values = {
        "engine.setup_ms": per_rep(sum(r["setup_s"] for r in reps) * 1000.0),
        "engine.loop_ms": per_rep(loop_s * 1000.0),
        "engine.us_per_event": loop_s * 1e6 / events if events else 0.0,
        "engine.events_per_rep": per_rep(events),
        "engine.streams_per_rep": per_rep(sum(r["streams"] for r in reps)),
        "engine.trace_hash_ms_replayed": per_rep(
            sum(r.get("trace_hash_replay_s", 0.0) for r in reps) * 1000.0
        ),
        "agents.preconditions_calls": per_rep(checks),
        "agents.preconditions_pass_ratio": tracer.reasons[None] / checks if checks else 0.0,
        "agents.registrations_per_rep": per_rep(sum(r["registrations"] for r in reps)),
        "agents.submissions_per_rep": per_rep(sum(r["submissions"] for r in reps)),
        "platform.spawn_agent.ms": per_rep(tracer.seconds["platform.spawn_agent"] * 1000.0),
        "platform.supply_concentration.ms": per_rep(
            tracer.seconds["platform.supply_concentration"] * 1000.0
        ),
        "outputs.emit_ms": mean_ms("outputs.emit"),
        "outputs.bytes_written": (
            tracer.totals["outputs.bytes_written"] / tracer.calls["outputs.emit"]
            if tracer.calls["outputs.emit"] else 0.0
        ),
        "history.ingest_history_ms": mean_ms("history.ingest_history"),
        "history.ingest_predictions_ms": mean_ms("history.ingest_predictions"),
        "history.evaluate_forecast_ms": mean_ms("history.evaluate_forecast"),
        "history.rows": (
            tracer.totals["history.rows"] / tracer.calls["history.ingest_predictions"]
            if tracer.calls["history.ingest_predictions"] else 0.0
        ),
        "history.share_of_wall": history_s / sum(traced_walls) if traced_walls else 0.0,
        "trace.wall_s_untraced": scaled["untraced"],
        "trace.wall_s_traced": scaled["traced"],
    }
    values["trace.overhead_s"] = values["trace.wall_s_traced"] - values["trace.wall_s_untraced"]
    for kind in kinds:
        values[f"engine.events.{kind}"] = per_rep(tracer.events[kind])
    for reason in reasons:
        values[f"agents.reject.{reason}"] = per_rep(tracer.reasons[reason])
    for name in ("compute_fpr", "resolve_review", "repost"):
        key = f"lifecycle.{name}"
        values[f"{key}.calls"] = per_rep(tracer.calls[key])
        values[f"{key}.ms"] = per_rep(tracer.seconds[key] * 1000.0)
    for label in policies:
        # from the untraced phase: wrapped hot paths would inflate elite_only most
        policy_ms = [ms for op_label, ms, _unit in untraced_ops if op_label == label]
        values[f"scenarios.policy_ms.{label}"] = statistics.median(policy_ms) if policy_ms else 0.0
    values.update(importtime)
    units = per_layer_units(policies, reasons, kinds)
    return {name: (values[name], unit) for name, unit in units.items()}


# ----------------------------------------------------------------- run


def run(name: str, seed: int, seconds: float, trace: bool, min_ops=None) -> dict:
    """Run one workload; return the result record written to perfbench/out/."""
    from tracer import Tracer, Untraced
    from workloads import WORKLOADS, load_reference

    facts = machine_facts()
    cls = WORKLOADS[name]
    min_ops = cls.min_ops if min_ops is None else min_ops
    OUT.mkdir(exist_ok=True)
    with one_cpu() as cpu, tempfile.TemporaryDirectory(dir=OUT) as tmp, YardstickProcess() as yard:
        facts["pinned_cpu"] = cpu
        setup_times = [] if trace else measure_setup(name)
        workload = cls(seed, Path(tmp), load_reference())
        # warm-up: caches fill and lazy set-up finishes before timing
        _, warm, _ = run_units(workload, Untraced(), yard, n_units=1)
        if trace:
            untraced = run_units(workload, Untraced(), yard, seconds=seconds / 2)
            tracer = Tracer()
            with tracer.installed():
                traced = run_units(workload, tracer, yard, n_units=len(untraced[1]), tracer=tracer)
            metrics = per_layer(tracer, untraced, traced, measure_importtime(), workload.pass_units)
            units = untraced[1] + traced[1]
            details = {
                "traced_units": len(traced[1]),
                "yardstick_ms": {"untraced": untraced[2], "traced": traced[2]},
                "replications": tracer.replications,
            }
        else:
            ops, units, yard_ms = run_units(workload, Untraced(), yard, seconds=seconds, min_ops=min_ops)
            values, details = end_to_end(workload, setup_times, ops, units, yard_ms)
            metrics = {key: (values[key], unit) for key, unit in END_TO_END_UNITS.items()}
    all_units = warm + units
    attempted = sum(u.ops for u in all_units)
    failed = sum(u.failed for u in all_units)
    facts["loadavg_end"] = loadavg()
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": facts,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_ops": failed / attempted if attempted else 1.0,
        "errors": sorted({u.error for u in all_units if u.error}),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
        "details": details,
    }
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if trace:
        spans = {"spans": tracer.span_dicts(), "replications": tracer.replications}
        (OUT / f"spans-{stem}.json").write_text(json.dumps(spans), encoding="utf-8")
    return record


def summary_lines(record: dict) -> list:
    lines = [f"machine: {json.dumps(record['machine'])}"]
    details = record["details"]
    notes = {}
    if not record["trace"]:
        measured = details["measured_unscaled"]
        scale = f"median speed factor {details['speed_factor']:.4f}"
        notes = {
            "setup_s": f"median of {len(details['setup_times_s'])} fresh processes, unscaled",
            "wall_s": f"median of {details['passes']} passes; measured {measured['wall_s']:.6g} s, {scale}",
            "op_ms_p50": f"of {details['ops_timed']} operations; measured {measured['op_ms_p50']:.6g} ms, {scale}",
            "op_ms_tail": (
                f"p{details['tail_percentile']} of {details['ops_timed']} operations;"
                f" measured {measured['op_ms_tail']:.6g} ms, {scale}"
            ),
        }
    for key, metric in record["metrics"].items():
        line = f"{key} {metric['value']:.6g} {metric['unit']}"
        if key in notes:
            line += f" ({notes[key]})"
        lines.append(line)
    lines.append(
        f"failed_ops {record['failed_ops']:.6g} ratio"
        f" ({record['failed']} of {record['attempted']} operations)"
    )
    lines.extend(f"error: {error}" for error in record["errors"])
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "csdsim" / "__init__.py").is_file():
        print(f"error: no csdsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import csdsim
    from workloads import WORKLOADS

    if Path(csdsim.__file__).resolve().parent != (SRC / "csdsim").resolve():
        print(f"error: csdsim imported from {csdsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in summary_lines(record):
        print(line)
    result = {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
