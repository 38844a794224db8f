"""File emission: every run lands the same six artifacts in the out dir.

CSV cells use '.' decimals and full-precision floats; nothing here writes a
wall-clock timestamp, so reruns with one seed are byte for byte identical.
Each CSV starts with a comment line pinning the seed and the config hash.
"""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import fields
from pathlib import Path

from .config import RunConfig, config_hash
from .domain import resolve_belt_table
from .history import (
    PHASES,
    PhaseEvaluation,
    evaluate_forecast,
    result_history_rows,
    result_latest_predictions,
)
from .lifecycle import compute_fps, compute_tsr

OUTPUT_FILES = (
    "platform_daily.csv",
    "task_predictions.csv",
    "scenario_summary.csv",
    "utilization_control_chart.csv",
    "evaluation.csv",
    "report.txt",
)

DAILY_COLUMNS = (
    "day",
    "open_tasks",
    "tcr",
    "tfr",
    "tsr",
    "utilization",
    "pool_openness",
    "busy_agents",
    "total_agents",
)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _stamp(cfg: RunConfig) -> str:
    return f"# seed={cfg.seed} config={config_hash(cfg)[:12]}"


def _write_csv(path: Path, cfg: RunConfig, columns, rows) -> None:
    lines = [_stamp(cfg), ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row[name]) for name in columns))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _scenario_columns(belt_names) -> tuple:
    cols = [
        "policy",
        "replications",
        "fail",
        "success",
        "failure_rate",
        "mean_registrants",
        "mean_submissions",
    ]
    cols += [f"reg_pct_{belt}" for belt in belt_names]
    cols += [f"sub_pct_{belt}" for belt in belt_names]
    cols += ["mean_final_fpr", "mean_final_fps"]
    return tuple(cols)


def _belt_percentages(counter, belt_names) -> dict:
    total = sum(counter.values())
    out = {}
    for belt in belt_names:
        share = counter.get(belt, 0) / total if total else 0.0
        out[belt] = 100.0 * share
    return out


def _scenario_rows(scenario, belt_names) -> list:
    rows = []
    for outcome in scenario.outcomes:
        reg_pct = _belt_percentages(outcome.reg_by_belt, belt_names)
        sub_pct = _belt_percentages(outcome.sub_by_belt, belt_names)
        row = {
            "policy": outcome.label,
            "replications": outcome.replications,
            "fail": outcome.fail,
            "success": outcome.success,
            "failure_rate": outcome.failure_rate,
            "mean_registrants": outcome.mean_registrants,
            "mean_submissions": outcome.mean_submissions,
            "mean_final_fpr": outcome.mean_final_fpr,
            "mean_final_fps": outcome.mean_final_fps,
        }
        for belt in belt_names:
            row[f"reg_pct_{belt}"] = reg_pct[belt]
            row[f"sub_pct_{belt}"] = sub_pct[belt]
        rows.append(row)
    return rows


def _baseline_row(cfg: RunConfig, results, belt_names) -> dict:
    """Platform-wide stand-in when no scenario was run."""
    fail = sum(r.reported_failures for r in results)
    success = sum(r.counters["completed"] for r in results)
    resolved = fail + success
    reg_pct = _belt_percentages(sum((r.reg_by_belt for r in results), Counter()), belt_names)
    sub_pct = _belt_percentages(sum((r.sub_by_belt for r in results), Counter()), belt_names)
    fpr_means = []
    fps_finals = []
    for r in results:
        latest = result_latest_predictions(r)
        regs = [v for (_tid, phase), v in latest.items() if phase == "registration"]
        if regs:
            fpr_means.append(sum(regs) / len(regs))
        fps_finals.append(
            compute_fps(
                compute_tsr(r.counters["submitted"], r.counters["registered"]),
                cfg.fps_slope,
                cfg.fps_intercept,
            )
        )
    row = {
        "policy": "baseline",
        "replications": len(results),
        "fail": fail,
        "success": success,
        "failure_rate": fail / resolved if resolved else 0.0,
        "mean_registrants": _mean(sum(r.reg_by_belt.values()) for r in results),
        "mean_submissions": _mean(sum(r.sub_by_belt.values()) for r in results),
        "mean_final_fpr": sum(fpr_means) / len(fpr_means) if fpr_means else 0.0,
        "mean_final_fps": sum(fps_finals) / len(fps_finals) if fps_finals else 0.0,
    }
    for belt in belt_names:
        row[f"reg_pct_{belt}"] = reg_pct[belt]
        row[f"sub_pct_{belt}"] = sub_pct[belt]
    return row


def _control_chart_rows(result) -> list:
    series = [row["utilization"] for row in result.daily]
    if not series:
        return []
    mean = sum(series) / len(series)
    sd = statistics.stdev(series) if len(series) > 1 else 0.0
    ucl = mean + 3.0 * sd
    lcl = mean - 3.0 * sd
    return [
        {"day": row["day"], "utilization": row["utilization"], "mean": mean, "ucl": ucl, "lcl": lcl}
        for row in result.daily
    ]


EVALUATION_COLUMNS = tuple(f.name for f in fields(PhaseEvaluation))


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _report_text(cfg: RunConfig, results, scenario, evaluation) -> str:
    lines = []
    lines.append("marketplace simulation report")
    lines.append("=============================")
    lines.append(f"seed: {cfg.seed}")
    lines.append(f"config hash: {config_hash(cfg)[:12]}")
    lines.append(f"replications: {len(results)}")
    lines.append(f"events per replication (mean): {_mean(r.events_processed for r in results):.1f}")
    lines.append(f"trace hash (replication 0): {results[0].trace_hash}")
    lines.append("")
    lines.append("platform counters, mean over replications")
    for key in results[0].counters:
        lines.append(f"  {key}: {_mean(r.counters[key] for r in results):.2f}")
    lines.append(f"  in_flight at horizon: {_mean(r.in_flight for r in results):.2f}")
    lines.append("")
    lines.append("resolved-task shares, mean over replications")
    success = _mean(r.success_ratio for r in results)
    unqualified = _mean(r.unqualified_ratio for r in results)
    zero_sub = _mean(r.zero_submission_ratio for r in results)
    lines.append(f"  success: {100.0 * success:.2f}%")
    lines.append(f"  unqualified submissions: {100.0 * unqualified:.2f}%")
    lines.append(f"  zero submissions: {100.0 * zero_sub:.2f}%")
    lines.append(f"  sum: {100.0 * (success + unqualified + zero_sub):.2f}%")
    lines.append(
        "  failure share = unqualified + zero submissions: "
        f"{100.0 * (unqualified + zero_sub):.2f}%"
    )
    lines.append(
        f"  reported failures, mean: {_mean(r.reported_failures for r in results):.2f}"
    )
    lines.append("")
    if results[0].daily:
        final = results[0].daily[-1]
        lines.append("platform health, replication 0, final day")
        for key in ("tcr", "tfr", "tsr", "utilization", "pool_openness"):
            lines.append(f"  {key}: {final[key]:.4f}")
        lines.append("")
    if scenario is not None:
        lines.append(f"scenario: {scenario.name}")
        for out in scenario.outcomes:
            lines.append(
                f"  {out.label}: fail {out.fail}/{out.replications}"
                f" rate {out.failure_rate:.3f}"
                f" mean registrants {out.mean_registrants:.1f}"
                f" mean submissions {out.mean_submissions:.1f}"
                f" fpr {out.mean_final_fpr:.4f}"
                f" fps {out.mean_final_fps:.4f}"
            )
        lines.append("")
    if evaluation is not None:
        lines.append("forecast evaluation")
        for phase in PHASES:
            ev = evaluation[phase]
            mre_txt = "n/a" if ev.mre is None else f"{ev.mre:.6f}"
            r_txt = "n/a" if ev.pearson_r is None else f"{ev.pearson_r:.4f}"
            t_txt = "n/a" if ev.t_stat is None else f"{ev.t_stat:.4f}"
            lines.append(
                f"  {phase}: days {ev.n_days}, actual {ev.actual_total:.1f},"
                f" predicted {ev.predicted_total:.4f}, mre {mre_txt},"
                f" pearson {r_txt}, t {t_txt}"
            )
        lines.append("")
    return "\n".join(lines)


def emit_outputs(
    cfg: RunConfig,
    results,
    out_dir,
    scenario=None,
    evaluation=None,
) -> list:
    """Write the six run artifacts; returns the paths in contract order."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    belt_names = resolve_belt_table(cfg).names()
    if evaluation is None:
        evaluation = evaluate_forecast(
            result_history_rows(results[0]), result_latest_predictions(results[0])
        )
    paths = []

    path = out / "platform_daily.csv"
    _write_csv(path, cfg, DAILY_COLUMNS, results[0].daily)
    paths.append(path)

    path = out / "task_predictions.csv"
    pred_rows = [
        {"task_id": tid, "day": day, "phase": phase, "prediction": value}
        for tid, day, phase, value in results[0].predictions
    ]
    _write_csv(path, cfg, ("task_id", "day", "phase", "prediction"), pred_rows)
    paths.append(path)

    path = out / "scenario_summary.csv"
    columns = _scenario_columns(belt_names)
    if scenario is not None:
        rows = _scenario_rows(scenario, belt_names)
    else:
        rows = [_baseline_row(cfg, results, belt_names)]
    _write_csv(path, cfg, columns, rows)
    paths.append(path)

    path = out / "utilization_control_chart.csv"
    _write_csv(path, cfg, ("day", "utilization", "mean", "ucl", "lcl"), _control_chart_rows(results[0]))
    paths.append(path)

    path = out / "evaluation.csv"
    _write_csv(path, cfg, EVALUATION_COLUMNS, [vars(evaluation[phase]) for phase in PHASES])
    paths.append(path)

    path = out / "report.txt"
    path.write_text(_report_text(cfg, results, scenario, evaluation), encoding="utf-8")
    paths.append(path)

    return paths
