"""File emission: every run lands the same six artifacts in the out dir.

This module only formats: the summary rows arrive as ``PolicyOutcome``
records from ``scenarios``, and each file is the text of values computed
elsewhere. CSV cells use '.' decimals and full-precision floats; nothing
here writes a wall-clock timestamp, so reruns with one seed are byte for
byte identical. Each CSV starts with a comment line pinning the seed and
the config hash.
"""

from __future__ import annotations

import math
from dataclasses import fields
from pathlib import Path

from .config import RunConfig, config_hash
from .domain import reported_failures, resolve_belt_table, resolved_count, resolved_shares
from .history import (
    PHASES,
    PREDICTION_COLUMNS,
    PhaseEvaluation,
    evaluate_forecast,
    result_history_rows,
    result_latest_predictions,
)
from .scenarios import baseline_outcome, mean

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


def _csv_text(cfg: RunConfig, columns, rows) -> str:
    lines = [_stamp(cfg), ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row[name]) for name in columns))
    return "\n".join(lines) + "\n"


def _summary_row(outcome, belt_names) -> dict:
    """One ``scenario_summary.csv`` row; its key order is the header."""
    row = {
        "policy": outcome.label,
        "replications": outcome.replications,
        "fail": outcome.fail,
        "success": outcome.success,
        "failure_rate": outcome.failure_rate,
        "mean_registrants": outcome.mean_registrants,
        "mean_submissions": outcome.mean_submissions,
    }
    for prefix, counter in (("reg_pct", outcome.reg_by_belt), ("sub_pct", outcome.sub_by_belt)):
        total = sum(counter.values())
        for belt in belt_names:
            row[f"{prefix}_{belt}"] = 100.0 * (counter.get(belt, 0) / total if total else 0.0)
    row["mean_final_fpr"] = outcome.mean_final_fpr
    row["mean_final_fps"] = outcome.mean_final_fps
    return row


def _stdev(values) -> float:
    """The sample standard deviation, the correctly rounded root of the exact variance."""
    ratios = [value.as_integer_ratio() for value in values]
    scale = max(den for _num, den in ratios)  # a power of two, so every value scales exactly
    ints = [num * (scale // den) for num, den in ratios]
    n = len(ints)
    num = n * sum(i * i for i in ints) - sum(ints) ** 2
    den = n * (n - 1) * scale * scale
    # an integer root of at least 55 bits, rounded to odd, then one rounding to float
    shift = max(0, 56 - (num.bit_length() - den.bit_length()) // 2)
    root = math.isqrt((num << 2 * shift) // den)
    return (root | (root * root * den != num << 2 * shift)) / (1 << shift)


def _control_chart_rows(result) -> list:
    series = [row["utilization"] for row in result.daily]
    if not series:
        return []
    centre = mean(series)
    sd = _stdev(series) if len(series) > 1 else 0.0
    ucl = centre + 3.0 * sd
    lcl = centre - 3.0 * sd
    return [
        {"day": row["day"], "utilization": row["utilization"], "mean": centre, "ucl": ucl, "lcl": lcl}
        for row in result.daily
    ]


EVALUATION_COLUMNS = tuple(f.name for f in fields(PhaseEvaluation))


def _report_text(cfg: RunConfig, results, scenario, evaluation) -> str:
    lines = []
    lines.append("marketplace simulation report")
    lines.append("=============================")
    lines.append(f"seed: {cfg.seed}")
    lines.append(f"config hash: {config_hash(cfg)[:12]}")
    lines.append(f"replications: {len(results)}")
    lines.append(f"events per replication (mean): {mean(r.events_processed for r in results):.1f}")
    lines.append(f"trace hash (replication 0): {results[0].trace_hash}")
    lines.append("")
    lines.append("platform counters, mean over replications")
    for key in results[0].counters:
        lines.append(f"  {key}: {mean(r.counters[key] for r in results):.2f}")
    in_flight = mean(r.counters["arrived"] - resolved_count(r.counters) for r in results)
    lines.append(f"  in_flight at horizon: {in_flight:.2f}")
    lines.append("")
    lines.append("resolved-task shares, mean over replications")
    shares = zip(*(resolved_shares(r.counters) for r in results))
    success, unqualified, zero_sub = map(mean, shares)
    lines.append(f"  success: {100.0 * success:.2f}%")
    lines.append(f"  unqualified submissions: {100.0 * unqualified:.2f}%")
    lines.append(f"  zero submissions: {100.0 * zero_sub:.2f}%")
    lines.append(f"  sum: {100.0 * (success + unqualified + zero_sub):.2f}%")
    lines.append(
        "  failure share = unqualified + zero submissions: "
        f"{100.0 * (unqualified + zero_sub):.2f}%"
    )
    failures = mean(reported_failures(r.counters) for r in results)
    lines.append(f"  reported failures, mean: {failures:.2f}")
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
    """Write the six run artifacts; returns the paths in contract order.

    Every file is formatted before the first is written, so a formatting
    error leaves the out dir untouched.
    """
    belt_names = resolve_belt_table(cfg).names()
    first = results[0]
    if evaluation is None:
        evaluation = evaluate_forecast(result_history_rows(first), result_latest_predictions(first))
    outcomes = (baseline_outcome(cfg, results),) if scenario is None else scenario.outcomes
    summary = [_summary_row(outcome, belt_names) for outcome in outcomes]
    texts = {
        "platform_daily.csv": _csv_text(cfg, DAILY_COLUMNS, first.daily),
        "task_predictions.csv": _csv_text(
            cfg,
            PREDICTION_COLUMNS,
            [dict(zip(PREDICTION_COLUMNS, record)) for record in first.predictions],
        ),
        "scenario_summary.csv": _csv_text(cfg, tuple(summary[0]), summary),
        "utilization_control_chart.csv": _csv_text(
            cfg, ("day", "utilization", "mean", "ucl", "lcl"), _control_chart_rows(first)
        ),
        "evaluation.csv": _csv_text(
            cfg, EVALUATION_COLUMNS, [vars(evaluation[phase]) for phase in PHASES]
        ),
        "report.txt": _report_text(cfg, results, scenario, evaluation),
    }
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / name for name in OUTPUT_FILES]
    for path in paths:
        path.write_text(texts[path.name], encoding="utf-8")
    return paths
