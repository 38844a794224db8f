"""Command line entry point.

Subcommands: run, scenario, whatif, evaluate, calibrate-fps. Config comes
from --config (or the CSDSIM_CONFIG env var) plus repeatable --set
key=value overrides. Exit codes: 0 ok, 1 config error, 2 data error,
3 model invariant violation.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .config import ConfigError, build_config, echo_config
from .domain import ModelInvariantError
from .history import (
    DataError,
    evaluate_forecast,
    ingest_history,
    ingest_predictions,
    result_latest_predictions,
)
from .outputs import emit_outputs
from .scenarios import (
    calibrate_fps,
    run_diversity_scenario,
    run_openness_scenario,
    run_replications,
    what_if_posting_day,
)

ENV_CONFIG = "CSDSIM_CONFIG"


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config",
        help=f"config file path (default: ${ENV_CONFIG} if set, else built-in defaults)",
    )
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config key; repeatable",
    )
    parser.add_argument("--out", default="out", help="output directory (default: out)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csdsim",
        description="Simulate a competitive crowdsourcing marketplace and forecast task failure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run replications and write the six artifacts")
    _add_common(p_run)

    p_scen = sub.add_parser("scenario", help="run a policy comparison scenario")
    p_scen.add_argument("family", choices=("openness", "diversity"))
    _add_common(p_scen)

    p_what = sub.add_parser("whatif", help="compare posting the focal task on another day")
    p_what.add_argument("--day", type=float, required=True)
    _add_common(p_what)

    p_eval = sub.add_parser("evaluate", help="score forecasts against a history CSV")
    p_eval.add_argument("--history", required=True)
    p_eval.add_argument(
        "--predictions",
        help="predictions CSV; omitted: re-simulate under the active config",
    )
    _add_common(p_eval)

    p_cal = sub.add_parser("calibrate-fps", help="fit fps_slope and fps_intercept by simulation")
    _add_common(p_cal)

    return parser


def _emit(cfg, results, args, scenario=None, evaluation=None) -> None:
    paths = emit_outputs(cfg, results, args.out, scenario=scenario, evaluation=evaluation)
    echo_path = Path(args.out) / "config_used.cfg"
    echo_path.write_text(echo_config(cfg), encoding="utf-8")
    for path in paths:
        print(f"wrote {path}")
    print(f"wrote {echo_path}")


def _cmd_run(cfg, args) -> int:
    results = list(run_replications(cfg))
    _emit(cfg, results, args)
    mean_failures = sum(r.reported_failures for r in results) / len(results)
    print(f"replications: {len(results)}, mean reported failures: {mean_failures:.2f}")
    return 0


def _cmd_sweep(cfg, args) -> int:
    """``scenario`` and ``whatif``: run one policy sweep, emit, print each policy."""
    if args.command == "whatif":
        report, results = what_if_posting_day(cfg, args.day)
    elif args.family == "openness":
        report, results = run_openness_scenario(cfg)
    else:
        report, results = run_diversity_scenario(cfg)
    _emit(cfg, results, args, scenario=report)
    for out in report.outcomes:
        print(f"{out.label}: fail {out.fail}/{out.replications} (rate {out.failure_rate:.3f})")
    return 0


def _cmd_evaluate(cfg, args) -> int:
    rows = ingest_history(args.history)
    # both files are read before any replication, so a bad one costs no run
    latest = ingest_predictions(args.predictions) if args.predictions else None
    results = list(run_replications(cfg))
    if latest is None:
        latest = result_latest_predictions(results[0])
    evaluation = evaluate_forecast(rows, latest)
    _emit(cfg, results, args, evaluation=evaluation)
    for phase, ev in evaluation.items():
        mre_txt = "n/a" if ev.mre is None else f"{ev.mre:.6f}"
        print(f"{phase}: mre {mre_txt} over {ev.n_days} days")
    return 0


def _cmd_calibrate(cfg, args) -> int:
    slope, intercept, points = calibrate_fps(cfg)
    print(f"fps_slope = {slope!r}")
    print(f"fps_intercept = {intercept!r}")
    print(f"# fitted on {points} resolved tasks")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "scenario": _cmd_sweep,
    "whatif": _cmd_sweep,
    "evaluate": _cmd_evaluate,
    "calibrate-fps": _cmd_calibrate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args.config or os.environ.get(ENV_CONFIG), args.overrides)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ModelInvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
