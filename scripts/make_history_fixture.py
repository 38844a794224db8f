"""Export one simulated replication as history and prediction CSVs.

Produces files in the exact shape `csdsim evaluate` ingests, so the
offline scoring path can be exercised against known simulated truth:

    python3 scripts/make_history_fixture.py --out /tmp/fx
    csdsim evaluate --history /tmp/fx/history.csv --predictions /tmp/fx/predictions.csv
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
from pathlib import Path

from csdsim import RunConfig, run_replication
from csdsim.history import HISTORY_COLUMNS, PREDICTION_COLUMNS


def write_history(result, path: Path, note: str) -> None:
    """Write ``result``'s task log to ``path`` as a history CSV, under a ``# note`` line."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# {note}\n")
        writer = csv.writer(fh)
        writer.writerow(HISTORY_COLUMNS)
        writer.writerows([rec[c] for c in HISTORY_COLUMNS] for rec in result.task_log)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=RunConfig().seed)
    parser.add_argument("--out", type=Path, default=Path("fixture_out"))
    args = parser.parse_args()

    cfg = dataclasses.replace(RunConfig(), seed=args.seed)
    result = run_replication(cfg)
    args.out.mkdir(parents=True, exist_ok=True)

    history_path = args.out / "history.csv"
    write_history(result, history_path, f"simulated task history, seed={cfg.seed}")

    predictions_path = args.out / "predictions.csv"
    with open(predictions_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# simulated risk predictions, seed={cfg.seed}\n")
        writer = csv.writer(fh)
        writer.writerow(PREDICTION_COLUMNS)
        for task_id, day, phase, value in result.predictions:
            writer.writerow([task_id, day, phase, value])

    print(f"wrote {history_path} ({len(result.task_log)} tasks)")
    print(f"wrote {predictions_path} ({len(result.predictions)} predictions)")


if __name__ == "__main__":
    main()
