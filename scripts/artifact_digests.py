"""Print the sha256 of every artifact and stdout of a fixed command matrix.

Runs ``csdsim.cli.main`` in-process on each command below at tiny sizes
(one replication, 25 tasks and 120 agents per run) and prints one line per
written file and per stdout:

    <command>/<file> <sha256>

Each command writes into a fresh temporary directory, and stdout is hashed
with that directory replaced by ``<out>``, so the lines do not depend on
where they were made. ``tests/data/artifact_digests.txt`` holds the
recorded lines; a change that moves a byte of any artifact re-records them
and names the moved files:

    PYTHONPATH=src python3 scripts/artifact_digests.py > tests/data/artifact_digests.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

from csdsim.cli import main

TINY_OVERRIDES = (
    "--set",
    "replications=1",
    "--set",
    "task_lambda=25",
    "--set",
    "agent_gamma=120",
)

DATA_DIR = Path(__file__).resolve().parents[1] / "tests" / "data"
HISTORY = str(DATA_DIR / "eval_history.csv")
PREDICTIONS = str(DATA_DIR / "eval_predictions.csv")

COMMANDS = (
    ("run", ("run",)),
    ("scenario_openness", ("scenario", "openness")),
    ("scenario_diversity", ("scenario", "diversity")),
    ("whatif_day_25", ("whatif", "--day", "25")),
    ("evaluate", ("evaluate", "--history", HISTORY)),
    ("evaluate_predictions", ("evaluate", "--history", HISTORY, "--predictions", PREDICTIONS)),
    ("calibrate_fps", ("calibrate-fps",)),
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def command_digests(name: str, argv) -> list:
    """``name/file sha256`` lines for the files one command writes, then its stdout."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main([*argv, "--out", str(out), *TINY_OVERRIDES])
        if code != 0:
            raise SystemExit(f"{name}: exit {code}")
        lines = [
            f"{name}/{path.name} {sha256(path.read_bytes())}"
            for path in sorted(out.glob("*"))  # calibrate-fps writes none
        ]
    text = stdout.getvalue().replace(str(out), "<out>")
    lines.append(f"{name}/stdout {sha256(text.encode('utf-8'))}")
    return lines


def digest_lines() -> list:
    return [line for name, argv in COMMANDS for line in command_digests(name, argv)]


if __name__ == "__main__":
    print("\n".join(digest_lines()))
