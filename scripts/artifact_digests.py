"""Print every frozen value of csdsim, one ``<name> <value>`` line each.

First the sha256 of each file written and of stdout, for each command below,
run in-process at tiny sizes (``TINY``, unless the entry's own ``--set``
says otherwise) in a fresh temporary directory, which stdout names as
``<out>``. Then the values no command writes: the sha256 of the default
config's echo, and for each pinned replication its event count and trace
hash, and the sha256 of what it decided (task log, forecasts, daily rows
and focal task):

    <command>/<file> <sha256>
    defaults/config_used.cfg <sha256>
    <replication>/trace <events> <trace_hash>
    <replication>/decisions <sha256>

``tests/data/artifact_digests.txt`` holds the recorded lines, the one record
of frozen values. A change that moves a default, an event or a byte of any
artifact re-records it and names the moved lines:

    PYTHONPATH=src python3 scripts/artifact_digests.py > tests/data/artifact_digests.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from csdsim import RunConfig, echo_config, run_replication
from csdsim.cli import main
from csdsim.scenarios import DIVERSITY_POLICIES

TINY = {"replications": 1, "task_lambda": 25.0, "agent_gamma": 120.0}
TINY_OVERRIDES = tuple(arg for key, value in TINY.items() for arg in ("--set", f"{key}={value:g}"))

DATA_DIR = Path(__file__).resolve().parents[1] / "tests" / "data"
HISTORY = str(DATA_DIR / "eval_history.csv")
PREDICTIONS = str(DATA_DIR / "eval_predictions.csv")

COMMANDS = (
    ("run", ("run",)),
    ("run_two_replications", ("run", "--set", "replications=2")),
    ("run_match_mode_all", ("run", "--set", "match_mode=all")),
    ("run_experience_alpha_2.5", ("run", "--set", "experience_alpha=2.5")),
    ("run_open_list_cap_1", ("run", "--set", "open_list_cap=1")),
    (
        "run_per_day_arrivals",
        ("run", "--set", "arrival_rate_unit=per_day")
        + ("--set", "task_lambda=1.5", "--set", "agent_gamma=4"),
    ),
    ("scenario_openness", ("scenario", "openness")),
    ("scenario_diversity", ("scenario", "diversity")),
    ("whatif_day_25", ("whatif", "--day", "25")),
    ("evaluate", ("evaluate", "--history", HISTORY)),
    ("evaluate_predictions", ("evaluate", "--history", HISTORY, "--predictions", PREDICTIONS)),
    ("calibrate_fps", ("calibrate-fps",)),
)
WRITES_NOTHING = {"calibrate-fps"}  # takes no --out

REPLICATIONS = (
    ("seed_1000", RunConfig(seed=1000, focal_enabled=True)),
    ("tiny", RunConfig(seed=42, **TINY, focal_enabled=True)),
    ("tiny_yellow_red", RunConfig(seed=42, **TINY, focal_enabled=True, admitted_belts=("yellow", "red"))),
) + tuple(
    # each policy's replication 0 of ``scenario diversity`` at CRN seed 2000
    (f"diversity_{label}", RunConfig(seed=2000, focal_enabled=True, admitted_belts=belts))
    for label, belts in DIVERSITY_POLICIES
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def command_digests(name: str, argv) -> list:
    """``name/file sha256`` lines for the files one command writes, then its stdout."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        stdout = io.StringIO()
        out_args = () if argv[0] in WRITES_NOTHING else ("--out", str(out))
        with contextlib.redirect_stdout(stdout):
            code = main([argv[0], *TINY_OVERRIDES, *argv[1:], *out_args])
        if code != 0:
            raise SystemExit(f"{name}: exit {code}")
        lines = [
            f"{name}/{path.name} {sha256(path.read_bytes())}"
            for path in sorted(out.glob("*"))
        ]
    text = stdout.getvalue().replace(str(out), "<out>")
    lines.append(f"{name}/stdout {sha256(text.encode('utf-8'))}")
    return lines


def decisions_digest(result) -> str:
    """sha256 of what a replication decided, leaving out its events and trace hash."""
    payload = {key: getattr(result, key) for key in ("task_log", "predictions", "daily", "focal")}
    return sha256(json.dumps(payload, sort_keys=True, separators=(",", ":")).encode())


def frozen_lines() -> list:
    """The lines no command writes: the default echo, then each pinned replication."""
    lines = [f"defaults/config_used.cfg {sha256(echo_config(RunConfig()).encode('utf-8'))}"]
    for name, cfg in REPLICATIONS:
        result = run_replication(cfg)
        lines.append(f"{name}/trace {result.events_processed} {result.trace_hash}")
        lines.append(f"{name}/decisions {decisions_digest(result)}")
    return lines


def digest_lines() -> list:
    commands = [line for name, argv in COMMANDS for line in command_digests(name, argv)]
    return commands + frozen_lines()


if __name__ == "__main__":
    print("\n".join(digest_lines()))
