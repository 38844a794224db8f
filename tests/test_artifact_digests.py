"""Every command's artifacts and stdout match the recorded sha256 lines."""

import importlib.util
import time
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "artifact_digests.py"
RECORDED = Path(__file__).parent / "data" / "artifact_digests.txt"
BUDGET_S = 5.0


def load_script():
    spec = importlib.util.spec_from_file_location("artifact_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def as_dict(lines) -> dict:
    return dict(line.split(" ", 1) for line in lines)


def test_every_command_matches_its_recorded_digests():
    script = load_script()
    started = time.monotonic()
    lines = script.digest_lines()
    elapsed = time.monotonic() - started
    # compared as dicts, so a failure names each moved file
    assert as_dict(lines) == as_dict(RECORDED.read_text(encoding="utf-8").splitlines())
    assert elapsed < BUDGET_S, f"digest matrix took {elapsed:.1f}s"
