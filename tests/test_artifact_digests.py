"""Every command's artifacts and stdout match the recorded sha256 lines."""

import time

from conftest import DATA_DIR, load_script

RECORDED = DATA_DIR / "artifact_digests.txt"
BUDGET_S = 5.0


def as_dict(lines) -> dict:
    return dict(line.split(" ", 1) for line in lines)


def test_every_command_matches_its_recorded_digests():
    script = load_script("artifact_digests")
    started = time.monotonic()
    lines = script.digest_lines()
    elapsed = time.monotonic() - started
    # compared as dicts, so a failure names each moved file
    assert as_dict(lines) == as_dict(RECORDED.read_text(encoding="utf-8").splitlines())
    assert elapsed < BUDGET_S, f"digest matrix took {elapsed:.1f}s"
