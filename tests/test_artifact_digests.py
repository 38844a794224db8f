"""Every frozen value matches its recorded line: each command's artifacts and
stdout, the default config's echo, and each pinned replication. test_scripts
rechecks the lines that need no numpy with numpy and scipy unimportable."""

import time

from conftest import DATA_DIR, load_script

SCRIPT = load_script("artifact_digests")
RECORDED = (DATA_DIR / "artifact_digests.txt").read_text(encoding="utf-8").splitlines()
BUDGET_S = 5.0


def as_dict(lines) -> dict:
    return dict(line.split(" ", 1) for line in lines)


def test_every_command_matches_its_recorded_digests():
    started = time.monotonic()
    lines = SCRIPT.digest_lines()
    elapsed = time.monotonic() - started
    # compared as dicts, so a failure names each moved line
    assert as_dict(lines) == as_dict(RECORDED)
    assert elapsed < BUDGET_S, f"digest matrix took {elapsed:.1f}s"

