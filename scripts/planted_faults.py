"""Plant each registered fault in a copy of the tree and check that a test fails.

Each entry of ``FAULTS`` names a file, an exact text that occurs once in it,
the text that replaces it, and the test node that must fail once the fault is
planted. The script copies ``src/``, ``tests/``, ``scripts/`` and the README
to a temporary directory, checks that every node passes there, then plants
one fault at a time, runs its node with pytest and prints ``bites`` if the
node fails or ``MISSED`` if it passes. It exits 1 if any fault is missed.

    python3 scripts/planted_faults.py

Hypothesis draws with ``--hypothesis-seed 0``, so a run is reproducible. A
change that shows a fault failing a test adds it here; a change that removes
the code a fault lives in removes its entry and says why.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "scripts", "README.md")

BUSY_MARKET = "tests/test_config_fuzz.py::test_a_busy_market_keeps_its_invariants_and_scores"


class Fault(NamedTuple):
    name: str
    path: str  # relative to the repository root
    text: str  # occurs exactly once in ``path``
    planted: str
    node: str


FAULTS = (
    Fault(
        "review-needs-all-qualified",
        "src/csdsim/lifecycle.py",
        "    if any(s.qualified for s in task.submissions):\n",
        "    if all(s.qualified for s in task.submissions):\n",
        BUSY_MARKET,
    ),
    Fault(
        "review-reads-first-submission",
        "src/csdsim/lifecycle.py",
        "    if any(s.qualified for s in task.submissions):\n",
        "    if task.submissions[0].qualified:\n",
        BUSY_MARKET,
    ),
    Fault(
        "pool-pos-kept",
        "src/csdsim/engine.py",
        "            self.pool[pos] = last\n            self._pool_pos[last.task_id] = pos\n",
        "            self.pool[pos] = last\n",
        BUSY_MARKET,
    ),
    Fault(
        "submitted-task-stays-pooled",
        "src/csdsim/engine.py",
        "            self._pool_remove(task)  # registration closes with the first submission\n",
        "",
        BUSY_MARKET,
    ),
    Fault(
        "tsr-edges-swapped",
        "src/csdsim/engine.py",
        "compute_tsr(counts[_INTO_SUBMITTED], counts[_INTO_REGISTERED])",
        "compute_tsr(counts[_INTO_REGISTERED], counts[_INTO_SUBMITTED])",
        BUSY_MARKET,
    ),
    Fault(
        "prediction-phase-as-read",
        "src/csdsim/history.py",
        "                    phase = _PHASES[phase]\n",
        "                    _PHASES[phase]\n",
        "tests/test_history.py::test_fixture_files_read_as_csdsim_own_strings",
    ),
    Fault(
        "config-reader-on-utf8",
        "src/csdsim/config.py",
        'open(path, "r", encoding="utf-8-sig")',
        'open(path, "r", encoding="utf-8")',
        "tests/test_outputs_cli.py::test_a_byte_order_mark_reads_like_the_file_without_it[config]",
    ),
)


def pytest_code(tree: Path, nodes) -> int:
    """pytest's exit code on ``nodes`` in ``tree``: 0 all passed, 1 one failed, more an error."""
    shutil.rmtree(tree / ".hypothesis", ignore_errors=True)  # no example carries over
    paths = [str(tree / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    # no bytecode: a same-length fault planted within the second would reuse a stale .pyc
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    argv += ["--hypothesis-seed", "0", *nodes]
    return subprocess.run(argv, cwd=tree, env=env, capture_output=True).returncode


def main() -> int:
    start = time.perf_counter()
    missed = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, tree / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, tree / name)
        if pytest_code(tree, sorted({f.node for f in FAULTS})) != 0:
            sys.exit("a node fails with no fault planted; fix the tree first")
        for fault in FAULTS:
            target = tree / fault.path
            original = target.read_text(encoding="utf-8")
            if original.count(fault.text) != 1:
                sys.exit(f"{fault.name}: its text does not occur exactly once in {fault.path}")
            target.write_text(original.replace(fault.text, fault.planted), encoding="utf-8")
            try:
                code = pytest_code(tree, [fault.node])
            finally:
                target.write_text(original, encoding="utf-8")
            if code > 1:  # the planted tree does not collect or run: the entry is broken
                sys.exit(f"{fault.name}: pytest exited {code}, not with a test failure")
            bites = code == 1
            missed += not bites
            print(f"{'bites' if bites else 'MISSED':6}  {fault.name:29}  {fault.node}", flush=True)
    print(f"{len(FAULTS) - missed} of {len(FAULTS)} bite, in {time.perf_counter() - start:.0f} s")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
