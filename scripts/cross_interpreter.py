"""Print each record line that needs no numpy and differs under another interpreter.

``python3 scripts/cross_interpreter.py PY...`` computes ``artifact_digests.frozen_lines()``
and the ``calibrate_fps`` stdout line under each ``PY`` (this interpreter if none is
given) with numpy, scipy and statistics unimportable, prints after ``PY`` each line
missing from ``tests/data/artifact_digests.txt`` or ``PY``'s error, and exits 1 if any.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CODE = """import sys
sys.modules["numpy"] = sys.modules["scipy"] = sys.modules["statistics"] = None
import artifact_digests as script
print(*script.frozen_lines(), *script.command_digests("calibrate_fps", ("calibrate-fps",)), sep="\\n")
"""


def main(interpreters) -> int:
    recorded = set((ROOT / "tests" / "data" / "artifact_digests.txt").read_text(encoding="utf-8").splitlines())
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "scripts")])}
    differs = False
    for python in interpreters:
        out = subprocess.run([python, "-c", CODE], env=env, capture_output=True, text=True)
        for line in out.stdout.splitlines() if out.returncode == 0 else [out.stderr.strip()]:
            if line not in recorded:
                print(python, line)
                differs = True
    return int(differs)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or [sys.executable]))
