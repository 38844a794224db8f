"""Compare the record lines that need no numpy with what another interpreter computes.

``python3 scripts/cross_interpreter.py PY...`` computes ``artifact_digests.frozen_lines()``
and the ``calibrate_fps`` stdout line under each ``PY`` (this interpreter if none is
given) with numpy, scipy and statistics unimportable. After ``PY`` it prints ``PY``'s error,
or each computed line missing from ``tests/data/artifact_digests.txt`` and then, marked
``not computed:``, each recorded ``defaults/``, ``calibrate_fps/``, ``/trace`` and
``/decisions`` line it did not compute. It exits 1 if it prints any line.
"""

import os
import re
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
    expected = {line for line in recorded if re.match(r"(defaults|calibrate_fps)/|\S+/(trace|decisions) ", line)}
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "scripts")])}
    differs = False
    for python in interpreters:
        try:
            out = subprocess.run([python, "-c", CODE], env=env, capture_output=True, text=True)
        except OSError as error:
            lines = [str(error)]
        else:
            computed = out.stdout.splitlines()
            lines = [out.stderr.strip()] if out.returncode else [
                *(line for line in computed if line not in recorded),
                *(f"not computed: {line}" for line in sorted(expected.difference(computed))),
            ]
        for line in lines:
            print(python, line)
        differs = differs or bool(lines)
    return int(differs)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or [sys.executable]))
