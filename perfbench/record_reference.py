"""Record the outcome digests the simulated workloads are checked against.

Usage, from the repository root:

    python3 perfbench/record_reference.py

Rewrites perfbench/reference.json from the current code. Re-record only when
a change is meant to alter simulated outcomes, and say so with the change.
"""

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from csdsim import emit_outputs, run_replication  # noqa: E402

from workloads import (  # noqa: E402
    CHECKED_CSVS,
    REFERENCE_PATH,
    DiversitySweep,
    RunDefault,
    file_sha256,
    policy_label,
    replication_digest,
)


def record_run_default() -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for cfg in RunDefault.configs():
            results = [
                run_replication(dataclasses.replace(cfg, seed=cfg.seed + r))
                for r in range(cfg.replications)
            ]
            emit_outputs(cfg, results, tmp)
            out[str(cfg.seed)] = {
                "replications": [replication_digest(res) for res in results],
                "csv": {name: file_sha256(Path(tmp) / name) for name in CHECKED_CSVS},
            }
    return out


def record_diversity() -> dict:
    out = {}
    for cfg in DiversitySweep.configs():
        digests = out.setdefault(str(cfg.seed), {})
        digests[policy_label(cfg.admitted_belts)] = replication_digest(run_replication(cfg))
    return out


def main() -> None:
    reference = {"run_default": record_run_default(), "diversity_sweep": record_diversity()}
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_PATH}")


if __name__ == "__main__":
    main()
