"""Generate the synthetic forecast-evaluation fixture under tests/data/.

The fixture is engineered so the per-phase mean relative errors are exact
binary fractions: 1000 actual registration failures against 989.0 predicted
(978 tasks at 1.0 plus 22 at 0.5) gives MRE 0.011, and 1000 actual
submission failures against 980.0 predicted (960 at 1.0 plus 40 at 0.5)
gives MRE 0.020. Halves and small integers are exactly representable, so
tests can compare at 1e-9 with no accumulated-rounding slack.

Deterministic: running it twice produces byte-identical files.
"""

from __future__ import annotations

import csv
from pathlib import Path

from csdsim.domain import PHASES
from csdsim.history import HISTORY_COLUMNS, PREDICTION_COLUMNS

REGISTRATION, SUBMISSION = PHASES

DATA_DIR = Path(__file__).resolve().parent.parent / "tests" / "data"

N_PER_PHASE = 1000
HALVES_REGISTRATION = 22  # 978 * 1.0 + 22 * 0.5 = 989.0
HALVES_SUBMISSION = 40  # 960 * 1.0 + 40 * 0.5 = 980.0
SUPERSEDED = 5  # early rows later overridden, to exercise latest-wins


def _posted_reg(i: int) -> int:
    # quadratic residues spread unevenly, so daily failure counts vary
    return (i * i) % 41 + 1


def _posted_sub(i: int) -> int:
    return (i * i) % 43 + 1


def history_rows():
    for i in range(1, N_PER_PHASE + 1):
        posted = _posted_reg(i)
        if i % 2 == 1:
            yield (f"r{i:04d}", posted, 5.0, 0, 0, "starved", "")
        else:
            yield (f"r{i:04d}", posted, 5.0, 3, 0, "dropped", "")
    for i in range(1, N_PER_PHASE + 1):
        posted = _posted_sub(i)
        yield (f"s{i:04d}", posted, 5.0, 5, 2, "failed", "")


def prediction_rows():
    for i in range(1, N_PER_PHASE + 1):
        posted = _posted_reg(i)
        value = 0.5 if i <= HALVES_REGISTRATION else 1.0
        if i <= SUPERSEDED:
            yield (f"r{i:04d}", posted - 1, REGISTRATION, 0.123)
        yield (f"r{i:04d}", posted, REGISTRATION, value)
    for i in range(1, N_PER_PHASE + 1):
        posted = _posted_sub(i)
        value = 0.5 if i <= HALVES_SUBMISSION else 1.0
        if i <= SUPERSEDED:
            yield (f"s{i:04d}", posted - 1, SUBMISSION, 0.123)
        yield (f"s{i:04d}", posted, SUBMISSION, value)


def main() -> None:
    DATA_DIR.mkdir(parents=True, exist_ok=True)

    history = DATA_DIR / "eval_history.csv"
    with history.open("w", newline="") as fh:
        fh.write("# synthetic evaluation fixture, all tasks failed\n")
        writer = csv.writer(fh)
        writer.writerow(HISTORY_COLUMNS)
        writer.writerows(history_rows())

    predictions = DATA_DIR / "eval_predictions.csv"
    with predictions.open("w", newline="") as fh:
        fh.write("# synthetic evaluation fixture, latest row per task wins\n")
        writer = csv.writer(fh)
        writer.writerow(PREDICTION_COLUMNS)
        writer.writerows(prediction_rows())

    reg = sum(0.5 if i <= HALVES_REGISTRATION else 1.0 for i in range(1, N_PER_PHASE + 1))
    sub = sum(0.5 if i <= HALVES_SUBMISSION else 1.0 for i in range(1, N_PER_PHASE + 1))
    assert reg == 989.0 and sub == 980.0, (reg, sub)
    assert (N_PER_PHASE - reg) / N_PER_PHASE == 0.011
    assert (N_PER_PHASE - sub) / N_PER_PHASE == 0.020
    print(f"wrote {history}")
    print(f"wrote {predictions}")
    print(f"registration: actual {N_PER_PHASE} predicted {reg} mre 0.011")
    print(f"submission:   actual {N_PER_PHASE} predicted {sub} mre 0.020")


if __name__ == "__main__":
    main()
