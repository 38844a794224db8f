"""Run-history ingestion and forecast evaluation.

A history CSV is the ground truth: one row per task with its outcome. A
predictions CSV carries the forecast trail: one row per risk update. Both are
UTF-8, read by one ``csv.reader`` record loop that finds columns by header
name in any order and skips ``#`` lines and blank rows; an unreadable or
undecodable file, or a cell past the csv field size limit, is a ``DataError``.
The evaluation aligns both into daily per-phase series and scores the
forecast with MRE, correlation, and a bias t-test.

Two-sided p-values come from ``scipy.special.stdtr``, the Student t CDF
that ``scipy.stats.t.sf`` itself calls (``sf(t, df) == stdtr(df, -t)``), so
csdsim never pays the start-up cost of importing ``scipy.stats``. numpy and
``scipy.special`` are imported inside the two statistics, so ``import csdsim``
and a replication load neither; the first evaluation pays for them.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass
from typing import Optional

from .domain import FAILURE_OUTCOMES, PHASES, TaskState, failure_phase


class DataError(Exception):
    """A history or predictions file failed row-level validation."""


HISTORY_COLUMNS = (
    "task_id",
    "posted_day",
    "duration_days",
    "registrants",
    "submissions",
    "outcome",
    "failure_phase",
)

PREDICTION_COLUMNS = ("task_id", "day", "phase", "prediction")

# Every state a task can rest in; one in PEER_REVIEW is resolved the same instant.
VALID_OUTCOMES = frozenset(s.value for s in TaskState if s is not TaskState.PEER_REVIEW)


@dataclass(frozen=True)
class HistoryRow:
    task_id: str
    posted_day: float
    duration_days: float
    registrants: int
    submissions: int
    outcome: str
    failure_phase: str

    @property
    def deadline_day(self) -> int:
        return int(math.floor(self.posted_day + self.duration_days))

    @property
    def failed(self) -> bool:
        return self.outcome in FAILURE_OUTCOMES

    @property
    def phase(self) -> Optional[str]:
        """Failure phase: the stated one, else inferred from the submission count."""
        if not self.failed:
            return None
        return self.failure_phase or failure_phase(self.outcome, self.submissions)


def _row_error(row_num: int, message: str) -> DataError:
    return DataError(f"row {row_num}: {message}")


def _validate_row(row: HistoryRow, row_num: int) -> None:
    if not row.task_id:
        raise _row_error(row_num, "task_id is empty")
    if row.posted_day < 0:
        raise _row_error(row_num, "posted_day is negative")
    if row.duration_days <= 0:
        raise _row_error(row_num, "duration_days must be positive")
    if row.registrants < 0 or row.submissions < 0:
        raise _row_error(row_num, "counts must be non-negative")
    if row.outcome not in VALID_OUTCOMES:
        raise _row_error(row_num, f"unknown outcome {row.outcome!r}")
    if row.submissions > 0 and row.registrants == 0:
        raise _row_error(row_num, "submissions without registrants")
    if row.outcome == "starved" and row.registrants != 0:
        raise _row_error(row_num, "a starved task cannot have registrants")
    if row.outcome == "dropped" and row.submissions != 0:
        raise _row_error(row_num, "a dropped task cannot have submissions")
    if row.outcome == "failed" and row.submissions == 0:
        raise _row_error(row_num, "a review failure requires submissions")
    if row.failure_phase and row.failure_phase not in PHASES:
        raise _row_error(row_num, f"unknown failure_phase {row.failure_phase!r}")


def _records(fh, label: str, columns):
    """Yield (row number, cells in ``columns`` order) for each data row of ``fh``.

    Reads as ``csv.DictReader`` does: blank rows are skipped unnumbered, a
    duplicated header name reads its last column, and a short row reads None.
    A ``#`` line is a comment where a record starts, and data inside a quoted cell.
    """
    at_record_start = True

    def lines():  # csv.reader pulls each line only when its record needs one
        nonlocal at_record_start
        for line in fh:
            if not (at_record_start and line.startswith("#")):
                at_record_start = False
                yield line

    reader = csv.reader(lines())
    header = next(reader, None) or []
    at_record_start = True
    index = {name: i for i, name in enumerate(header)}
    missing = set(columns) - set(index)
    if missing:
        raise DataError(f"{label}: missing columns {sorted(missing)}")
    pick = operator.itemgetter(*(index[name] for name in columns))
    row_num = 1
    for row in reader:
        at_record_start = True
        if row:
            row_num += 1
            if len(row) < len(header):
                row += [None] * (len(header) - len(row))
            yield row_num, pick(row)


# unreadable file, bytes that are not UTF-8, a cell past csv.field_size_limit()
_READ_ERRORS = (OSError, UnicodeDecodeError, csv.Error)


def ingest_history(path: str):
    """Load and validate a history CSV. Extra columns are tolerated."""
    rows = []
    seen = set()
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            for row_num, cells in _records(fh, f"history {path}", HISTORY_COLUMNS):
                task_id, posted, duration, regs, subs, outcome, phase = cells
                try:
                    row = HistoryRow(
                        task_id=(task_id or "").strip(),
                        posted_day=float(posted),
                        duration_days=float(duration),
                        registrants=int(regs),
                        submissions=int(subs),
                        outcome=(outcome or "").strip(),
                        failure_phase=(phase or "").strip(),
                    )
                except (TypeError, ValueError) as exc:
                    raise _row_error(row_num, f"bad cell: {exc}") from None
                _validate_row(row, row_num)
                if row.task_id in seen:
                    raise _row_error(row_num, f"duplicate task_id {row.task_id}")
                seen.add(row.task_id)
                rows.append(row)
    except _READ_ERRORS as exc:
        raise DataError(f"cannot read history {path}: {exc}") from None
    if not rows:
        raise DataError(f"history {path}: no data rows")
    return rows


def ingest_predictions(path: str) -> dict:
    """Load a predictions CSV into {(task_id, phase): latest value}."""
    latest: dict = {}
    latest_day: dict = {}
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            for row_num, cells in _records(fh, f"predictions {path}", PREDICTION_COLUMNS):
                task_id, day, phase, value = cells
                task_id = (task_id or "").strip()
                phase = (phase or "").strip()
                if not task_id:
                    raise _row_error(row_num, "task_id is empty")
                if phase not in PHASES:
                    raise _row_error(row_num, f"unknown phase {phase!r}")
                try:
                    day = float(day)
                    value = float(value)
                except (TypeError, ValueError) as exc:
                    raise _row_error(row_num, f"bad cell: {exc}") from None
                if day < 0:
                    raise _row_error(row_num, "day is negative")
                if value < 0:
                    raise _row_error(row_num, "prediction is negative")
                key = (task_id, phase)
                prev = latest_day.get(key)
                if prev is None or day >= prev:
                    latest_day[key] = day
                    latest[key] = value
    except _READ_ERRORS as exc:
        raise DataError(f"cannot read predictions {path}: {exc}") from None
    return latest


# ----------------------------------------------------------------- statistics


def mre(actual_total: float, predicted_total: float) -> Optional[float]:
    """Signed mean relative error of summed forecasts against actuals."""
    if actual_total == 0:
        return None
    return (actual_total - predicted_total) / actual_total


def pearson_with_p(xs, ys):
    """Sample Pearson correlation with a two-sided p-value.

    Returns None when either series is constant or too short; there is no
    meaningful correlation to report in those cases.
    """
    n = len(xs)
    if n != len(ys):
        raise ValueError("series lengths differ")
    if n < 3:
        return None
    import numpy as np
    from scipy.special import stdtr
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    dx = x - x.mean()
    dy = y - y.mean()
    sx = math.sqrt(float(np.dot(dx, dx)))
    sy = math.sqrt(float(np.dot(dy, dy)))
    if sx == 0.0 or sy == 0.0:
        return None
    r = float(np.dot(dx, dy)) / (sx * sy)
    r = max(-1.0, min(1.0, r))
    if abs(r) == 1.0:
        return r, 0.0
    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    p = 2.0 * float(stdtr(n - 2, -abs(t)))
    return r, min(1.0, p)


def t_test_one_sample(xs, popmean: float = 0.0):
    """One-sample two-sided t-test; exact answers for degenerate variance."""
    n = len(xs)
    if n < 2:
        return None
    import numpy as np
    from scipy.special import stdtr
    x = np.asarray(xs, dtype=float)
    mean = float(x.mean())
    sd = float(x.std(ddof=1))
    if sd == 0.0:
        if mean == popmean:
            return 0.0, 1.0
        return math.copysign(math.inf, mean - popmean), 0.0
    t = (mean - popmean) / (sd / math.sqrt(n))
    p = 2.0 * float(stdtr(n - 1, -abs(t)))
    return t, min(1.0, p)


@dataclass(frozen=True)
class PhaseEvaluation:
    phase: str
    n_days: int
    actual_total: float
    predicted_total: float
    mre: Optional[float]
    pearson_r: Optional[float]
    pearson_p: Optional[float]
    t_stat: Optional[float]
    t_p: Optional[float]


def evaluate_forecast(history_rows, latest_predictions) -> dict:
    """Score per-phase daily forecast series against realized failures.

    Actual failures land on each task's deadline day. Predicted failures
    are the per-day sums of every task's latest per-phase risk, failed or
    not: a forecast is expected mass, not a verdict list.
    """
    actual = {phase: {} for phase in PHASES}
    predicted = {phase: {} for phase in PHASES}
    for row in history_rows:
        day = row.deadline_day
        phase = row.phase
        if phase is not None:
            actual[phase][day] = actual[phase].get(day, 0) + 1
        for p in PHASES:
            value = latest_predictions.get((row.task_id, p))
            if value is not None:
                predicted[p][day] = predicted[p].get(day, 0.0) + value
    out = {}
    for phase in PHASES:
        days = sorted(set(actual[phase]) | set(predicted[phase]))
        af = [float(actual[phase].get(d, 0)) for d in days]
        fp = [float(predicted[phase].get(d, 0.0)) for d in days]
        af_total = sum(af)
        fp_total = sum(fp)
        corr = pearson_with_p(af, fp)
        diffs = [a - f for a, f in zip(af, fp)]
        ttest = t_test_one_sample(diffs) if diffs else None
        out[phase] = PhaseEvaluation(
            phase=phase,
            n_days=len(days),
            actual_total=af_total,
            predicted_total=fp_total,
            mre=mre(af_total, fp_total),
            pearson_r=corr[0] if corr else None,
            pearson_p=corr[1] if corr else None,
            t_stat=ttest[0] if ttest else None,
            t_p=ttest[1] if ttest else None,
        )
    return out


def result_history_rows(result) -> list:
    """Adapt one replication's task log to validated history rows."""
    rows = []
    for rec in result.task_log:
        rows.append(
            HistoryRow(
                task_id=str(rec["task_id"]),
                posted_day=rec["posted_day"],
                duration_days=rec["duration_days"],
                registrants=rec["registrants"],
                submissions=rec["submissions"],
                outcome=rec["outcome"],
                failure_phase=rec["failure_phase"],
            )
        )
    return rows


def result_latest_predictions(result) -> dict:
    """One replication's last forecast per ``(task_id, phase)``, string-keyed."""
    return {(str(tid), phase): value for tid, _day, phase, value in result.predictions}
