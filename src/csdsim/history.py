"""Run-history ingestion and forecast evaluation.

A history CSV is the ground truth: one row per task with its outcome. A
predictions CSV carries the forecast trail: one row per risk update. Both are
UTF-8, a leading byte-order mark allowed, read by one record reader,
``_records``, that finds columns by header name in any order and skips blank
rows and each ``#`` line where a record starts; an unreadable or undecodable
file, or a cell past the csv field size limit, is a ``DataError``. Each
ingester numbers the rows it is given from 2, the header being row 1, so blank
and ``#`` lines count toward no row number, and names that number in every row
error. Numbers must be finite and predictions lie in [0, 1]. Outcome and phase
cells come back as csdsim's own strings, the ``TaskState`` values and
``domain.PHASES``, not csv's copies.

A history row is a ``HistoryRow``, an immutable, hashable named tuple of the
seven history columns. The evaluation derives each row's deadline day and
failure phase (the stated one, else ``domain.failure_phase``), aligns both
files into daily per-phase series and scores the forecast with MRE,
correlation, and a bias t-test.

Both two-sided p-values come from ``_two_sided_p``, on ``scipy.special.stdtr``,
the Student t CDF that ``scipy.stats.t.sf`` itself calls (``sf(t, df) ==
stdtr(df, -t)``), so csdsim never pays the start-up cost of importing
``scipy.stats``. numpy is imported inside the two statistics and
``scipy.special`` inside ``_two_sided_p``, so ``import csdsim`` and a
replication load neither; the first evaluation pays for them.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple, Optional

from .domain import FAILURE_OUTCOMES, PHASES, TaskState, failure_phase, ordered_sum


class DataError(Exception):
    """A history or predictions file failed row-level validation."""


PREDICTION_COLUMNS = ("task_id", "day", "phase", "prediction")

# Each valid cell to csdsim's own string; no task rests in PEER_REVIEW.
_OUTCOMES = {s.value: s.value for s in TaskState if s is not TaskState.PEER_REVIEW}
_PHASES = {phase: phase for phase in PHASES}
_STATED_PHASES = {"": "", **_PHASES}  # an empty failure_phase cell says to infer it


class HistoryRow(NamedTuple):
    task_id: str
    posted_day: float
    duration_days: float
    registrants: int
    submissions: int
    outcome: str
    failure_phase: str


HISTORY_COLUMNS = HistoryRow._fields


def _row_error(row_num: int, message: str) -> DataError:
    return DataError(f"row {row_num}: {message}")


def _rows_without_comments(lines):
    """``csv.reader`` rows of ``lines``, dropping each ``#`` line where a record starts."""
    at_record_start = True

    def data_lines():  # csv.reader pulls each line only when its record needs one
        nonlocal at_record_start
        for line in lines:
            if not (at_record_start and line.startswith("#")):
                at_record_start = False
                yield line

    for row in csv.reader(data_lines()):
        at_record_start = True
        yield row


def _records(lines, label: str, columns):
    """Iterate the cells, in ``columns`` order, of each data row of ``lines``.

    ``lines`` is any iterable of text lines, such as a file opened with
    ``newline=""``, read once from front to back. Reads as ``csv.DictReader``
    does: blank rows are skipped, a duplicated header name reads its last
    column, and a short row reads None. A ``#`` line is a comment where a
    record starts, and data inside a quoted cell. Callers number the rows from
    2, the header being row 1.
    """
    rows = _rows_without_comments(lines)
    header = next(rows, None) or []
    index = {name: i for i, name in enumerate(header)}
    missing = set(columns) - set(index)
    if missing:
        raise DataError(f"{label}: missing columns {sorted(missing)}")
    pick = operator.itemgetter(*(index[name] for name in columns))
    # every picked index is below len(header), so a short row reads None from the pad
    pad = [None] * len(header)
    return map(pick, map(operator.add, filter(None, rows), repeat(pad)))


# unreadable file, bytes that are not UTF-8, a cell past csv.field_size_limit()
_READ_ERRORS = (OSError, UnicodeDecodeError, csv.Error)
_INF = math.inf


def ingest_history(path: str):
    """Load and validate a history CSV. Extra columns are tolerated."""
    rows = []
    seen = set()
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            records = _records(fh, f"history {path}", HISTORY_COLUMNS)
            for row_num, (task_id, posted, duration, regs, subs, outcome, phase) in enumerate(records, 2):
                task_id = (task_id or "").strip()
                try:
                    posted = float(posted)
                    duration = float(duration)
                    regs = int(regs)
                    subs = int(subs)
                except (TypeError, ValueError) as exc:
                    raise _row_error(row_num, f"bad cell: {exc}") from None
                outcome = (outcome or "").strip()
                phase = (phase or "").strip()
                if not task_id:
                    raise _row_error(row_num, "task_id is empty")
                if posted < 0:
                    raise _row_error(row_num, "posted_day is negative")
                if duration <= 0:
                    raise _row_error(row_num, "duration_days must be positive")
                if not posted + duration < _INF:  # also true for NaN
                    raise _row_error(row_num, "posted_day + duration_days is not finite")
                if regs < 0 or subs < 0:
                    raise _row_error(row_num, "counts must be non-negative")
                try:
                    outcome = _OUTCOMES[outcome]
                except KeyError:
                    raise _row_error(row_num, f"unknown outcome {outcome!r}") from None
                if subs > 0 and regs == 0:
                    raise _row_error(row_num, "submissions without registrants")
                if outcome == "starved" and regs != 0:
                    raise _row_error(row_num, "a starved task cannot have registrants")
                if outcome == "dropped" and subs != 0:
                    raise _row_error(row_num, "a dropped task cannot have submissions")
                if outcome == "failed" and subs == 0:
                    raise _row_error(row_num, "a review failure requires submissions")
                if outcome == "completed" and subs == 0:
                    raise _row_error(row_num, "a completed task requires submissions")
                if outcome == "dropped" and regs == 0:
                    raise _row_error(row_num, "a dropped task requires registrants")
                try:
                    phase = _STATED_PHASES[phase]
                except KeyError:
                    raise _row_error(row_num, f"unknown failure_phase {phase!r}") from None
                if task_id in seen:
                    raise _row_error(row_num, f"duplicate task_id {task_id}")
                seen.add(task_id)
                rows.append(HistoryRow(task_id, posted, duration, regs, subs, outcome, phase))
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
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            records = _records(fh, f"predictions {path}", PREDICTION_COLUMNS)
            for row_num, (task_id, day, phase, value) in enumerate(records, 2):
                task_id = (task_id or "").strip()
                phase = (phase or "").strip()
                if not task_id:
                    raise _row_error(row_num, "task_id is empty")
                try:
                    phase = _PHASES[phase]
                except KeyError:
                    raise _row_error(row_num, f"unknown phase {phase!r}") from None
                try:
                    day = float(day)
                    value = float(value)
                except (TypeError, ValueError) as exc:
                    raise _row_error(row_num, f"bad cell: {exc}") from None
                if day < 0:
                    raise _row_error(row_num, "day is negative")
                if not day < _INF:  # also true for NaN
                    raise _row_error(row_num, "day is not finite")
                if value < 0:
                    raise _row_error(row_num, "prediction is negative")
                if not value <= 1.0:
                    raise _row_error(row_num, "prediction is not in [0, 1]")
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


def _two_sided_p(t: float, df: int) -> float:
    """Two-sided Student t tail of ``t`` with ``df`` degrees of freedom, capped at 1."""
    from scipy.special import stdtr
    return min(1.0, 2.0 * float(stdtr(df, -abs(t))))


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
    return r, _two_sided_p(t, n - 2)


def t_test_one_sample(xs):
    """Two-sided t-test of a zero mean; exact answers for degenerate variance."""
    n = len(xs)
    if n < 2:
        return None
    import numpy as np
    x = np.asarray(xs, dtype=float)
    mean = float(x.mean())
    sd = float(x.std(ddof=1))
    if sd == 0.0:
        if mean == 0.0:
            return 0.0, 1.0
        return math.copysign(math.inf, mean), 0.0
    t = mean / (sd / math.sqrt(n))
    return t, _two_sided_p(t, n - 1)


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
    not: a forecast is expected mass, not a verdict list. ``history_rows``
    are ``HistoryRow``s, each unpacked as its seven cells.
    """
    actual = {phase: {} for phase in PHASES}
    predicted = {phase: {} for phase in PHASES}
    predicted_by_phase = tuple(predicted.items())
    floor = math.floor
    get = latest_predictions.get
    # a failed row lands on its deadline day, in its stated phase or the inferred one
    for task_id, posted, duration, _registrants, submissions, outcome, stated in history_rows:
        day = floor(posted + duration)
        if outcome in FAILURE_OUTCOMES:
            counts = actual[stated or failure_phase(outcome, submissions)]
            counts[day] = counts.get(day, 0) + 1
        for phase, sums in predicted_by_phase:
            value = get((task_id, phase))
            if value is not None:
                sums[day] = sums.get(day, 0.0) + value
    out = {}
    for phase in PHASES:
        days = sorted(set(actual[phase]) | set(predicted[phase]))
        af = [float(actual[phase].get(d, 0)) for d in days]
        fp = [float(predicted[phase].get(d, 0.0)) for d in days]
        af_total = ordered_sum(af)
        fp_total = ordered_sum(fp)
        pearson_r, pearson_p = pearson_with_p(af, fp) or (None, None)
        t_stat, t_p = t_test_one_sample([a - f for a, f in zip(af, fp)]) or (None, None)
        out[phase] = PhaseEvaluation(
            phase=phase,
            n_days=len(days),
            actual_total=af_total,
            predicted_total=fp_total,
            mre=mre(af_total, fp_total),
            pearson_r=pearson_r,
            pearson_p=pearson_p,
            t_stat=t_stat,
            t_p=t_p,
        )
    return out


def result_history_rows(result) -> list:
    """Adapt one replication's task log to validated history rows."""
    return [
        HistoryRow(str(rec["task_id"]), *[rec[name] for name in HISTORY_COLUMNS[1:]])
        for rec in result.task_log
    ]


def result_latest_predictions(result) -> dict:
    """One replication's last forecast per ``(task_id, phase)``, string-keyed."""
    return {(str(tid), phase): value for tid, _day, phase, value in result.predictions}
