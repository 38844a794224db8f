"""Run-history ingestion and forecast evaluation.

A history CSV is the ground truth: one row per task with its outcome. A
predictions CSV carries the forecast trail: one row per risk update. Both are
UTF-8, a leading byte-order mark allowed, read by one record reader,
``_records``, that finds columns by header name in any order and skips ``#``
lines and blank rows; an unreadable or undecodable file, or a cell past the
csv field size limit, is a ``DataError``. Each ingester numbers the rows it is
given from 2, the header being row 1, so blank and ``#`` lines count toward no
row number, and names that number in every row error. Numbers must be finite
and predictions lie in [0, 1]. Outcome and phase cells come back as csdsim's
own strings, the ``TaskState`` values and ``domain.PHASES``, not csv's copies.

A history row is a ``HistoryRow``, an immutable, hashable named tuple of the
seven history columns. The evaluation derives each row's deadline day and
failure phase (the stated one, else ``domain.failure_phase``), aligns both
files into daily per-phase series and scores the forecast with MRE,
correlation, and a bias t-test.

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
from itertools import dropwhile, repeat
from typing import NamedTuple, Optional

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


def _row_error(row_num: int, message: str) -> DataError:
    return DataError(f"row {row_num}: {message}")


_is_comment = operator.methodcaller("startswith", "#")


def _comment_after_first_line(fh) -> bool:
    """Whether a line of ``fh`` after its first starts with ``#``; rewinds ``fh``.

    '#', CR and LF never occur inside a multi-byte UTF-8 sequence, so the raw
    bytes find the lines the text reads as. A stream that cannot rewind
    answers True.
    """
    if not fh.seekable():
        return True
    data = fh.buffer.read()
    fh.seek(0)
    return b"\n#" in data or b"\r#" in data


def _rows_without_comments(fh):
    """``csv.reader`` rows of ``fh``, dropping each ``#`` line where a record starts."""
    at_record_start = True

    def lines():  # csv.reader pulls each line only when its record needs one
        nonlocal at_record_start
        for line in fh:
            if not (at_record_start and line.startswith("#")):
                at_record_start = False
                yield line

    for row in csv.reader(lines()):
        at_record_start = True
        yield row


def _records(fh, label: str, columns):
    """Iterate the cells, in ``columns`` order, of each data row of ``fh``.

    Reads as ``csv.DictReader`` does: blank rows are skipped, a duplicated
    header name reads its last column, and a short row reads None. A ``#``
    line is a comment where a record starts, and data inside a quoted cell.
    Callers number the rows from 2, the header being row 1.
    """
    if _comment_after_first_line(fh):
        rows = _rows_without_comments(fh)
    else:  # at most a first-line comment: a plain reader, with no Python call per line
        rows = csv.reader(dropwhile(_is_comment, fh))
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
