"""History ingestion, validation rules, and the forecast scorer."""

import csv
import io
import math
import os
import re
from unittest import mock

import pytest
import scipy.stats as scipy_stats
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import stdtr

from conftest import TINY, run_python
from csdsim import TaskState, history, run_replication
from csdsim.domain import REGISTRATION_PHASE, SUBMISSION_PHASE
from csdsim.history import (
    FAILURE_OUTCOMES,
    HISTORY_COLUMNS,
    PHASES,
    PREDICTION_COLUMNS,
    DataError,
    HistoryRow,
    PhaseEvaluation,
    _records,
    evaluate_forecast,
    failure_phase,
    ingest_history,
    ingest_predictions,
    result_history_rows,
    result_latest_predictions,
)

HEADER = "task_id,posted_day,duration_days,registrants,submissions,outcome,failure_phase\n"


def write_history(tmp_path, body, header=HEADER):
    path = tmp_path / "history.csv"
    path.write_text(header + body)
    return str(path)


def write_predictions(tmp_path, body):
    path = tmp_path / "predictions.csv"
    path.write_text("task_id,day,phase,prediction\n" + body)
    return str(path)


def test_ingest_happy_path_with_comment_and_extra_column(tmp_path):
    path = tmp_path / "history.csv"
    path.write_text(
        "# produced elsewhere\n"
        "task_id,posted_day,duration_days,registrants,submissions,outcome,failure_phase,note\n"
        "t1,0,5,3,1,completed,,fine\n"
        "t2,1,5,0,0,starved,,\n"
    )
    rows = ingest_history(str(path))
    assert [r.task_id for r in rows] == ["t1", "t2"]
    # t1 completed, so only its forecast lands, on its deadline day 5; t2 fails on day 6
    scored = evaluate_forecast(rows, {("t1", "registration"): 0.25})
    assert failures_by_phase(rows) == {"registration": 1.0, "submission": 0.0}
    assert scored["registration"].n_days == 2


def failures_by_phase(rows):
    """Each phase's realized failures, as ``evaluate_forecast`` derives them."""
    return {phase: e.actual_total for phase, e in evaluate_forecast(rows, {}).items()}


def test_phase_inference_prefers_explicit_column(tmp_path):
    rows = ingest_history(
        write_history(tmp_path, "t1,0,5,4,2,failed,registration\n")
    )
    assert failures_by_phase(rows) == {"registration": 1.0, "submission": 0.0}


def test_phase_inferred_from_submissions(tmp_path):
    rows = ingest_history(write_history(tmp_path, "t1,0,5,4,2,failed,\n"))
    assert failures_by_phase(rows) == {"registration": 0.0, "submission": 1.0}


@pytest.mark.parametrize(
    "body,message",
    [
        ("t1,0,5,3,1,exploded,\n", "unknown outcome"),
        ("t1,0,5,2,0,starved,\n", "starved task cannot have registrants"),
        ("t1,0,5,3,1,dropped,\n", "dropped task cannot have submissions"),
        ("t1,0,5,3,0,failed,\n", "review failure requires submissions"),
        ("t1,0,5,0,0,completed,\n", "a completed task requires submissions"),
        ("t1,0,5,0,0,dropped,\n", "a dropped task requires registrants"),
        ("t1,0,5,0,2,completed,\n", "submissions without registrants"),
        ("t1,0,5,3,1,failed,shipping\n", "unknown failure_phase"),
        ("t1,-1,5,0,0,starved,\n", "posted_day is negative"),
        ("t1,0,0,0,0,starved,\n", "duration_days must be positive"),
        ("t1,0,5,-1,0,starved,\n", "counts must be non-negative"),
        (",0,5,0,0,starved,\n", "task_id is empty"),
        ("t1,zero,5,0,0,starved,\n", "bad cell"),
        ("t1,nan,5,0,0,starved,\n", "posted_day \\+ duration_days is not finite"),
        ("t1,0,nan,0,0,starved,\n", "posted_day \\+ duration_days is not finite"),
        ("t1,inf,5,0,0,starved,\n", "posted_day \\+ duration_days is not finite"),
        ("t1,0,inf,0,0,starved,\n", "posted_day \\+ duration_days is not finite"),
        ("t1,1e308,1e308,0,0,starved,\n", "posted_day \\+ duration_days is not finite"),
        ("t1,-inf,5,0,0,starved,\n", "posted_day is negative"),
        ("t1,0,-inf,0,0,starved,\n", "duration_days must be positive"),
    ],
)
def test_row_validation_errors_carry_row_numbers(tmp_path, body, message):
    with pytest.raises(DataError, match=f"row 2: .*{message}"):
        ingest_history(write_history(tmp_path, body))


def test_duplicate_task_id_rejected(tmp_path):
    body = "t1,0,5,0,0,starved,\nt1,1,5,0,0,starved,\n"
    with pytest.raises(DataError, match="row 3: duplicate task_id t1"):
        ingest_history(write_history(tmp_path, body))


def test_missing_column_rejected(tmp_path):
    path = tmp_path / "history.csv"
    path.write_text("task_id,posted_day\nt1,0\n")
    with pytest.raises(DataError, match="missing columns"):
        ingest_history(str(path))


def test_empty_history_rejected(tmp_path):
    with pytest.raises(DataError, match="no data rows"):
        ingest_history(write_history(tmp_path, ""))


def test_unreadable_history_rejected(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        ingest_history(str(tmp_path / "absent.csv"))


@pytest.mark.parametrize(
    "ingest,label,header",
    [
        (ingest_history, "history", HISTORY_COLUMNS),
        (ingest_predictions, "predictions", PREDICTION_COLUMNS),
    ],
    ids=["history", "predictions"],
)
@pytest.mark.parametrize(
    "first_cell,message",
    [
        (b"t\xe9", "codec can't decode"),
        (b"x" * (csv.field_size_limit() + 1), "field larger than field limit"),
    ],
    ids=["not_utf8", "oversized_cell"],
)
def test_undecodable_or_oversized_file_is_a_data_error(
    tmp_path, ingest, label, header, first_cell, message
):
    path = tmp_path / "in.csv"
    rest = b",0" * (len(header) - 1)
    path.write_bytes(",".join(header).encode() + b"\n" + first_cell + rest + b"\n")
    with pytest.raises(DataError, match=f"cannot read {label} {re.escape(str(path))}: .*{message}"):
        ingest(str(path))


# ------------------------------------------- record reader vs csv.DictReader


def dictreader_records(fh, label, columns):
    """``history._records`` as ``csv.DictReader`` reads a file: the reference."""
    reader = csv.DictReader(line for line in fh if not line.startswith("#"))
    missing = set(columns) - set(reader.fieldnames or ())
    if missing:
        raise DataError(f"{label}: missing columns {sorted(missing)}")
    for rec in reader:
        yield tuple(rec[name] for name in columns)


NON_FINITE = ["nan", "inf", "-inf", "1e308"]
CELLS = {
    "task_id": ["t1", "t2", " t3 ", "", "a,b", "x\ny"],
    "posted_day": ["0", "1.5", "-1", "zero", "", *NON_FINITE],
    "duration_days": ["5", "7.5", "0", *NON_FINITE],
    "registrants": ["0", "3", "-1", "2.0"],
    "submissions": ["0", "1", "2"],
    "outcome": ["completed", "starved", " failed ", "dropped", "exploded"],
    "failure_phase": ["", "registration", "submission", "shipping"],
    "day": ["0", "1", "2.5", "-1", "x", *NON_FINITE],
    "phase": ["registration", " submission ", "shipping", ""],
    "prediction": ["0.1", "0.5", "0", "-0.2", "x", "1", "1.5", *NON_FINITE],
}
JUNK = ["", "note", "q,r", "two\nlines"]
# (posted_day, duration_days, registrants, submissions, outcome, failure_phase)
VALID_HISTORY = [
    ("0", "5", "0", "0", "starved", ""),
    ("1", "5", "3", "0", "dropped", ""),
    ("0", "5", "4", "2", "failed", "registration"),
    ("2", "7.5", "4", "1", "completed", ""),
]


def valid_cells(draw, columns, n):
    """Cells of a row that ingests cleanly, by column name."""
    if columns == HISTORY_COLUMNS:
        return dict(zip(columns, (f"t{n}", *draw(st.sampled_from(VALID_HISTORY)))))
    return {
        "task_id": draw(st.sampled_from(["t1", "t2"])),
        "day": draw(st.sampled_from(["0", "1", "2.5"])),
        "phase": draw(st.sampled_from(PHASES)),
        "prediction": draw(st.sampled_from(["0.1", "0.5", "0"])),
    }


@st.composite
def csv_texts(draw, columns):
    """Reordered, extra, duplicated or missing columns; ``#`` and blank lines;
    short and long rows; quoted commas and newlines."""
    header = list(draw(st.permutations(columns)))
    for name in draw(st.lists(st.sampled_from(["note", *columns]), max_size=2)):
        header.insert(draw(st.integers(0, len(header))), name)
    if draw(st.integers(0, 9)) == 0:
        header.remove(draw(st.sampled_from(columns)))
    last = {name: i for i, name in enumerate(header)}
    buf = io.StringIO()
    writer = csv.writer(buf)
    if draw(st.booleans()):
        buf.write("# exported elsewhere\n")
    writer.writerow(header)
    for n in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["valid", "valid", "mixed", "blank", "comment"]))
        if kind == "comment":
            buf.write("# note\n")
            continue
        if kind == "blank":
            writer.writerow([])
            continue
        good = valid_cells(draw, columns, n) if kind == "valid" else {}
        row = [
            good[name] if name in good and i == last[name]
            else draw(st.sampled_from(CELLS.get(name, JUNK)))
            for i, name in enumerate(header)
        ]
        size = draw(st.sampled_from(["full", "full", "full", "short", "long"]))
        if size == "short":
            row = row[: draw(st.integers(1, len(row)))]
        elif size == "long":
            row += draw(st.lists(st.sampled_from(JUNK), min_size=1, max_size=2))
        writer.writerow(row)
    return buf.getvalue()


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "in.csv"


def _ingested(ingest, path):
    """The result in comparable form (dict key order included), or the error text."""
    try:
        result = ingest(str(path))
    except DataError as exc:
        return str(exc)
    return list(result.items()) if isinstance(result, dict) else result


@pytest.mark.parametrize(
    "ingest,columns",
    [(ingest_history, HISTORY_COLUMNS), (ingest_predictions, PREDICTION_COLUMNS)],
    ids=["history", "predictions"],
)
@settings(max_examples=120)
@given(data=st.data())
def test_record_reader_matches_dictreader(fuzz_path, ingest, columns, data):
    fuzz_path.write_text(data.draw(csv_texts(columns)), encoding="utf-8", newline="")
    got = _ingested(ingest, fuzz_path)
    with mock.patch("csdsim.history._records", dictreader_records):
        want = _ingested(ingest, fuzz_path)
    assert got == want


def read_records(fh, columns=PREDICTION_COLUMNS):
    return list(_records(fh, "predictions", columns))


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_a_later_comment_reads_like_a_first_line_one(tmp_path, end):
    leading = "# one|task_id,day,phase,prediction|t1,1,registration,0.5||t2,2,submission,0.25|"
    later = "task_id,day,phase,prediction|# one|t1,1,registration,0.5|# two|t2,2,submission,0.25|"
    want = [("t1", "1", "registration", "0.5"), ("t2", "2", "submission", "0.25")]
    for text in (leading, later):
        text = text.replace("|", end)
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode())
        with open(path, encoding="utf-8", newline="") as fh:
            assert read_records(fh) == want
        assert read_records(io.StringIO(text, newline="")) == want


def test_records_read_a_stream_that_cannot_rewind():
    read_fd, write_fd = os.pipe()
    with os.fdopen(write_fd, "w") as writer:
        writer.write("# c\nday,task_id,phase,prediction\n1,t1,registration\n# d\n")
    with open(read_fd, encoding="utf-8", newline="") as fh:
        assert not fh.seekable()
        assert read_records(fh) == [("t1", "1", "registration", None)]


# -------------------------------------------------------------- predictions


def test_predictions_latest_day_wins(tmp_path):
    path = write_predictions(
        tmp_path,
        "t1,1,registration,0.2\n"
        "t1,4,registration,0.9\n"
        "t1,2,registration,0.5\n"
        "t1,4,submission,0.1\n",
    )
    latest = ingest_predictions(path)
    assert latest[("t1", "registration")] == 0.9
    assert latest[("t1", "submission")] == 0.1


@pytest.mark.parametrize(
    "body,message",
    [
        ("t1,1,shipping,0.2\n", "unknown phase"),
        ("t1,-1,registration,0.2\n", "day is negative"),
        ("t1,1,registration,-0.2\n", "prediction is negative"),
        (",1,registration,0.2\n", "task_id is empty"),
        ("t1,one,registration,0.2\n", "bad cell"),
        ("t1,nan,registration,0.2\n", "day is not finite"),
        ("t1,inf,registration,0.2\n", "day is not finite"),
        ("t1,-inf,registration,0.2\n", "day is negative"),
        ("t1,1,registration,nan\n", "prediction is not in \\[0, 1\\]"),
        ("t1,1,registration,1.5\n", "prediction is not in \\[0, 1\\]"),
        ("t1,1,registration,inf\n", "prediction is not in \\[0, 1\\]"),
        ("t1,1,registration,-inf\n", "prediction is negative"),
    ],
)
def test_prediction_validation(tmp_path, body, message):
    with pytest.raises(DataError, match=f"row 2: {message}"):
        ingest_predictions(write_predictions(tmp_path, body))


def test_a_prediction_of_exactly_one_is_accepted(tmp_path):
    path = write_predictions(tmp_path, "t1,1e300,registration,1\nt1,0,submission,0\n")
    assert ingest_predictions(path) == {("t1", "registration"): 1.0, ("t1", "submission"): 0.0}


def test_hash_line_inside_a_quoted_cell_is_data(tmp_path):
    # csv.writer quotes the id, so the cell's second line starts with '#'
    path = tmp_path / "predictions.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([PREDICTION_COLUMNS, ["t1\n#x", 1.0, "registration", 0.5]])
    assert path.read_text(encoding="utf-8").splitlines()[2] == '#x",1.0,registration,0.5'
    assert ingest_predictions(str(path)) == {("t1\n#x", "registration"): 0.5}


# ----------------------------------------------------------------- scoring


def test_evaluate_forecast_hand_case(tmp_path):
    # three deadline days; registration failures 2/1/1, predictions sum 3.0
    history = ingest_history(
        write_history(
            tmp_path,
            "a,0,5,0,0,starved,\n"
            "b,0,5,3,0,dropped,\n"
            "c,1,5,0,0,starved,\n"
            "d,2,5,4,2,failed,\n"
            "e,2,5,4,1,completed,\n",
        )
    )
    predictions = {
        ("a", "registration"): 1.0,
        ("b", "registration"): 0.5,
        ("c", "registration"): 0.5,
        ("d", "submission"): 0.75,
        ("e", "submission"): 0.25,
    }
    scored = evaluate_forecast(history, predictions)

    reg = scored["registration"]
    assert reg.n_days == 2  # days 5 and 6
    assert reg.actual_total == 3.0
    assert reg.predicted_total == 2.0
    assert reg.mre == pytest.approx((3.0 - 2.0) / 3.0, abs=1e-12)

    sub = scored["submission"]
    assert sub.actual_total == 1.0
    assert sub.predicted_total == 1.0  # d and e both land on day 7
    assert sub.mre == pytest.approx(0.0, abs=1e-12)
    assert sub.n_days == 1
    assert sub.pearson_r is None  # single day: nothing to correlate


def test_simulated_history_round_trips_through_the_scorer(tiny_cfg):
    result = run_replication(tiny_cfg)
    rows = result_history_rows(result)
    assert len(rows) == len(result.task_log)
    predictions = result_latest_predictions(result)
    assert predictions  # the run produced forecasts
    assert set(k[1] for k in predictions) <= {"registration", "submission"}
    scored = evaluate_forecast(rows, predictions)
    assert_scored_alike(rows, predictions)
    reg = scored["registration"]
    assert reg.actual_total == result.counters["starved"] + result.counters["dropped"]
    assert scored["submission"].actual_total == result.counters["failed_review"]
    # recompute the predicted mass independently of the scorer's bucketing
    row_ids = {row.task_id for row in rows}
    for phase in ("registration", "submission"):
        expected = sum(
            value
            for (tid, p), value in predictions.items()
            if p == phase and tid in row_ids
        )
        assert scored[phase].predicted_total == pytest.approx(expected, abs=1e-9)
    # the submission predictor has a positive intercept, so any submission
    # at all leaves real predicted mass behind
    if result.counters["submitted"]:
        assert scored["submission"].predicted_total > 0.0


# ------------------------------------------------------ shared cell strings


def assert_own_strings(rows, latest):
    """Each outcome and phase is csdsim's own string object, not an equal copy."""
    own_phases = (REGISTRATION_PHASE, SUBMISSION_PHASE)
    for row in rows:
        assert row.outcome is TaskState(row.outcome).value
        assert row.failure_phase == "" or any(row.failure_phase is p for p in own_phases)
    for _task_id, phase in latest:
        assert any(phase is p for p in own_phases)


def test_fixture_files_read_as_csdsim_own_strings(data_dir):
    rows = ingest_history(str(data_dir / "eval_history.csv"))
    latest = ingest_predictions(str(data_dir / "eval_predictions.csv"))
    assert {row.outcome for row in rows} == {"starved", "dropped", "failed"}
    assert {phase for _task_id, phase in latest} == set(PHASES)
    assert_own_strings(rows, latest)


def test_an_exported_replication_reads_as_csdsim_own_strings(exported_history):
    rows = ingest_history(str(exported_history / "history.csv"))
    latest = ingest_predictions(str(exported_history / "predictions.csv"))
    assert {row.failure_phase for row in rows} == {"", *PHASES}  # stated phases are read
    assert_own_strings(rows, latest)


def test_history_rows_are_immutable_hashable_values():
    cells = ("t1", 0.0, 5.0, 4, 2, "failed", "")
    row = HistoryRow(*cells)
    assert row == HistoryRow(
        task_id="t1",
        posted_day=0.0,
        duration_days=5.0,
        registrants=4,
        submissions=2,
        outcome="failed",
        failure_phase="",
    )
    assert hash(row) == hash(HistoryRow(*cells))
    assert len({row, HistoryRow(*cells)}) == 1
    assert row != HistoryRow("t2", *cells[1:])
    with pytest.raises(AttributeError):
        row.outcome = "completed"
    assert failure_phase(row.outcome, row.submissions) == "submission"
    assert failures_by_phase([row]) == {"registration": 0.0, "submission": 1.0}


def reference_evaluate_forecast(history_rows, latest_predictions):
    """``evaluate_forecast`` with its row loop as it read before it was unrolled."""
    actual = {phase: {} for phase in PHASES}
    predicted = {phase: {} for phase in PHASES}
    for row in history_rows:
        day = int(math.floor(row.posted_day + row.duration_days))
        phase = None
        if row.outcome in FAILURE_OUTCOMES:
            phase = row.failure_phase or failure_phase(row.outcome, row.submissions)
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
        corr = history.pearson_with_p(af, fp)
        diffs = [a - f for a, f in zip(af, fp)]
        ttest = history.t_test_one_sample(diffs) if diffs else None
        out[phase] = PhaseEvaluation(
            phase=phase,
            n_days=len(days),
            actual_total=af_total,
            predicted_total=fp_total,
            mre=history.mre(af_total, fp_total),
            pearson_r=corr[0] if corr else None,
            pearson_p=corr[1] if corr else None,
            t_stat=ttest[0] if ttest else None,
            t_p=ttest[1] if ttest else None,
        )
    return out


def assert_scored_alike(history_rows, latest_predictions):
    got = evaluate_forecast(history_rows, latest_predictions)
    want = reference_evaluate_forecast(history_rows, latest_predictions)
    assert list(got) == list(want)
    for phase in PHASES:
        # dataclass ==: every field, floats compared exactly
        assert got[phase] == want[phase], phase


def test_fixture_files_score_as_the_reference_loop_does(data_dir):
    assert_scored_alike(
        ingest_history(str(data_dir / "eval_history.csv")),
        ingest_predictions(str(data_dir / "eval_predictions.csv")),
    )


@st.composite
def scored_inputs(draw):
    """History rows and latest predictions whose per-day sums depend on the order."""
    n = draw(st.integers(1, 40))
    rows = []
    for i in range(n):
        outcome = draw(st.sampled_from(["completed", "failed", "starved", "dropped", "open"]))
        submissions = draw(st.integers(0, 3))
        rows.append(
            HistoryRow(
                f"t{i}",
                float(draw(st.integers(0, 6))),
                draw(st.sampled_from([0.5, 1.0, 2.5, 3.0])),
                submissions + draw(st.integers(0, 2)),
                submissions,
                outcome,
                draw(st.sampled_from(["", *PHASES])) if outcome in FAILURE_OUTCOMES else "",
            )
        )
    keys = st.tuples(st.sampled_from([f"t{i}" for i in range(n + 2)]), st.sampled_from(PHASES))
    values = st.floats(0.0, 1.0, allow_subnormal=True)
    return rows, draw(st.dictionaries(keys, values, max_size=2 * n))


@settings(max_examples=150)
@given(inputs=scored_inputs())
def test_scores_equal_the_reference_loop_on_drawn_histories(inputs):
    assert_scored_alike(*inputs)


# per column: cells that ingest, and cells that can make their row an error
SCORED_CELLS = {
    "posted_day": (["0", "2", "-0.0", "1e-320", "1e308"], ["nan", "inf"]),
    "duration_days": (["5", "0.5", "5e-324", "1e300"], ["nan", "inf", "1e308"]),
    "day": (["0", "2.5", "1e308"], ["nan", "inf"]),
    "prediction": (["0", "1", "0.5", "0.125", "0.3", "5e-324", "1e-160"], ["nan", "1.5", "inf"]),
}
SCORED_OUTCOMES = [
    ("0", "0", "starved", ""),
    ("3", "0", "dropped", ""),
    ("4", "2", "failed", ""),
    ("4", "1", "failed", "registration"),
    ("4", "1", "completed", ""),
]


@st.composite
def scored_files(draw):
    """History and predictions rows; one numeric cell in 25 comes from the second list."""

    def cell(column):
        good, bad = SCORED_CELLS[column]
        return draw(st.sampled_from(bad if draw(st.integers(0, 24)) == 0 else good))

    history = [HISTORY_COLUMNS]
    for i in range(draw(st.integers(1, 12))):
        outcome = draw(st.sampled_from(SCORED_OUTCOMES))
        history.append((f"t{i}", cell("posted_day"), cell("duration_days"), *outcome))
    task_ids = st.sampled_from([f"t{i}" for i in range(len(history))])
    predictions = [PREDICTION_COLUMNS]
    for _ in range(draw(st.integers(0, 16))):
        phase = draw(st.sampled_from(PHASES))
        predictions.append((draw(task_ids), cell("day"), phase, cell("prediction")))
    return history, predictions


@settings(max_examples=300)
@given(files=scored_files())
def test_files_both_ingesters_accept_score_cleanly(tmp_path_factory, files):
    paths = []
    for name, rows in zip(("history.csv", "predictions.csv"), files):
        path = tmp_path_factory.getbasetemp() / f"scored-{name}"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(rows)
        paths.append(str(path))
    try:
        history_rows = ingest_history(paths[0])
        latest = ingest_predictions(paths[1])
    except DataError:
        return
    assert_own_strings(history_rows, latest)
    for ev in evaluate_forecast(history_rows, latest).values():
        assert ev.mre is None or math.isfinite(ev.mre)
        for p_value in (ev.pearson_p, ev.t_p):
            assert p_value is None or 0.0 <= p_value <= 1.0


# ------------------------------------------------------- p-value dependency


@pytest.mark.parametrize("df", [1, 2, 3, 29, 58, 1000])
def test_stdtr_is_bit_identical_to_t_sf(df):
    """The p-values use stdtr(df, -t); it must equal scipy.stats.t.sf exactly."""
    for t in (0.0, 1e-8, 0.5, 2.0, 40.0, math.inf):
        assert float(stdtr(df, -t)) == float(scipy_stats.t.sf(t, df)), (df, t)


def test_numpy_and_scipy_load_only_for_the_evaluation(data_dir):
    # import, ingest and a policy sweep load neither (nor statistics); the evaluation
    # loads numpy and scipy.special, never scipy.stats
    code = f"""
import sys
import csdsim
def loaded():
    print(*(name in sys.modules for name in ("numpy", "scipy", "scipy.special", "scipy.stats", "statistics")))
loaded()
history = csdsim.ingest_history({str(data_dir / "eval_history.csv")!r})
predictions = csdsim.ingest_predictions({str(data_dir / "eval_predictions.csv")!r})
loaded()
report, _ = csdsim.run_diversity_scenario(csdsim.RunConfig(seed=2000, **{TINY!r}))
print(*(outcome.label for outcome in report.outcomes))
loaded()
csdsim.evaluate_forecast(history, predictions)
loaded()
"""
    labels, none = "elite_only mid_and_up green_and_up all_welcome", "False False False False False"
    assert run_python("-c", code).splitlines() == [none, none, labels, none, "True True True False False"]
