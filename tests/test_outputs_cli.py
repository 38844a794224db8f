"""Output file contracts and the command-line entry points."""

import codecs
import csv
import dataclasses
import re
import statistics
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import csdsim.cli
import csdsim.engine
from conftest import load_script
from csdsim import (
    ModelInvariantError,
    RunConfig,
    config_hash,
    emit_outputs,
    run_replication,
    run_replications,
)
from csdsim.cli import main
from csdsim.config import build_config
from csdsim.domain import load_belt_table
from csdsim.history import ingest_history, ingest_predictions
from csdsim.outputs import DAILY_COLUMNS, EVALUATION_COLUMNS, OUTPUT_FILES, _stdev

TINY_OVERRIDES = load_script("artifact_digests").TINY_OVERRIDES


@pytest.fixture()
def emitted(tiny_cfg, tmp_path):
    results = list(run_replications(tiny_cfg))
    out = tmp_path / "out"
    paths = emit_outputs(tiny_cfg, results, out)
    return tiny_cfg, results, out, paths


def test_emits_exactly_the_contracted_files(emitted):
    _, _, out, paths = emitted
    assert OUTPUT_FILES == (
        "platform_daily.csv",
        "task_predictions.csv",
        "scenario_summary.csv",
        "utilization_control_chart.csv",
        "evaluation.csv",
        "report.txt",
    )
    assert sorted(p.name for p in paths) == sorted(OUTPUT_FILES)
    assert sorted(p.name for p in out.iterdir()) == sorted(OUTPUT_FILES)


def test_csvs_open_with_seed_and_config_stamp(emitted):
    cfg, _, out, _ = emitted
    stamp = f"# seed={cfg.seed} config={config_hash(cfg)[:12]}"
    for name in OUTPUT_FILES:
        if not name.endswith(".csv"):
            continue
        first, second = (out / name).read_text().splitlines()[:2]
        assert first == stamp, name
        assert "," in second  # header row follows the stamp


def test_daily_columns_are_pinned(emitted):
    _, _, out, _ = emitted
    lines = (out / "platform_daily.csv").read_text().splitlines()
    assert lines[1] == ",".join(DAILY_COLUMNS)
    # counters ride along internally but must never leak into the file
    assert "reposted" not in lines[1]
    assert len(lines) == 2 + 60  # stamp + header + one row per day


def test_daily_floats_survive_round_trip(emitted):
    _, results, out, _ = emitted
    lines = (out / "platform_daily.csv").read_text().splitlines()
    header = lines[1].split(",")
    first_row = dict(zip(header, lines[2].split(",")))
    day_one = results[0].daily[0]
    assert float(first_row["tsr"]) == day_one["tsr"]
    assert float(first_row["utilization"]) == day_one["utilization"]


def test_control_chart_is_three_sigma(emitted):
    _, results, out, _ = emitted
    series = [row["utilization"] for row in results[0].daily]
    mean = sum(series) / len(series)
    sigma = statistics.stdev(series)
    lines = (out / "utilization_control_chart.csv").read_text().splitlines()
    header = lines[1].split(",")
    row = dict(zip(header, lines[2].split(",")))
    assert float(row["mean"]) == pytest.approx(mean, abs=1e-12)
    assert float(row["ucl"]) == pytest.approx(mean + 3 * sigma, abs=1e-12)
    assert float(row["lcl"]) == pytest.approx(mean - 3 * sigma, abs=1e-12)


# from 3.11 on, statistics.stdev is the correctly rounded root of the exact
# variance; 3.10 rounds the variance to a float first
exact_stdlib_stdev = pytest.mark.skipif(sys.version_info < (3, 11), reason="stdev rounds twice")


@exact_stdlib_stdev
@given(st.lists(st.floats(-1e8, 1e8), min_size=2, max_size=60))
@example([0.1] * 7)
@example([1e-8, 2e-8, 3e-8])
def test_control_chart_sigma_is_the_stdlib_stdev_of_drawn_values(values):
    assert _stdev(values) == statistics.stdev(values)


# a float variance moves the last bit of each of these seeds' sigma
@exact_stdlib_stdev
@pytest.mark.parametrize("seed", [1003, 1016, 1023, 1025, 1034])
def test_control_chart_sigma_is_the_stdlib_stdev_of_a_default_series(seed):
    result = run_replication(dataclasses.replace(RunConfig(), seed=seed))
    series = [row["utilization"] for row in result.daily]
    assert _stdev(series) == statistics.stdev(series)


def test_control_chart_is_header_only_without_a_day(tmp_path):
    # a horizon under one day records no daily row, so there is no series to chart
    cfg = RunConfig(replications=1, horizon_days=0.5, task_lambda=5.0, agent_gamma=10.0)
    results = list(run_replications(cfg))
    assert results[0].daily == []
    emit_outputs(cfg, results, tmp_path)
    lines = (tmp_path / "utilization_control_chart.csv").read_text().splitlines()
    assert lines[1:] == ["day,utilization,mean,ucl,lcl"]


def test_evaluation_csv_headers(emitted):
    _, _, out, _ = emitted
    lines = (out / "evaluation.csv").read_text().splitlines()
    assert lines[1] == ",".join(EVALUATION_COLUMNS)
    assert len(lines) == 4  # stamp + header + one row per phase


def test_evaluation_csv_writes_float_totals_for_a_phase_with_no_scored_days(tmp_path):
    out = tmp_path / "out"
    assert main(["scenario", "diversity", "--out", str(out), *TINY_OVERRIDES]) == 0
    lines = (out / "evaluation.csv").read_text().splitlines()
    assert "submission,0,0.0,0.0,,,,," in lines


def test_report_carries_no_wall_clock(emitted):
    _, _, out, _ = emitted
    text = (out / "report.txt").read_text()
    assert not re.search(r"\d{4}-\d{2}-\d{2}", text)
    assert "seed" in text


def test_reemission_is_byte_identical(emitted, tmp_path):
    cfg, results, first_out, _ = emitted
    second_out = tmp_path / "again"
    emit_outputs(cfg, results, second_out)
    for name in OUTPUT_FILES:
        assert (first_out / name).read_bytes() == (second_out / name).read_bytes(), name


# ----------------------------------------------------------------------- CLI


def test_cli_run_writes_everything(tmp_path, capsys):
    out = tmp_path / "cli_out"
    code = main(["run", "--out", str(out), *TINY_OVERRIDES])
    assert code == 0
    written = {p.name for p in out.iterdir()}
    assert written == set(OUTPUT_FILES) | {"config_used.cfg"}
    stdout = capsys.readouterr().out
    assert "mean reported failures" in stdout
    assert stdout.count("wrote ") == len(OUTPUT_FILES) + 1


def refuse_to_run(*_args):
    raise AssertionError("a replication ran")


@pytest.mark.parametrize("command", [["run"], ["scenario", "diversity"]], ids=["run", "diversity"])
@pytest.mark.parametrize(
    "out_name,reason", [("taken", "File exists"), ("taken/sub", "Not a directory")], ids=["file", "under_a_file"]
)
def test_cli_unwritable_out_exits_one_before_any_replication(
    tmp_path, capsys, monkeypatch, command, out_name, reason
):
    (tmp_path / "taken").write_text("not a directory\n")
    monkeypatch.setattr(csdsim.engine.Simulation, "run", refuse_to_run)
    out = tmp_path / out_name
    assert main([*command, "--out", str(out), *TINY_OVERRIDES]) == 1
    assert capsys.readouterr().err == f"error: cannot write --out {out}: {reason}\n"


def test_cli_out_in_a_directory_it_may_not_write_exits_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(csdsim.engine.Simulation, "run", refuse_to_run)
    monkeypatch.setattr(csdsim.cli.os, "access", lambda path, mode: False)  # os.access grants root everything
    out = tmp_path / "x"
    assert main(["run", "--out", str(out), *TINY_OVERRIDES]) == 1
    assert capsys.readouterr().err == f"error: cannot write --out {out}: Permission denied\n"


def test_cli_write_error_after_the_run_exits_one(tmp_path, capsys):
    out = tmp_path / "x"
    (out / "report.txt").mkdir(parents=True)  # a directory where a file must go
    assert main(["run", "--out", str(out), *TINY_OVERRIDES]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write --out {out}: ") and "report.txt" in err


def test_cli_bad_history_is_reported_before_a_bad_out(tmp_path, capsys, monkeypatch):
    history = tmp_path / "history.csv"
    history.write_text(HISTORY_HEADER + "t1,0,5,3,1,exploded,\n")
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    monkeypatch.setattr(csdsim.engine.Simulation, "run", refuse_to_run)
    assert main(["evaluate", "--history", str(history), "--out", str(out), *TINY_OVERRIDES]) == 2
    assert "row 2" in capsys.readouterr().err


def test_cli_config_used_round_trips(tmp_path):
    out = tmp_path / "cli_out"
    main(["run", "--out", str(out), *TINY_OVERRIDES])
    cfg = build_config(str(out / "config_used.cfg"), ())
    assert cfg.task_lambda == 25.0
    assert cfg.replications == 1


def test_cli_env_config_fallback(tmp_path, monkeypatch):
    cfg_path = tmp_path / "env.cfg"
    cfg_path.write_text("task_lambda = 25\nagent_gamma = 120\nreplications = 1\nseed = 5\n")
    monkeypatch.setenv("CSDSIM_CONFIG", str(cfg_path))
    out = tmp_path / "env_out"
    assert main(["run", "--out", str(out)]) == 0
    assert (out / "platform_daily.csv").read_text().startswith("# seed=5 ")


def test_cli_file_and_overrides_are_validated_together(tmp_path):
    # the file alone breaks the focal window; the --set mends it
    cfg_path = tmp_path / "f.cfg"
    cfg_path.write_text("focal_enabled = true\nhorizon_days = 20\n")
    merged, all_set = tmp_path / "merged", tmp_path / "all_set"
    focal = ["--set", "focal_duration=5"]
    assert main(["run", "--out", str(merged), *TINY_OVERRIDES, "--config", str(cfg_path), *focal]) == 0
    file_keys = ["--set", "focal_enabled=true", "--set", "horizon_days=20"]
    assert main(["run", "--out", str(all_set), *TINY_OVERRIDES, *file_keys, *focal]) == 0
    echo = (merged / "config_used.cfg").read_text()
    assert echo == (all_set / "config_used.cfg").read_text()
    assert "focal_duration = 5.0\n" in echo


def test_cli_set_overrides_file(tmp_path, monkeypatch):
    cfg_path = tmp_path / "env.cfg"
    cfg_path.write_text("seed = 5\n")
    monkeypatch.setenv("CSDSIM_CONFIG", str(cfg_path))
    out = tmp_path / "o"
    assert main(["run", "--out", str(out), *TINY_OVERRIDES, "--set", "seed=9"]) == 0
    assert (out / "platform_daily.csv").read_text().startswith("# seed=9 ")


GRAY_BLUE_RED = (
    "belt,upper_bound,p_qualified\ngray,900,0.25\nblue,1500,0.39\nred,,0.6\n"
)


@pytest.mark.parametrize(
    "table_text, admitted",
    [
        (
            "belt,upper_bound,p_qualified\ngray,1000,0.3\nred,,0.6\n",
            [("gray", "red"), ("gray", "red"), ("red",), None],
        ),
        (
            "belt,upper_bound,p_qualified\ngray,900,0.25\nblue,1500,0.39\nyellow,2200,0.6\nred,,0.6\n",
            [("yellow", "red"), ("blue", "yellow", "red"), ("blue", "yellow", "red"), None],
        ),
        (GRAY_BLUE_RED, [("blue", "red"), ("gray", "blue", "red"), ("blue", "red"), None]),
    ],
    ids=["gray_red", "no_green", "gray_blue_red"],
)
def test_cli_diversity_on_a_custom_table_admits_by_rank(
    tmp_path, capsys, monkeypatch, table_text, admitted
):
    table = tmp_path / "belts.csv"
    table.write_text(table_text)
    original = csdsim.engine.Simulation.run
    seen = []

    def counted(sim):
        seen.append(sim.cfg.admitted_belts)
        return original(sim)

    monkeypatch.setattr(csdsim.engine.Simulation, "run", counted)
    argv = ["scenario", "diversity", "--out", str(tmp_path / "x"), *TINY_OVERRIDES]
    argv += ["--set", f"belt_table_path={table}", "--set", "familiarity_belts=gray"]
    assert main(argv) == 0
    # the top two, the top three, every belt above the lowest, everyone
    assert seen == admitted
    stdout = capsys.readouterr().out
    for label in ("elite_only", "mid_and_up", "green_and_up", "all_welcome"):
        assert f"{label}: fail " in stdout


BELT_HEADER = b"belt,upper_bound,p_qualified\n"
SHARE_HEADER = b"belt,upper_bound,share,p_qualified\n"
SHARE_COLUMN_REFUSED = "belt table {path}: has a share column, but a belt's population share follows"
BELT_SOURCE = ["run", "--set", "belt_table_path={path}"]
CONFIG_SOURCE = ["run", "--config", "{path}"]
FOCAL_PAST_HORIZON = "focal_arrival: need focal_arrival + focal_duration <= horizon_days"


@pytest.mark.parametrize(
    "content, argv, message",
    [
        (b"seed = 7\n# caf\xe9\n", CONFIG_SOURCE, "config file {path} is not UTF-8 text"),
        (None, CONFIG_SOURCE, "cannot read config file {path}: "),
        (b"seed = 5\nbogus = 1\n", CONFIG_SOURCE, "error: line 2: unknown config key: bogus\n"),
        (None, ["run", "--set", "bogus=1"], "error: override: unknown config key: bogus\n"),
        (
            BELT_HEADER + b"gray,1000,0.3\nred\n",
            BELT_SOURCE,
            "belt table {path}: line 3: bad cell count",
        ),
        (
            BELT_HEADER + b"gray,1000,0.3,7\nred,,0.6\n",
            BELT_SOURCE,
            "belt table {path}: line 2: bad cell count",
        ),
        (
            BELT_HEADER + b"gray,1000,0.3\ngray,,0.6\n",
            BELT_SOURCE,
            "belt table {path}: each belt may appear once",
        ),
        (
            BELT_HEADER + b"gr\xe9y,1000,0.3\nred,,0.6\n",
            BELT_SOURCE,
            "belt table {path} is not UTF-8 text",
        ),
        (BELT_HEADER, BELT_SOURCE, "belt table {path}: no rows"),
        # a share column is refused whatever its values: zero, NaN or negative
        (SHARE_HEADER + b"gray,1000,0,0.3\nred,,0,0.6\n", BELT_SOURCE, SHARE_COLUMN_REFUSED),
        (
            b"belt,upper_bound\ngray,1000\nred,\n",
            BELT_SOURCE,
            "belt table {path}: header must contain belt, p_qualified",
        ),
        (
            BELT_HEADER + b"gray,1000,0.3\nred,,many\n",
            BELT_SOURCE,
            "belt table {path}: line 3: bad numeric cell",
        ),
        (
            BELT_HEADER + b"x" * (csv.field_size_limit() + 1) + b",1000,0.3\nred,,0.6\n",
            BELT_SOURCE,
            "cannot read belt table {path}: field larger than field limit",
        ),
        (None, BELT_SOURCE, "cannot read belt table {path}: "),
        (
            BELT_HEADER + b"gray,900,0.25\ngreen,nan,0.45\nblue,1500,0.39\nred,,0.6\n",
            BELT_SOURCE,
            "belt table {path}: upper_bound must be finite on every row but the last",
        ),
        (
            BELT_HEADER + b"gray,inf,0.25\nred,,0.6\n",
            BELT_SOURCE,
            "belt table {path}: upper_bound must be finite on every row but the last",
        ),
        (SHARE_HEADER + b"gray,1000,nan,0.3\nred,,0.1,0.6\n", BELT_SOURCE, SHARE_COLUMN_REFUSED),
        (
            BELT_HEADER + b"low,1000,0.2\nhigh,2000,0.6\n",
            BELT_SOURCE,
            "belt table {path}: last row must have an unbounded rating",
        ),
        (
            BELT_HEADER + b"a,2000,0.2\nb,1000,0.2\nc,,0.2\n",
            BELT_SOURCE,
            "belt table {path}: rows must be sorted by strictly ascending upper_bound",
        ),
        (
            BELT_HEADER + b"gray,900,0.25\ngreen,900,0.45\nred,,0.6\n",
            [*BELT_SOURCE, "--set", "admitted_belts=green", "--set", "familiarity_belts=gray"],
            "belt table {path}: rows must be sorted by strictly ascending upper_bound",
        ),
        (
            SHARE_HEADER + b"gray,900,2.0,0.25\nred,,-1.0,0.6\n",
            [*BELT_SOURCE, "--set", "familiarity_belts=gray"],
            SHARE_COLUMN_REFUSED,
        ),
        (
            BELT_HEADER + b"a,1000,1.2\nb,,0.5\n",
            BELT_SOURCE,
            "belt table {path}: p_qualified out of range for a",
        ),
        (
            BELT_HEADER + b"low,1000,0.3\nhigh,,0.6\n",
            BELT_SOURCE,
            "belt_table_path: belts low, high in {path} have no submit_follow_through_<belt> key",
        ),
        (
            BELT_HEADER + b"gray,1000,0.3\nred,,0.6\n",
            [*BELT_SOURCE, "--set", "admitted_belts=blue"],
            "admitted_belts: belts blue are not in {path}",
        ),
        (
            None,
            ["run", "--set", "admitted_belts=purple"],
            "admitted_belts: belts purple are not in the built-in belt table",
        ),
        (
            BELT_HEADER + b"gray,,0.3\n",
            ["scenario", "diversity", "--set", "belt_table_path={path}", "--set", "familiarity_belts=gray"],
            "scenario diversity needs at least two belts; {path} has one",
        ),
        # the default familiarity_belts are gray and green
        (
            GRAY_BLUE_RED.encode(),
            ["scenario", "diversity", "--set", "belt_table_path={path}"],
            "familiarity_belts: belts green are not in {path}",
        ),
        (None, ["run", "--set", "invert_tsr=maybe"], "invert_tsr: expected true or false"),
        (None, ["run", "--set", "task_lambda=abc"], "task_lambda: expected a number"),
        (None, ["run", "--set", "skill_vocabulary=,"], "skill_vocabulary: expected a comma separated list"),
        (None, ["run", "--set", "fps_slope=-1"], "fps_slope: need 0 <= fps_slope + fps_intercept <= 1"),
        # day -2 precedes the clock; from day 31 on, the 30 day focal window
        # ends past the 60 day horizon, so the focal task could never resolve
        (None, ["whatif", "--day", "-2"], "focal_arrival: must be non-negative"),
        # the default focal_arrival: the two rows would run one config twice
        (None, ["whatif", "--day", "15"], "focal_arrival: the what-if day 15 is the base posting day"),
        (None, ["whatif", "--day", "40"], FOCAL_PAST_HORIZON),
        (None, ["whatif", "--day", "59"], FOCAL_PAST_HORIZON),
        (None, ["scenario", "openness", "--set", "focal_arrival=40"], FOCAL_PAST_HORIZON),
        # gate 0.60 draws from [0.52, 0.68], which misses [0.30, 0.50]
        (None, ["scenario", "openness", "--set", "similarity_high=0.5"], "openness_gate: need the window"),
        # every policy of a sweep sets both platform levers itself, so a lever in
        # the base config would be dropped while config_used.cfg still echoed it
        (None, ["scenario", "openness", "--set", "admitted_belts=red"], "error: admitted_belts: a policy sweep"),
        (None, ["scenario", "diversity", "--set", "openness_gate=0.9"], "error: openness_gate: a policy sweep"),
        (None, ["whatif", "--day", "25", "--set", "openness_gate=0.9"], "error: openness_gate: a policy sweep"),
    ],
    ids=[
        "config_not_utf8",
        "config_missing",
        "unknown_key_in_file",
        "unknown_key_in_override",
        "belt_row_short",
        "belt_row_long",
        "belt_repeated",
        "belt_not_utf8",
        "belt_header_only",
        "belt_shares_zero",
        "belt_column_missing",
        "belt_cell_not_numeric",
        "belt_cell_oversized",
        "belt_table_missing",
        "belt_bound_nan",
        "belt_bound_inf_before_last",
        "belt_share_nan",
        "belt_tail_bounded",
        "belt_bounds_descending",
        "belt_bounds_equal",
        "belt_share_negative",
        "belt_p_qualified_above_one",
        "belt_without_follow_through",
        "admitted_belt_not_in_file",
        "admitted_belt_not_built_in",
        "diversity_one_belt",
        "familiarity_belt_not_in_file",
        "set_bool_not_bool",
        "set_float_not_number",
        "set_list_empty",
        "fps_line_leaves_unit_interval",
        "whatif_day_-2",
        "whatif_day_15",
        "whatif_day_40",
        "whatif_day_59",
        "openness_day_40",
        "openness_gates_outside_similarity",
        "openness_admitted_belts",
        "diversity_openness_gate",
        "whatif_openness_gate",
    ],
)
def test_cli_bad_config_or_belt_table_file_exits_one(tmp_path, capsys, monkeypatch, content, argv, message):
    # each error names its file or its key, before any replication and any artifact
    monkeypatch.setattr(csdsim.engine.Simulation, "run", refuse_to_run)
    path = tmp_path / "input"
    if content is not None:
        path.write_bytes(content)
    out = tmp_path / "x"
    argv = [arg.format(path=path) for arg in argv]
    # the row's own options follow TINY_OVERRIDES, so they win
    assert main([argv[0], *TINY_OVERRIDES, *argv[1:], "--out", str(out)]) == 1
    assert message.format(path=path) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["whatif"], ["run", "--bogus"]], ids=["whatif_without_day", "unknown_option"])
def test_cli_usage_error_exits_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage: csdsim" in capsys.readouterr().err


def test_cli_model_invariant_violation_exits_three(tmp_path, capsys, monkeypatch):
    def broken(sim):
        raise ModelInvariantError("task 3: illegal move")

    monkeypatch.setattr(csdsim.engine.Simulation, "run", broken)
    out = tmp_path / "x"
    assert main(["run", "--out", str(out), *TINY_OVERRIDES]) == 3
    assert capsys.readouterr().err == "error: task 3: illegal move\n"
    assert not out.exists()


HISTORY_HEADER = "task_id,posted_day,duration_days,registrants,submissions,outcome,failure_phase\n"


@pytest.mark.parametrize(
    "history_body,predictions_body,message",
    [
        ("t1,nan,5,0,0,starved,\n", None, "row 2: posted_day + duration_days is not finite"),
        ("t0,0,5,0,0,starved,\nt1,inf,5,0,0,starved,\n", None, "row 3: posted_day"),
        ("t1,1e308,1e308,0,0,starved,\n", None, "row 2: posted_day + duration_days"),
        (None, "t1,nan,registration,0.5\n", "row 2: day is not finite"),
        (None, "t1,1,registration,0.5\nt1,2,submission,1.5\n", "row 3: prediction is not in [0, 1]"),
        (None, "t1,1,submission,nan\n", "row 2: prediction is not in [0, 1]"),
        # no key of the file is a history task, so nothing it says would be scored
        (None, "zz1,3,registration,0.5\n", "predictions.csv: no task_id and phase matches"),
    ],
    ids=[
        "history_nan", "history_inf", "history_overflow", "day_nan", "above_one", "prediction_nan", "disjoint_keys",
    ],
)
def test_cli_non_finite_or_improbable_cell_exits_two_naming_the_row(
    tmp_path, data_dir, capsys, monkeypatch, history_body, predictions_body, message
):
    ran = []
    monkeypatch.setattr(csdsim.engine.Simulation, "run", ran.append)
    history = data_dir / "eval_history.csv"
    if history_body is not None:
        history = tmp_path / "history.csv"
        history.write_text(HISTORY_HEADER + history_body)
    argv = ["evaluate", "--history", str(history), "--out", str(tmp_path / "x")]
    if predictions_body is not None:
        predictions = tmp_path / "predictions.csv"
        predictions.write_text("task_id,day,phase,prediction\n" + predictions_body)
        argv += ["--predictions", str(predictions)]
    assert main([*argv, *TINY_OVERRIDES]) == 2
    assert message in capsys.readouterr().err
    assert ran == []
    assert not (tmp_path / "x").exists()


def test_cli_bad_predictions_exit_two_before_any_replication(tmp_path, data_dir, monkeypatch):
    predictions = tmp_path / "predictions.csv"
    predictions.write_text("task_id,day,phase,prediction\nt1,1,shipping,0.2\n")
    ran = []
    monkeypatch.setattr(csdsim.engine.Simulation, "run", ran.append)
    history = str(data_dir / "eval_history.csv")
    argv = ["--history", history, "--predictions", str(predictions), "--out", str(tmp_path / "x")]
    assert main(["evaluate", *argv, *TINY_OVERRIDES]) == 2
    assert ran == []


@pytest.mark.parametrize(
    "first_cell,message",
    [
        (b"t\xe9", "codec can't decode"),
        (b"x" * (csv.field_size_limit() + 1), "field larger than field limit"),
    ],
    ids=["not_utf8", "oversized_cell"],
)
def test_cli_undecodable_or_oversized_history_exits_two(tmp_path, capsys, first_cell, message):
    history = tmp_path / "history.csv"
    history.write_bytes(
        b"task_id,posted_day,duration_days,registrants,submissions,outcome,failure_phase\n"
        + first_cell
        + b",0,5,0,0,starved,\n"
    )
    code = main(
        ["evaluate", "--history", str(history), "--out", str(tmp_path / "x"), *TINY_OVERRIDES]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: cannot read history {history}: " in err and message in err


PREDICTIONS_HEADER = "task_id,day,phase,prediction\n"


@pytest.mark.parametrize(
    "read, text",
    [
        (ingest_history, HISTORY_HEADER + "t1,0,5,4,2,failed,submission\nt2,1,5,0,0,starved,\n"),
        (ingest_predictions, "# made elsewhere\n" + PREDICTIONS_HEADER + "t1,1,registration,0.5\n"),
        # a '#' line after the first: the reader drops it where a record starts, in one pass
        (ingest_predictions, PREDICTIONS_HEADER + "t1,1,registration,0.5\n# later\nt1,2,submission,0.25\n"),
        (load_belt_table, "belt,upper_bound,p_qualified\ngray,1000,0.3\nred,,0.6\n"),
        (lambda path: build_config(path, []), "seed = 7\nreplications = 2\n"),
    ],
    ids=["history", "predictions", "predictions_later_comment", "belt_table", "config"],
)
def test_a_byte_order_mark_reads_like_the_file_without_it(tmp_path, read, text):
    # Excel writes UTF-8 with a BOM; each input reader skips it
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text.encode())
    marked.write_bytes(codecs.BOM_UTF8 + text.encode())
    assert read(str(marked)) == read(str(plain))


@pytest.mark.parametrize(
    "content, argv, code, message",
    [
        (b"seed = 7\n# caf\xe9\n", ["run", "--config", "{path}"], 1, "config file {path} is not UTF-8 text"),
        (
            BELT_HEADER + b"gr\xe9y,1000,0.3\nred,,0.6\n",
            ["run", "--set", "belt_table_path={path}"],
            1,
            "belt table {path} is not UTF-8 text",
        ),
        (
            HISTORY_HEADER.encode() + b"t\xe9,0,5,0,0,starved,\n",
            ["evaluate", "--history", "{path}"],
            2,
            "cannot read history {path}: ",
        ),
        (
            PREDICTIONS_HEADER.encode() + b"t\xe9,1,registration,0.5\n",
            ["evaluate", "--history", "{data}/eval_history.csv", "--predictions", "{path}"],
            2,
            "cannot read predictions {path}: ",
        ),
    ],
    ids=["config", "belt_table", "history", "predictions"],
)
def test_cli_a_marked_file_that_is_not_utf8_exits_with_its_code(
    tmp_path, data_dir, capsys, content, argv, code, message
):
    path = tmp_path / "input"
    path.write_bytes(codecs.BOM_UTF8 + content)
    out = tmp_path / "x"
    argv = [arg.format(path=path, data=data_dir) for arg in argv]
    assert main([*argv, "--out", str(out), *TINY_OVERRIDES]) == code
    assert message.format(path=path) in capsys.readouterr().err
    assert not out.exists()


def test_cli_scenario_summary_has_policy_rows(tmp_path, capsys):
    out = tmp_path / "sc"
    code = main(["scenario", "openness", "--out", str(out), *TINY_OVERRIDES, "--set", "replications=2"])
    assert code == 0
    lines = (out / "scenario_summary.csv").read_text().splitlines()
    policies = [line.split(",")[0] for line in lines[2:]]
    assert policies == [
        "openness_0.60",
        "openness_0.70",
        "openness_0.80",
        "openness_0.90",
    ]
    header = lines[1].split(",")
    assert "reg_pct_gray" in header and "sub_pct_red" in header
    stdout = capsys.readouterr().out
    assert stdout.count("fail ") == 4


def test_cli_whatif_writes_one_row_per_posting_day(tmp_path, capsys):
    out = tmp_path / "wi"
    code = main(["whatif", "--day", "25", "--out", str(out), *TINY_OVERRIDES])
    assert code == 0
    lines = (out / "scenario_summary.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[2:]] == ["post_day_15", "post_day_25"]
    stdout = capsys.readouterr().out
    assert "post_day_15: fail " in stdout and "post_day_25: fail " in stdout


def test_cli_evaluate_against_fixture(tmp_path, data_dir, capsys):
    out = tmp_path / "ev"
    code = main(
        [
            "evaluate",
            "--history",
            str(data_dir / "eval_history.csv"),
            "--predictions",
            str(data_dir / "eval_predictions.csv"),
            "--out",
            str(out),
            *TINY_OVERRIDES,
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "registration: mre 0.011000" in stdout
    assert "submission: mre 0.020000" in stdout
    text = (out / "evaluation.csv").read_text()
    assert "0.011" in text and "0.02" in text


def test_cli_evaluate_runs_the_configured_replications(tmp_path, data_dir):
    out = tmp_path / "ev"
    history = str(data_dir / "eval_history.csv")
    overrides = [*TINY_OVERRIDES, "--set", "replications=2"]
    code = main(["evaluate", "--history", history, "--out", str(out), *overrides])
    assert code == 0
    assert "\nreplications: 2\n" in (out / "report.txt").read_text()
    assert "\nreplications = 2\n" in (out / "config_used.cfg").read_text()


def test_cli_calibrate_takes_no_out(tmp_path, capsys):
    """calibrate-fps writes no file, so an output directory is a usage error."""
    with pytest.raises(SystemExit) as exc:
        main(["calibrate-fps", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --out" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["calibrate-fps", "--help"])
    assert exc.value.code == 0
    assert "--out" not in capsys.readouterr().out
    assert not (tmp_path / "x").exists()


def test_cli_calibrate_prints_fit(capsys):
    code = main(["calibrate-fps", *TINY_OVERRIDES, "--set", "replications=2"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert re.search(r"fps_slope = -?\d", stdout)
    assert re.search(r"fps_intercept = -?\d", stdout)
    assert re.search(r"# fitted on \d+ resolved tasks", stdout)
