"""Output file contracts and the command-line entry points."""

import codecs
import csv
import dataclasses
import hashlib
import re
import statistics

import pytest

import csdsim.cli
import csdsim.engine
import csdsim.scenarios
from csdsim import ModelInvariantError, RunConfig, config_hash, emit_outputs, run_replications
from csdsim.cli import main
from csdsim.config import build_config
from csdsim.domain import load_belt_table
from csdsim.history import ingest_history, ingest_predictions
from csdsim.outputs import DAILY_COLUMNS, EVALUATION_COLUMNS, OUTPUT_FILES

TINY_OVERRIDES = [
    "--set",
    "replications=1",
    "--set",
    "task_lambda=25",
    "--set",
    "agent_gamma=120",
]


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


# sha256 of every emitted file but evaluation.csv, whose p-value cells come
# from scipy's stdtr. Recorded before the summary rows became PolicyOutcome
# records; that refactor moved no byte.
BASELINE_DIGESTS = {
    "platform_daily.csv": "1dd749e2e94551a4f07bec9b0aab51c9a26f286cc0ebbcaf63fad81cc4e3aa2a",
    "task_predictions.csv": "71ac4339bd27772a987da94445d722dd92bbf5432cfa680e9b248da6cc0a40db",
    "scenario_summary.csv": "b76d39ebd2e9c99dadcd06509b6f47b9d279bc11dbe6c3e2a32facabac1c698b",
    "utilization_control_chart.csv": (
        "ca884889ad289a4ab0cc358033593f4de8d5dec330caa4342b7157b8a310ad18"
    ),
    "report.txt": "fb781fc94e6076f2b8ca2acec8c42857cf28da083e6983cfe00d01d931eb34f4",
}
SWEEP_DIGESTS = {
    "platform_daily.csv": "6c418a97219fa75257a334fa043edd353983df794b7a62996dd58da9e2d87766",
    "task_predictions.csv": "838a16c3168c4e9a82fdd96fd88f1827f43ff3d522b5831a053df0b4bd27e3c8",
    "scenario_summary.csv": "160142ea9f937a102726f0e40532c530c82eddfab3a10a9e67735c9e817f746f",
    "utilization_control_chart.csv": (
        "1b321b6b347c900637167fa892db6fc42d056425e16a4dd8148b6ff208e35473"
    ),
    "report.txt": "0ef7f5a4bb644665b3db4fb1a0a949641268d5403b976a10a9364fafb20d848a",
}


def file_digests(out):
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in OUTPUT_FILES
        if name != "evaluation.csv"
    }


def test_baseline_emission_matches_recorded_bytes(emitted):
    _, _, out, _ = emitted
    assert file_digests(out) == BASELINE_DIGESTS


def test_sweep_emission_matches_recorded_bytes(tiny_cfg, tmp_path):
    cfg = dataclasses.replace(tiny_cfg, replications=1)
    report, results = csdsim.scenarios.run_openness_scenario(cfg, gates=(0.60, 0.90))
    emit_outputs(cfg, results, tmp_path, scenario=report)
    assert file_digests(tmp_path) == SWEEP_DIGESTS


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


def test_cli_bad_config_key_exits_one(tmp_path, capsys):
    code = main(["run", "--out", str(tmp_path / "x"), "--set", "bogus=1"])
    assert code == 1
    assert "bogus" in capsys.readouterr().err


def test_cli_unknown_key_names_its_source(tmp_path, capsys):
    cfg_path = tmp_path / "f.cfg"
    cfg_path.write_text("seed = 5\nbogus = 1\n")
    assert main(["run", "--out", str(tmp_path / "x"), "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == "error: line 2: unknown config key: bogus\n"
    assert main(["run", "--out", str(tmp_path / "y"), "--set", "bogus=1"]) == 1
    assert capsys.readouterr().err == "error: override: unknown config key: bogus\n"


def test_cli_fps_line_leaving_unit_interval_exits_one(tmp_path, capsys):
    code = main(["run", "--out", str(tmp_path / "x"), *TINY_OVERRIDES, "--set", "fps_slope=-1"])
    assert code == 1
    assert "fps_slope" in capsys.readouterr().err
    assert not (tmp_path / "x" / "task_predictions.csv").exists()


def test_cli_belt_table_without_follow_through_exits_one(tmp_path, capsys):
    table = tmp_path / "belts.csv"
    table.write_text("belt,upper_bound,share,p_qualified\nlow,1000,0.9,0.3\nhigh,,0.1,0.6\n")
    code = main(
        ["run", "--out", str(tmp_path / "x"), *TINY_OVERRIDES, "--set", f"belt_table_path={table}"]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "belt_table_path" in err
    assert "low, high" in err


def test_cli_admitted_belt_missing_from_belt_table_exits_one(tmp_path, capsys):
    table = tmp_path / "belts.csv"
    table.write_text("belt,upper_bound,share,p_qualified\ngray,1000,0.9,0.3\nred,,0.1,0.6\n")
    code = main(
        [
            "run",
            "--out",
            str(tmp_path / "x"),
            *TINY_OVERRIDES,
            "--set",
            f"belt_table_path={table}",
            "--set",
            "admitted_belts=blue",
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "admitted_belts" in err
    assert "blue" in err
    assert not (tmp_path / "x" / "report.txt").exists()


def test_cli_admitted_belt_outside_the_built_in_table_exits_one(tmp_path, capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(csdsim.engine.Simulation, "run", ran.append)
    out = tmp_path / "x"
    code = main(["run", "--out", str(out), *TINY_OVERRIDES, "--set", "admitted_belts=purple"])
    assert code == 1
    err = capsys.readouterr().err
    assert "admitted_belts: belts purple are not in the built-in belt table" in err
    assert ran == []  # refused before the first replication
    assert not out.exists()


GRAY_BLUE_RED = (
    "belt,upper_bound,share,p_qualified\ngray,900,0.9,0.25\nblue,1500,0.08,0.39\nred,,0.02,0.6\n"
)


@pytest.mark.parametrize(
    "table_text, admitted",
    [
        (
            "belt,upper_bound,share,p_qualified\ngray,1000,0.9,0.3\nred,,0.1,0.6\n",
            [("gray", "red"), ("gray", "red"), ("red",), None],
        ),
        (
            "belt,upper_bound,share,p_qualified\ngray,900,0.9,0.25\nblue,1500,0.05,0.39\n"
            "yellow,2200,0.04,0.6\nred,,0.01,0.6\n",
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
    original = csdsim.scenarios.run_replication
    seen = []

    def counted(cfg):
        seen.append(cfg.admitted_belts)
        return original(cfg)

    monkeypatch.setattr(csdsim.scenarios, "run_replication", counted)
    argv = ["scenario", "diversity", "--out", str(tmp_path / "x"), *TINY_OVERRIDES]
    argv += ["--set", f"belt_table_path={table}", "--set", "familiarity_belts=gray"]
    assert main(argv) == 0
    # the top two, the top three, every belt above the lowest, everyone
    assert seen == admitted
    stdout = capsys.readouterr().out
    for label in ("elite_only", "mid_and_up", "green_and_up", "all_welcome"):
        assert f"{label}: fail " in stdout


def test_cli_diversity_on_a_one_belt_table_exits_one(tmp_path, capsys, monkeypatch):
    table = tmp_path / "belts.csv"
    table.write_text("belt,upper_bound,share,p_qualified\ngray,,1.0,0.3\n")
    ran = []
    monkeypatch.setattr(csdsim.scenarios, "run_replication", ran.append)
    out = tmp_path / "x"
    argv = ["scenario", "diversity", "--out", str(out), *TINY_OVERRIDES]
    code = main([*argv, "--set", f"belt_table_path={table}", "--set", "familiarity_belts=gray"])
    assert code == 1
    err = capsys.readouterr().err
    assert f"scenario diversity needs at least two belts; {table} has one" in err
    assert ran == []  # refused before the first replication
    assert not out.exists()


def test_cli_familiarity_belt_missing_from_belt_table_exits_one(tmp_path, capsys, monkeypatch):
    table = tmp_path / "belts.csv"
    table.write_text(GRAY_BLUE_RED)
    ran = []
    monkeypatch.setattr(csdsim.scenarios, "run_replication", ran.append)
    out = tmp_path / "x"
    argv = ["scenario", "diversity", "--out", str(out), *TINY_OVERRIDES]
    code = main([*argv, "--set", f"belt_table_path={table}"])
    assert code == 1
    # the default familiarity_belts are gray and green
    assert "familiarity_belts: belts green are not in" in capsys.readouterr().err
    assert ran == []
    assert not out.exists()


BELT_HEADER = b"belt,upper_bound,share,p_qualified\n"
BELT_SOURCE = ["--set", "belt_table_path={path}"]
CONFIG_SOURCE = ["--config", "{path}"]


@pytest.mark.parametrize(
    "content, source, message",
    [
        (b"seed = 7\n# caf\xe9\n", CONFIG_SOURCE, "config file {path} is not UTF-8 text"),
        (None, CONFIG_SOURCE, "cannot read config file {path}: "),
        (
            BELT_HEADER + b"gray,1000,0.9,0.3\nred\n",
            BELT_SOURCE,
            "belt table {path}: line 3: bad cell count",
        ),
        (
            BELT_HEADER + b"gray,1000,0.9,0.3,7\nred,,0.1,0.6\n",
            BELT_SOURCE,
            "belt table {path}: line 2: bad cell count",
        ),
        (
            BELT_HEADER + b"gray,1000,0.9,0.3\ngray,,0.1,0.6\n",
            BELT_SOURCE,
            "belt table {path}: each belt may appear once",
        ),
        (
            BELT_HEADER + b"gr\xe9y,1000,0.9,0.3\nred,,0.1,0.6\n",
            BELT_SOURCE,
            "belt table {path} is not UTF-8 text",
        ),
        (BELT_HEADER, BELT_SOURCE, "belt table {path}: no rows"),
        (
            BELT_HEADER + b"gray,1000,0,0.3\nred,,0,0.6\n",
            BELT_SOURCE,
            "belt table {path}: shares must sum to a positive value",
        ),
        (
            b"belt,upper_bound,share\ngray,1000,0.9\nred,,0.1\n",
            BELT_SOURCE,
            "belt table {path}: header must contain belt, p_qualified",
        ),
        (
            BELT_HEADER + b"gray,1000,0.9,0.3\nred,,many,0.6\n",
            BELT_SOURCE,
            "belt table {path}: line 3: bad numeric cell",
        ),
        (
            BELT_HEADER + b"x" * (csv.field_size_limit() + 1) + b",1000,0.9,0.3\nred,,0.1,0.6\n",
            BELT_SOURCE,
            "cannot read belt table {path}: field larger than field limit",
        ),
        (None, BELT_SOURCE, "cannot read belt table {path}: "),
        (
            BELT_HEADER + b"gray,900,0.9,0.25\ngreen,nan,0.03,0.45\nblue,1500,0.05,0.39\nred,,0.02,0.6\n",
            BELT_SOURCE,
            "belt table {path}: upper_bound must be finite on every row but the last",
        ),
        (
            BELT_HEADER + b"gray,inf,0.9,0.25\nred,,0.1,0.6\n",
            BELT_SOURCE,
            "belt table {path}: upper_bound must be finite on every row but the last",
        ),
        (
            BELT_HEADER + b"gray,1000,nan,0.3\nred,,0.1,0.6\n",
            BELT_SOURCE,
            "belt table {path}: shares must sum to a positive value, each one finite",
        ),
        (
            BELT_HEADER + b"gray,900,0.9,0.25\ngreen,900,0.05,0.45\nred,,0.05,0.6\n",
            [*BELT_SOURCE, "--set", "admitted_belts=green", "--set", "familiarity_belts=gray"],
            "belt table {path}: rows must be sorted by strictly ascending upper_bound",
        ),
        (
            BELT_HEADER + b"gray,900,2.0,0.25\nred,,-1.0,0.6\n",
            [*BELT_SOURCE, "--set", "familiarity_belts=gray"],
            "belt table {path}: shares must be non-negative",
        ),
        (None, ["--set", "invert_tsr=maybe"], "invert_tsr: expected true or false"),
        (None, ["--set", "task_lambda=abc"], "task_lambda: expected a number"),
        (None, ["--set", "skill_vocabulary=,"], "skill_vocabulary: expected a comma separated list"),
    ],
    ids=[
        "config_not_utf8",
        "config_missing",
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
        "belt_bounds_equal",
        "belt_share_negative",
        "set_bool_not_bool",
        "set_float_not_number",
        "set_list_empty",
    ],
)
def test_cli_bad_config_or_belt_table_file_exits_one(tmp_path, capsys, content, source, message):
    # each error names its file or its key, and no artifact is written
    path = tmp_path / "input"
    if content is not None:
        path.write_bytes(content)
    out = tmp_path / "x"
    argv = [arg.format(path=path) for arg in source]
    assert main(["run", "--out", str(out), *TINY_OVERRIDES, *argv]) == 1
    assert message.format(path=path) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["whatif"], ["run", "--bogus"]], ids=["whatif_without_day", "unknown_option"])
def test_cli_usage_error_exits_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage: csdsim" in capsys.readouterr().err


def test_cli_model_invariant_violation_exits_three(tmp_path, capsys, monkeypatch):
    def broken(cfg):
        raise ModelInvariantError("task 3: illegal move")

    monkeypatch.setattr(csdsim.cli, "run_replications", broken)
    out = tmp_path / "x"
    assert main(["run", "--out", str(out), *TINY_OVERRIDES]) == 3
    assert capsys.readouterr().err == "error: task 3: illegal move\n"
    assert not out.exists()


def test_cli_bad_history_exits_two(tmp_path, capsys):
    history = tmp_path / "history.csv"
    history.write_text(
        "task_id,posted_day,duration_days,registrants,submissions,outcome,failure_phase\n"
        "t1,0,5,3,1,exploded,\n"
    )
    code = main(
        ["evaluate", "--history", str(history), "--out", str(tmp_path / "x"), *TINY_OVERRIDES]
    )
    assert code == 2
    assert "row 2" in capsys.readouterr().err


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
    ],
    ids=["history_nan", "history_inf", "history_overflow", "day_nan", "above_one", "prediction_nan"],
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
        # a '#' line after the first: the reader scans the raw bytes, then rewinds
        (ingest_predictions, PREDICTIONS_HEADER + "t1,1,registration,0.5\n# later\nt1,2,submission,0.25\n"),
        (load_belt_table, "belt,upper_bound,share,p_qualified\ngray,1000,0.9,0.3\nred,,0.1,0.6\n"),
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
            BELT_HEADER + b"gr\xe9y,1000,0.9,0.3\nred,,0.1,0.6\n",
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


@pytest.mark.parametrize(
    "argv",
    [
        ["whatif", "--day", "-2"],
        ["whatif", "--day", "40"],
        ["whatif", "--day", "59"],
        ["scenario", "openness", "--set", "focal_arrival=40"],
    ],
    ids=["whatif_day_-2", "whatif_day_40", "whatif_day_59", "openness_day_40"],
)
def test_cli_focal_outside_the_horizon_exits_one(tmp_path, capsys, monkeypatch, argv):
    # day -2 precedes the clock; from day 31 on, the 30 day focal window
    # ends past the 60 day horizon, so the focal task could never resolve
    ran = []
    monkeypatch.setattr(csdsim.scenarios, "run_replication", ran.append)
    out = tmp_path / "x"
    code = main([*argv, "--out", str(out), *TINY_OVERRIDES])
    assert code == 1
    assert "focal_arrival" in capsys.readouterr().err
    assert ran == []  # refused before the first replication
    assert not out.exists()


def test_cli_openness_gates_outside_the_similarity_range_exit_one(tmp_path, capsys, monkeypatch):
    # gate 0.60 draws from [0.52, 0.68], which misses [0.30, 0.50]
    ran = []
    monkeypatch.setattr(csdsim.scenarios, "run_replication", ran.append)
    out = tmp_path / "x"
    argv = ["scenario", "openness", "--out", str(out), "--set", "similarity_high=0.5"]
    assert main([*argv, *TINY_OVERRIDES]) == 1
    assert "openness_gate" in capsys.readouterr().err
    assert ran == []
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, key",
    [
        (["scenario", "openness", "--set", "admitted_belts=red"], "admitted_belts"),
        (["scenario", "diversity", "--set", "openness_gate=0.9"], "openness_gate"),
        (["whatif", "--day", "25", "--set", "openness_gate=0.9"], "openness_gate"),
    ],
    ids=["openness_admitted_belts", "diversity_openness_gate", "whatif_openness_gate"],
)
def test_cli_sweep_refuses_a_lever_it_would_drop(tmp_path, capsys, monkeypatch, argv, key):
    # every policy of a sweep sets both platform levers itself, so a lever in
    # the base config would be dropped while config_used.cfg still echoed it
    ran = []
    monkeypatch.setattr(csdsim.scenarios, "run_replication", ran.append)
    out = tmp_path / "x"
    assert main([*argv, "--out", str(out), *TINY_OVERRIDES]) == 1
    assert f"error: {key}: " in capsys.readouterr().err
    assert ran == []
    assert not out.exists()


def test_cli_scenario_summary_has_policy_rows(tmp_path, capsys):
    out = tmp_path / "sc"
    code = main(
        [
            "scenario",
            "openness",
            "--out",
            str(out),
            "--set",
            "replications=2",
            "--set",
            "task_lambda=25",
            "--set",
            "agent_gamma=120",
        ]
    )
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


def test_cli_calibrate_prints_fit(capsys):
    code = main(["calibrate-fps", *TINY_OVERRIDES, "--set", "replications=2"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert re.search(r"fps_slope = -?\d", stdout)
    assert re.search(r"fps_intercept = -?\d", stdout)
    assert re.search(r"# fitted on \d+ resolved tasks", stdout)
