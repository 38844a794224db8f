"""The scripts under scripts/ run end to end on one replication."""

import re
import subprocess
import sys

from conftest import DATA_DIR, SCRIPTS_DIR, csdsim_env, load_script, run_python


def run_script(name: str) -> str:
    return run_python(str(SCRIPTS_DIR / name), "--replications", "1")


def test_calibration_report_prints_fit_and_belts():
    stdout = run_script("calibration_report.py")
    assert re.search(r"resolved tasks, 1 replications\):\n  fitted     slope [+-]\d", stdout)
    for belt in ("gray", "green", "blue", "yellow", "red"):
        assert re.search(rf"^  {belt}\s+published\s+\d\.\d{{3}}  analytic", stdout, re.MULTILINE)
    # the paper's crowd is 90% gray; the model's rating distribution gives 83.2%
    assert "  gray    published  0.900  analytic  0.832\n" in stdout


def test_history_fixture_round_trips_through_evaluate(exported_history, tmp_path):
    # what the simulator writes, its own evaluate command scores
    stdout = run_python(
        "-m", "csdsim.cli", "evaluate",
        "--history", str(exported_history / "history.csv"),
        "--predictions", str(exported_history / "predictions.csv"),
        "--set", "replications=1",
        "--out", str(tmp_path / "eval"),
    )
    assert re.search(r"^registration: mre ", stdout, re.MULTILINE)


def test_eval_fixture_is_what_its_generator_writes(tmp_path, monkeypatch):
    # criterion 9's exact MREs are read off these committed files
    script = load_script("make_eval_fixture")
    monkeypatch.setattr(script, "DATA_DIR", tmp_path)
    script.main()
    for name in ("eval_history.csv", "eval_predictions.csv"):
        assert (tmp_path / name).read_bytes() == (DATA_DIR / name).read_bytes(), name


def test_cross_interpreter_prints_nothing_for_this_interpreter():
    # with numpy, scipy and statistics blocked, it computes exactly the record lines that need no numpy
    assert run_python(str(SCRIPTS_DIR / "cross_interpreter.py"), sys.executable) == ""


def test_cross_interpreter_names_an_interpreter_it_cannot_start(tmp_path):
    missing = str(tmp_path / "python3")
    argv = [sys.executable, str(SCRIPTS_DIR / "cross_interpreter.py"), missing]
    out = subprocess.run(argv, capture_output=True, text=True, env=csdsim_env())
    assert (out.returncode, "Traceback" in out.stderr) == (1, False), out.stderr
    assert f"{missing} [Errno 2] No such file or directory" in out.stdout


def test_readme_scripts_table_names_every_script():
    readme = (SCRIPTS_DIR.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Scripts\n", 1)[1].split("\n## ", 1)[0]
    named = re.findall(r"^\| `scripts/([^`]+)` \|", section, re.MULTILINE)
    assert sorted(named) == sorted(path.name for path in SCRIPTS_DIR.glob("*.py"))


def planted_faults():
    return load_script("planted_faults").FAULTS


# the full register run is not tier-1; these keep its entries from going stale unseen


def test_each_planted_fault_text_occurs_once_in_its_file():
    for fault in planted_faults():
        text = (SCRIPTS_DIR.parent / fault.path).read_text(encoding="utf-8")
        assert text.count(fault.text) == 1, fault.name


def test_each_planted_fault_node_collects_one_test():
    nodes = sorted({fault.node for fault in planted_faults()})
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *nodes],
        cwd=SCRIPTS_DIR.parent,
        capture_output=True,
        text=True,
        env=csdsim_env(),
    )
    assert out.returncode == 0, out.stdout + out.stderr
    assert sorted(line for line in out.stdout.splitlines() if "::" in line) == nodes
