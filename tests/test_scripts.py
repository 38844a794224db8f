"""The scripts under scripts/ run end to end on one replication."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import csdsim

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
DATA = Path(__file__).resolve().parent / "data"


def run_python(*argv: str) -> str:
    """Run the interpreter on ``argv`` with this csdsim importable; fail unless it exits 0."""
    paths = [str(Path(csdsim.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    out = subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))},
    )
    return out.stdout


def run_script(name: str) -> str:
    return run_python(str(SCRIPTS / name), "--replications", "1")


def test_run_baseline_prints_counters_and_shares():
    stdout = run_script("run_baseline.py")
    assert stdout.startswith("baseline: 1 replications, seed 42")
    assert re.search(r"^arrived\s+\d+\.\d", stdout, re.MULTILINE)
    assert "outcome shares of resolved tasks:" in stdout
    assert re.search(r"^  zero-submission\s+\d+\.\d%$", stdout, re.MULTILINE)


def test_calibration_report_prints_fit_and_belts():
    stdout = run_script("calibration_report.py")
    assert re.search(r"resolved tasks, 1 replications\):\n  fitted     slope [+-]\d", stdout)
    for belt in ("gray", "green", "blue", "yellow", "red"):
        assert re.search(rf"^  {belt}\s+configured\s+\d\.\d{{3}}  analytic", stdout, re.MULTILINE)


def test_history_fixture_round_trips_through_evaluate(tmp_path):
    # what the simulator writes, its own ingesters accept
    run_python(str(SCRIPTS / "make_history_fixture.py"), "--out", str(tmp_path))
    stdout = run_python(
        "-m", "csdsim.cli", "evaluate",
        "--history", str(tmp_path / "history.csv"),
        "--predictions", str(tmp_path / "predictions.csv"),
        "--set", "replications=1",
        "--out", str(tmp_path / "eval"),
    )
    assert re.search(r"^registration: mre ", stdout, re.MULTILINE)


def test_eval_fixture_is_what_its_generator_writes(tmp_path, monkeypatch):
    # criterion 9's exact MREs are read off these committed files
    spec = importlib.util.spec_from_file_location("make_eval_fixture", SCRIPTS / "make_eval_fixture.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "DATA_DIR", tmp_path)
    script.main()
    for name in ("eval_history.csv", "eval_predictions.csv"):
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name


def test_readme_scripts_table_names_every_script():
    readme = (SCRIPTS.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Scripts\n", 1)[1].split("\n## ", 1)[0]
    named = re.findall(r"^\| `scripts/([^`]+)` \|", section, re.MULTILINE)
    assert sorted(named) == sorted(path.name for path in SCRIPTS.glob("*.py"))


def test_each_planted_fault_text_occurs_once_in_its_file():
    # the full register run is not tier-1; this keeps its entries from going stale unseen
    spec = importlib.util.spec_from_file_location("planted_faults", SCRIPTS / "planted_faults.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    for fault in script.FAULTS:
        text = (SCRIPTS.parent / fault.path).read_text(encoding="utf-8")
        assert text.count(fault.text) == 1, fault.name
