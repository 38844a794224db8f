"""Tests of the benchmark itself, at a tiny size.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import csdsim.engine  # noqa: E402
import csdsim.scenarios  # noqa: E402
from csdsim import RunConfig, run_replication  # noqa: E402
from csdsim.engine import RngStreams, Simulation  # noqa: E402

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@pytest.fixture(scope="module")
def traced():
    return {name: run.run(name, seed=5, seconds=0, trace=True) for name in WORKLOADS}


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_reports_every_end_to_end_metric(name):
    record = run.run(name, seed=3, seconds=0, trace=False, min_ops=1)
    assert {k: m["unit"] for k, m in record["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in record["metrics"].values())
    assert record["failed"] == 0 and record["failed_ops"] == 0
    lines = run.summary_lines(record)
    for key, unit in END_TO_END.items():
        assert any(line.startswith(f"{key} ") and f" {unit}" in line for line in lines)
    assert any(line.startswith("failed_ops 0 ratio") for line in lines)


def test_traced_run_reports_every_per_layer_metric(traced):
    for record in traced.values():
        assert {k: m["unit"] for k, m in record["metrics"].items()} == PER_LAYER
        assert record["failed"] == 0


def test_belt_excluded_only_on_diversity_sweep(traced):
    def value(name, key):
        return traced[name]["metrics"][key]["value"]

    assert value("diversity_sweep", "agents.reject.belt_excluded") > 0
    assert value("run_default", "agents.reject.belt_excluded") == 0
    assert value("history_eval", "history.share_of_wall") > 0.5
    assert value("diversity_sweep", "history.share_of_wall") == 0


def test_trace_hash_replay_matches_the_engine(traced):
    reps = traced["run_default"]["details"]["replications"]
    assert reps and all(rep["trace_hash_replay_matches"] for rep in reps)


def _snapshot():
    return {
        "engine": dict(vars(csdsim.engine)),
        "Simulation": dict(vars(Simulation)),
        "RngStreams": dict(vars(RngStreams)),
        "scenarios": dict(vars(csdsim.scenarios)),
    }


def _same(a, b):
    return a.keys() == b.keys() and all(
        a[k].keys() == b[k].keys() and all(a[k][n] is b[k][n] for n in a[k]) for k in a
    )


ORIGINAL = _snapshot()


def test_traced_run_restores_engine_attributes(traced):
    assert _same(ORIGINAL, _snapshot())
    before = _snapshot()
    tracer = Tracer()
    cfg = RunConfig(seed=9, task_lambda=10.0, agent_gamma=40.0, horizon_days=10.0)
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert not _same(before, _snapshot())
            run_replication(cfg)
            raise RuntimeError("leave the traced block early")
    assert tracer.replications and tracer.reasons
    assert _same(before, _snapshot())


def test_cli_prints_contract_line_and_refuses_without_sources():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "history_eval", "--seed", "2",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and set(last["metrics"]) == set(END_TO_END)

    # a directory holding only BENCHMARK.json and the benchmark's own files
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        bare = Path(tmp)
        (bare / "perfbench").mkdir()
        for path in HERE.iterdir():
            if path.is_file():
                (bare / "perfbench" / path.name).write_bytes(path.read_bytes())
        (bare / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "run_default", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    assert proc.returncode != 0 and proc.stdout == ""
