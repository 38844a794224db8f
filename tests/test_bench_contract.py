"""The names the benchmark harness looks up at call time.

The harness times layers by replacing module globals of ``csdsim.engine``
and methods defined on ``Simulation`` and ``RngStreams``, and times the
diversity sweep by replacing ``csdsim.scenarios.run_replication``. A
refactor that inlines, renames or moves one of these names breaks the
benchmark without failing any other test, so this file pins them. It also
checks that the per-layer metric names ``BENCHMARK.json`` builds from event
kinds, rejection reasons and diversity policy labels match the code.
"""

import dataclasses
import json
from collections import Counter
from pathlib import Path

import pytest

import csdsim.agents
import csdsim.engine
import csdsim.history
import csdsim.scenarios
from csdsim.engine import RngStreams, Simulation

BENCHMARK_JSON = Path(__file__).resolve().parents[1] / "BENCHMARK.json"

# Wrapped in place through ``vars(csdsim.engine)``: each must be a global there.
ENGINE_GLOBALS = (
    "compute_fpr",
    "resolve_review",
    "repost",
    "spawn_agent",
    "supply_concentration",
    "registration_preconditions",
)

# Wrapped through ``vars(cls)``: each must be defined on the class itself.
CLASS_METHODS = [
    (Simulation, "setup"),
    (Simulation, "run"),
    (Simulation, "schedule"),
    (RngStreams, "get"),
]


@pytest.mark.parametrize("name", ENGINE_GLOBALS)
def test_engine_global_is_wrappable(name):
    assert callable(vars(csdsim.engine).get(name))


@pytest.mark.parametrize(
    "owner,name", CLASS_METHODS, ids=[f"{o.__name__}.{n}" for o, n in CLASS_METHODS]
)
def test_method_is_defined_on_its_class(owner, name):
    assert callable(vars(owner).get(name))


def test_preconditions_take_four_positional_arguments(tiny_cfg, monkeypatch):
    """The harness wraps ``registration_preconditions`` as ``wrapper(a, b, c, d)``."""
    original = csdsim.engine.registration_preconditions
    calls = []

    def wrapper(a, b, c, d):
        calls.append((a, b, c, d))
        return original(a, b, c, d)

    monkeypatch.setattr(csdsim.engine, "registration_preconditions", wrapper)
    csdsim.engine.run_replication(dataclasses.replace(tiny_cfg, horizon_days=5.0))
    assert calls


def test_every_event_goes_through_schedule(tiny_cfg, monkeypatch):
    """The harness counts events by kind by wrapping ``Simulation.schedule``.

    An event pushed onto the heap some other way would be missing from those
    counts, so the accepted calls per kind must sum to ``events_processed``.
    """
    original = vars(Simulation)["schedule"]
    accepted = Counter()

    def counting(sim, time, kind, subject):
        ok = original(sim, time, kind, subject)
        accepted[kind] += ok
        return ok

    monkeypatch.setattr(Simulation, "schedule", counting)
    result = csdsim.engine.run_replication(dataclasses.replace(tiny_cfg, focal_enabled=True))
    assert set(accepted) <= set(Simulation._HANDLERS)
    assert accepted[csdsim.engine.EV_REG_ATTEMPT] > 0
    assert sum(accepted.values()) == result.events_processed


def test_imported_names_exist():
    assert callable(csdsim.history.result_latest_predictions)
    assert csdsim.scenarios.DIVERSITY_POLICIES


def test_diversity_scenario_runs_each_policy_through_run_replication(tiny_cfg, monkeypatch):
    original = csdsim.scenarios.run_replication
    seen = []

    def counted(cfg):
        seen.append(cfg.admitted_belts)
        return original(cfg)

    monkeypatch.setattr(csdsim.scenarios, "run_replication", counted)
    csdsim.scenarios.run_diversity_scenario(dataclasses.replace(tiny_cfg, replications=1))
    assert seen == [belts for _label, belts in csdsim.scenarios.DIVERSITY_POLICIES]


def test_bench_per_layer_names_follow_the_code():
    """Event kinds, rejection reasons and diversity labels name bench metrics."""
    derived = {f"engine.events.{kind}" for kind in Simulation._HANDLERS}
    derived |= {
        f"agents.reject.{value}"
        for name, value in vars(csdsim.agents).items()
        if name.startswith("REASON_")
    }
    derived |= {
        f"scenarios.policy_ms.{label}" for label, _belts in csdsim.scenarios.DIVERSITY_POLICIES
    }
    prefixes = ("engine.events.", "agents.reject.", "scenarios.policy_ms.")
    per_layer = json.loads(BENCHMARK_JSON.read_text())["per_layer"]
    declared = {m["name"] for m in per_layer if m["name"].startswith(prefixes)}
    assert derived == declared
