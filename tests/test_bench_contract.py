"""The names the benchmark harness looks up at call time.

The harness times layers by replacing module globals of ``csdsim.engine``
and methods defined on ``Simulation`` and ``RngStreams``, and times the
diversity sweep by replacing ``csdsim.scenarios.run_replication``. A
refactor that inlines, renames or moves one of these names breaks the
benchmark without failing any other test, so this file pins them.
"""

import dataclasses

import pytest

import csdsim.engine
import csdsim.history
import csdsim.scenarios
from csdsim.engine import RngStreams, Simulation

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
