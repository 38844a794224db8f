import importlib.util
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import settings

import csdsim
from csdsim import RunConfig, Simulation, TaskState
from csdsim.agents import permanent_exclusion, preference_weight
from csdsim.lifecycle import compute_tsr

# Each property test draws the same examples on every run, from its own source and the installed
# Hypothesis, replays no stored example and has no deadline; its ``@settings`` sets only max_examples.
settings.register_profile("csdsim", derandomize=True, database=None, deadline=None)
settings.load_profile("csdsim")

DATA_DIR = Path(__file__).parent / "data"
SCRIPTS_DIR = Path(__file__).resolve().parents[1] / "scripts"

# Cumulative daily counters, which never fall from one day to the next.
DAILY_COUNTERS = (
    "arrived",
    "registered",
    "submitted",
    "completed",
    "failed",
    "starved",
    "dropped",
    "failed_review",
    "reposted",
)


def csdsim_env() -> dict:
    """This process's environment with this csdsim importable, for a fresh interpreter."""
    paths = [str(Path(csdsim.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def run_python(*argv: str) -> str:
    """Run the interpreter on ``argv`` with this csdsim importable; fail unless it exits 0."""
    out = subprocess.run([sys.executable, *argv], capture_output=True, text=True, check=True, env=csdsim_env())
    return out.stdout


def load_script(name: str):
    """``scripts/<name>.py`` loaded as a module, without running its ``main``."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The tiny sizes of ``scripts/artifact_digests.py``: same mechanics, far fewer arrivals.
TINY = load_script("artifact_digests").TINY


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def exported_history(tmp_path_factory) -> Path:
    """A directory holding ``history.csv`` and ``predictions.csv`` as
    ``scripts/make_history_fixture.py`` writes them, run once as a program."""
    out = tmp_path_factory.mktemp("exported_history")
    run_python(str(SCRIPTS_DIR / "make_history_fixture.py"), "--out", str(out))
    return out


@pytest.fixture()
def tiny_cfg() -> RunConfig:
    """A fast configuration: the digest record's tiny sizes, at two replications."""
    return RunConfig(**{**TINY, "replications": 2})


class CheckedSimulation(Simulation):
    """Asserts the engine's structural rules around every registration and submission.

    A registration also re-checks what the scan no longer does: the agent is
    not permanently excluded, and the task's stored appeal is its belt's weight.
    And each registrant's stored reliability, which the forecast reads, is its
    window's qualified fraction. Every daily event re-counts the busy agents
    that the engine keeps as registrations open and tasks resolve. Every repost
    keeps its root's lineage and stays within ``repost_max``. Every finalized
    task is in the terminal state that its registrants and submissions allow,
    and leaves each registrant's window no longer than ``reliability_window``.
    After every pool change each pooled task sits at its ``_pool_pos`` index
    and is registrable, which the scan relies on; every submission and
    finalized task leaves ``current_tsr`` equal to the TSR of ``counters()``.
    Every move's ``(source, destination)`` edge is counted in ``moves``, which
    the state machine's legality tests read.
    """

    def __init__(self, cfg):
        super().__init__(cfg)
        self.moves = Counter()

    def _move(self, task, new_state):
        self.moves[task.state, new_state] += 1
        super()._move(task, new_state)

    def _register(self, agent, task):
        assert permanent_exclusion(agent, self.admitted) is None
        assert task.appeal[agent.belt] == preference_weight(task.similarity, agent.belt, self.cfg)
        super()._register(agent, task)
        assert len(agent.open_list) <= self.cfg.open_list_cap
        for aid in task.registrants:
            window = self.agents[aid].recent_outcomes
            expected = sum(window) / len(window) if window else 0.0
            assert self.agents[aid].reliability == expected

    def _pool_add(self, task):
        super()._pool_add(task)
        self._check_pool()

    def _pool_remove(self, task):
        super()._pool_remove(task)
        self._check_pool()

    def _check_pool(self):
        assert len(self._pool_pos) == len(self.pool)
        for i, t in enumerate(self.pool):
            assert self._pool_pos[t.task_id] == i
            assert t.state in (TaskState.ARRIVED, TaskState.REGISTERED)

    def _check_tsr(self):
        c = self.counters()
        assert self.current_tsr() == compute_tsr(c["submitted"], c["registered"])

    def _submit(self, agent, task):
        assert agent.agent_id in task.registrants
        super()._submit(agent, task)
        self._check_tsr()

    def _on_daily(self, day):
        assert self.busy == sum(1 for agent in self.agents.values() if agent.open_list)
        super()._on_daily(day)

    def _finalize(self, task):
        assert task.state is terminal_state(task)
        new_id = len(self.tasks)
        super()._finalize(task)
        self._check_tsr()
        for aid in task.registrants:
            assert len(self.agents[aid].recent_outcomes) <= self.cfg.reliability_window
        clone = self.tasks.get(new_id)
        if clone is not None:  # a repost
            assert clone.root_id == task.root_id
            assert clone.repost_count == task.repost_count + 1 <= self.cfg.repost_max


def terminal_state(task):
    """COMPLETED has a qualified submission, FAILED has submissions and none
    qualified, DROPPED has registrants and no submission, STARVED no registrant."""
    if not task.registrants:
        return TaskState.STARVED
    if not task.submissions:
        return TaskState.DROPPED
    return TaskState.COMPLETED if any(s.qualified for s in task.submissions) else TaskState.FAILED


def assert_structural_invariants(sim, result):
    """Criterion 5 on a finished run: the open-list cap, submissions within
    registrants, monotone daily counters and TCR + TFR = 1 once a task is registered."""
    assert all(len(agent.open_list) <= sim.cfg.open_list_cap for agent in sim.agents.values())
    for task in sim.tasks.values():
        assert {s.agent_id for s in task.submissions} <= set(task.registrants)
    previous = dict.fromkeys(DAILY_COUNTERS, 0)
    for row in result.daily:
        for key in DAILY_COUNTERS:
            assert row[key] >= previous[key], key
            previous[key] = row[key]
        if row["registered"] > 0:
            assert abs(row["tcr"] + row["tfr"] - 1.0) < 1e-12
    c = result.counters
    assert c["completed"] + c["failed"] <= c["registered"]
