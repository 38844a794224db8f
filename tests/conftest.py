import dataclasses
import importlib.util
import os
from pathlib import Path

import pytest

import csdsim
from csdsim import RunConfig

DATA_DIR = Path(__file__).parent / "data"
SCRIPTS_DIR = Path(__file__).resolve().parents[1] / "scripts"


def csdsim_env() -> dict:
    """This process's environment with this csdsim importable, for a fresh interpreter."""
    paths = [str(Path(csdsim.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def load_script(name: str):
    """``scripts/<name>.py`` loaded as a module, without running its ``main``."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture()
def tiny_cfg() -> RunConfig:
    """A fast configuration: same mechanics, far fewer arrivals."""
    return dataclasses.replace(
        RunConfig(),
        replications=2,
        task_lambda=25.0,
        agent_gamma=120.0,
    )
