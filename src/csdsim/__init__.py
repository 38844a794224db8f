"""Deterministic simulator of a competitive crowdsourced development market."""

from .config import ConfigError, RunConfig, config_hash, echo_config
from .domain import (
    Agent,
    BeltTable,
    DEFAULT_BELT_TABLE,
    ModelInvariantError,
    Task,
    TaskState,
    load_belt_table,
)
from .engine import ReplicationResult, RngStreams, Simulation, run_replication
from .history import DataError, evaluate_forecast, ingest_history, ingest_predictions
from .outputs import OUTPUT_FILES, emit_outputs
from .scenarios import (
    calibrate_fps,
    run_diversity_scenario,
    run_openness_scenario,
    run_replications,
    run_sweep,
    what_if_posting_day,
)

__version__ = "0.1.0"

__all__ = [
    "Agent",
    "BeltTable",
    "ConfigError",
    "DataError",
    "DEFAULT_BELT_TABLE",
    "ModelInvariantError",
    "OUTPUT_FILES",
    "ReplicationResult",
    "RngStreams",
    "RunConfig",
    "Simulation",
    "Task",
    "TaskState",
    "calibrate_fps",
    "config_hash",
    "echo_config",
    "emit_outputs",
    "evaluate_forecast",
    "ingest_history",
    "ingest_predictions",
    "load_belt_table",
    "run_diversity_scenario",
    "run_openness_scenario",
    "run_replication",
    "run_replications",
    "run_sweep",
    "what_if_posting_day",
    "__version__",
]
