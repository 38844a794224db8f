"""Property test over small configs: each one is refused when built, or runs.

A config that ``RunConfig`` accepts must run one replication to completion,
keep every forecast a probability, and write a ``task_predictions.csv`` that
the predictions ingester reads back to the same latest forecasts. Rates stay
bounded: a finite but huge rate schedules events closer together than the
clock can resolve, so such a run would not finish.
"""

import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csdsim import ConfigError, RunConfig, emit_outputs, run_replication
from csdsim.config import BELT_NAMES
from csdsim.history import ingest_predictions, result_latest_predictions

# Keys for which every drawn bad value (NaN, +inf, -inf, -1) is out of range.
BAD_KEYS = (
    "horizon_days",
    "task_lambda",
    "agent_gamma",
    "reg_rate_per_day",
    "sub_rate_per_day",
    "openness_gate",
    "fps_intercept",
)
BAD_VALUES = (math.nan, math.inf, -math.inf, -1.0)


@st.composite
def small_configs(draw):
    changes = {
        "seed": draw(st.integers(0, 10_000)),
        "replications": 1,
        "horizon_days": draw(st.floats(3.0, 10.0)),
        "task_lambda": draw(st.floats(0.0, 30.0)),
        "agent_gamma": draw(st.floats(0.0, 60.0)),
        "arrival_rate_unit": draw(st.sampled_from(("per_run", "per_day"))),
        # mostly valid levers, with edges that validation must refuse
        "openness_gate": draw(st.none() | st.floats(0.1, 1.0)),
        "admitted_belts": draw(
            st.none()
            | st.lists(st.sampled_from(BELT_NAMES), min_size=1, max_size=3, unique=True).map(tuple)
        ),
        "fps_slope": draw(st.floats(-0.1, 0.6)),
        "fps_intercept": draw(st.floats(0.0, 0.6)),
        "focal_enabled": draw(st.booleans()),
        "focal_arrival": draw(st.floats(-0.5, 7.0)),
        "focal_duration": draw(st.floats(0.5, 3.0)),
    }
    bad = draw(st.none() | st.tuples(st.sampled_from(BAD_KEYS), st.sampled_from(BAD_VALUES)))
    if bad is not None:
        changes[bad[0]] = bad[1]
    return changes, bad


@settings(max_examples=150, deadline=None)
@given(drawn=small_configs())
def test_a_config_is_refused_when_built_or_runs(drawn):
    changes, bad = drawn
    if bad is not None:
        # finiteness is checked before any range, so a non-finite key is the one named
        key, value = bad
        with pytest.raises(ConfigError, match=None if value == -1.0 else f"{key}: must be finite"):
            RunConfig(**changes)
        return
    try:
        cfg = RunConfig(**changes)
    except ConfigError:
        return
    result = run_replication(cfg)
    assert all(0.0 <= value <= 1.0 for _tid, _day, _phase, value in result.predictions)
    assert (result.focal is not None) == cfg.focal_enabled
    with tempfile.TemporaryDirectory() as out:
        emit_outputs(cfg, [result], out)
        written = ingest_predictions(str(Path(out) / "task_predictions.csv"))
    assert written == result_latest_predictions(result)
