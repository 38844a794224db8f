"""Config parsing, echoing, validation, and the belt table loader."""

import dataclasses
import re
from pathlib import Path

import pytest

from csdsim import ConfigError, RunConfig, config_hash, echo_config
from csdsim.config import _format_value, build_config
from csdsim.domain import load_belt_table

def build_from_text(tmp_path, text: str) -> RunConfig:
    """``build_config`` on a file holding ``text``, with no overrides."""
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return build_config(str(path), ())


def test_echo_parse_round_trip(tmp_path):
    cfg = RunConfig()
    assert build_from_text(tmp_path, echo_config(cfg)) == cfg


def test_round_trip_survives_overrides(tmp_path):
    cfg = build_config(
        None,
        [
            "seed=7",
            "invert_tsr=true",
            "admitted_belts=green, blue",
            "openness_gate=0.85",
            "task_lambda=12.5",
        ],
    )
    again = build_from_text(tmp_path, echo_config(cfg))
    assert again == cfg
    assert again.admitted_belts == ("green", "blue")
    assert again.openness_gate == 0.85
    assert again.invert_tsr is True


def test_unknown_key_is_named(tmp_path):
    with pytest.raises(ConfigError, match="^line 1: unknown config key: nonsense$"):
        build_from_text(tmp_path, "nonsense = 1")


def test_bad_value_reports_key(tmp_path):
    with pytest.raises(ConfigError, match="^seed: expected an integer"):
        build_from_text(tmp_path, "seed = not_a_number")


@pytest.mark.parametrize(
    "override",
    [
        "replications=0",
        "horizon_days=0",
        "task_lambda=-1",
        "similarity_low=0.99",  # must stay below similarity_high
        "duration_mode=0.5",  # must sit inside [duration_min, duration_max]
        "attraction_rate=1.5",
        "reg_threshold=2",
        "open_list_cap=0",
        "reliability_window=0",
        "quality_pass=150",
        "arrival_rate_unit=per_week",
        "match_mode=some",
        # gaps of 1e-20 days fall below the clock's resolution
        "reg_rate_per_day=1e20",
        "openness_gate=2.0",
        "sub_product_threshold=-0.1",
        "submit_follow_through_gray=1.5",
        "fps_slope=-1",  # forecasts would go negative as the ratio rises
        "fps_intercept=-0.01",
        # the 30 day focal window from day 40 ends past the 60 day horizon
        ("focal_enabled=true", "focal_arrival=40"),
        # the window [0.02, 0.18] misses the similarity range [0.3, 0.98]
        "openness_gate=0.1",
        # non-finite numbers would never let the event loop finish
        "task_lambda=inf",
        "horizon_days=inf",
        "reg_rate_per_day=inf",
        "agent_gamma=nan",
        "sub_rate_per_day=-inf",
        "openness_gate=nan",
        "sub_rate_per_day=1e20",
        # from 2**1023 up the gamma draw behind a rating never accepts
        "experience_alpha=1e308",
        "experience_beta=1e308",
    ],
)
def test_validation_errors_name_the_key(override):
    overrides = [override] if isinstance(override, str) else list(override)
    key = overrides[-1].split("=")[0]
    with pytest.raises(ConfigError, match=key):
        build_config(None, overrides)


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"focal_enabled": True, "focal_arrival": 40.0}, "focal_arrival: need"),
        ({"task_lambda": float("inf")}, "task_lambda: must be finite"),
        ({"openness_gate": float("nan")}, "openness_gate: must be finite"),
        ({"horizon_days": float("-inf")}, "horizon_days: must be finite"),
        # streams are seeded from the seed's text, and 1.0 or True would name other streams
        ({"seed": 42.0}, "seed: must be an integer"),
        ({"seed": True}, "seed: must be an integer"),
    ],
)
def test_every_built_config_is_validated(changes, message):
    with pytest.raises(ConfigError, match=message):
        dataclasses.replace(RunConfig(), **changes)
    with pytest.raises(ConfigError, match=message):
        RunConfig(**changes)


def test_override_requires_equals_sign():
    with pytest.raises(ConfigError):
        build_config(None, ["seed"])
    with pytest.raises(ConfigError):  # an empty override is an error, not a blank line
        build_config(None, [""])


def test_none_literal_parses(tmp_path):
    path = tmp_path / "gated.cfg"
    path.write_text("openness_gate = 0.7\nadmitted_belts = green\n")
    assert build_config(str(path), []).openness_gate == 0.7
    cfg = build_config(str(path), ["openness_gate=none", "admitted_belts=none"])
    assert cfg.openness_gate is None
    assert cfg.admitted_belts is None


def test_config_hash_tracks_content():
    base = RunConfig()
    assert config_hash(base) == config_hash(RunConfig())
    assert len(config_hash(base)) == 64
    assert config_hash(base) != config_hash(dataclasses.replace(base, seed=43))


def test_echo_lists_every_field_once():
    text = echo_config(RunConfig())
    keys = [line.split("=")[0].strip() for line in text.strip().splitlines()]
    assert sorted(keys) == sorted(f.name for f in dataclasses.fields(RunConfig))


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 9\ntask_lambda = 10\n# comment line\n\n")
    cfg = build_config(str(path), ())
    assert cfg.seed == 9
    assert cfg.task_lambda == 10.0


def test_build_config_applies_the_file_then_the_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 9\n\n# comment line\nreplications = 2\n")
    cfg = build_config(str(path), ["seed=11"])
    assert (cfg.seed, cfg.replications) == (11, 2)
    assert build_config(None, ["seed=11"]) == dataclasses.replace(RunConfig(), seed=11)
    # a malformed assignment is named by its file line or as an override
    path.write_text("seed = 9\n\nnonsense\n")
    with pytest.raises(ConfigError, match="^line 3: "):
        build_config(str(path), [])
    path.write_text("seed = 9\n")
    with pytest.raises(ConfigError, match="^override: "):
        build_config(str(path), ["seed"])


def readme_levers():
    """``(key, default)`` for each key of README's main levers table, in row order."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = text.split("The main levers:", 1)[1].split("\n\n")[1]
    levers = []
    for row in table.splitlines()[2:]:  # past the header and its rule
        keys_cell, defaults_cell = row.split("|")[1:3]
        keys = re.findall(r"`([^`]+)`", keys_cell)
        defaults = [d.strip() for d in defaults_cell.split(",")]
        assert len(keys) == len(defaults), row
        levers += zip(keys, defaults)
    return levers


def _same_value(documented: str, actual: str) -> bool:
    try:
        return float(documented) == float(actual)
    except ValueError:
        return documented == actual


def test_readme_lever_defaults_match_run_config():
    levers = readme_levers()
    assert len(levers) == 19
    for key, documented in levers:
        actual = _format_value(getattr(RunConfig(), key))
        assert _same_value(documented, actual), f"README says {key} = {documented}, RunConfig has {actual}"


# ------------------------------------------------------------ belt table CSV


def test_belt_table_csv_round_trip(tmp_path):
    path = tmp_path / "belts.csv"
    path.write_text(
        "belt,upper_bound,p_qualified\n"
        "low,1000,0.2\n"
        "high,,0.6\n"
    )
    table = load_belt_table(str(path))
    assert table.names() == ("low", "high")
    assert table.belt_of(1000.0) == "low"
    assert table.belt_of(1000.5) == "high"
    assert [(row.belt, row.p_qualified) for row in table.rows] == [("low", 0.2), ("high", 0.6)]
