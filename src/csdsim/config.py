"""Typed run configuration with a flat ``key = value`` file format.

Every tunable in the simulator lives here as a dataclass field so that a
config file, a CLI override, and a test all speak the same vocabulary.
``build_config`` and ``echo_config`` round-trip exactly: building from a
file that holds the echo of a config yields an equal config.
"""

from __future__ import annotations

import hashlib
import math
import typing
from dataclasses import dataclass, fields
from typing import Optional


class ConfigError(Exception):
    """Unknown key, malformed value, or out-of-range setting."""


DEFAULT_SKILLS = (
    "java",
    "python",
    "javascript",
    "sql",
    "csharp",
    "cpp",
    "android",
    "react",
    "devops",
    "qa",
)

# Each belt of the active belt table needs a key named this prefix plus the belt.
FOLLOW_THROUGH_PREFIX = "submit_follow_through_"


@dataclass(frozen=True)
class RunConfig:
    """All simulator knobs, grouped by layer; building one, ``replace`` too, validates it."""

    # Run shape
    seed: int = 42
    replications: int = 30
    horizon_days: float = 60.0

    # Platform arrival processes
    task_lambda: float = 87.0
    agent_gamma: float = 800.0
    arrival_rate_unit: str = "per_run"  # per_run | per_day

    # Task content distributions
    similarity_low: float = 0.30
    similarity_high: float = 0.98
    duration_min: float = 1.0
    duration_mode: float = 16.0
    duration_max: float = 30.0
    attraction_rate: float = 0.70
    award_low: float = 250.0
    award_high: float = 1250.0
    task_skills_min: int = 1
    task_skills_max: int = 3

    # Agent population
    experience_alpha: float = 1.0
    experience_beta: float = 5.0
    experience_max: float = 3000.0
    agent_skills_min: int = 1
    agent_skills_max: int = 5
    skill_vocabulary: tuple = DEFAULT_SKILLS
    match_mode: str = "any"  # any | all
    reliability_window: int = 15

    # Registration behaviour
    reg_rate_per_day: float = 1.0
    reg_threshold: float = 0.8
    open_list_cap: int = 5
    competition_cap: int = 18
    crowded_bernoulli_p: float = 0.3
    engagement_scale: float = 5.0
    novelty_exponent: float = 2.5
    familiarity_pivot: float = 0.75
    familiarity_gain: float = 0.33
    familiarity_belts: tuple = ("gray", "green")
    pool_crowding_coeff: float = 0.5
    supply_concentration_max: float = 25.0

    # Submission behaviour
    sub_rate_per_day: float = 0.51
    sub_product_threshold: float = 0.051
    crowd_penalty_coeff: float = 0.0
    submit_follow_through_gray: float = 0.15
    submit_follow_through_green: float = 0.57
    submit_follow_through_blue: float = 0.57
    submit_follow_through_yellow: float = 0.60
    submit_follow_through_red: float = 0.60

    # Review and risk scoring
    quality_pass: float = 75.0
    fps_slope: float = 0.0473
    fps_intercept: float = 0.014
    invert_tsr: bool = False

    # Lifecycle policy
    repost_failed: bool = True
    repost_max: int = 3
    check_invariants: bool = True

    # Scenario levers
    admitted_belts: Optional[tuple] = None
    openness_gate: Optional[float] = None
    openness_halfwidth: float = 0.08
    focal_enabled: bool = False
    focal_arrival: float = 15.0
    focal_duration: float = 30.0
    focal_award: float = 750.0

    # External tables
    belt_table_path: Optional[str] = None

    def __post_init__(self):
        validate_config(self)


_HINTS = typing.get_type_hints(RunConfig)
_FIELD_NAMES = tuple(f.name for f in fields(RunConfig))


def _strip_optional(hint):
    """Return (inner_type, is_optional) for Optional[X] hints."""
    origin = typing.get_origin(hint)
    if origin is typing.Union:
        args = [a for a in typing.get_args(hint) if a is not type(None)]
        if len(args) == 1:
            return args[0], True
    return hint, False


_FLOAT_FIELDS = tuple(name for name in _FIELD_NAMES if _strip_optional(_HINTS[name])[0] is float)
FOLLOW_THROUGH_FIELDS = tuple(n for n in _FIELD_NAMES if n.startswith(FOLLOW_THROUGH_PREFIX))


def _parse_value(key: str, raw: str):
    hint, optional = _strip_optional(_HINTS[key])
    raw = raw.strip()
    if optional and raw.lower() == "none":
        return None
    base = typing.get_origin(hint) or hint
    if base is bool:
        low = raw.lower()
        if low == "true":
            return True
        if low == "false":
            return False
        raise ConfigError(f"{key}: expected true or false, got {raw!r}")
    if base is int:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None
    if base is float:
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
    if base is tuple:
        items = tuple(part.strip() for part in raw.split(",") if part.strip())
        if not items:
            raise ConfigError(f"{key}: expected a comma separated list, got {raw!r}")
        return items
    return raw


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ", ".join(value)
    return str(value)


def echo_config(cfg: RunConfig) -> str:
    """Serialize every field as one ``key = value`` line, in field order."""
    lines = [f"{f.name} = {_format_value(getattr(cfg, f.name))}" for f in fields(cfg)]
    return "\n".join(lines) + "\n"


def config_hash(cfg: RunConfig) -> str:
    """Stable content hash of the full echoed configuration."""
    return hashlib.sha256(echo_config(cfg).encode("utf-8")).hexdigest()


def _assign(assignments) -> RunConfig:
    """The defaults with each ``(where, "key = value")`` assignment applied.

    ``where`` names the assignment's source in error messages. Unknown keys
    are rejected rather than silently dropped.
    """
    changes = {}
    for where, text in assignments:
        key, sep, raw = text.partition("=")
        if not sep:
            raise ConfigError(f"{where}: expected key = value, got {text!r}")
        key = key.strip()
        if key not in _FIELD_NAMES:
            raise ConfigError(f"{where}: unknown config key: {key}")
        changes[key] = _parse_value(key, raw)
    return RunConfig(**changes)


def build_config(path: Optional[str], pairs) -> RunConfig:
    """Defaults, then the file at ``path`` (if any), then each ``key=value`` pair.

    All the assignments are applied at once, so the merged config is what is
    validated: a file that is only valid with its overrides is accepted.
    Blank file lines and ``#`` lines are skipped.
    """
    text = ""
    if path:
        try:
            with open(path, "r", encoding="utf-8-sig") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from None
    lines = ((n, line.strip()) for n, line in enumerate(text.splitlines(), start=1))
    assignments = [(f"line {n}", line) for n, line in lines if line and not line.startswith("#")]
    assignments += [("override", pair) for pair in pairs]
    return _assign(assignments)


def _require(ok: bool, key: str, rule: str):
    if not ok:
        raise ConfigError(f"{key}: {rule}")


def validate_config(cfg: RunConfig) -> None:
    """Range and choice checks. Error messages always name the key."""
    for key in _FLOAT_FIELDS:
        value = getattr(cfg, key)
        _require(value is None or math.isfinite(value), key, "must be finite")
    _require(type(cfg.seed) is int, "seed", "must be an integer")  # streams seed on its text
    _require(cfg.replications >= 1, "replications", "must be at least 1")
    _require(cfg.horizon_days > 0, "horizon_days", "must be positive")
    _require(cfg.task_lambda >= 0, "task_lambda", "must be non-negative")
    _require(cfg.agent_gamma >= 0, "agent_gamma", "must be non-negative")
    _require(
        cfg.arrival_rate_unit in ("per_run", "per_day"),
        "arrival_rate_unit",
        "must be per_run or per_day",
    )
    _require(
        0.0 <= cfg.similarity_low < cfg.similarity_high <= 1.0,
        "similarity_low",
        "need 0 <= similarity_low < similarity_high <= 1",
    )
    _require(
        0 < cfg.duration_min <= cfg.duration_mode <= cfg.duration_max,
        "duration_min",
        "need 0 < duration_min <= duration_mode <= duration_max",
    )
    _require(0.0 <= cfg.attraction_rate <= 1.0, "attraction_rate", "must be in [0, 1]")
    _require(0 < cfg.award_low <= cfg.award_high, "award_low", "need 0 < award_low <= award_high")
    _require(cfg.experience_alpha > 0, "experience_alpha", "must be positive")
    _require(cfg.experience_beta > 0, "experience_beta", "must be positive")
    _require(cfg.experience_max > 0, "experience_max", "must be positive")
    _require(
        1 <= cfg.agent_skills_min <= cfg.agent_skills_max <= len(cfg.skill_vocabulary),
        "agent_skills_min",
        "need 1 <= agent_skills_min <= agent_skills_max <= len(skill_vocabulary)",
    )
    _require(
        1 <= cfg.task_skills_min <= cfg.task_skills_max <= len(cfg.skill_vocabulary),
        "task_skills_min",
        "need 1 <= task_skills_min <= task_skills_max <= len(skill_vocabulary)",
    )
    _require(cfg.match_mode in ("any", "all"), "match_mode", "must be any or all")
    _require(cfg.reliability_window >= 1, "reliability_window", "must be at least 1")
    _require(cfg.reg_rate_per_day > 0, "reg_rate_per_day", "must be positive")
    _require(0.0 <= cfg.reg_threshold <= 1.0, "reg_threshold", "must be in [0, 1]")
    _require(cfg.open_list_cap >= 1, "open_list_cap", "must be at least 1")
    _require(cfg.competition_cap >= 1, "competition_cap", "must be at least 1")
    _require(
        0.0 <= cfg.crowded_bernoulli_p <= 1.0, "crowded_bernoulli_p", "must be in [0, 1]"
    )
    _require(cfg.engagement_scale > 0, "engagement_scale", "must be positive")
    _require(cfg.novelty_exponent > 0, "novelty_exponent", "must be positive")
    _require(0.0 <= cfg.familiarity_pivot <= 1.0, "familiarity_pivot", "must be in [0, 1]")
    _require(cfg.familiarity_gain >= 0, "familiarity_gain", "must be non-negative")
    _require(cfg.pool_crowding_coeff >= 0, "pool_crowding_coeff", "must be non-negative")
    _require(
        cfg.supply_concentration_max >= 1,
        "supply_concentration_max",
        "must be at least 1",
    )
    _require(cfg.sub_rate_per_day > 0, "sub_rate_per_day", "must be positive")
    # attempts reschedule themselves; a mean gap this far under the float
    # spacing near the horizon would leave the clock stuck at one instant
    max_rate = 1.0 / (2**20 * math.ulp(cfg.horizon_days))
    for key in ("reg_rate_per_day", "sub_rate_per_day"):
        _require(getattr(cfg, key) <= max_rate, key, f"must be at most {max_rate:.3g} per day")
    _require(cfg.sub_product_threshold > 0, "sub_product_threshold", "must be positive")
    _require(cfg.crowd_penalty_coeff >= 0, "crowd_penalty_coeff", "must be non-negative")
    for key in FOLLOW_THROUGH_FIELDS:
        _require(0.0 <= getattr(cfg, key) <= 1.0, key, "must be in [0, 1]")
    _require(0.0 <= cfg.quality_pass <= 100.0, "quality_pass", "must be in [0, 100]")
    # the FPS forecast is linear in the submission ratio t in [0, 1], so it
    # stays a probability exactly when both ends of the line do
    _require(0.0 <= cfg.fps_intercept <= 1.0, "fps_intercept", "must be in [0, 1]")
    _require(
        0.0 <= cfg.fps_slope + cfg.fps_intercept <= 1.0,
        "fps_slope",
        "need 0 <= fps_slope + fps_intercept <= 1 so forecasts stay in [0, 1]",
    )
    _require(cfg.repost_max >= 0, "repost_max", "must be non-negative")
    if cfg.admitted_belts is not None:
        _require(len(cfg.admitted_belts) > 0, "admitted_belts", "must not be empty")
    _require(cfg.openness_halfwidth > 0, "openness_halfwidth", "must be positive")
    if cfg.openness_gate is not None:
        _require(0.0 <= cfg.openness_gate <= 1.0, "openness_gate", "must be in [0, 1]")
        # gated similarities are drawn from the window clipped to the range
        _require(
            cfg.openness_gate - cfg.openness_halfwidth <= cfg.similarity_high
            and cfg.openness_gate + cfg.openness_halfwidth >= cfg.similarity_low,
            "openness_gate",
            "need the window openness_gate +/- openness_halfwidth to overlap"
            " [similarity_low, similarity_high]",
        )
    _require(cfg.focal_arrival >= 0, "focal_arrival", "must be non-negative")
    _require(cfg.focal_duration > 0, "focal_duration", "must be positive")
    _require(cfg.focal_award > 0, "focal_award", "must be positive")
    _require(
        not cfg.focal_enabled or cfg.focal_arrival + cfg.focal_duration <= cfg.horizon_days,
        "focal_arrival",
        "need focal_arrival + focal_duration <= horizon_days when focal_enabled",
    )
