"""Core domain model: task lifecycle states, belts, tasks, agents."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional

from .config import FOLLOW_THROUGH_FIELDS, FOLLOW_THROUGH_PREFIX, ConfigError, RunConfig


class ModelInvariantError(Exception):
    """A structural rule of the model was broken at runtime."""


class TaskState(str, Enum):
    """Lifecycle states of a posted task."""

    ARRIVED = "arrived"
    """Posted and open for registration, no registrant yet."""

    REGISTERED = "registered"
    """Has at least one registrant, no submission yet."""

    SUBMITTED = "submitted"
    """Has at least one submission; registration is closed."""

    PEER_REVIEW = "peer_review"
    """Deadline passed with submissions in hand; scoring in progress."""

    COMPLETED = "completed"
    """A reviewed submission qualified. Terminal."""

    FAILED = "failed"
    """Reviewed but no submission qualified. Terminal."""

    STARVED = "starved"
    """Deadline passed with zero registrants. Terminal."""

    DROPPED = "dropped"
    """Deadline passed with registrants but zero submissions. Terminal."""


# The only legal edges. Everything else is a modelling bug.
LEGAL_TRANSITIONS = {
    TaskState.ARRIVED: frozenset({TaskState.REGISTERED, TaskState.STARVED}),
    TaskState.REGISTERED: frozenset({TaskState.SUBMITTED, TaskState.DROPPED}),
    TaskState.SUBMITTED: frozenset({TaskState.PEER_REVIEW}),
    TaskState.PEER_REVIEW: frozenset({TaskState.COMPLETED, TaskState.FAILED}),
    TaskState.COMPLETED: frozenset(),
    TaskState.FAILED: frozenset(),
    TaskState.STARVED: frozenset(),
    TaskState.DROPPED: frozenset(),
}

TERMINAL_STATES = frozenset(
    s for s, nxt in LEGAL_TRANSITIONS.items() if not nxt
)

# The one state each state is entered from; ARRIVED, where tasks start, has none.
SOURCE_STATE = {dst: src for src, nxt in LEGAL_TRANSITIONS.items() for dst in nxt}

FAILURE_STATES = frozenset({TaskState.FAILED, TaskState.STARVED, TaskState.DROPPED})

# The same states as outcome strings, as task logs and history CSVs spell them.
FAILURE_OUTCOMES = frozenset(state.value for state in FAILURE_STATES)

# The two phases a task can fail in, as forecasts and history CSVs spell them.
REGISTRATION_PHASE = "registration"
SUBMISSION_PHASE = "submission"
PHASES = (REGISTRATION_PHASE, SUBMISSION_PHASE)


def can_transition(current: TaskState, target: TaskState) -> bool:
    return target in LEGAL_TRANSITIONS[current]


def failure_phase(outcome: str, submissions: int) -> Optional[str]:
    """Phase in which a task failed; None unless ``outcome`` is a failure.

    ``outcome`` is a ``TaskState`` value. A failed task that got work failed
    in the submission phase (its work flunked review); one that never did
    failed while gathering a crowd, in the registration phase.
    """
    if outcome not in FAILURE_OUTCOMES:
        return None
    return SUBMISSION_PHASE if submissions else REGISTRATION_PHASE


@dataclass(frozen=True)
class BeltRow:
    """One competence tier: rating interval, population share and quality odds."""

    belt: str
    upper_bound: float  # inclusive; a rating on the boundary stays in this belt
    share: float
    p_qualified: float


@dataclass(frozen=True)
class BeltTable:
    rows: tuple

    @classmethod
    def from_rows(cls, rows, source: str = "belt table") -> "BeltTable":
        """Build a table from (belt, upper, share, p) rows, renormalizing shares.

        Rows name each belt once, with finite upper bounds in strictly ascending
        order, and end with an unbounded belt; shares are finite and non-negative,
        with a positive sum that need not be one. ``source`` starts every error message.
        """
        rows = [BeltRow(*r) for r in rows]
        if not rows:
            raise ConfigError(f"{source}: no rows")
        names = [r.belt for r in rows]
        if len(set(names)) < len(names):
            raise ConfigError(f"{source}: each belt may appear once, got {', '.join(names)}")
        bounds = [r.upper_bound for r in rows]
        if not all(map(math.isfinite, bounds[:-1])):
            raise ConfigError(f"{source}: upper_bound must be finite on every row but the last")
        if any(lo >= hi for lo, hi in zip(bounds, bounds[1:])):  # an equal bound hides a belt
            raise ConfigError(f"{source}: rows must be sorted by strictly ascending upper_bound")
        if not math.isinf(rows[-1].upper_bound):
            raise ConfigError(f"{source}: last row must have an unbounded rating")
        if any(r.share < 0 for r in rows):
            raise ConfigError(f"{source}: shares must be non-negative")
        total = sum(r.share for r in rows)
        if not 0 < total < math.inf:  # a nan or infinite share makes the sum nan or infinite
            raise ConfigError(f"{source}: shares must sum to a positive value, each one finite")
        normed = tuple(replace(r, share=r.share / total) for r in rows)
        for r in normed:
            if not (0.0 <= r.p_qualified <= 1.0):
                raise ConfigError(f"{source}: p_qualified out of range for {r.belt}")
        return cls(rows=normed)

    def belt_of(self, rating: float) -> str:
        for row in self.rows:
            if rating <= row.upper_bound:
                return row.belt
        return self.rows[-1].belt  # unreachable with an unbounded last row

    def names(self) -> tuple:
        return tuple(r.belt for r in self.rows)


DEFAULT_BELT_TABLE = BeltTable.from_rows(
    [
        ("gray", 900.0, 0.9002, 0.25),
        ("green", 1200.0, 0.0288, 0.45),
        ("blue", 1500.0, 0.0539, 0.39),
        ("yellow", 2200.0, 0.0154, 0.60),
        ("red", math.inf, 0.0016, 0.60),
    ]
)


def load_belt_table(path: str) -> BeltTable:
    """Load a belt table CSV: belt,upper_bound,share,p_qualified.

    An empty upper_bound cell marks the unbounded top belt; every row has one
    cell per header column.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.DictReader(fh)
            required = {"belt", "upper_bound", "share", "p_qualified"}
            if reader.fieldnames is None or not required.issubset(reader.fieldnames):
                raise ConfigError(
                    f"belt table {path}: header must contain {', '.join(sorted(required))}"
                )
            rows = []
            for rec in reader:
                where = f"belt table {path}: line {reader.line_num}"
                # DictReader keys extra cells under None and fills missing ones with None
                if None in rec or None in rec.values():
                    raise ConfigError(f"{where}: bad cell count")
                try:
                    raw_bound = rec["upper_bound"].strip()
                    bound = math.inf if not raw_bound else float(raw_bound)
                    share, p_qualified = float(rec["share"]), float(rec["p_qualified"])
                    rows.append((rec["belt"].strip(), bound, share, p_qualified))
                except ValueError as exc:
                    raise ConfigError(f"{where}: bad numeric cell: {exc}") from None
    except UnicodeDecodeError as exc:  # a ValueError, so caught before the next clause
        raise ConfigError(f"belt table {path} is not UTF-8 text: {exc}") from None
    except (OSError, ValueError, csv.Error) as exc:  # ValueError: a path with a NUL, say
        raise ConfigError(f"cannot read belt table {path}: {exc}") from None
    return BeltTable.from_rows(rows, source=f"belt table {path}")


def resolve_belt_table(cfg: RunConfig) -> BeltTable:
    """The active belt table: ``DEFAULT_BELT_TABLE`` or the file's, as loaded.

    The one check of belt names: every belt in the table needs a
    follow-through key, which the engine reads from the config, and every
    admitted and familiarity belt must be in the table.
    """
    path = cfg.belt_table_path
    table = load_belt_table(path) if path else DEFAULT_BELT_TABLE
    source = path or "the built-in belt table"
    names = table.names()
    missing = [belt for belt in names if FOLLOW_THROUGH_PREFIX + belt not in FOLLOW_THROUGH_FIELDS]
    if missing:
        known = ", ".join(key.removeprefix(FOLLOW_THROUGH_PREFIX) for key in FOLLOW_THROUGH_FIELDS)
        raise ConfigError(
            f"belt_table_path: belts {', '.join(missing)} in {source} "
            f"have no submit_follow_through_<belt> key (known: {known})"
        )
    for key in ("admitted_belts", "familiarity_belts"):
        absent = [belt for belt in getattr(cfg, key) or () if belt not in names]
        if absent:
            raise ConfigError(
                f"{key}: belts {', '.join(absent)} are not in {source} "
                f"(its belts: {', '.join(names)})"
            )
    return table


@dataclass(frozen=True)
class Submission:
    agent_id: int
    qualified: bool


@dataclass
class Task:
    """One posted task: immutable content plus mutable lifecycle bookkeeping."""

    task_id: int
    arrival: float
    duration: float
    similarity: float
    skills: int
    attractable: bool
    repost_count: int = 0
    root_id: int = -1
    focal: bool = False
    state: TaskState = TaskState.ARRIVED
    registrants: list = field(default_factory=list)
    submissions: list = field(default_factory=list)
    appeal: dict = field(default_factory=dict)  # preference_weight by belt, set when pooled

    def __post_init__(self):
        if self.root_id < 0:
            self.root_id = self.task_id

    @property
    def deadline(self) -> float:
        return self.arrival + self.duration

    def transition(self, target: TaskState) -> None:
        if not can_transition(self.state, target):
            raise ModelInvariantError(
                f"task {self.task_id}: illegal transition {self.state.value} -> {target.value}"
            )
        self.state = target


@dataclass(slots=True)
class Agent:
    """One crowd member with a fixed rating and a rolling reliability record.

    ``recent_outcomes`` is a plain list of 0.0/1.0 outcomes, oldest first,
    that ``agents.update_reliability`` keeps to the config's
    ``reliability_window``; a new agent starts with ``[]``.
    """

    agent_id: int
    rating: float
    belt: str
    skills: int
    recent_outcomes: list
    reliability: float = 0.0  # qualified fraction of recent_outcomes, kept by update_reliability
    open_list: list = field(default_factory=list)
    # event-loop process state, owned by the engine
    pending: list = field(default_factory=list)
    sub_armed: bool = False
    reg_rng: object = None
    sub_rng: object = None
    quality_rng: object = None


def resolved_count(counters: dict) -> int:
    """Tasks in a terminal state, from a ``counters`` dict."""
    return counters["completed"] + counters["failed"] + counters["starved"]
