"""Discrete-event core: RNG streams and one replication.

Determinism contract: a run is a pure function of the config. All randomness
flows through named substreams of the master seed, events tie-break FIFO by
insertion order, and nothing fires past the horizon. Two runs with the same
config produce byte-identical outputs and equal trace hashes. Registration and
submission gaps are ``-log(1.0 - rng.random()) / rate``: the draws of
``random.expovariate`` on Python 3.10-3.13, without depending on its internals.

The clock, the future event list and the pool live on ``Simulation``: ``now``
is the clock in fractional days, a plain ``heapq`` list holds ``(time, seq,
kind, subject)`` entries, where ``seq`` gives FIFO ties, and ``pool`` holds
the pooled ``Task`` objects, each at its ``_pool_pos[task_id]`` index.
``trace_hash`` is a 16-byte BLAKE2b digest over one packed ``TRACE_RECORD``
per processed event, in processing order: the event time as a little-endian
float64, the kind code as a uint8 (the kind's index in
``Simulation._HANDLERS``) and the subject as an int64, 17 bytes in all
(``struct`` format ``<dBq``).

An agent that can never register (its belt is not admitted, or its rating
is zero) still arrives and counts toward utilization, but gets no
registration cycle. That cycle would draw only from the agent's own
``registration/{aid}`` stream and reject every task, so skipping it moves
no other draw and no outcome. Per-agent streams are created on first use,
which string seeding makes independent of creation order. Permanent
exclusion is checked once, at agent start, never in a scan. A scan that meets
a full open list makes the one ``random()`` draw of each remaining pick and
stops: the list and the pool cannot change in an attempt that registers nothing.

A seed's world is the setup draws no sweep lever reads: the ambient tasks from
the ``task-arrival``, ``duration`` and ``skills`` streams, then the crowd from
``agent-arrival``, ``experience`` and ``skills``. A one-world memo serves
back-to-back replications that differ only in ``openness_gate``,
``admitted_belts`` or ``focal_arrival``; a policy sweep runs replication r of
every policy before r + 1. Setup then draws each ambient task's similarity,
which reads the openness gate, and its attractable flag from the replication's
own ``similarity`` and ``attraction`` streams, in task order; reposts continue
``attraction`` from there.

The platform tallies are read off the ``_move`` audit, ``transition_counts``,
and the per-belt tallies off the tasks; only arrivals and reposts are ints.
"""

from __future__ import annotations

import hashlib
import heapq
import random
import struct
from collections import Counter, deque
from dataclasses import dataclass, replace
from functools import lru_cache
from math import log
from typing import Optional

from .agents import (
    REASON_OPEN_LIST_FULL,
    decide_register,
    decide_submit,
    permanent_exclusion,
    preference_weight,
    registration_engagement,
    registration_preconditions,
    score_submission,
    submission_crowd_suppression,
    update_reliability,
)
from .config import FOLLOW_THROUGH_PREFIX, RunConfig
from .domain import (
    Agent,
    BeltTable,
    FAILURE_STATES,
    ModelInvariantError,
    REGISTRATION_PHASE,
    SOURCE_STATE,
    SUBMISSION_PHASE,
    Submission,
    TERMINAL_STATES,
    Task,
    TaskState,
    failure_phase,
    resolve_belt_table,
    resolved_count,
)
from .lifecycle import (
    compute_fpr,
    compute_fps,
    compute_tcr,
    compute_tfr,
    compute_tsr,
    repost,
    resolve_review,
    sample_duration,
)
from .platform import (
    arrival_times,
    pool_openness,
    sample_similarity,
    spawn_agent,
    supply_concentration,
    sample_skill_mask,
    utilization,
)

# Event kinds; FIFO sequencing handles same-time ties. A kind's trace code is
# its index in ``Simulation._HANDLERS``.
EV_TASK_ARRIVAL = "task_arrival"
EV_AGENT_START = "agent_start"
EV_REG_ATTEMPT = "reg_attempt"
EV_SUB_ATTEMPT = "sub_attempt"
EV_DEADLINE = "deadline"
EV_REVIEW = "review"
EV_FOCAL = "focal"
EV_DAILY = "daily"

# One trace record per processed event: time, kind code, subject.
TRACE_RECORD = struct.Struct("<dBq")

_INTO_SUBMITTED = (SOURCE_STATE[TaskState.SUBMITTED], TaskState.SUBMITTED)
_INTO_REGISTERED = (SOURCE_STATE[TaskState.REGISTERED], TaskState.REGISTERED)


class RngStreams:
    """Named deterministic substreams derived from one master seed.

    String seeding keeps substreams independent: extra draws on one stream
    never shift any other, which is what keeps paired runs comparable.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._streams = {}

    def get(self, name: str) -> random.Random:
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(f"{self.seed}/{name}")
            self._streams[name] = rng
        return rng


def draw_world(cfg: RunConfig, belt_table: BeltTable) -> tuple:
    """Task specs ``(arrival, duration, skills)``, then agent specs ``(start, rating,
    belt, skills)``, drawn on fresh streams of ``cfg.seed``."""
    streams = RngStreams(cfg.seed)
    dur_rng, skill_rng = streams.get("duration"), streams.get("skills")
    tasks = tuple(
        (when, sample_duration(dur_rng, cfg),
         sample_skill_mask(skill_rng, cfg.task_skills_min, cfg.task_skills_max, cfg.skill_vocabulary))
        for when in arrival_times(streams.get("task-arrival"), cfg.task_lambda, cfg)
    )
    exp_rng = streams.get("experience")
    agents = tuple(
        (when, *spawn_agent(exp_rng, skill_rng, cfg, belt_table))
        for when in arrival_times(streams.get("agent-arrival"), cfg.agent_gamma, cfg)
    )
    return tasks, agents


@lru_cache(maxsize=1)
def _memo_world(cfg: RunConfig, belt_table: BeltTable) -> tuple:
    """The last world drawn; setup passes ``cfg`` with the levers no draw reads reset."""
    return draw_world(cfg, belt_table)


@dataclass
class ReplicationResult:
    """Everything one replication hands back to reporting and scenarios."""

    counters: dict
    focal: Optional[dict]
    daily: list
    predictions: list
    task_log: list
    reg_by_belt: Counter
    sub_by_belt: Counter
    trace_hash: str
    events_processed: int

    @property
    def resolved(self) -> int:
        return resolved_count(self.counters)

    @property
    def in_flight(self) -> int:
        return self.counters["arrived"] - self.resolved

    @property
    def reported_failures(self) -> int:
        return self.counters["failed"] + self.counters["starved"]

    @property
    def success_ratio(self) -> float:
        if self.resolved <= 0:
            return 0.0
        return self.counters["completed"] / self.resolved

    @property
    def unqualified_ratio(self) -> float:
        if self.resolved <= 0:
            return 0.0
        return self.counters["failed_review"] / self.resolved

    @property
    def zero_submission_ratio(self) -> float:
        if self.resolved <= 0:
            return 0.0
        return (self.counters["dropped"] + self.counters["starved"]) / self.resolved


class Simulation:
    """One replication of the marketplace under a fixed config."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.belt_table = resolve_belt_table(cfg)
        self.belts = self.belt_table.names()
        self.streams = RngStreams(cfg.seed)
        self.now = 0.0  # fractional days
        self._heap: list = []  # (time, seq, kind, subject); seq gives FIFO ties
        self._seq = 0
        self.arrived = 0
        self.reposted = 0
        self.tasks: dict = {}
        self.agents: dict = {}
        self.active = 0  # agents started, counted in utilization even if they never register
        self.busy = 0  # active agents with a non-empty open list
        self.pool: list = []
        self._pool_pos: dict = {}
        self.pool_sim_sum = 0.0
        self.admitted = frozenset(cfg.admitted_belts) if cfg.admitted_belts else None
        self.concentration = supply_concentration(self.belt_table, self.admitted, cfg)
        self.scan_count = max(1, round(self.concentration))
        self.follow_through = {belt: getattr(cfg, FOLLOW_THROUGH_PREFIX + belt) for belt in self.belts}
        self.p_qual = {row.belt: row.p_qualified for row in self.belt_table.rows}
        self.predictions: list = []
        self.task_log: list = []
        self.daily: list = []
        self.transition_counts: Counter = Counter()
        self.focal_result: Optional[dict] = None
        self._trace = hashlib.blake2b(digest_size=16)

    # ------------------------------------------------------------- setup

    def setup(self) -> None:
        """Build fresh tasks and agents from the seed's world, then schedule them."""
        cfg = self.cfg
        lever_free = replace(cfg, openness_gate=None, admitted_belts=None, focal_arrival=0.0)
        tasks, agents = _memo_world(lever_free, self.belt_table)
        sim_rng, attr_rng = self.streams.get("similarity"), self.streams.get("attraction")
        for when, duration, skills in tasks:
            similarity = sample_similarity(sim_rng, cfg)
            task = Task(len(self.tasks), when, duration, similarity, skills,
                        attr_rng.random() < cfg.attraction_rate)
            self.tasks[task.task_id] = task
            self.schedule(when, EV_TASK_ARRIVAL, task.task_id)
        for aid, (when, rating, belt, skills) in enumerate(agents):
            self.agents[aid] = Agent(aid, rating, belt, skills, deque(maxlen=cfg.reliability_window))
            self.schedule(when, EV_AGENT_START, aid)
        if cfg.focal_enabled:
            self.schedule(cfg.focal_arrival, EV_FOCAL, 0)
        for day in range(1, int(cfg.horizon_days) + 1):
            self.schedule(float(day), EV_DAILY, day)

    # ------------------------------------------------------------- plumbing

    def schedule(self, time: float, kind: str, subject: int) -> bool:
        if time < self.now:
            raise ModelInvariantError(
                f"event {kind} scheduled in the past: {time} < {self.now}"
            )
        # nothing is allowed to fire past the horizon
        if time > self.cfg.horizon_days:
            return False
        heapq.heappush(self._heap, (time, self._seq, kind, subject))
        self._seq += 1
        return True

    def _pool_add(self, task: Task) -> None:
        task.appeal = {b: preference_weight(task.similarity, b, self.cfg) for b in self.belts}
        self._pool_pos[task.task_id] = len(self.pool)
        self.pool.append(task)
        self.pool_sim_sum += task.similarity

    def _pool_remove(self, task: Task) -> None:
        pos = self._pool_pos.pop(task.task_id, None)
        if pos is None:
            return
        last = self.pool.pop()
        if last is not task:
            self.pool[pos] = last
            self._pool_pos[last.task_id] = pos
        self.pool_sim_sum -= task.similarity

    def counters(self) -> dict:
        """Platform tallies; starved stays apart so completed + failed <= registered."""
        entered = {dst: self.transition_counts[src, dst] for dst, src in SOURCE_STATE.items()}
        return {
            "arrived": self.arrived,
            "registered": entered[TaskState.REGISTERED],
            "submitted": entered[TaskState.SUBMITTED],
            "completed": entered[TaskState.COMPLETED],
            "failed": entered[TaskState.DROPPED] + entered[TaskState.FAILED],
            "starved": entered[TaskState.STARVED],
            "dropped": entered[TaskState.DROPPED],
            "failed_review": entered[TaskState.FAILED],
            "reposted": self.reposted,
        }

    def current_tsr(self) -> float:
        counts = self.transition_counts
        return compute_tsr(counts[_INTO_SUBMITTED], counts[_INTO_REGISTERED])

    # ------------------------------------------------------------- handlers

    def _on_task_arrival(self, tid: int) -> None:
        task = self.tasks[tid]
        self.arrived += 1
        if task.attractable:
            self._pool_add(task)
        self.schedule(task.deadline, EV_DEADLINE, tid)

    def _on_agent_start(self, aid: int) -> None:
        agent = self.agents[aid]
        self.active += 1
        if permanent_exclusion(agent, self.admitted) is not None:
            return
        agent.reg_rng = self.streams.get(f"registration/{aid}")
        gap = -log(1.0 - agent.reg_rng.random()) / self.cfg.reg_rate_per_day
        self.schedule(self.now + gap, EV_REG_ATTEMPT, aid)

    def _on_reg_attempt(self, aid: int) -> None:
        agent = self.agents[aid]
        rng = agent.reg_rng
        cfg = self.cfg
        # keep the cycle alive first so the per-attempt draw order is stable
        gap = -log(1.0 - rng.random()) / cfg.reg_rate_per_day
        self.schedule(self.now + gap, EV_REG_ATTEMPT, aid)
        # neither the pool nor the open list changes before a registration ends the attempt
        pool = self.pool
        size = len(pool)
        if size == 0:
            return
        random_, scans = rng.random, self.scan_count
        cap, mode = cfg.open_list_cap, cfg.match_mode
        for pick in range(scans):
            task = pool[int(random_() * size)]
            reason = registration_preconditions(agent, task, cap, mode)
            if reason is not None:
                if reason == REASON_OPEN_LIST_FULL:
                    for _ in range(scans - pick - 1):  # each later pick would fail alike
                        random_()
                    return
                continue
            mean_other = (self.pool_sim_sum - task.similarity) / (size - 1) if size > 1 else 0.0
            p_engage = registration_engagement(
                task.similarity, mean_other, task.appeal[agent.belt], self.concentration, cfg
            )
            if random_() >= p_engage:
                continue
            draw, crowd_draw = random_(), random_()
            if decide_register(len(task.registrants), draw, crowd_draw,
                               cfg.reg_threshold, cfg.competition_cap, cfg.crowded_bernoulli_p):
                self._register(agent, task)
                return

    def _move(self, task: Task, new_state: TaskState) -> None:
        """Route every state change through one audited chokepoint."""
        self.transition_counts[(task.state, new_state)] += 1
        task.transition(new_state)

    def _register(self, agent: Agent, task: Task) -> None:
        if not task.registrants:
            self._move(task, TaskState.REGISTERED)
        task.registrants.append(agent.agent_id)
        self.busy += not agent.open_list
        agent.open_list.append(task.task_id)
        agent.pending.append(task.task_id)
        agents, p_qual = self.agents, self.p_qual
        fpr = compute_fpr((agents[a].reliability, p_qual[agents[a].belt]) for a in task.registrants)
        self.predictions.append((task.task_id, self.now, REGISTRATION_PHASE, fpr))
        if not agent.sub_armed:
            if agent.sub_rng is None:
                agent.sub_rng = self.streams.get(f"submission/{agent.agent_id}")
            gap = -log(1.0 - agent.sub_rng.random()) / self.cfg.sub_rate_per_day
            self.schedule(self.now + gap, EV_SUB_ATTEMPT, agent.agent_id)
            agent.sub_armed = True

    def _on_sub_attempt(self, aid: int) -> None:
        agent = self.agents[aid]
        if not agent.pending:
            agent.sub_armed = False
            return
        rng = agent.sub_rng
        gap = -log(1.0 - rng.random()) / self.cfg.sub_rate_per_day
        self.schedule(self.now + gap, EV_SUB_ATTEMPT, aid)
        # one-shot: whichever task is picked is decided now, submit or not; past
        # its deadline a pending task is in PEER_REVIEW and takes no more work
        index = int(rng.random() * len(agent.pending))
        task = self.tasks[agent.pending.pop(index)]
        if self.now >= task.deadline:
            return
        if rng.random() >= self.follow_through[agent.belt]:
            return
        if rng.random() >= submission_crowd_suppression(len(task.registrants), self.cfg):
            return
        if decide_submit(rng.random(), self.p_qual[agent.belt], self.cfg.sub_product_threshold):
            self._submit(agent, task)

    def _submit(self, agent: Agent, task: Task) -> None:
        if not task.submissions:
            self._move(task, TaskState.SUBMITTED)
            self._pool_remove(task)  # registration closes with the first submission
        if agent.quality_rng is None:
            agent.quality_rng = self.streams.get(f"quality/{agent.agent_id}")
        qualified = score_submission(agent.quality_rng.random(), self.cfg.quality_pass)
        task.submissions.append(Submission(agent.agent_id, qualified))
        fps = compute_fps(self.current_tsr(), self.cfg.fps_slope, self.cfg.fps_intercept)
        self.predictions.append((task.task_id, self.now, SUBMISSION_PHASE, fps))

    def _on_deadline(self, tid: int) -> None:
        task = self.tasks[tid]
        if task.state is TaskState.ARRIVED:
            self._move(task, TaskState.STARVED)
            self._finalize(task)
        elif task.state is TaskState.REGISTERED:
            self._move(task, TaskState.DROPPED)
            self._finalize(task)
        elif task.state is TaskState.SUBMITTED:
            self._move(task, TaskState.PEER_REVIEW)
            self.schedule(self.now, EV_REVIEW, tid)
        else:
            raise ModelInvariantError(
                f"deadline fired on task {tid} in state {task.state.value}"
            )

    def _on_review(self, tid: int) -> None:
        task = self.tasks[tid]
        self._move(task, resolve_review(task))
        self._finalize(task)

    def _finalize(self, task: Task) -> None:
        """Terminal housekeeping: pool, agent books, logs and repost."""
        self._pool_remove(task)
        qualified_by = {s.agent_id for s in task.submissions if s.qualified}
        for aid in task.registrants:
            agent = self.agents[aid]
            agent.open_list.remove(task.task_id)
            self.busy -= not agent.open_list
            if task.task_id in agent.pending:
                agent.pending.remove(task.task_id)
            update_reliability(agent, aid in qualified_by)
        if task.focal:
            self._record_focal(task)
        self.task_log.append(self._log_row(task))
        if (
            self.cfg.repost_failed
            and task.state in FAILURE_STATES
            and not task.focal
            and task.repost_count < self.cfg.repost_max
            and self.now < self.cfg.horizon_days
        ):
            attr_rng = self.streams.get("attraction")
            clone = repost(
                task,
                self.now,
                len(self.tasks),
                attr_rng.random() < self.cfg.attraction_rate,
            )
            self.tasks[clone.task_id] = clone
            self.reposted += 1
            self.schedule(self.now, EV_TASK_ARRIVAL, clone.task_id)

    def _record_focal(self, task: Task) -> None:
        final = {phase: v for tid, _day, phase, v in self.predictions if tid == task.task_id}
        self.focal_result = {
            "task_id": task.task_id,
            "outcome": task.state.value,
            "failed": task.state in FAILURE_STATES,
            "similarity": task.similarity,
            "registrants": len(task.registrants),
            "submissions": len(task.submissions),
            "reg_by_belt": Counter(self.agents[a].belt for a in task.registrants),
            "sub_by_belt": Counter(self.agents[s.agent_id].belt for s in task.submissions),
            "final_fpr": final.get(REGISTRATION_PHASE, 0.0),
            "final_fps": final.get(SUBMISSION_PHASE, 0.0),
            "resolved_at": self.now,
        }

    def _log_row(self, task: Task) -> dict:
        return {
            "task_id": task.task_id,
            "root_id": task.root_id,
            "posted_day": task.arrival,
            "duration_days": task.duration,
            "similarity": task.similarity,
            "registrants": len(task.registrants),
            "submissions": len(task.submissions),
            "outcome": task.state.value,
            "failure_phase": failure_phase(task.state.value, len(task.submissions)) or "",
            "repost_count": task.repost_count,
            "focal": task.focal,
            "tsr_at_resolution": self.current_tsr(),
        }

    def _on_focal(self, _subject: int) -> None:
        if self.cfg.openness_gate is not None:
            similarity = self.cfg.openness_gate
        else:
            similarity = pool_openness(self.pool_sim_sum, len(self.pool))
            if similarity <= 0.0:
                similarity = (self.cfg.similarity_low + self.cfg.similarity_high) / 2.0
        task = Task(
            task_id=len(self.tasks),
            arrival=self.now,
            duration=self.cfg.focal_duration,
            similarity=similarity,
            skills=0,  # no stated requirements: every skill set is welcome
            attractable=True,
            focal=True,
        )
        self.tasks[task.task_id] = task
        self.schedule(self.now, EV_TASK_ARRIVAL, task.task_id)

    def _on_daily(self, day: int) -> None:
        busy, total = self.busy, self.active
        c = self.counters()
        self.daily.append(
            {
                **c,  # cumulative counters ride along; the CSV ignores them
                "day": day,
                "open_tasks": c["arrived"] - resolved_count(c),
                "tcr": compute_tcr(c["completed"], c["registered"]),
                "tfr": compute_tfr(c["completed"], c["registered"]),
                "tsr": compute_tsr(c["submitted"], c["registered"], invert=self.cfg.invert_tsr),
                "utilization": utilization(busy, total),
                "pool_openness": pool_openness(self.pool_sim_sum, len(self.pool)),
                "busy_agents": busy,
                "total_agents": total,
            }
        )

    # ------------------------------------------------------------- run

    # The order fixes each kind's trace code; reordering moves every trace hash.
    _HANDLERS = {
        EV_TASK_ARRIVAL: "_on_task_arrival",
        EV_AGENT_START: "_on_agent_start",
        EV_REG_ATTEMPT: "_on_reg_attempt",
        EV_SUB_ATTEMPT: "_on_sub_attempt",
        EV_DEADLINE: "_on_deadline",
        EV_REVIEW: "_on_review",
        EV_FOCAL: "_on_focal",
        EV_DAILY: "_on_daily",
    }

    def run(self) -> ReplicationResult:
        self.setup()
        dispatch = {
            kind: (code, getattr(self, name))
            for code, (kind, name) in enumerate(self._HANDLERS.items())
        }
        heap = self._heap
        pop = heapq.heappop
        pack = TRACE_RECORD.pack
        update = self._trace.update
        while heap:
            time, _seq, kind, subject = pop(heap)
            self.now = time
            code, handler = dispatch[kind]
            update(pack(time, code, subject))
            handler(subject)
        tasks = self.tasks.values()
        for task in tasks:
            if task.state not in TERMINAL_STATES:
                self.task_log.append(self._log_row(task))
        return ReplicationResult(
            counters=self.counters(),
            focal=self.focal_result,
            daily=self.daily,
            predictions=self.predictions,
            task_log=self.task_log,
            reg_by_belt=Counter(self.agents[a].belt for t in tasks for a in t.registrants),
            sub_by_belt=Counter(self.agents[s.agent_id].belt for t in tasks for s in t.submissions),
            trace_hash=self._trace.hexdigest(),
            events_processed=self._seq,  # every accepted schedule call is popped once
        )


def run_replication(cfg: RunConfig) -> ReplicationResult:
    return Simulation(cfg).run()
