"""Event loop mechanics, determinism, and run-level invariants."""

import _random
import dataclasses
import gc
import hashlib
import math
import random
import struct

import pytest

import csdsim.engine
from conftest import CheckedSimulation, assert_structural_invariants
from csdsim import ModelInvariantError, RunConfig, run_replication, run_replications
from csdsim.config import FOLLOW_THROUGH_PREFIX
from csdsim.domain import DEFAULT_BELT_TABLE, LEGAL_TRANSITIONS, TERMINAL_OUTCOMES, TERMINAL_STATES, BeltTable
from csdsim.domain import reported_failures, resolve_belt_table, resolved_count, resolved_shares
from csdsim.engine import (
    EV_AGENT_START,
    EV_DAILY,
    EV_REG_ATTEMPT,
    RngStreams,
    Simulation,
    draw_world,
)
from csdsim.scenarios import (
    OPENNESS_GATES,
    diversity_policies,
    run_diversity_scenario,
    run_openness_scenario,
    what_if_posting_day,
)


def run_sim(cfg):
    """One replication under the runtime checker, then criterion 5 on its end state."""
    sim = CheckedSimulation(cfg)
    result = sim.run()
    assert_structural_invariants(sim, result)
    return sim, result


# -------------------------------------------------------------- primitives


class ScriptedSimulation(Simulation):
    """Simulation that schedules a fixed script of daily events and records them."""

    def __init__(self, cfg, script):
        super().__init__(cfg)
        self.script = script
        self.accepted = []
        self.handled = []

    def setup(self):
        self.accepted = [self.schedule(time, EV_DAILY, subject) for time, subject in self.script]

    def _on_daily(self, day):
        self.handled.append((self.now, day))


def test_schedule_refuses_the_past(tiny_cfg):
    sim = Simulation(tiny_cfg)
    sim.now = 5.0
    assert sim.schedule(5.0, EV_DAILY, 1) is True  # standing still is fine
    with pytest.raises(ModelInvariantError):
        sim.schedule(4.999, EV_DAILY, 2)


def test_schedule_drops_events_past_horizon(tiny_cfg):
    horizon = tiny_cfg.horizon_days
    sim = ScriptedSimulation(tiny_cfg, [(horizon, 1), (horizon + 0.000001, 2)])
    result = sim.run()
    assert sim.accepted == [True, False]
    assert sim.handled == [(horizon, 1)]
    assert result.events_processed == 1


def test_events_run_by_time_then_fifo(tiny_cfg):
    sim = ScriptedSimulation(tiny_cfg, [(2.0, 1), (1.0, 2), (2.0, 3)])
    sim.run()
    assert sim.handled == [(1.0, 2), (2.0, 1), (2.0, 3)]


def test_rng_streams_are_independent_and_reproducible():
    a = RngStreams(42)
    b = RngStreams(42)
    assert a.get("similarity").random() == b.get("similarity").random()
    # draining one stream must not move another
    c = RngStreams(42)
    for _ in range(100):
        c.get("duration").random()
    assert c.get("similarity").random() == RngStreams(42).get("similarity").random()
    assert RngStreams(1).get("similarity").random() != RngStreams(2).get(
        "similarity"
    ).random()


@pytest.mark.parametrize("seed", [0, 1000, 2**40, -7])
@pytest.mark.parametrize(
    "name",
    ["registration/0", "submission/41", "quality/765", "a/b/c", "similarity", "task-arrival", "experience"],
)
def test_an_agent_stream_draws_what_string_seeding_draws(seed, name):
    """Every stream, shared or an agent's, is a bare MT19937 that starts in the
    state of ``random.Random``'s string seed."""
    rng = RngStreams(seed).get(name)
    reference = random.Random(f"{seed}/{name}")
    assert type(rng) is _random.Random
    assert _random.Random.getstate(rng) == reference.getstate()[1]
    assert [rng.random() for _ in range(1000)] == [reference.random() for _ in range(1000)]
    assert rng.getrandbits(70) == reference.getrandbits(70)


def test_agent_streams_are_not_tracked_by_the_collector(tiny_cfg):
    sim, _ = run_sim(tiny_cfg)
    streams = [
        rng for agent in sim.agents.values()
        for rng in (agent.reg_rng, agent.sub_rng, agent.quality_rng) if rng is not None
    ]
    assert any(agent.reg_rng is not None for agent in sim.agents.values())
    assert not any(gc.is_tracked(rng) for rng in streams)


# ------------------------------------------------------------- determinism


@pytest.mark.parametrize("rate", [0.1, 1.0, 3.0, 24.0])
def test_gap_expression_is_expovariates(rate):
    """The engine draws each gap as ``-log(1.0 - r.random()) / rate``: bit for bit
    ``expovariate(rate)`` on a twin stream, leaving the same stream state."""
    rng = random.Random(f"gap/{rate}")
    twin = random.Random()
    twin.setstate(rng.getstate())
    for _ in range(5_000):
        assert -math.log(1.0 - rng.random()) / rate == twin.expovariate(rate)
    assert rng.getstate() == twin.getstate()


def test_same_seed_reproduces_everything(tiny_cfg):
    first = run_replication(tiny_cfg)
    second = run_replication(tiny_cfg)
    assert first.trace_hash == second.trace_hash
    assert first.counters == second.counters
    assert first.daily == second.daily
    assert first.task_log == second.task_log
    assert first.events_processed == second.events_processed


def test_different_seed_diverges(tiny_cfg):
    other = dataclasses.replace(tiny_cfg, seed=tiny_cfg.seed + 1)
    assert run_replication(tiny_cfg).trace_hash != run_replication(other).trace_hash


def test_policy_knobs_leave_ambient_arrivals_alone(tiny_cfg):
    """Common random numbers: the world is identical across policies."""

    def ambient_fingerprint(cfg):
        sim, _ = run_sim(cfg)
        return sorted(
            (t.arrival, t.duration, t.similarity, t.skills)
            for t in sim.tasks.values()
            if t.repost_count == 0 and not t.focal
        )

    base = ambient_fingerprint(tiny_cfg)
    gated = ambient_fingerprint(
        dataclasses.replace(tiny_cfg, admitted_belts=("yellow", "red"))
    )
    assert base == gated


# ------------------------------------------------------------- invariants


def test_transitions_observed_are_all_legal(tiny_cfg):
    sim, _ = run_sim(tiny_cfg)
    assert sim.moves  # the audit actually saw traffic
    for (src, dst), count in sim.moves.items():
        assert dst in LEGAL_TRANSITIONS[src], (src, dst)
        assert count > 0


def test_every_terminal_move_is_audited(tiny_cfg):
    sim, _ = run_sim(tiny_cfg)
    for state in TERMINAL_STATES:
        moved = sim.entered[state]
        ended = sum(1 for task in sim.tasks.values() if task.state is state)
        assert moved == ended, state.value
        assert ended > 0, state.value  # every terminal state is exercised


def test_derived_tallies_match_a_census_of_tasks(tiny_cfg):
    sim, result = run_sim(tiny_cfg)
    tasks = list(sim.tasks.values())
    counters = result.counters
    assert counters["registered"] == sum(1 for task in tasks if task.registrants)
    assert counters["submitted"] == sum(1 for task in tasks if task.submissions)
    assert counters["reposted"] == sum(1 for task in tasks if task.repost_count > 0)
    assert min(counters["registered"], counters["submitted"], counters["reposted"]) > 0


def test_crowd_suppression_holds_submissions_to_lone_registrants():
    # past a cap of one registrant, a 1e9 penalty all but forbids submitting
    cfg = RunConfig(seed=1000, replications=1, competition_cap=1, crowd_penalty_coeff=1e9)
    plain, _ = run_sim(RunConfig(seed=1000, replications=1))
    sim, _ = run_sim(cfg)
    crowded = [t for t in plain.tasks.values() if t.submissions and len(t.registrants) > 1]
    submitted = [t for t in sim.tasks.values() if t.submissions]
    assert crowded  # without the penalty, crowded tasks do get submissions
    assert 0 < len(submitted) < len(crowded)
    assert all(len(t.registrants) == 1 for t in submitted)


def test_counter_identities(tiny_cfg):
    _, result = run_sim(tiny_cfg)
    c = result.counters
    assert c["completed"] + c["failed"] <= c["registered"]
    assert c["submitted"] <= c["registered"]
    assert c["failed"] == c["dropped"] + c["failed_review"]
    assert reported_failures(c) == c["starved"] + c["dropped"] + c["failed_review"]
    assert resolved_count(c) == (
        c["completed"] + c["failed_review"] + c["dropped"] + c["starved"]
    )


def test_daily_counters_monotone_and_ratios_consistent(tiny_cfg):
    # run_sim checks the monotone counters and TCR + TFR = 1 once a task is registered
    _, result = run_sim(tiny_cfg)
    assert len(result.daily) == int(tiny_cfg.horizon_days)
    for row in result.daily:
        if row["registered"] == 0:
            assert (row["tcr"], row["tfr"]) == (0.0, 1.0)
        assert 0.0 <= row["utilization"] <= 1.0


def test_task_log_covers_resolved_and_in_flight(tiny_cfg):
    _, result = run_sim(tiny_cfg)
    resolved = resolved_count(result.counters)
    in_flight = result.counters["arrived"] - resolved
    assert len(result.task_log) == resolved + in_flight
    resolved_rows = [r for r in result.task_log if r["outcome"] in TERMINAL_OUTCOMES]
    assert len(resolved_rows) == resolved


def test_outcome_ratios_partition_resolved(tiny_cfg):
    _, result = run_sim(tiny_cfg)
    success, unqualified, zero_submission = resolved_shares(result.counters)
    total = success + unqualified + zero_submission
    assert total == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------------------- focal


def test_focal_task_rides_the_gate(tiny_cfg):
    cfg = dataclasses.replace(tiny_cfg, focal_enabled=True, openness_gate=0.8)
    _, result = run_sim(cfg)
    focal = result.focal
    assert focal is not None
    assert focal["similarity"] == 0.8
    assert focal["outcome"] in {"completed", "failed", "starved", "dropped"}
    assert focal["failed"] == (focal["outcome"] != "completed")


def test_focal_absent_when_disabled(tiny_cfg):
    _, result = run_sim(tiny_cfg)
    assert result.focal is None


def test_focal_never_reposted(tiny_cfg):
    cfg = dataclasses.replace(tiny_cfg, focal_enabled=True, openness_gate=0.6)
    sim, result = run_sim(cfg)
    focal_tasks = [t for t in sim.tasks.values() if t.focal]
    assert len(focal_tasks) == 1
    assert all(t.root_id != focal_tasks[0].task_id or t.focal for t in sim.tasks.values())


def test_reposts_preserve_lineage(tiny_cfg):
    sim, result = run_sim(tiny_cfg)
    reposts = [t for t in sim.tasks.values() if t.repost_count > 0]
    assert result.counters["reposted"] == len(reposts)
    assert reposts, "expected at least one repost at these rates"
    for task in reposts:
        root = sim.tasks[task.root_id]
        assert root.root_id == root.task_id
        assert task.repost_count <= tiny_cfg.repost_max
        assert (task.duration, task.similarity) == (root.duration, root.similarity)


def test_repost_disabled_produces_none(tiny_cfg):
    cfg = dataclasses.replace(tiny_cfg, repost_failed=False)
    _, result = run_sim(cfg)
    assert result.counters["reposted"] == 0


def test_belt_gate_shuts_out_other_belts(tiny_cfg):
    cfg = dataclasses.replace(tiny_cfg, admitted_belts=("yellow", "red"))
    _, result = run_sim(cfg)
    assert set(result.reg_by_belt) <= {"yellow", "red"}


GRAY_BLUE_RED = "belt,upper_bound,p_qualified\ngray,900,0.25\nblue,1500,0.39\nred,,0.6\n"


@pytest.mark.parametrize(
    "table_text,belts",
    [(None, DEFAULT_BELT_TABLE.names()), (GRAY_BLUE_RED, ("gray", "blue", "red"))],
    ids=["built_in", "gray_blue_red"],
)
def test_follow_through_is_read_from_the_config_in_table_order(tmp_path, table_text, belts):
    cfg = RunConfig(submit_follow_through_gray=0.11, submit_follow_through_blue=0.22,
                    submit_follow_through_red=0.33, familiarity_belts=("gray",))
    if table_text is not None:
        path = tmp_path / "belts.csv"
        path.write_text(table_text)
        cfg = dataclasses.replace(cfg, belt_table_path=str(path))
    expected = [(belt, getattr(cfg, FOLLOW_THROUGH_PREFIX + belt)) for belt in belts]
    assert list(Simulation(cfg).follow_through.items()) == expected


class RecordingStreams(RngStreams):
    """RngStreams that remembers every name asked for."""

    def __init__(self, seed):
        super().__init__(seed)
        self.names = set()

    def get(self, name):
        self.names.add(name)
        return super().get(name)


class RecordingSimulation(Simulation):
    """Simulation that remembers every accepted (time, kind, subject) it schedules."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.streams = RecordingStreams(cfg.seed)
        self.scheduled = []

    def schedule(self, time, kind, subject):
        accepted = super().schedule(time, kind, subject)
        if accepted:
            self.scheduled.append((time, kind, subject))
        return accepted


def test_agents_that_can_never_register_get_no_cycle(tiny_cfg):
    cfg = dataclasses.replace(tiny_cfg, admitted_belts=("yellow", "red"))
    sim = RecordingSimulation(cfg)
    sim.run()
    excluded = {aid for aid, a in sim.agents.items() if a.belt not in cfg.admitted_belts}
    admitted = set(sim.agents) - excluded
    assert excluded and admitted
    attempted = {subject for _, kind, subject in sim.scheduled if kind == EV_REG_ATTEMPT}
    assert attempted and not attempted & excluded
    assert not {f"registration/{aid}" for aid in excluded} & sim.streams.names


def test_dead_scan_makes_the_draws_of_every_pick(tiny_cfg, monkeypatch):
    """An attempt that starts with a full open list checks no pick, yet leaves
    the stream where a full scan would."""
    cfg = dataclasses.replace(tiny_cfg, admitted_belts=("yellow", "red"))
    sim = Simulation(cfg)
    sim.setup()
    assert sim.scan_count > 1
    for task in list(sim.tasks.values())[:5]:
        sim._pool_add(task)
    aid = next(a.agent_id for a in sim.agents.values() if a.belt in cfg.admitted_belts)
    agent = sim.agents[aid]
    agent.reg_rng = sim.streams.get(f"registration/{aid}")
    agent.open_list = list(range(100, 100 + cfg.open_list_cap))
    open_list, pool = list(agent.open_list), list(sim.pool)
    twin = _random.Random()
    twin.setstate(agent.reg_rng.getstate())
    checks = []
    original = csdsim.engine.registration_preconditions

    def counted(*args):
        checks.append(args)
        return original(*args)

    monkeypatch.setattr(csdsim.engine, "registration_preconditions", counted)
    sim._on_reg_attempt(aid)
    assert checks == []
    # the gap to the next attempt, then one pick draw per scan
    twin.random()
    for _ in range(sim.scan_count):
        twin.random()
    assert agent.reg_rng.getstate() == twin.getstate()
    assert agent.open_list == open_list and sim.pool == pool


def test_trace_hash_is_one_packed_record_per_event(tiny_cfg):
    """The trace is <dBq records (time, _HANDLERS index, subject) in event order."""
    sim = RecordingSimulation(dataclasses.replace(tiny_cfg, focal_enabled=True))
    result = sim.run()
    codes = {kind: code for code, kind in enumerate(Simulation._HANDLERS)}
    # accepted schedule calls are the events the loop pops; a stable sort by
    # time restores the FIFO order of same-time ties
    events = sorted(sim.scheduled, key=lambda rec: rec[0])
    digest = hashlib.blake2b(digest_size=16)
    for time, kind, subject in events:
        digest.update(struct.pack("<dBq", time, codes[kind], subject))
    assert len(events) == result.events_processed
    assert digest.hexdigest() == result.trace_hash


def test_daily_total_agents_counts_every_arrival(tiny_cfg):
    gated = dataclasses.replace(tiny_cfg, admitted_belts=("yellow", "red"))
    sim = RecordingSimulation(gated)
    result = sim.run()
    arrivals = [time for time, kind, _aid in sim.scheduled if kind == EV_AGENT_START]
    assert len(arrivals) == len(sim.agents)
    for row in result.daily:
        assert row["total_agents"] == sum(1 for t in arrivals if t <= row["day"])


# ------------------------------------------------------------ shared worlds


def replication_record(result):
    return (
        result.trace_hash,
        result.events_processed,
        result.task_log,
        result.predictions,
        result.daily,
        result.focal,
    )


def test_a_shared_world_replays_every_policy_of_its_seed(monkeypatch):
    """Policies that differ only in openness, admission or posting day reuse the
    seed's world and match a replication that draws its world afresh."""
    base = RunConfig(seed=2000, replications=1, focal_enabled=True)
    policies = [dataclasses.replace(base, admitted_belts=belts)
                for _label, belts in diversity_policies(DEFAULT_BELT_TABLE)]
    policies += [dataclasses.replace(base, openness_gate=gate) for gate in OPENNESS_GATES]
    policies.append(dataclasses.replace(base, focal_arrival=25.0))
    memo = csdsim.engine._memo_world
    run_replication(policies[0])  # warm the memo
    hits = memo.cache_info().hits
    warm = [replication_record(run_replication(cfg)) for cfg in policies]
    assert memo.cache_info().hits == hits + len(policies)
    monkeypatch.setattr(csdsim.engine, "_memo_world", draw_world)
    cold = [replication_record(run_replication(cfg)) for cfg in policies]
    assert warm == cold


def test_draw_world_reads_no_sweep_lever(tiny_cfg):
    table = resolve_belt_table(tiny_cfg)
    world = draw_world(tiny_cfg, table)
    assert draw_world(dataclasses.replace(tiny_cfg, admitted_belts=("yellow", "red")), table) == world
    assert draw_world(dataclasses.replace(tiny_cfg, focal_arrival=3.0), table) == world
    assert draw_world(dataclasses.replace(tiny_cfg, openness_gate=0.9), table) == world
    assert draw_world(dataclasses.replace(tiny_cfg, seed=tiny_cfg.seed + 1), table) != world
    # gray now reaches 1,150: the agents rated in (900, 1150] change belt
    rows = [dataclasses.astuple(row) for row in table.rows]
    rows[0] = ("gray", 1150.0, *rows[0][2:])
    assert draw_world(tiny_cfg, BeltTable.from_rows(rows)) != world


def test_setup_builds_each_agent_from_its_world_spec(tiny_cfg):
    sim = Simulation(tiny_cfg)
    sim.setup()
    _tasks, agents = draw_world(tiny_cfg, sim.belt_table)
    assert [(a.agent_id, a.rating, a.belt, a.skills) for a in sim.agents.values()] == [
        (aid, *spec[1:]) for aid, spec in enumerate(agents)
    ]
    for agent in sim.agents.values():
        assert agent.recent_outcomes == [] and agent.open_list == [] and agent.pending == []


@pytest.mark.parametrize(
    "sweep,misses,hits",
    [
        (run_openness_scenario, 2, 6),
        (run_diversity_scenario, 2, 6),
        (lambda cfg: what_if_posting_day(cfg, 25.0), 2, 2),
    ],
    ids=["openness", "diversity", "whatif"],
)
def test_every_sweep_draws_one_world_per_seed(tiny_cfg, sweep, misses, hits):
    memo = csdsim.engine._memo_world
    memo.cache_clear()
    sweep(tiny_cfg)  # two replications of each policy
    info = memo.cache_info()
    assert (info.misses, info.hits) == (misses, hits)


def test_the_memo_holds_the_last_world_only(tiny_cfg):
    memo = csdsim.engine._memo_world
    memo.cache_clear()
    list(run_replications(dataclasses.replace(tiny_cfg, replications=5)))
    info = memo.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 5, 0)
