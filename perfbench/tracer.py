"""Traced run: wrappers installed from outside the program, restored afterwards.

The wrappers replace the names ``csdsim.engine`` looks up at call time
(``registration_preconditions``, ``compute_fpr``, ``resolve_review``,
``repost``, ``spawn_agent``, ``supply_concentration``) and four methods
(``Simulation.setup``, ``Simulation.run``, ``Simulation.schedule``,
``RngStreams.get``). Nothing under ``src/`` changes.

Spans (name, start, end, parent, replication id) are kept in memory and
written out when the run ends. Per-call hot paths get counts and summed time
only: at ``elite_only`` one replication makes about 600k
``registration_preconditions`` calls.
"""

from __future__ import annotations

import functools
import hashlib
import time
from collections import Counter
from contextlib import contextmanager

import csdsim.engine
from csdsim.engine import RngStreams, Simulation

perf_counter = time.perf_counter

# name in csdsim.engine -> metric key
TIMED_ENGINE_NAMES = {
    "compute_fpr": "lifecycle.compute_fpr",
    "resolve_review": "lifecycle.resolve_review",
    "repost": "lifecycle.repost",
    "spawn_agent": "platform.spawn_agent",
    "supply_concentration": "platform.supply_concentration",
}


class Untraced:
    """Calls straight through; the untraced run pays nothing for layer timing."""

    rep = None

    def call(self, _name, fn, *args):
        return fn(*args)

    def add(self, _name, _value) -> None:
        pass


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, rep id]
        self._stack = []
        self.rep = None
        self.calls = Counter()
        self.seconds = Counter()
        self.totals = Counter()
        self.reasons = Counter()
        self.events = Counter()
        self.replications = []  # one dict per traced Simulation.run
        self._records = []
        self._streams = set()
        self._setup_s = 0.0

    # ------------------------------------------------------------ spans

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self.rep])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> float:
        end = perf_counter()
        span = self.spans[index]
        span[2] = end
        self._stack.pop()
        return end - span[1]

    def call(self, name, fn, *args):
        """Run one call into a layer's public function inside a span."""
        index = self._open(name)
        try:
            return fn(*args)
        finally:
            self.seconds[name] += self._close(index)
            self.calls[name] += 1

    def add(self, name, value) -> None:
        self.totals[name] += value

    # ------------------------------------------------------------ wrappers

    def _timed(self, key, fn):
        calls = self.calls
        seconds = self.seconds

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[key] += perf_counter() - start
                calls[key] += 1

        return wrapper

    def _preconditions(self, fn):
        reasons = self.reasons
        seconds = self.seconds

        @functools.wraps(fn)
        def wrapper(agent, task, cfg, admitted=None):
            start = perf_counter()
            reason = fn(agent, task, cfg, admitted)
            seconds["agents.preconditions"] += perf_counter() - start
            reasons[reason] += 1
            return reason

        return wrapper

    def _schedule(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(sim, time_, kind, subject):
            accepted = fn(sim, time_, kind, subject)
            if accepted:
                tracer.events[kind] += 1
                tracer._records.append((time_, kind, subject))
            return accepted

        return wrapper

    def _stream_get(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(streams, name):
            tracer._streams.add(name)
            return fn(streams, name)

        return wrapper

    def _setup(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(sim):
            index = tracer._open("engine.setup")
            try:
                return fn(sim)
            finally:
                tracer._setup_s = tracer._close(index)

        return wrapper

    def _run(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(sim):
            tracer._records = []
            tracer._streams = set()
            tracer._setup_s = 0.0
            index = tracer._open("engine.run")
            try:
                result = fn(sim)
            finally:
                run_s = tracer._close(index)
            tracer.replications.append(
                {
                    "rep": tracer.rep,
                    "run_s": run_s,
                    "setup_s": tracer._setup_s,
                    "events": result.events_processed,
                    "streams": len(tracer._streams),
                    "registrations": sum(result.reg_by_belt.values()),
                    "submissions": sum(result.sub_by_belt.values()),
                    "trace_hash": result.trace_hash,
                    "records": tracer._records,
                }
            )
            tracer._records = []
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Install every wrapper; restore every original on the way out."""
        targets = [(csdsim.engine, name, functools.partial(self._timed, key))
                   for name, key in TIMED_ENGINE_NAMES.items()]
        targets += [
            (csdsim.engine, "registration_preconditions", self._preconditions),
            (Simulation, "setup", self._setup),
            (Simulation, "run", self._run),
            (Simulation, "schedule", self._schedule),
            (RngStreams, "get", self._stream_get),
        ]
        saved = []
        try:
            for owner, name, wrap in targets:
                original = vars(owner)[name]
                saved.append((owner, name, original))
                setattr(owner, name, wrap(original))
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    # ------------------------------------------------------------ after the run

    def replay_trace_hashes(self) -> None:
        """Re-hash recorded event records outside the timed region.

        Accepted schedule calls are exactly the events the loop pops, and a
        stable sort by time restores the heap's FIFO tie order, so the replay
        reproduces ``trace_hash``. Its time estimates the in-loop hashing cost.
        """
        for rep in self.replications:
            records = rep.pop("records", None)
            if records is None:
                continue
            records.sort(key=lambda rec: rec[0])
            start = perf_counter()
            digest = hashlib.blake2b(digest_size=16)
            for when, kind, subject in records:
                digest.update(f"{when!r}|{kind}|{subject}\n".encode())
            rep["trace_hash_replay_s"] = perf_counter() - start
            rep["trace_hash_replay_matches"] = digest.hexdigest() == rep["trace_hash"]

    def span_dicts(self) -> list:
        keys = ("name", "start", "end", "parent", "rep")
        return [dict(zip(keys, span)) for span in self.spans]
