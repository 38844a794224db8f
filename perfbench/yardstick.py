"""A frozen speed reference: a small discrete-event loop written for the benchmark.

The box the benchmark runs on is shared: for stretches of tens of seconds the
same code runs up to 1.7x slower, in CPU time as well as wall time. No
statistic over a 25-second run removes that. So every run interleaves calls
to ``yardstick()``, made in a child process, with its work, and timings are
reported scaled to the speed at which the yardstick takes ``NOMINAL_MS``.

The yardstick has the working set and the mix of a csdsim replication: about
2,400 string-seeded ``random.Random`` streams (6 MB of generator state),
800 agents, ~25k heap events, dict dispatch and per-event hashing. With
a smaller working set it tracked csdsim's slowdowns poorly. It imports
nothing from csdsim and must never change: changing it rescales every
timing the benchmark reports.
"""

from __future__ import annotations

import hashlib
import heapq
import random
import subprocess
import sys
import time
from collections import deque

# Reported timings are in milliseconds of a machine on which one yardstick
# call takes this long; on the 2-vCPU box the benchmark was written on
# (Python 3.11.7) it took 85-150 ms. Only the scale depends on this value.
NOMINAL_MS = 100.0

BELTS = ("gray", "green", "blue", "yellow", "red")
HORIZON = 60.0


class _Agent:
    __slots__ = ("aid", "belt", "skills", "open_list", "outcomes", "rng")

    def __init__(self, aid, rng):
        self.aid = aid
        self.belt = BELTS[int(rng.random() ** 3 * len(BELTS))]
        self.skills = rng.getrandbits(10)
        self.open_list = []
        self.outcomes = deque(maxlen=15)
        self.rng = rng


class _Task:
    __slots__ = ("tid", "skills", "similarity", "registrants")

    def __init__(self, tid, rng):
        self.tid = tid
        self.skills = 1 << rng.randrange(10)
        self.similarity = rng.uniform(0.3, 0.98)
        self.registrants = []


class _Loop:
    def __init__(self, n_agents=800, n_tasks=200):
        self.heap = []
        self.seq = 0
        self.now = 0.0
        self.trace = hashlib.blake2b(digest_size=16)
        self.streams = {}
        arrivals = self.stream("arrivals")
        self.tasks = {i: _Task(i, arrivals) for i in range(n_tasks)}
        self.pool = list(self.tasks)
        self.agents = {}
        for aid in range(n_agents):
            self.agents[aid] = _Agent(aid, self.stream(f"registration/{aid}"))
            self.stream(f"submission/{aid}")
            self.stream(f"quality/{aid}")
            self.push(arrivals.random() * HORIZON, "start", aid)
        self.handlers = {"start": self.on_start, "reg": self.on_reg}

    def stream(self, name):
        rng = self.streams.get(name)
        if rng is None:
            rng = random.Random(f"7/{name}")
            self.streams[name] = rng
        return rng

    def push(self, when, kind, subject):
        if when > HORIZON:
            return
        heapq.heappush(self.heap, (when, self.seq, kind, subject))
        self.seq += 1

    def on_start(self, aid):
        self.push(self.now + self.agents[aid].rng.expovariate(1.0), "reg", aid)

    def on_reg(self, aid):
        agent = self.agents[aid]
        rng = agent.rng
        self.push(self.now + rng.expovariate(1.0), "reg", aid)
        task = self.tasks[self.pool[int(rng.random() * len(self.pool))]]
        if agent.belt == "gray" and task.similarity < 0.5:
            return
        if not agent.skills & task.skills or len(agent.open_list) >= 5:
            return
        if rng.random() < 0.8:
            return
        self.streams[f"quality/{aid}"].random()
        self.streams[f"submission/{aid}"].random()
        task.registrants.append(aid)
        agent.open_list.append(task.tid)
        agent.outcomes.append(1.0)
        if len(agent.open_list) > 3:
            agent.open_list.pop(0)

    def run(self):
        handlers = self.handlers
        while self.heap:
            when, _seq, kind, subject = heapq.heappop(self.heap)
            self.now = when
            self.trace.update(f"{when!r}|{kind}|{subject}\n".encode())
            handlers[kind](subject)
        return self.trace.hexdigest()


# what the loop computes; checked on every call so the work cannot drift
EXPECTED_DIGEST = "aa7ae9669740786aaeb64f5edc41e3bf"


def yardstick() -> float:
    """Run the reference loop once; return its wall time in milliseconds."""
    start = time.perf_counter()
    digest = _Loop().run()
    elapsed = (time.perf_counter() - start) * 1000.0
    if digest != EXPECTED_DIGEST:
        raise RuntimeError("the yardstick computed something else; it must not change")
    return elapsed


class YardstickProcess:
    """Runs ``yardstick()`` on request in a child process.

    A child keeps the yardstick's memory out of the workload process's peak
    RSS. Interleaved with a replication for 100 s, replication time over
    child yardstick time varied with a coefficient of variation of 0.027
    over 25-second windows (0.017 in-process; 0.059 for the replication
    alone in that quiet stretch).
    """

    def __enter__(self):
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        return self

    def measure(self) -> float:
        self._proc.stdin.write("run\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the yardstick process ended early")
        return float(line)

    def __exit__(self, *_exc):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


if __name__ == "__main__":
    for _request in sys.stdin:
        print(repr(yardstick()), flush=True)
