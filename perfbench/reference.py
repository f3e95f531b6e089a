"""A fixed reference kernel that measures how fast the machine runs right now.

The benchmark's machine is a few cores of a shared host.  Other tenants
change its speed by up to 2x within seconds and by 10–30% over minutes,
so two runs of the same code minutes apart differ by more than a
regression bound.  The runner therefore times this kernel at even
intervals while it runs the program and scales the operations' times by
the machine's mean speed in the same pass (see ``Speed``).

How much a slowdown hurts depends on the code: tight interpreter loops
suffer more than code that waits on memory.  The kernel has one part of
each kind, in pure Python and NumPy and without importing ``repro``:

* ``_list_schedule`` builds a layered random DAG as dicts of lists,
  list-schedules it with a heap and scores windows of an integer profile
  with prefix sums and small-array minima;
* ``_object_graph`` builds dataclass nodes with dict-of-dict adjacency and
  attribute dicts (the shape of a networkx graph), relaxes earliest
  starts, sorts the nodes, and then makes scattered lookups into a table
  of about 15 MB.

Alone, the first part slowed more than the program did on that machine
and the second less (log-log slopes of 0.8 and 1.4 over 49 passes); their
sum tracked it (slope 1.0 to 1.1).  The work is fixed, so a change to the
program cannot change the kernel's time.
"""

from __future__ import annotations

import gc
import heapq
import random
import signal
import statistics
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

__all__ = ["REFERENCE_S", "reference_kernel", "Speed"]

#: Median time of one ``reference_kernel`` call on an unloaded core of the
#: machine the benchmark was written on (Intel Xeon, 2 vCPUs, CPython 3.11).
#: Times scaled by ``Speed`` read as seconds on that machine.
REFERENCE_S = 0.011

_NODES = 600
_PROFILE = np.arange(4000, dtype=np.int64) % 97
_PREFIX = np.concatenate(([0], np.cumsum(_PROFILE)))

_OBJECTS = 400
_LOOKUPS = 3000
_TABLE_SIZE = 100_000
_table: Optional[Tuple[list, dict]] = None


@dataclass
class _Node:
    name: str
    duration: int
    processor: int
    earliest: int = 0


def build_table() -> Tuple[list, dict]:
    """The lookup table of ``_object_graph``, built once per process."""
    global _table
    if _table is None:
        order = list(range(2 * _TABLE_SIZE))
        random.Random(3).shuffle(order)
        _table = order, {("t", key): key * 7 % 101 for key in range(_TABLE_SIZE)}
    return _table


def _list_schedule() -> int:
    rng = random.Random(7)
    successors = {node: [] for node in range(_NODES)}
    indegree = [0] * _NODES
    for node in range(1, _NODES):
        for parent in rng.sample(range(max(0, node - 40), node), min(3, node)):
            successors[parent].append(node)
            indegree[node] += 1
    duration = {node: rng.randint(1, 9) for node in range(_NODES)}
    ready = [(0, node) for node in range(_NODES) if indegree[node] == 0]
    heapq.heapify(ready)
    earliest = [0] * _NODES
    order = []
    while ready:
        start, node = heapq.heappop(ready)
        order.append(node)
        for child in successors[node]:
            earliest[child] = max(earliest[child], start + duration[node])
            indegree[child] -= 1
            if indegree[child] == 0:
                heapq.heappush(ready, (earliest[child], child))
    starts = np.asarray(earliest, dtype=np.int64) % 3000
    total = len(order)
    for node in range(0, _NODES, 2):
        window = int(starts[node])
        total += int(_PREFIX[window + 50] - _PREFIX[window])
        total += int(np.argmin(_PROFILE[window:window + 60]))
    return total


def _object_graph() -> int:
    rng = random.Random(11)
    nodes = {f"n{i}": _Node(f"n{i}", rng.randint(1, 9), i % 8) for i in range(_OBJECTS)}
    names = list(nodes)
    adjacency = {name: {} for name in names}
    for i, name in enumerate(names[1:], 1):
        for j in (i - 1, i // 2, (i * 7) % i):
            adjacency[names[j]][name] = {"weight": (i + j) % 5}
    for name in names:
        node = nodes[name]
        for child, attrs in adjacency[name].items():
            successor = nodes[child]
            successor.earliest = max(
                successor.earliest, node.earliest + node.duration + attrs["weight"]
            )
    ordered = sorted(nodes.values(), key=lambda node: (node.earliest, node.name))
    earliest = np.fromiter((node.earliest for node in ordered), dtype=np.int64, count=len(ordered))
    total = int(np.cumsum(np.minimum(earliest % 97, 50))[-1])
    order, table = build_table()
    index = 0
    for step in range(_LOOKUPS):
        index = order[(index + step * 7919) % len(order)]
        total += table[("t", index % _TABLE_SIZE)]
    return total


def reference_kernel() -> int:
    """Run the fixed reference work once and return its (constant) checksum."""
    return _list_schedule() + _object_graph()


class Speed:
    """Samples of the reference kernel, taken by a timer signal during passes.

    While armed (``with speed:``), ``SIGALRM`` fires every *interval_s*
    seconds of wall time, and its handler runs the reference kernel once
    with the cyclic garbage collector paused (a collection there would
    sweep the program's objects on the kernel's clock).  The samples are
    therefore spread evenly over the pass, inside long operations too.  ``stolen``
    adds up the seconds spent in the handler; the runner subtracts the part
    that fell inside an operation from that operation's time.

    ``take()`` gives the pass's mean speed, ``REFERENCE_S`` over a sample's
    time, averaged over the samples: 1.0 on the reference machine unloaded,
    0.7 while the machine runs at 70% of that speed.  Since the samples are
    even in wall time, an operation's time multiplied by its pass's mean
    speed is the time it would take at speed 1.0.
    """

    def __init__(self, interval_s: float) -> None:
        self.interval_s = interval_s
        self.samples: List[float] = []
        self.stolen = 0.0
        self.checksum = None
        self.mismatches = 0
        self._previous = None
        self._busy = False

    def _handler(self, signum=None, frame=None) -> None:
        if self._busy:  # a signal that came while the handler ran
            return
        entered = time.perf_counter()
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            build_table()  # the first call builds it; the time counts as stolen
            begin = time.perf_counter()
            checksum = reference_kernel()
            self.samples.append(time.perf_counter() - begin)
            if self.checksum is None:
                self.checksum = checksum
            elif checksum != self.checksum:
                self.mismatches += 1
        finally:
            if collecting:
                gc.enable()
            self.stolen += time.perf_counter() - entered
            self._busy = False

    def __enter__(self) -> "Speed":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def take(self) -> float:
        """The mean speed over the samples since the last call; clears them."""
        if not self.samples:  # a pass shorter than one interval
            self._handler()
        speed = statistics.fmean(REFERENCE_S / sample for sample in self.samples)
        self.samples = []
        return speed
