"""The machine's speed, read from a fixed reference loop.

A shared host can run the same code 1.5x slower or worse for a minute
at a time, and the slow periods come and go while a benchmark runs. The
harness times :func:`reference_s` between the units it measures and
divides each pass's times by that pass's :func:`slowdown`. The results
are the seconds the pass would take on a machine that runs the
reference loop in :data:`NOMINAL_S`: a change to the program moves them
in full, a change in the machine's speed much less.

The reference loop is a toy radio network in plain Python, written here
and sharing no code with the program: 200 nodes on a ring, each round
every node decides whether to send, the ring's receivers count what
they hear, lone senders are delivered and an ``all(...)`` predicate
checks completion. It is the same kind of work as the program's hot
path (per-node method calls, small dicts and lists, a stop predicate),
so a slow period slows both alike. In trials on the machine this was
built on, it tracked the program's slowdowns more closely than a tight
arithmetic loop or memory-bound loops did.
"""

from __future__ import annotations

import statistics
import time

#: seconds the reference loop takes at full speed on the machine the
#: benchmark was calibrated on (a 2.1 GHz Xeon vCPU, CPython 3.11)
NOMINAL_S = 6.0e-4
#: nodes on the reference ring, and rounds per reference run
_NODES = 200
_ROUNDS = 20


class _Node:
    __slots__ = ("index", "state", "done", "inbox")

    def __init__(self, index: int) -> None:
        self.index = index
        self.inbox = []
        self.reset()

    def reset(self) -> None:
        self.state = self.index * 7919 % 1021
        self.done = False
        self.inbox.clear()

    def act(self, round_: int) -> bool:
        self.state = (self.state * 31 + round_) % 1021
        return self.state < 60

    def receive(self, message) -> None:
        self.inbox.append(message)
        self.done = True


def _ring(size: int) -> tuple[list, dict]:
    nodes = [_Node(index) for index in range(size)]
    neighbours = {index: ((index - 1) % size, (index + 1) % size) for index in range(size)}
    return nodes, neighbours


def reference_s() -> float:
    """Seconds one run of the reference loop takes now."""
    nodes, neighbours = _RING
    start = time.perf_counter()
    done = 0
    for round_ in range(_ROUNDS):
        senders = [node for node in nodes if node.act(round_)]
        heard = {}
        for node in senders:
            for index in neighbours[node.index]:
                heard[index] = heard.get(index, 0) + 1
        for index, count in heard.items():
            if count == 1:
                nodes[index].receive(round_)
        done += all(node.done for node in nodes)
    elapsed = time.perf_counter() - start
    for node in nodes:
        node.reset()
    return elapsed


_RING = _ring(_NODES)


def slowdown(samples: list) -> float:
    """How much slower than nominal the machine ran while ``samples``
    (seconds of :func:`reference_s`) were taken; nan without samples."""
    if not samples:
        return float("nan")
    return statistics.median(samples) / NOMINAL_S


class Meter:
    """Normalizes the units of one pass, each by the probes around it.

    Probing starts with ``first`` samples; :meth:`normalize` takes
    ``between`` more after each unit and divides the unit's seconds by
    the slowdown of the samples just before and just after it, so a
    slow period that starts or ends within the pass is followed unit by
    unit.
    """

    def __init__(self, first: int, between: int) -> None:
        self.between = between
        self._before = [reference_s() for _ in range(first)]
        self.samples = list(self._before)

    def normalize(self, seconds: float) -> float:
        after = [reference_s() for _ in range(self.between)]
        self.samples.extend(after)
        local = slowdown(self._before[-self.between :] + after)
        self._before = after
        return seconds / local
