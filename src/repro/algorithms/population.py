"""Column-state population for the single-message broadcast algorithms.

Decay, FASTBC, Robust FASTBC and the repetition baseline share one shape
(and RLNC gossip runs on it too; see
:class:`~repro.algorithms.multi.rlnc_broadcast.RLNCPopulation`).
An uninformed node stays silent. An informed node's action in a round
depends only on the round index, on its own coin (Decay steps) and on its
fixed place in the wave schedule (the FASTBC family). So instead of one
protocol object per node, :class:`SingleMessagePopulation` keeps columns:

* an informed flag and the informed round of every node;
* the ascending list of informed nodes;
* each node's private :class:`~repro.util.rng.RandomSource` and its
  coin, the source's ``random.Random.random``;
* for the FASTBC family, a wave table: the fast nodes that fire in each
  even-round slot of the schedule.

One :meth:`~SingleMessagePopulation.broadcasters` call computes a
round's broadcasters; one :meth:`~SingleMessagePopulation.deliver` call
updates the columns. The informed list's length is the stop predicate.

The population is outcome-identical to the per-node reference classes
(:class:`~repro.algorithms.decay.DecayProtocol` and friends) run through
:class:`~repro.core.population.ProtocolPopulation`. Node ``v``'s coin
comes from the same ``source.spawn()`` child the reference gives node
``v``, and it is drawn exactly where the reference's
:meth:`~repro.util.rng.RandomSource.bernoulli` draws: once per informed
node in a Decay round with ``0 < p < 1``, and never in a phase's ``i = 0``
round (``p = 1``) or in a wave round.
"""

from __future__ import annotations

from bisect import insort
from typing import Callable, Optional, Sequence

from repro.algorithms.base import ilog2
from repro.core.network import RadioNetwork
from repro.core.population import Population
from repro.util.rng import RandomSource

__all__ = ["SingleMessagePopulation", "Wave"]

#: ``wave(t)``: the fast nodes (ascending) scheduled in even round ``2t``
Wave = Callable[[int], Sequence[int]]


class SingleMessagePopulation(Population):
    """All nodes of one single-message broadcast run, as columns.

    Parameters
    ----------
    network:
        The network; its source is informed in round 0. Decay step ``i``
        of a phase of ``ilog2(n) + 1`` steps fires with probability
        ``2^-i``.
    rng:
        Node ``v``'s private source (``rngs[v]``, drawn by its coin) is
        the ``v``-th child spawned from it.
    wave:
        ``None`` for plain Decay (every round is a Decay step). Otherwise
        the FASTBC-family schedule: odd rounds are Decay steps, even round
        ``2t`` broadcasts the informed nodes of ``wave(t)``.
    decay_interleave:
        With a wave, whether odd rounds run Decay at all.
    repeat:
        Real round ``r`` plays schedule round ``r // repeat``.
    """

    def __init__(
        self,
        network: RadioNetwork,
        rng: RandomSource,
        wave: Optional[Wave] = None,
        decay_interleave: bool = True,
        repeat: int = 1,
    ) -> None:
        if repeat < 1:
            raise ValueError(f"repeat must be >= 1, got {repeat}")
        n = network.n
        self.n = n
        self.rngs = [rng.spawn() for _ in network.nodes()]
        self.coins = [node_rng.raw_random for node_rng in self.rngs]
        self.phase_length = ilog2(n) + 1
        self.wave = wave
        self.decay_interleave = decay_interleave
        self.repeat = repeat
        self._decay_p = [2.0 ** (-i) for i in range(self.phase_length)]
        source = network.source
        self.informed = [False] * n
        self.informed_round: list[Optional[int]] = [None] * n
        self.informed[source] = True
        self.informed_round[source] = 0
        self.informed_nodes = [source]

    def broadcasters(self, round_index: int) -> list[int]:
        """The round's broadcasters. A phase's ``i = 0`` Decay round
        returns the informed list itself (see
        :meth:`~repro.core.population.Population.broadcasters`)."""
        r = round_index // self.repeat
        wave = self.wave
        if wave is None:
            i = r % self.phase_length
        elif r % 2 == 0:
            informed = self.informed
            return [v for v in wave(r // 2) if informed[v]]
        elif self.decay_interleave:
            i = ((r - 1) // 2) % self.phase_length
        else:
            return []
        if i == 0:
            return self.informed_nodes
        p = self._decay_p[i]
        coins = self.coins
        return [v for v in self.informed_nodes if coins[v]() < p]

    def deliver(self, round_index: int, receivers, senders) -> None:
        informed = self.informed
        for v in receivers:
            if not informed[v]:
                informed[v] = True
                self.informed_round[v] = round_index
                insort(self.informed_nodes, v)

    def done_count(self) -> int:
        return len(self.informed_nodes)

    def all_done(self) -> bool:
        return len(self.informed_nodes) == self.n

    def active_nodes(self) -> list[int]:
        return list(self.informed_nodes)
