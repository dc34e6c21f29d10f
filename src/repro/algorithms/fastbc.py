"""FASTBC: the diameter-linear algorithm of Gąsieniec, Peleg and Xin [22].

Section 3.4.2: rounds alternate between *slow* (odd) and *fast* (even).
Odd rounds run a standard Decay step over all informed nodes, pushing the
message across non-fast edges. In even round ``2t``, a fast node at level
``l`` with rank ``r`` broadcasts iff ``t ≡ l - 6r (mod 6 r_max)`` — a wave
that carries the message down each fast stretch without interference
(guaranteed by the GBST property).

Faultless, this finishes in ``D + O(log n (log n + log 1/δ))`` rounds
(Lemma 8). Under faults it degrades to ``Θ(p/(1-p)·D·log n + D/(1-p))`` on
a path (Lemma 10): one dropped wave transmission forces the message to wait
``Θ(log n)`` rounds for the next wave.
"""

from __future__ import annotations

from typing import Optional

from repro.algorithms.base import (
    BroadcastOutcome,
    ilog2,
    prepare_run,
    run_broadcast,
)
from repro.algorithms.decay import DecayProtocol
from repro.algorithms.population import SingleMessagePopulation, Wave
from repro.core.faults import FaultConfig
from repro.core.network import RadioNetwork
from repro.core.packets import MessagePacket, Packet
from repro.gbst.gbst import build_gbst
from repro.gbst.ranked_bfs import RankedBFSTree
from repro.util.rng import RandomSource

__all__ = [
    "FastBCProtocol",
    "fastbc_broadcast",
    "fastbc_fire_slot",
    "fastbc_population",
    "make_fastbc_protocols",
    "wave_max_rank",
]

_MESSAGE = MessagePacket(0)


def wave_max_rank(n: int) -> int:
    """The rank bound r_max that sets the FASTBC-family wave period.

    The period uses the Lemma 7 *bound* ceil(log2 n) rather than the
    realized max rank: the paper's analysis (Lemmas 8 and 10) treats the
    wave period as Theta(log n), and using the bound also spares nodes
    from having to know the realized tree statistic.
    """
    return max(1, ilog2(n))


def fastbc_fire_slot(level: int, rank: int, max_rank: int) -> int:
    """The wave slot of a fast node at ``level`` with ``rank``.

    The node broadcasts in even round ``2t`` iff ``t mod 6 r_max`` equals
    this slot, i.e. ``t = l - 6r (mod 6 r_max)``; consecutive levels of a
    stretch fire in consecutive even rounds, so the wave moves one hop
    per even round.
    """
    return (level - 6 * rank) % (6 * max_rank)


class FastBCProtocol(DecayProtocol):
    """Per-node FASTBC over a shared GBST (known-topology algorithm).

    Odd round ``2t + 1`` is Decay step ``t`` of the inherited
    :class:`~repro.algorithms.decay.DecayProtocol`; even round ``2t`` fires
    a fast node iff :meth:`wave_slot` of ``t`` equals its ``wave_key``.

    Parameters
    ----------
    node:
        This node's internal index.
    tree:
        The common GBST (known topology lets all nodes agree on it).
    rng:
        Private randomness for the Decay half.
    informed:
        True for the source.
    """

    def __init__(
        self,
        node: int,
        tree: RankedBFSTree,
        rng: RandomSource,
        informed: bool = False,
        decay_interleave: bool = True,
    ) -> None:
        super().__init__(tree.network.n, rng, informed)
        self.node = node
        self.decay_interleave = decay_interleave
        self.level = tree.level[node]
        self.rank = tree.rank[node]
        self.is_fast = tree.is_fast(node)
        self.max_rank = wave_max_rank(tree.network.n)
        self.wave_key = fastbc_fire_slot(self.level, self.rank, self.max_rank)

    def act(self, round_index: int) -> Optional[Packet]:
        if not self.informed:
            return None
        if round_index % 2 == 1:
            # slow transmission round: standard Decay step. Experiments
            # may disable the interleave to isolate the wave mechanism
            # (the object of Lemma 10's recurrence).
            if not self.decay_interleave:
                return None
            return super().act((round_index - 1) // 2)
        # fast transmission round 2t: wave schedule along fast stretches
        if self.is_fast and self.wave_slot(round_index // 2) == self.wave_key:
            return _MESSAGE
        return None

    def wave_slot(self, t: int) -> int:
        """The schedule slot of even round ``2t``."""
        return t % (6 * self.max_rank)


def make_fastbc_protocols(
    network: RadioNetwork,
    rng: RandomSource,
    tree: Optional[RankedBFSTree] = None,
    decay_interleave: bool = True,
) -> list[FastBCProtocol]:
    """Build one FASTBC protocol per node over a shared GBST."""
    if tree is None:
        tree = build_gbst(network).tree
    return [
        FastBCProtocol(
            v,
            tree,
            rng.spawn(),
            informed=(v == network.source),
            decay_interleave=decay_interleave,
        )
        for v in network.nodes()
    ]


def _fastbc_wave(tree: RankedBFSTree) -> Wave:
    """The FASTBC wave as a table: fast nodes keyed by fire slot."""
    max_rank = wave_max_rank(tree.network.n)
    period = 6 * max_rank
    table: list[list[int]] = [[] for _ in range(period)]
    for v in tree.fast_nodes():
        table[fastbc_fire_slot(tree.level[v], tree.rank[v], max_rank)].append(v)
    return lambda t: table[t % period]


def fastbc_population(
    network: RadioNetwork,
    rng: RandomSource,
    tree: Optional[RankedBFSTree] = None,
    decay_interleave: bool = True,
    repeat: int = 1,
) -> SingleMessagePopulation:
    """FASTBC on every node as one column population.

    Outcome-identical to :func:`make_fastbc_protocols` with the same
    ``rng`` (and, for ``repeat > 1``, to one
    :class:`~repro.algorithms.repetition.RepeatedFastBCProtocol` per
    node).
    """
    if tree is None:
        tree = build_gbst(network).tree
    return SingleMessagePopulation(
        network,
        rng,
        wave=_fastbc_wave(tree),
        decay_interleave=decay_interleave,
        repeat=repeat,
    )


def fastbc_broadcast(
    network: RadioNetwork,
    faults: FaultConfig = FaultConfig.faultless(),
    rng: "int | RandomSource | None" = None,
    max_rounds: Optional[int] = None,
    tree: Optional[RankedBFSTree] = None,
    decay_interleave: bool = True,
    adversary=None,
    channel=None,
) -> BroadcastOutcome:
    """Broadcast one message from the source with FASTBC.

    ``max_rounds`` defaults to a multiple of the *faulty* bound of
    Lemma 10 — under faults FASTBC legitimately needs ``Θ(D log n)``
    rounds, and the experiments measure exactly that degradation.
    """

    def budget(log_n: int, depth: int, slowdown: float) -> int:
        rounds = int(60 * slowdown * log_n * (depth + log_n)) + 100
        # pure-wave mode pays the full Theta(log n) wave period per
        # failure with no Decay assist
        return rounds if decay_interleave else 4 * rounds

    adversary, source, max_rounds = prepare_run(
        network, faults, rng, adversary, channel, max_rounds, budget
    )
    population = fastbc_population(
        network, source, tree=tree, decay_interleave=decay_interleave
    )
    return run_broadcast(
        network,
        population,
        faults,
        source.spawn(),
        max_rounds,
        adversary=adversary,
        channel=channel,
    )
