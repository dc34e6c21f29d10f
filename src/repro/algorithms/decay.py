"""The Decay broadcast algorithm of Bar-Yehuda, Goldreich and Itai [5].

Section 3.4.1: rounds are grouped into phases of ``ilog2(n) + 1`` rounds;
in the i-th round of a phase (i = 0, 1, ..., ilog2 n) every informed node
broadcasts independently with probability ``2^-i``. Lemma 5 shows a node
with an informed neighbor becomes informed with constant probability per
phase; Lemma 6 gives O(D log n + log n (log n + log 1/δ)) rounds faultless,
and Lemma 9 shows the *same algorithm, unchanged*, tolerates sender or
receiver faults with only a 1/(1-p) slowdown — Decay is fault-robust
because it never relies on any particular transmission succeeding.
"""

from __future__ import annotations

from typing import Optional

from repro.algorithms.base import (
    BroadcastOutcome,
    ilog2,
    prepare_run,
    run_broadcast,
)
from repro.algorithms.population import SingleMessagePopulation
from repro.core.faults import FaultConfig
from repro.core.network import RadioNetwork
from repro.core.errors import ProtocolError
from repro.core.packets import MessagePacket, Packet
from repro.core.protocol import NodeProtocol
from repro.util.rng import RandomSource

__all__ = ["DecayProtocol", "decay_broadcast", "decay_population"]

_MESSAGE = MessagePacket(0)


class DecayProtocol(NodeProtocol):
    """Per-node Decay: informed nodes broadcast w.p. ``2^-(t mod phase)``.

    Parameters
    ----------
    n:
        Network size (the only global knowledge Decay needs).
    rng:
        This node's private randomness.
    informed:
        True for the source.
    """

    def __init__(self, n: int, rng: RandomSource, informed: bool = False) -> None:
        self.phase_length = ilog2(n) + 1
        self.rng = rng
        self.informed = informed
        self.active = informed
        self.informed_round: Optional[int] = 0 if informed else None

    def act(self, round_index: int) -> Optional[Packet]:
        if not self.informed:
            return None
        i = round_index % self.phase_length
        if self.rng.bernoulli(2.0 ** (-i)):
            return _MESSAGE
        return None

    def on_receive(self, round_index: int, packet: Packet, sender: int) -> None:
        if not isinstance(packet, MessagePacket):
            raise ProtocolError(
                f"single-message protocol received {type(packet).__name__}; "
                "the model's routing packets are MessagePacket"
            )
        if not self.informed:
            self.informed = True
            self.active = True
            self.informed_round = round_index

    def is_done(self) -> bool:
        return self.informed


def decay_population(
    network: RadioNetwork, rng: RandomSource
) -> SingleMessagePopulation:
    """Decay on every node as one column population.

    Outcome-identical to one :class:`DecayProtocol` per node built from
    the same ``rng`` (node ``v`` gets the ``v``-th spawned child).
    """
    return SingleMessagePopulation(network, rng)


def decay_broadcast(
    network: RadioNetwork,
    faults: FaultConfig = FaultConfig.faultless(),
    rng: "int | RandomSource | None" = None,
    max_rounds: Optional[int] = None,
    adversary=None,
    channel=None,
) -> BroadcastOutcome:
    """Broadcast one message from the source with Decay.

    ``max_rounds`` defaults to a generous multiple of the Lemma 9 bound
    ``O(log n / (1-p) · (D + log n))`` so that a timeout signals a real
    anomaly rather than an unlucky run. ``adversary`` swaps the i.i.d.
    fault coins for a registered adversary model (budgets then plan for
    its nominal loss rate); ``channel`` swaps the always-deliver medium
    for a contention MAC (budgets stretch by its planning slowdown).
    """
    adversary, source, max_rounds = prepare_run(
        network, faults, rng, adversary, channel, max_rounds,
        lambda log_n, depth, slowdown:
            int(40 * slowdown * log_n * (depth + log_n)) + 100,
    )
    return run_broadcast(
        network,
        decay_population(network, source),
        faults,
        source.spawn(),
        max_rounds,
        adversary=adversary,
        channel=channel,
    )
