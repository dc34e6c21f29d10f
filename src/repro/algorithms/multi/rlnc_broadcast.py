"""Multi-message broadcast via random linear network coding (Lemmas 12-13).

Following Haeupler [24] and Ghaffari et al. [21], a single-message
algorithm whose broadcast *pattern* does not depend on what a node has
received can carry k messages: whenever the pattern tells a node to
broadcast, it transmits a fresh random GF(2^8) combination of every coded
packet it currently holds. A reception is *innovative* unless the sender's
knowledge subspace is contained in the receiver's, which over GF(2^8)
happens with probability at most 1/256 per reception; each node decodes
after k innovative receptions.

* **RLNC-Decay** (Lemma 12): the pattern is the Decay coin schedule run by
  every knowledge-holding node forever — `O(D log n + k log n + log^2 n)`
  rounds, i.e. throughput `Ω(1/log n)`.
* **RLNC-Robust-FASTBC** (Lemma 13): the pattern is Robust FASTBC's
  fixed slow/fast schedule — `O(D + k log n log log n + log^2 n log log n)`
  rounds, i.e. throughput `Ω(1/(log n log log n))`.

The pattern is *static* (a function of round number, node identity and
private coins only), satisfying the paper's "node cannot change its
behavior based on whether it receives a message" requirement. So the
pattern here *is* the single-message schedule: :class:`RLNCPopulation`
extends :class:`~repro.algorithms.population.SingleMessagePopulation`,
whose Decay coins and wave table pick each round's broadcasters among the
nodes that hold anything (rank > 0). Each broadcaster emits with its own
private source, the one its Decay coin draws from.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from repro.algorithms.base import BroadcastOutcome, prepare_run, run_broadcast
from repro.algorithms.population import SingleMessagePopulation, Wave
from repro.algorithms.robust_fastbc import (
    DEFAULT_ROUND_MULTIPLIER,
    block_size,
    robust_wave,
)
from repro.coding.rlnc import CodedPacket, RLNCEncoder
from repro.core.faults import FaultConfig
from repro.core.network import RadioNetwork
from repro.gbst.gbst import build_gbst
from repro.gbst.ranked_bfs import RankedBFSTree
from repro.util.rng import RandomSource
from repro.util.validation import check_positive

__all__ = [
    "RLNCPopulation",
    "rlnc_decay_broadcast",
    "rlnc_dense_wave_broadcast",
    "rlnc_robust_fastbc_broadcast",
]


class RLNCPopulation(SingleMessagePopulation):
    """RLNC gossip on a single-message schedule, as columns.

    The inherited informed columns track the nodes with rank > 0; a node
    is done once it can decode all ``k`` messages, and the done count is
    kept incrementally.

    Parameters
    ----------
    network, rng, wave:
        As in :class:`~repro.algorithms.population.SingleMessagePopulation`
        (``wave=None``: Decay in every round).
    k, payload_length:
        The message count and the bytes per message.
    messages:
        The source's ``k`` messages, ``payload_length`` bytes each.
    """

    def __init__(
        self,
        network: RadioNetwork,
        rng: RandomSource,
        k: int,
        payload_length: int,
        messages: Sequence[bytes],
        wave: Optional[Wave] = None,
    ) -> None:
        super().__init__(network, rng, wave=wave)
        source = network.source
        self.encoders = [
            RLNCEncoder(
                k, payload_length, messages=messages if v == source else None
            )
            for v in network.nodes()
        ]
        #: number of nodes that can decode all k messages
        self.complete = sum(e.is_complete() for e in self.encoders)
        #: the latest round's ``{broadcaster: packet}``, read by deliver
        self.packets: dict[int, CodedPacket] = {}

    def broadcasters(self, round_index: int) -> list[int]:
        nodes = super().broadcasters(round_index)
        encoders = self.encoders
        rngs = self.rngs
        self.packets = {v: encoders[v].emit(rngs[v]) for v in nodes}
        return nodes

    def deliver(self, round_index: int, receivers, senders) -> None:
        super().deliver(round_index, receivers, senders)
        encoders = self.encoders
        packets = self.packets
        innovative = 0
        for v, s in zip(receivers, senders):
            encoder = encoders[v]
            if encoder.receive(packets[s]):
                innovative += 1
                if encoder.is_complete():
                    self.complete += 1
        if innovative and self.timeline.enabled:
            self.timeline.note_innovative(innovative)

    def done_count(self) -> int:
        return self.complete

    def all_done(self) -> bool:
        return self.complete == self.n


def _dense_wave(tree: RankedBFSTree) -> Wave:
    """Exploratory wave for the paper's open problem (Section 4.2).

    The paper leaves open whether a fault-robust algorithm can broadcast k
    messages in ``O(D + k log n + polylog n)`` rounds. This wave drops
    Robust FASTBC's superround gating entirely: every fast-set node fires
    on *every* even round with ``t ≡ level (mod 3)``, so coded generations
    pipeline down each stretch at full rate instead of one batch per
    superround cycle; odd rounds keep the Decay step for slow edges. The
    mod-3 gate still prevents adjacent-level collisions, but unlike the
    GBST wave there is no rank/level separation between *distinct* fast
    nodes of one level, so on general graphs same-level interference can
    occur — experiment X1 measures where the candidate stands.
    """
    table: list[list[int]] = [[] for _ in range(3)]
    for v in tree.fast_nodes():
        table[tree.level[v] % 3].append(v)
    return lambda t: table[t % 3]


def _gossip(
    network: RadioNetwork,
    wave: Optional[Wave],
    k: int,
    payload_length: int,
    messages: Optional[list[bytes]],
    faults: FaultConfig,
    source: RandomSource,
    max_rounds: int,
    adversary,
    channel,
) -> BroadcastOutcome:
    if messages is None:
        # payload_length 0 is rank-only mode: the messages are empty and
        # the coefficient vectors carry all the experiments measure
        messages = [
            source.bytes_array(payload_length).tobytes() for _ in range(k)
        ]
    population = RLNCPopulation(
        network, source, k, payload_length, messages, wave=wave
    )
    outcome = run_broadcast(
        network,
        population,
        faults,
        source.spawn(),
        max_rounds,
        adversary=adversary,
        channel=channel,
    )
    return replace(outcome, k=k)


def rlnc_decay_broadcast(
    network: RadioNetwork,
    k: int,
    faults: FaultConfig = FaultConfig.faultless(),
    rng: "int | RandomSource | None" = None,
    payload_length: int = 0,
    messages: Optional[list[bytes]] = None,
    max_rounds: Optional[int] = None,
    adversary=None,
    channel=None,
) -> BroadcastOutcome:
    """Broadcast k messages with RLNC over the Decay pattern (Lemma 12)."""
    check_positive(k, "k")
    adversary, source, max_rounds = prepare_run(
        network, faults, rng, adversary, channel, max_rounds,
        lambda log_n, depth, slowdown: int(
            40 * slowdown * (depth * log_n + k * log_n + log_n * log_n)
        ) + 200,
    )
    return _gossip(
        network, None, k, payload_length, messages, faults, source,
        max_rounds, adversary, channel,
    )


def rlnc_robust_fastbc_broadcast(
    network: RadioNetwork,
    k: int,
    faults: FaultConfig = FaultConfig.faultless(),
    rng: "int | RandomSource | None" = None,
    payload_length: int = 0,
    messages: Optional[list[bytes]] = None,
    max_rounds: Optional[int] = None,
    tree: Optional[RankedBFSTree] = None,
    block: Optional[int] = None,
    round_multiplier: int = DEFAULT_ROUND_MULTIPLIER,
    adversary=None,
    channel=None,
) -> BroadcastOutcome:
    """Broadcast k messages with RLNC over Robust FASTBC (Lemma 13)."""
    check_positive(k, "k")

    def budget(log_n: int, depth: int, slowdown: float) -> int:
        log_log_n = block_size(network.n)
        return int(
            slowdown
            * (
                40 * depth
                + 40 * k * log_n * log_log_n
                + 60 * round_multiplier * log_n * log_n * log_log_n
            )
        ) + 200

    adversary, source, max_rounds = prepare_run(
        network, faults, rng, adversary, channel, max_rounds, budget
    )
    if tree is None:
        tree = build_gbst(network).tree
    return _gossip(
        network, robust_wave(tree, block, round_multiplier), k,
        payload_length, messages, faults, source, max_rounds, adversary,
        channel,
    )


def rlnc_dense_wave_broadcast(
    network: RadioNetwork,
    k: int,
    faults: FaultConfig = FaultConfig.faultless(),
    rng: "int | RandomSource | None" = None,
    payload_length: int = 0,
    messages: Optional[list[bytes]] = None,
    max_rounds: Optional[int] = None,
    tree: Optional[RankedBFSTree] = None,
    adversary=None,
    channel=None,
) -> BroadcastOutcome:
    """Exploratory: RLNC over the dense-wave pattern (open problem).

    Targets the paper's open ``O(D + k log n + polylog n)`` question; see
    :func:`_dense_wave` for the construction and its caveats, and
    experiment X1 for measurements.
    """
    check_positive(k, "k")
    adversary, source, max_rounds = prepare_run(
        network, faults, rng, adversary, channel, max_rounds,
        lambda log_n, depth, slowdown: int(
            40 * slowdown * (depth + k * log_n + log_n * log_n)
        ) + 400,
    )
    if tree is None:
        tree = build_gbst(network).tree
    return _gossip(
        network, _dense_wave(tree), k, payload_length, messages, faults,
        source, max_rounds, adversary, channel,
    )
