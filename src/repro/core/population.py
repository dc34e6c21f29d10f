"""The node population a :class:`~repro.core.engine.Simulator` drives.

A population answers three questions per round: who broadcasts
(:meth:`Population.broadcasters`), what the channel's receptions change
(:meth:`Population.deliver`), and whether the run is finished
(:meth:`Population.all_done`). The simulator makes one call of each per
round, whatever the population's internal layout. The channel only sees
node ids: what a broadcaster sends is the population's own business.

Two layouts exist:

* :class:`ProtocolPopulation` wraps one
  :class:`~repro.core.protocol.NodeProtocol` object per node and polls
  them one by one. Test doubles and the single-message reference classes
  run this way.
* Column populations keep per-node state in flat lists and advance all
  nodes with one call per round: every registered algorithm that runs on
  the channel uses one.
  See :class:`repro.algorithms.population.SingleMessagePopulation` and its
  RLNC subclass
  :class:`repro.algorithms.multi.rlnc_broadcast.RLNCPopulation`.
"""

from __future__ import annotations

import abc
from typing import Sequence

from repro.core.packets import Packet
from repro.core.protocol import NodeProtocol
from repro.timeline.recorder import NULL_TIMELINE

__all__ = ["Population", "ProtocolPopulation"]


class Population(abc.ABC):
    """All nodes' local algorithms, advanced one round at a time."""

    #: number of nodes
    n: int

    #: flight recorder for progress the channel cannot see (RLNC rank); an
    #: armed timeline capture binds it together with the channel's
    timeline = NULL_TIMELINE

    @abc.abstractmethod
    def broadcasters(self, round_index: int) -> list[int]:
        """This round's broadcasting nodes, ascending. The channel reads
        the list before the next :meth:`deliver` call and keeps no
        reference to it."""

    @abc.abstractmethod
    def deliver(
        self, round_index: int, receivers: Sequence[int], senders: Sequence[int]
    ) -> None:
        """Apply the channel's successful receptions of ``round_index``:
        node ``receivers[i]`` received the packet of ``senders[i]``."""

    @abc.abstractmethod
    def done_count(self) -> int:
        """Number of nodes that have completed their task."""

    @abc.abstractmethod
    def all_done(self) -> bool:
        """True iff every node has completed its task (the default stop
        predicate, evaluated once per round)."""

    @abc.abstractmethod
    def active_nodes(self) -> list[int]:
        """Nodes that may broadcast now, ascending (the initially
        informed set before the first round)."""


class ProtocolPopulation(Population):
    """One :class:`NodeProtocol` object per node, polled in node order."""

    def __init__(self, protocols: Sequence[NodeProtocol]) -> None:
        self.protocols = list(protocols)
        self.n = len(self.protocols)
        #: the latest round's ``{broadcaster: packet}``, read by deliver
        self.packets: dict[int, Packet] = {}

    def broadcasters(self, round_index: int) -> list[int]:
        packets: dict[int, Packet] = {}
        for node, protocol in enumerate(self.protocols):
            if not protocol.active:
                continue
            packet = protocol.act(round_index)
            if packet is not None:
                packets[node] = packet
        self.packets = packets
        return list(packets)

    def deliver(
        self, round_index: int, receivers: Sequence[int], senders: Sequence[int]
    ) -> None:
        protocols = self.protocols
        packets = self.packets
        for v, s in zip(receivers, senders):
            protocols[v].on_receive(round_index, packets[s], s)

    def done_count(self) -> int:
        return sum(1 for p in self.protocols if p.is_done())

    def all_done(self) -> bool:
        return all(p.is_done() for p in self.protocols)

    def active_nodes(self) -> list[int]:
        return [node for node, p in enumerate(self.protocols) if p.active]

