"""Per-run channel counters.

Every channel keeps one :class:`ChannelCounters` (a handful of integer
increments per round). Per-round detail — deliveries, losses and each
node's first delivery round — is the flight recorder's job
(:mod:`repro.timeline`).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ChannelCounters"]


@dataclass
class ChannelCounters:
    """Aggregate channel statistics for one simulation run."""

    rounds: int = 0
    broadcasts: int = 0
    deliveries: int = 0
    collisions: int = 0  # listener-rounds lost to >= 2 broadcasting neighbors
    sender_faults: int = 0  # broadcaster-rounds that transmitted noise
    receiver_faults: int = 0  # deliveries replaced by noise at the receiver

    def as_dict(self) -> dict[str, int]:
        return {
            "rounds": self.rounds,
            "broadcasts": self.broadcasts,
            "deliveries": self.deliveries,
            "collisions": self.collisions,
            "sender_faults": self.sender_faults,
            "receiver_faults": self.receiver_faults,
        }

    def __str__(self) -> str:
        return (
            f"rounds={self.rounds} broadcasts={self.broadcasts} "
            f"deliveries={self.deliveries} collisions={self.collisions} "
            f"sender_faults={self.sender_faults} "
            f"receiver_faults={self.receiver_faults}"
        )
