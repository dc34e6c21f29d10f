"""Broadcast algorithms: Decay, FASTBC, Robust FASTBC, and baselines.

Single-message algorithms (Section 4.1) run as one column population
(:class:`~repro.algorithms.population.SingleMessagePopulation`) advanced
by one call per round; their per-node
:class:`~repro.core.protocol.NodeProtocol` subclasses stay as the
reference it is checked against. Multi-message algorithms (Section 4.2,
Section 5) live in :mod:`repro.algorithms.multi`; its RLNC gossip runs
on the same population's schedule.
"""

from repro.algorithms.base import (
    BroadcastOutcome,
    ilog2,
    run_broadcast,
)
from repro.algorithms.decay import DecayProtocol, decay_broadcast
from repro.algorithms.fastbc import FastBCProtocol, fastbc_broadcast
from repro.algorithms.repetition import (
    RepeatedFastBCProtocol,
    repeated_fastbc_broadcast,
)
from repro.algorithms.robust_fastbc import (
    RobustFastBCProtocol,
    robust_fastbc_broadcast,
)

__all__ = [
    "BroadcastOutcome",
    "DecayProtocol",
    "FastBCProtocol",
    "RepeatedFastBCProtocol",
    "RobustFastBCProtocol",
    "decay_broadcast",
    "fastbc_broadcast",
    "ilog2",
    "repeated_fastbc_broadcast",
    "robust_fastbc_broadcast",
    "run_broadcast",
]
