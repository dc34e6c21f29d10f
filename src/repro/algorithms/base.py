"""Shared scaffolding for single-message broadcast algorithms.

Every single-message algorithm in this package is packaged the same way: a
per-node protocol class (the reference), a ``<name>_population`` builder
for the equivalent column population
(:class:`~repro.algorithms.population.SingleMessagePopulation`), and a
``<name>_broadcast`` convenience function that runs the population until
all nodes are informed (or the round budget runs out) and returns a
:class:`BroadcastOutcome`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.adversary.base import Adversary, effective_loss_rate
from repro.adversary.registry import as_adversary
from repro.core.engine import Simulator
from repro.core.faults import AdversaryConfig, FaultConfig
from repro.core.network import RadioNetwork
from repro.core.population import Population
from repro.core.protocol import NodeProtocol
from repro.core.trace import ChannelCounters
from repro.util.rng import RandomSource, spawn_rng

__all__ = [
    "BroadcastOutcome",
    "run_broadcast",
    "broadcast_probe",
    "effective_loss_rate",
    "as_adversary",
    "channel_slowdown",
    "ilog2",
]


def ilog2(n: int) -> int:
    """``ceil(log2 n)`` for n >= 1 (0 for n == 1) — the paper's log."""
    if n < 1:
        raise ValueError(f"ilog2 requires n >= 1, got {n}")
    return max(0, math.ceil(math.log2(n)))


@dataclass(frozen=True)
class BroadcastOutcome:
    """Result of one single-message broadcast run.

    ``rounds`` is the number of rounds until the last node became informed
    (== ``budget`` when the run timed out and ``success`` is False).
    """

    success: bool
    rounds: int
    informed: int
    total: int
    counters: ChannelCounters

    @property
    def informed_fraction(self) -> float:
        return self.informed / self.total


def channel_slowdown(channel) -> float:
    """Budget multiplier for the scenario's channel (1.0 for the default).

    Under contention a broadcast attempt spends ~``(cw_min+1)/2`` slots in
    backoff plus the transmission slot before it can land, so round budgets
    sized for the paper's always-deliver channel must stretch by the
    channel's :meth:`~repro.mac.config.MacConfig.planning_slowdown`.
    """
    return 1.0 if channel is None else channel.planning_slowdown()


def run_broadcast(
    network: RadioNetwork,
    protocols: "Population | Sequence[NodeProtocol]",
    faults: FaultConfig,
    rng: "int | RandomSource | None",
    max_rounds: int,
    adversary: "Adversary | AdversaryConfig | None" = None,
    channel=None,
) -> BroadcastOutcome:
    """Drive ``protocols`` (a population, or one protocol per node) until
    every node is done or the budget expires."""
    sim = Simulator(network, protocols, faults, rng, adversary=adversary, channel=channel)
    executed = sim.run(max_rounds)
    success = sim.all_done()
    return BroadcastOutcome(
        success=success,
        rounds=executed,
        informed=sim.done_count(),
        total=network.n,
        counters=sim.counters,
    )


def broadcast_probe(
    make_outcome: Callable[[int], BroadcastOutcome],
    trials: int,
    rng: "int | RandomSource | None" = None,
) -> list[BroadcastOutcome]:
    """Run ``make_outcome(seed)`` for ``trials`` independent seeds.

    The per-trial seeds derive from ``rng`` so a whole sweep reproduces
    from one top-level seed.
    """
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    source = spawn_rng(rng)
    return [make_outcome(source.spawn().seed) for _ in range(trials)]
