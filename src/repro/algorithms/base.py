"""Shared scaffolding for the broadcast algorithms that run on the channel.

Every single-message algorithm in this package is packaged the same way: a
per-node protocol class (the reference), a ``<name>_population`` builder
for the equivalent column population
(:class:`~repro.algorithms.population.SingleMessagePopulation`), and a
``<name>_broadcast`` entry point that runs the population until all nodes
are done (or the round budget runs out) and returns a
:class:`BroadcastOutcome`. The RLNC entry points of
:mod:`repro.algorithms.multi.rlnc_broadcast` run a subclass of the same
population and return the same outcome type with ``k`` set.

Every entry point opens with :func:`prepare_run`; only its round-budget
formula (the lemma it plans for) is its own.
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
    "channel_slowdown",
    "ilog2",
    "prepare_run",
    "run_broadcast",
]


def ilog2(n: int) -> int:
    """``ceil(log2 n)`` for n >= 1 (0 for n == 1) — the paper's log."""
    if n < 1:
        raise ValueError(f"ilog2 requires n >= 1, got {n}")
    return max(0, math.ceil(math.log2(n)))


@dataclass(frozen=True)
class BroadcastOutcome:
    """Result of one broadcast run.

    ``rounds`` is the number of rounds until the last node was done
    (== ``budget`` when the run timed out and ``success`` is False).
    ``informed`` counts the done nodes: informed for one message, able to
    decode all ``k`` for a multi-message run. ``k`` is None for a
    single-message run.
    """

    success: bool
    rounds: int
    informed: int
    total: int
    counters: ChannelCounters
    k: Optional[int] = None

    @property
    def informed_fraction(self) -> float:
        return self.informed / self.total

    @property
    def rounds_per_message(self) -> float:
        return self.rounds / (self.k or 1)


def channel_slowdown(channel) -> float:
    """Budget multiplier for the scenario's channel (1.0 for the default).

    Under contention a broadcast attempt spends ~``(cw_min+1)/2`` slots in
    backoff plus the transmission slot before it can land, so round budgets
    sized for the paper's always-deliver channel must stretch by the
    channel's :meth:`~repro.mac.config.MacConfig.planning_slowdown`.
    """
    return 1.0 if channel is None else channel.planning_slowdown()


def prepare_run(
    network: RadioNetwork,
    faults: FaultConfig,
    rng: "int | RandomSource | None",
    adversary: "Adversary | AdversaryConfig | None",
    channel,
    max_rounds: Optional[int],
    budget: Callable[[int, int, float], int],
) -> tuple[Optional[Adversary], RandomSource, int]:
    """The preamble every ``*_broadcast`` entry point shares.

    Returns the adversary as an instance (or None), the run's root
    :class:`~repro.util.rng.RandomSource`, and the round budget. A
    ``max_rounds`` of None becomes ``budget(log_n, depth, slowdown)``:
    ``log_n = ilog2(n) + 1``, ``depth`` the source eccentricity (at least
    1), and ``slowdown`` the ``1/(1-p)`` of the loss rate the budget plans
    for (see :func:`~repro.adversary.base.effective_loss_rate`) times the
    :func:`channel_slowdown`.
    """
    adversary = as_adversary(adversary)
    source = spawn_rng(rng)
    if max_rounds is None:
        log_n = ilog2(network.n) + 1
        depth = max(1, network.source_eccentricity)
        slowdown = 1.0 / (1.0 - effective_loss_rate(faults, adversary))
        slowdown *= channel_slowdown(channel)
        max_rounds = budget(log_n, depth, slowdown)
    return adversary, source, max_rounds


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
