"""Robust FASTBC: the paper's new fault-tolerant diameter-linear algorithm.

Section 4.1 / Theorem 11. As in FASTBC, odd rounds run Decay. Even rounds
run the *block wave*: each fast stretch is partitioned into blocks of
``S = Θ(log log n)`` consecutive levels, and a block broadcasts for
``c·S`` consecutive even rounds (its *superround*) before the wave hands
over to the next block. Within an active block, the node at level ``l``
broadcasts in even round ``t`` iff ``l ≡ t (mod 3)`` — the mod-3 spacing
prevents collisions between consecutive BFS levels.

Formally (paper, "Formal Robust FASTBC Algorithm"): at even round ``t``, a
fast-set node at level ``l`` with rank ``r`` broadcasts iff

    floor(l / S) - 6r  ≡  floor((t/2) / (cS))   (mod 6 r_max)
    and  l ≡ t (mod 3).

The point of blocks: a single dropped transmission in plain FASTBC stalls
the wave for Θ(log n) rounds (Lemma 10); here a message only goes
*inactive* if it fails to cross a whole block — probability
``1/polylog(n)`` for suitable ``c`` — so the expected number of
Θ(log n·log log n)-round stalls is o(1) per stretch, and the total time is
``O(D + log n·log log n·(log n + log 1/δ))`` with faults (Theorem 11).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.algorithms.base import BroadcastOutcome, prepare_run, run_broadcast
from repro.algorithms.fastbc import FastBCProtocol, wave_max_rank
from repro.algorithms.population import SingleMessagePopulation, Wave
from repro.core.faults import FaultConfig
from repro.core.network import RadioNetwork
from repro.gbst.gbst import build_gbst
from repro.gbst.ranked_bfs import RankedBFSTree
from repro.util.rng import RandomSource

__all__ = [
    "RobustFastBCProtocol",
    "robust_fastbc_broadcast",
    "robust_fastbc_population",
    "robust_round_key",
    "robust_wave",
    "robust_wave_key",
    "block_size",
    "make_robust_fastbc_protocols",
]

#: default round multiplier c ("sufficiently large constant"); sized so a
#: block crossing fails with probability well below 1/log^3 n at p <= 1/2
DEFAULT_ROUND_MULTIPLIER = 15


def block_size(n: int) -> int:
    """The paper's S = Θ(log log n) block size (>= 1)."""
    log_n = max(2.0, math.log2(max(2, n)))
    return max(1, math.ceil(math.log2(log_n)))


def _check_wave_params(n: int, block: Optional[int], round_multiplier: int) -> int:
    """Validate the block-wave knobs; returns the block size S to use."""
    if round_multiplier < 1:
        raise ValueError(
            f"round_multiplier must be >= 1, got {round_multiplier}"
        )
    block = block if block is not None else block_size(n)
    if block < 1:
        raise ValueError(f"block size must be >= 1, got {block}")
    return block


def robust_wave_key(
    level: int, rank: int, block: int, max_rank: int
) -> tuple[int, int]:
    """The (target superround slot, ``level mod 3``) of a fast node.

    The node broadcasts in even round ``2t`` iff this equals
    :func:`robust_round_key` of ``t``: ``t`` falls in its block's
    superround and ``t = level (mod 3)``.
    """
    return ((level // block - 6 * rank) % (6 * max_rank), level % 3)


def robust_round_key(
    t: int, block: int, round_multiplier: int, max_rank: int
) -> tuple[int, int]:
    """The (superround slot, ``t mod 3``) of even round ``2t``."""
    return ((t // (round_multiplier * block)) % (6 * max_rank), t % 3)


class RobustFastBCProtocol(FastBCProtocol):
    """Per-node Robust FASTBC over a shared GBST.

    FASTBC with the block wave: odd rounds are the inherited Decay steps,
    even round ``2t`` fires a fast node iff :func:`robust_round_key` of
    ``t`` equals its :func:`robust_wave_key`. Within its superround the
    node at level l fires on every t = l (mod 3), so the wave crosses one
    hop per even round when transmissions succeed and retries a hop every
    3 even rounds after a fault.

    Parameters
    ----------
    node, tree, rng, informed, decay_interleave:
        As in :class:`~repro.algorithms.fastbc.FastBCProtocol`.
    block:
        Block size S; defaults to :func:`block_size` of n. Exposed for the
        A1 ablation (S = 1 recovers plain-FASTBC-like fragility, large S
        over-waits).
    round_multiplier:
        The constant c: a block broadcasts for c·S consecutive even rounds.
    """

    def __init__(
        self,
        node: int,
        tree: RankedBFSTree,
        rng: RandomSource,
        informed: bool = False,
        block: Optional[int] = None,
        round_multiplier: int = DEFAULT_ROUND_MULTIPLIER,
        decay_interleave: bool = True,
    ) -> None:
        self.block = _check_wave_params(tree.network.n, block, round_multiplier)
        self.round_multiplier = round_multiplier
        super().__init__(node, tree, rng, informed, decay_interleave)
        self.wave_key = robust_wave_key(
            self.level, self.rank, self.block, self.max_rank
        )

    def wave_slot(self, t: int) -> tuple[int, int]:
        return robust_round_key(t, self.block, self.round_multiplier, self.max_rank)


def make_robust_fastbc_protocols(
    network: RadioNetwork,
    rng: RandomSource,
    tree: Optional[RankedBFSTree] = None,
    block: Optional[int] = None,
    round_multiplier: int = DEFAULT_ROUND_MULTIPLIER,
    decay_interleave: bool = True,
) -> list[RobustFastBCProtocol]:
    """Build one Robust FASTBC protocol per node over a shared GBST."""
    if tree is None:
        tree = build_gbst(network).tree
    return [
        RobustFastBCProtocol(
            v,
            tree,
            rng.spawn(),
            informed=(v == network.source),
            block=block,
            round_multiplier=round_multiplier,
            decay_interleave=decay_interleave,
        )
        for v in network.nodes()
    ]


def robust_wave(
    tree: RankedBFSTree, block: Optional[int], round_multiplier: int
) -> Wave:
    """The block wave as a table: fast nodes keyed by wave key.

    ``block`` defaults to :func:`block_size` of n; bad knobs raise
    :class:`ValueError` here, before any round runs.
    """
    block = _check_wave_params(tree.network.n, block, round_multiplier)
    max_rank = wave_max_rank(tree.network.n)
    table: dict[tuple[int, int], list[int]] = {}
    for v in tree.fast_nodes():
        key = robust_wave_key(tree.level[v], tree.rank[v], block, max_rank)
        table.setdefault(key, []).append(v)
    empty: list[int] = []
    return lambda t: table.get(
        robust_round_key(t, block, round_multiplier, max_rank), empty
    )


def robust_fastbc_population(
    network: RadioNetwork,
    rng: RandomSource,
    tree: Optional[RankedBFSTree] = None,
    block: Optional[int] = None,
    round_multiplier: int = DEFAULT_ROUND_MULTIPLIER,
    decay_interleave: bool = True,
) -> SingleMessagePopulation:
    """Robust FASTBC on every node as one column population.

    Outcome-identical to :func:`make_robust_fastbc_protocols` with the
    same arguments.
    """
    if tree is None:
        tree = build_gbst(network).tree
    return SingleMessagePopulation(
        network,
        rng,
        wave=robust_wave(tree, block, round_multiplier),
        decay_interleave=decay_interleave,
    )


def robust_fastbc_broadcast(
    network: RadioNetwork,
    faults: FaultConfig = FaultConfig.faultless(),
    rng: "int | RandomSource | None" = None,
    max_rounds: Optional[int] = None,
    tree: Optional[RankedBFSTree] = None,
    block: Optional[int] = None,
    round_multiplier: int = DEFAULT_ROUND_MULTIPLIER,
    decay_interleave: bool = True,
    adversary=None,
    channel=None,
) -> BroadcastOutcome:
    """Broadcast one message from the source with Robust FASTBC."""

    def budget(log_n: int, depth: int, slowdown: float) -> int:
        log_log_n = block_size(network.n)
        rounds = int(
            slowdown
            * (40 * depth + 60 * round_multiplier * log_n * log_log_n * log_n)
        ) + 200
        return rounds if decay_interleave else 4 * rounds

    adversary, source, max_rounds = prepare_run(
        network, faults, rng, adversary, channel, max_rounds, budget
    )
    population = robust_fastbc_population(
        network,
        source,
        tree=tree,
        block=block,
        round_multiplier=round_multiplier,
        decay_interleave=decay_interleave,
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
