"""E5 (Theorem 11): Robust FASTBC stays diameter-linear under faults.

The comparison isolates the wave mechanism (``decay_interleave=False``):
plain FASTBC's per-hop cost grows with log n (a dropped hop waits out a
full wave period), while Robust FASTBC's blocks absorb drops with local
retries and its per-hop cost is flat in n. The full-algorithm columns show
the blended behaviour (the Decay half floors both at Θ(log n)/hop at these
scales: a constant-regime effect, not a change in the asymptotics).
"""

from __future__ import annotations

from repro.algorithms.decay import decay_broadcast
from repro.algorithms.fastbc import fastbc_broadcast
from repro.algorithms.robust_fastbc import robust_fastbc_broadcast
from repro.core.faults import FaultConfig
from repro.experiments.common import register
from repro.topologies.basic import path
from repro.util.rng import RandomSource
from repro.util.stats import mean
from repro.util.tables import Table


@register(
    "E5",
    "Robust FASTBC diameter linearity under faults",
    "Theorem 11: Robust FASTBC needs O(D + log n log log n (log n + "
    "log 1/δ)) rounds with faults; per-hop cost flat in n vs plain "
    "FASTBC's Θ(log n)",
)
def run(scale: str, seed: int) -> Table:
    p = 0.5
    if scale == "smoke":
        sizes = [96, 192]
        trials = 2
    else:
        sizes = [96, 192, 384, 768]
        trials = 4

    rng = RandomSource(seed)
    faults = FaultConfig.receiver(p)
    table = Table(
        [
            "n",
            "plain_wave_per_hop",
            "robust_wave_per_hop",
            "plain_full",
            "robust_full",
            "decay_full",
        ],
        title=f"E5: per-hop wave cost at p={p} — plain grows, robust flat",
    )
    for n in sizes:
        network = path(n)
        plain_wave, robust_wave = [], []
        plain_full, robust_full, decay_full = [], [], []
        for _ in range(trials):
            pw = fastbc_broadcast(
                network, faults=faults, rng=rng.spawn(), decay_interleave=False
            )
            rw = robust_fastbc_broadcast(
                network, faults=faults, rng=rng.spawn(), decay_interleave=False
            )
            pf = fastbc_broadcast(network, faults=faults, rng=rng.spawn())
            rf = robust_fastbc_broadcast(network, faults=faults, rng=rng.spawn())
            df = decay_broadcast(network, faults=faults, rng=rng.spawn())
            for outcome in (pw, rw, pf, rf, df):
                if not outcome.success:
                    raise AssertionError(f"timeout on path-{n} at p={p}")
            plain_wave.append(pw.rounds)
            robust_wave.append(rw.rounds)
            plain_full.append(pf.rounds)
            robust_full.append(rf.rounds)
            decay_full.append(df.rounds)
        hops = n - 1
        table.add_row(
            n,
            mean(plain_wave) / hops,
            mean(robust_wave) / hops,
            mean(plain_full),
            mean(robust_full),
            mean(decay_full),
        )
    return table
