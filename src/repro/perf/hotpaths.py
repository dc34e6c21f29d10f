"""Microbenchmarks for the simulation hot paths, vectorized vs reference.

Four benchmark families, each timing the vectorized kernel against the
scalar reference implementation it replaced:

* ``channel_rounds``       — :meth:`Channel.transmit` on a sparse random
  graph with a dense broadcast set, rounds/sec.
* ``star_rlnc_round_loop`` — the acceptance workload: a 1000-node star
  whose hub pumps RLNC combinations at the leaves every round (channel
  resolution + per-leaf incremental elimination), rounds/sec.
* ``rlnc_emit`` / ``rlnc_receive`` — encoder combination and decoder
  elimination throughput, ops/sec.
* ``gf_matmul``            — GF(2^8) matrix product, ops/sec (no scalar
  twin; tracked for trend only).

``run_hotpath_benchmarks`` packages everything as a JSON-serializable
report (written to ``BENCH_hotpaths.json`` by ``repro bench``);
``consistency_check`` cross-validates that the vectorized kernels and
their references agree outcome-for-outcome before any timing is trusted.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.coding.gf256 import GF256
from repro.coding.rlnc import RLNCDecoder, RLNCEncoder
from repro.core.engine import Channel
from repro.core.faults import FaultConfig
from repro.core.network import RadioNetwork
from repro.topologies import basic, random_graphs
from repro.util.rng import RandomSource

__all__ = [
    "BenchResult",
    "channel_workload",
    "consistency_check",
    "run_hotpath_benchmarks",
    "write_report",
]

SCHEMA = "repro-bench-hotpaths/v1"

#: per-scale iteration counts: (channel rounds, star rounds, rlnc ops, matmuls)
_SCALES = {
    "smoke": {"channel_rounds": 200, "star_rounds": 120, "rlnc_ops": 2000, "matmuls": 50},
    "full": {"channel_rounds": 1000, "star_rounds": 300, "rlnc_ops": 10000, "matmuls": 300},
}


@dataclass
class BenchResult:
    """One benchmark: vectorized ops/sec, optionally vs a scalar twin."""

    name: str
    ops_per_sec: float
    reference_ops_per_sec: Optional[float] = None
    meta: dict = field(default_factory=dict)

    @property
    def speedup(self) -> Optional[float]:
        if not self.reference_ops_per_sec:
            return None
        return self.ops_per_sec / self.reference_ops_per_sec

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "ops_per_sec": round(self.ops_per_sec, 2),
            "reference_ops_per_sec": (
                None
                if self.reference_ops_per_sec is None
                else round(self.reference_ops_per_sec, 2)
            ),
            "speedup": None if self.speedup is None else round(self.speedup, 2),
            "meta": self.meta,
        }


def _rate(run: Callable[[], int], repeats: int = 2) -> float:
    """ops/sec of ``run`` (which performs and returns N ops), best of repeats."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        ops = run()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed / max(1, ops))
    return 1.0 / best


# -- channel rounds ---------------------------------------------------------


def channel_workload(
    rounds: int, n: int = 1024, seed: int = 7
) -> tuple[RadioNetwork, list[list[int]]]:
    """A sparse G(n, 16/n) and ``rounds`` ascending n/8-node broadcast sets."""
    network = random_graphs.gnp(n, 16.0 / n, rng=seed)
    pick = RandomSource(seed)
    broadcast_sets = [
        sorted(pick.sample(range(network.n), network.n // 8))
        for _ in range(rounds)
    ]
    return network, broadcast_sets


def _channel_round_run(
    network: RadioNetwork,
    broadcast_sets: list[list[int]],
    vectorized: bool,
    seed: int,
) -> Callable[[], int]:
    def run() -> int:
        channel = Channel(
            network,
            FaultConfig.receiver(0.1),
            rng=seed,
            kernel="vectorized" if vectorized else "scalar",
        )
        transmit = channel.transmit if vectorized else channel.transmit_reference
        for broadcasters in broadcast_sets:
            transmit(broadcasters)
        return len(broadcast_sets)

    return run


def bench_channel_rounds(rounds: int, n: int = 1024, seed: int = 7) -> BenchResult:
    """Round resolution on a sparse G(n, p) with an n/8-node broadcast set."""
    network, broadcast_sets = channel_workload(rounds, n, seed)
    vec = _rate(_channel_round_run(network, broadcast_sets, True, seed))
    ref = _rate(_channel_round_run(network, broadcast_sets, False, seed))
    return BenchResult(
        name="channel_rounds",
        ops_per_sec=vec,
        reference_ops_per_sec=ref,
        meta={"n": network.n, "m": network.edge_count, "broadcasters": network.n // 8, "rounds": rounds},
    )


# -- the acceptance workload: 1000-node star RLNC round loop ----------------


def _star_rlnc_run(
    network: RadioNetwork,
    k: int,
    payload_length: int,
    rounds: int,
    seed: int,
    vectorized: bool,
) -> Callable[[], int]:
    source_rng = RandomSource(seed)
    messages = [
        bytes(source_rng.bytes_array(payload_length).tobytes()) for _ in range(k)
    ]

    def run() -> int:
        channel = Channel(
            network,
            FaultConfig.receiver(0.05),
            rng=seed,
            kernel="vectorized" if vectorized else "scalar",
        )
        transmit = channel.transmit if vectorized else channel.transmit_reference
        hub = RLNCEncoder(
            k, payload_length, messages=messages, reference=not vectorized
        )
        emit = hub.emit if vectorized else hub.emit_reference
        leaves = [
            RLNCDecoder(k, payload_length, reference=not vectorized)
            for _ in range(network.n - 1)
        ]
        emit_rng = RandomSource(seed + 1)
        for _ in range(rounds):
            packet = emit(emit_rng)
            coefficients = packet.coefficient_array()
            payload = packet.payload_array()
            for receiver in transmit([network.source]).receivers:
                leaves[receiver - 1].receive_raw(coefficients, payload)
        return rounds

    return run


def bench_star_rlnc_round_loop(
    rounds: int, n: int = 1000, k: int = 32, payload_length: int = 32, seed: int = 3
) -> BenchResult:
    """The ISSUE-2 acceptance workload: hub-to-999-leaves RLNC gossip.

    Each round costs one channel resolution plus ~999 incremental
    eliminations; the reference leg runs the scalar channel kernel, the
    per-row combination loop, and the per-column elimination loop.
    """
    network = basic.star(n - 1)
    vec = _rate(_star_rlnc_run(network, k, payload_length, rounds, seed, True), repeats=1)
    ref = _rate(_star_rlnc_run(network, k, payload_length, rounds, seed, False), repeats=1)
    return BenchResult(
        name="star_rlnc_round_loop",
        ops_per_sec=vec,
        reference_ops_per_sec=ref,
        meta={"n": n, "k": k, "payload_length": payload_length, "rounds": rounds},
    )


# -- RLNC encode / decode throughput ---------------------------------------


def bench_rlnc_emit(
    ops: int, k: int = 64, payload_length: int = 64, seed: int = 11
) -> BenchResult:
    """Fresh-combination emission from a full-rank encoder."""
    rng = RandomSource(seed)
    messages = [bytes(rng.bytes_array(payload_length).tobytes()) for _ in range(k)]

    def run_leg(vectorized: bool) -> Callable[[], int]:
        encoder = RLNCEncoder(
            k, payload_length, messages=messages, reference=not vectorized
        )
        emit = encoder.emit if vectorized else encoder.emit_reference

        def run() -> int:
            emit_rng = RandomSource(seed + 1)
            for _ in range(ops):
                emit(emit_rng)
            return ops

        return run

    vec = _rate(run_leg(True))
    ref = _rate(run_leg(False))
    return BenchResult(
        name="rlnc_emit",
        ops_per_sec=vec,
        reference_ops_per_sec=ref,
        meta={"k": k, "payload_length": payload_length, "ops": ops},
    )


def bench_rlnc_receive(
    ops: int, k: int = 64, payload_length: int = 64, seed: int = 13
) -> BenchResult:
    """Incremental elimination over a stream of random coded packets.

    The stream is long enough to cover both the rank-building phase and
    the saturated (non-innovative) regime that dominates RLNC gossip.
    """
    rng = RandomSource(seed)
    stream = [
        (rng.bytes_array(k), rng.bytes_array(payload_length)) for _ in range(ops)
    ]

    def run_leg(vectorized: bool) -> Callable[[], int]:
        def run() -> int:
            decoder = RLNCDecoder(k, payload_length, reference=not vectorized)
            for coefficients, payload in stream:
                decoder.receive_raw(coefficients, payload)
            return ops

        return run

    vec = _rate(run_leg(True))
    ref = _rate(run_leg(False))
    return BenchResult(
        name="rlnc_receive",
        ops_per_sec=vec,
        reference_ops_per_sec=ref,
        meta={"k": k, "payload_length": payload_length, "ops": ops},
    )


# -- GF(2^8) matmul ---------------------------------------------------------


def bench_gf_matmul(ops: int, size: int = 128, seed: int = 17) -> BenchResult:
    """Square GF(2^8) matrix products (tracked for trend, no scalar twin)."""
    rng = RandomSource(seed)
    a = rng.bytes_array(size * size).reshape(size, size)
    b = rng.bytes_array(size * size).reshape(size, size)

    def run() -> int:
        for _ in range(ops):
            GF256.matmul(a, b)
        return ops

    return BenchResult(
        name="gf_matmul",
        ops_per_sec=_rate(run),
        meta={"size": size, "ops": ops},
    )


# -- kernel/reference consistency ------------------------------------------


def consistency_check(samples: int = 20, rounds: int = 8) -> list[str]:
    """Cross-validate vectorized kernels against their scalar references.

    Samples random topologies, fault models, broadcast sets, and RLNC
    packet streams; returns a list of human-readable mismatch descriptions
    (empty list = everything agrees).
    """
    failures: list[str] = []
    sampler = RandomSource(20260730)

    for index in range(samples):
        seed = sampler.randint(0, 2**31)
        n = sampler.randint(2, 80)
        kind = sampler.choice(["gnp", "star", "path", "cycle"])
        if kind == "gnp":
            network = random_graphs.gnp(
                max(n, 4), min(1.0, 8.0 / max(n, 4)), rng=seed
            )
        elif kind == "star":
            network = basic.star(max(1, n - 1))
        elif kind == "cycle":
            network = basic.cycle(max(3, n))
        else:
            network = basic.path(n)
        p = sampler.random() * 0.9
        faults = sampler.choice(
            [FaultConfig.faultless(), FaultConfig.sender(p), FaultConfig.receiver(p)]
        )
        vec = Channel(network, faults, rng=seed, kernel="vectorized")
        ref = Channel(network, faults, rng=seed)
        diverged = False
        for round_index in range(rounds):
            count = sampler.randint(0, network.n)
            broadcasters = sorted(sampler.sample(range(network.n), count))
            a = vec.transmit(broadcasters)
            b = ref.transmit_reference(broadcasters)
            if (
                a.receivers != b.receivers
                or a.senders != b.senders
                or a.noise_receivers != b.noise_receivers
                or a.collision_receivers != b.collision_receivers
                or a.faulty_senders != b.faulty_senders
            ):
                failures.append(
                    f"channel mismatch: config {index} ({kind}, n={network.n}, "
                    f"{faults}), round {round_index}"
                )
                diverged = True
                break
        # a round mismatch already implies diverging counters; only report
        # counters separately when every round matched
        if not diverged and vec.counters.as_dict() != ref.counters.as_dict():
            failures.append(
                f"channel counter mismatch: config {index} ({kind}, "
                f"n={network.n}, {faults})"
            )

    for index in range(samples):
        k = sampler.randint(1, 24)
        payload_length = sampler.randint(0, 24)
        vec_decoder = RLNCDecoder(k, payload_length)
        ref_decoder = RLNCDecoder(k, payload_length, reference=True)
        for _ in range(3 * k):
            coefficients = sampler.bytes_array(k)
            payload = sampler.bytes_array(payload_length)
            got = vec_decoder.receive_raw(coefficients, payload)
            want = ref_decoder.receive_raw(coefficients.copy(), payload.copy())
            if got != want or vec_decoder.rank != ref_decoder.rank:
                failures.append(
                    f"rlnc verdict/rank mismatch: config {index} "
                    f"(k={k}, payload={payload_length})"
                )
                break
        if vec_decoder.is_complete() and ref_decoder.is_complete():
            if not np.array_equal(vec_decoder.decode(), ref_decoder.decode()):
                failures.append(
                    f"rlnc decode mismatch: config {index} "
                    f"(k={k}, payload={payload_length})"
                )
    return failures


# -- report -----------------------------------------------------------------


def run_hotpath_benchmarks(scale: str = "smoke") -> dict:
    """Run every hot-path benchmark and return the JSON-ready report."""
    if scale not in _SCALES:
        raise ValueError(f"scale must be one of {sorted(_SCALES)}, got {scale!r}")
    sizes = _SCALES[scale]
    results = [
        bench_channel_rounds(sizes["channel_rounds"]),
        bench_star_rlnc_round_loop(sizes["star_rounds"]),
        bench_rlnc_emit(sizes["rlnc_ops"]),
        bench_rlnc_receive(sizes["rlnc_ops"]),
        bench_gf_matmul(sizes["matmuls"]),
    ]
    return {
        "schema": SCHEMA,
        "scale": scale,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "results": [result.to_dict() for result in results],
    }


def write_report(report: dict, path: str) -> None:
    """Write a benchmark report as indented, key-sorted JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
