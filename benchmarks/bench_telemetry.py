"""Telemetry overhead benchmark: the zero-cost-when-off guarantee.

``python benchmarks/bench_telemetry.py [--scale smoke|full] [--output PATH]``
emits ``BENCH_telemetry.json`` with the channel-round workload from
``bench_hotpaths`` timed three ways:

* ``bare``     — ``channel_overhead.BareChannel``, the ``Channel``
  subclass whose round epilogue carries no instrumentation at all (no
  ``METRICS.enabled`` or ``timeline.enabled`` read), the honest
  uninstrumented baseline ``bench_timeline`` shares;
* ``disabled`` — the shipped ``Channel`` with the global registry off,
  i.e. what every user who never asks for telemetry pays;
* ``enabled``  — the shipped ``Channel`` with the registry on, counters
  incrementing every round.

Two acceptance bars are enforced (exit 1 on violation):

* disabled overhead <= 1% of the bare baseline (the tentpole bar);
* enabled overhead <= 5%.

A third check asserts the observability invariant the bars exist to
protect: canonical report bytes from ``run_batch`` are **identical**
with telemetry + tracing fully on vs fully off.

The three legs are timed interleaved (best-of-N per leg, round-robin)
so drift in machine load lands on every leg equally rather than biasing
whichever leg ran last.

``pytest benchmarks/bench_telemetry.py --benchmark-only
-o python_files='bench_*.py'`` runs the same measurement under
pytest-benchmark.
"""

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

from channel_overhead import BareChannel, check_baseline, leg_summary, time_leg

from repro.core.engine import Channel
from repro.core.faults import FaultConfig
from repro.perf.hotpaths import channel_workload
from repro.runner import Scenario, expand_grid, run_batch
from repro.telemetry.metrics import METRICS
from repro.telemetry.tracing import TRACER, TraceSink

SCHEMA = "repro.bench_telemetry/1"

#: the tentpole acceptance bar: telemetry off costs <= 1% on channel rounds
DISABLED_OVERHEAD_BAR = 0.01

#: counters incrementing every round may cost <= 5%
ENABLED_OVERHEAD_BAR = 0.05

_SCALES = {
    "smoke": {"rounds": 600, "repeats": 9, "n": 1024},
    "full": {"rounds": 2000, "repeats": 15, "n": 1024},
}

#: the byte-identity sweep: small but multi-seed, the store-canonical path
_IDENTITY_SCENARIOS = 8


def bench_channel_overhead(rounds, repeats, n, seed=7):
    """Best-of-``repeats`` seconds for bare / disabled / enabled legs."""
    network, broadcast_sets = channel_workload(rounds, n, seed=seed)
    check_baseline(network, broadcast_sets[:16], seed=seed)

    was_enabled = METRICS.enabled
    best = {"bare": float("inf"), "disabled": float("inf"),
            "enabled": float("inf")}
    try:
        for _ in range(repeats):
            METRICS.enabled = False
            best["bare"] = min(
                best["bare"], time_leg(BareChannel, network, broadcast_sets)
            )
            best["disabled"] = min(
                best["disabled"], time_leg(Channel, network, broadcast_sets)
            )
            METRICS.enabled = True
            best["enabled"] = min(
                best["enabled"], time_leg(Channel, network, broadcast_sets)
            )
    finally:
        METRICS.enabled = was_enabled

    return {
        "name": "channel_round_overhead",
        "rounds": rounds,
        "repeats": repeats,
        "n": network.n,
        "m": network.edge_count,
        "broadcasters": network.n // 8,
        "legs": leg_summary(best, rounds),
        "bars": {
            "disabled": DISABLED_OVERHEAD_BAR,
            "enabled": ENABLED_OVERHEAD_BAR,
        },
    }


def _identity_sweep():
    base = Scenario(
        algorithm="decay",
        topology="path",
        topology_params={"n": 32},
        faults=FaultConfig.receiver(0.3),
    )
    return expand_grid(base, seeds=range(_IDENTITY_SCENARIOS))


def check_byte_identity(tmp_dir):
    """Canonical report bytes with telemetry+tracing on vs off.

    Returns the evidence dict; raises AssertionError on any byte
    difference (the invariant the whole subsystem is built around).
    """
    scenarios = _identity_sweep()
    was_enabled = METRICS.enabled
    previous_sink = TRACER.sink
    trace_path = str(Path(tmp_dir) / "bench-identity.jsonl")
    try:
        METRICS.enabled = False
        TRACER.configure(None)
        off = [report.to_json(canonical=True) for report in run_batch(scenarios)]

        METRICS.enabled = True
        TRACER.configure(TraceSink(trace_path, rate=1.0))
        on = [report.to_json(canonical=True) for report in run_batch(scenarios)]
        spans_written = TRACER.sink.written
    finally:
        METRICS.enabled = was_enabled
        TRACER.configure(previous_sink)

    for scenario, bytes_off, bytes_on in zip(scenarios, off, on):
        assert bytes_off == bytes_on, (
            f"telemetry leaked into canonical report bytes for "
            f"{scenario.cache_key()}"
        )
    return {
        "name": "byte_identity",
        "scenarios": len(scenarios),
        "identical": True,
        "spans_written": spans_written,
    }


def run_telemetry_benchmarks(scale="smoke"):
    if scale not in _SCALES:
        raise ValueError(f"scale must be one of {sorted(_SCALES)}, got {scale!r}")
    sizes = _SCALES[scale]
    overhead = bench_channel_overhead(
        sizes["rounds"], sizes["repeats"], sizes["n"]
    )
    with tempfile.TemporaryDirectory(prefix="repro-bench-telemetry-") as tmp:
        identity = check_byte_identity(tmp)
    return {
        "schema": SCHEMA,
        "scale": scale,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "results": [overhead, identity],
    }


def _gate(report):
    """Print the verdicts; return the exit status."""
    overhead = report["results"][0]
    legs = overhead["legs"]
    for name in ("bare", "disabled", "enabled"):
        leg = legs[name]
        print(
            f"channel_rounds {name:>8}: {leg['rounds_per_sec']:>10.2f} "
            f"rounds/s ({leg['overhead_fraction'] * 100:.2f}% overhead)"
        )
    identity = report["results"][1]
    print(
        f"byte_identity: {identity['scenarios']} scenarios identical with "
        f"telemetry on/off ({identity['spans_written']} spans written)"
    )
    failed = False
    if legs["disabled"]["overhead_fraction"] > DISABLED_OVERHEAD_BAR:
        print(
            f"FAIL: disabled telemetry costs "
            f"{legs['disabled']['overhead_fraction'] * 100:.2f}%, above the "
            f"{DISABLED_OVERHEAD_BAR * 100:.0f}% bar"
        )
        failed = True
    if legs["enabled"]["overhead_fraction"] > ENABLED_OVERHEAD_BAR:
        print(
            f"FAIL: enabled telemetry costs "
            f"{legs['enabled']['overhead_fraction'] * 100:.2f}%, above the "
            f"{ENABLED_OVERHEAD_BAR * 100:.0f}% bar"
        )
        failed = True
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(_SCALES), default="smoke")
    parser.add_argument("--output", default="BENCH_telemetry.json")
    args = parser.parse_args(argv)

    report = run_telemetry_benchmarks(scale=args.scale)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    status = _gate(report)
    print(f"wrote {args.output}")
    return status


# -- pytest-benchmark wrappers ----------------------------------------------


def test_telemetry_overhead(benchmark, repro_scale):
    sizes = _SCALES[repro_scale]
    result = benchmark.pedantic(
        lambda: bench_channel_overhead(
            sizes["rounds"], sizes["repeats"], sizes["n"]
        ),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["result"] = result
    legs = result["legs"]
    assert legs["disabled"]["overhead_fraction"] <= DISABLED_OVERHEAD_BAR
    assert legs["enabled"]["overhead_fraction"] <= ENABLED_OVERHEAD_BAR


def test_byte_identity(benchmark, tmp_path):
    result = benchmark.pedantic(
        lambda: check_byte_identity(str(tmp_path)),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["result"] = result
    assert result["identical"]
    assert result["spans_written"] >= 1


if __name__ == "__main__":
    sys.exit(main())
