"""Flight-recorder overhead benchmark: recording must stay near-free.

``python benchmarks/bench_timeline.py [--scale smoke|full] [--output PATH]``
emits ``BENCH_timeline.json`` with the channel-round workload from
``bench_hotpaths`` timed three ways:

* ``bare``     — ``channel_overhead.BareChannel``, the ``Channel``
  subclass whose round epilogue carries no instrumentation at all (no
  ``timeline.enabled`` or ``METRICS.enabled`` read), the baseline
  ``bench_telemetry`` shares;
* ``disabled`` — the shipped ``Channel`` carrying ``NULL_TIMELINE``,
  i.e. what every run that never opts in pays: one attribute read and
  one branch per round;
* ``enabled``  — the shipped ``Channel`` with a bound
  ``TimelineRecorder`` (``every=1``), appending one bucket per round.

Two acceptance bars are enforced (exit 1 on violation):

* disabled overhead <= 1% of the bare baseline;
* enabled overhead <= 5%.

A third check asserts the recorder's observability invariant: canonical
report bytes from ``run_batch`` are identical with the recorder on vs
off once the scenario's own ``timeline`` opt-in entry (and hence the
cache key) is set aside — recording never changes the simulation. A
``memory_model`` entry reports the recorder's measured buffer footprint
at n=10^5 for PERFORMANCE.md.

The three legs are timed interleaved (best-of-N per leg, round-robin)
with the metrics registry off, so the timeline bars are not confounded
by telemetry counters or machine-load drift.

``pytest benchmarks/bench_timeline.py --benchmark-only
-o python_files='bench_*.py'`` runs the same measurement under
pytest-benchmark.
"""

import argparse
import json
import os
import platform
import sys
import time

from channel_overhead import (
    BareChannel,
    check_baseline,
    leg_run,
    leg_summary,
    time_leg,
)

from repro.core.engine import Channel
from repro.core.faults import FaultConfig
from repro.perf.hotpaths import channel_workload
from repro.runner import Scenario, expand_grid, run_batch
from repro.telemetry.metrics import METRICS
from repro.timeline import TimelineConfig, TimelineRecorder

SCHEMA = "repro.bench_timeline/1"

#: the disabled path is one attribute read + branch: <= 1% of bare
DISABLED_OVERHEAD_BAR = 0.01

#: a live recorder appending every round may cost <= 5%
ENABLED_OVERHEAD_BAR = 0.05

_SCALES = {
    "smoke": {"rounds": 600, "repeats": 9, "n": 1024},
    "full": {"rounds": 2000, "repeats": 15, "n": 1024},
}

#: the byte-identity sweep: small but multi-seed, the store-canonical path
_IDENTITY_SCENARIOS = 8

#: the PERFORMANCE.md memory-model size
_MEMORY_MODEL_N = 100_000


def bench_channel_overhead(rounds, repeats, n, seed=7):
    """Best-of-``repeats`` seconds for bare / disabled / enabled legs."""
    network, broadcast_sets = channel_workload(rounds, n, seed=seed)

    was_enabled = METRICS.enabled
    METRICS.enabled = False
    try:
        # behavioural sanity first: neither the bare baseline nor a bound
        # recorder may change the simulation
        check_baseline(network, broadcast_sets[:16], seed=seed)
        shipped = leg_run(Channel, network, broadcast_sets[:16], seed=seed)
        recording = leg_run(
            Channel, network, broadcast_sets[:16], seed=seed, record=True
        )
        assert shipped.counters.as_dict() == recording.counters.as_dict(), (
            "a bound TimelineRecorder changed the simulation"
        )
        assert len(recording.timeline) == 16

        best = {"bare": float("inf"), "disabled": float("inf"),
                "enabled": float("inf")}
        for _ in range(repeats):
            best["bare"] = min(
                best["bare"], time_leg(BareChannel, network, broadcast_sets)
            )
            best["disabled"] = min(
                best["disabled"], time_leg(Channel, network, broadcast_sets)
            )
            best["enabled"] = min(
                best["enabled"],
                time_leg(Channel, network, broadcast_sets, record=True),
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


def check_byte_identity():
    """Canonical report bytes with the recorder on vs off.

    The recorded scenario differs from the plain one only in its own
    ``timeline`` opt-in entry (which moves the cache key); everything
    the simulation computed must be byte-identical. Raises
    AssertionError on any other difference.
    """
    base = Scenario(
        algorithm="decay",
        topology="path",
        topology_params={"n": 32},
        faults=FaultConfig.receiver(0.3),
    )
    plain = expand_grid(base, seeds=range(_IDENTITY_SCENARIOS))
    recorded = [
        scenario.with_(timeline=TimelineConfig(every=1)) for scenario in plain
    ]
    off = run_batch(plain)
    on = run_batch(recorded)
    buckets = 0
    for report_off, report_on in zip(off, on):
        assert report_off.timeline is None
        assert report_on.timeline is not None
        buckets += len(report_on.timeline["columns"]["round_start"])
        a = json.loads(report_off.to_json(canonical=True))
        b = json.loads(report_on.to_json(canonical=True))
        b["scenario"].pop("timeline")
        a.pop("cache_key")
        b.pop("cache_key")
        assert a == b, (
            f"recording changed canonical report bytes for seed "
            f"{a['scenario']['seed']}"
        )
    return {
        "name": "byte_identity",
        "scenarios": len(plain),
        "identical": True,
        "buckets_recorded": buckets,
    }


def measure_memory_model(n=_MEMORY_MODEL_N):
    """Measured recorder buffer footprint at large n (PERFORMANCE.md)."""
    recorder = TimelineRecorder(n, TimelineConfig())
    per_node = (
        recorder.first_delivery.nbytes + recorder._informed_mask.nbytes
    )
    return {
        "name": "memory_model",
        "n": n,
        "per_node_bytes": per_node,
        "bucket_row_bytes": recorder._rows.nbytes // len(recorder._rows),
        "initial_bucket_capacity": len(recorder._rows),
        "total_initial_bytes": per_node + recorder._rows.nbytes,
    }


def run_timeline_benchmarks(scale="smoke"):
    if scale not in _SCALES:
        raise ValueError(f"scale must be one of {sorted(_SCALES)}, got {scale!r}")
    sizes = _SCALES[scale]
    overhead = bench_channel_overhead(
        sizes["rounds"], sizes["repeats"], sizes["n"]
    )
    identity = check_byte_identity()
    memory = measure_memory_model()
    return {
        "schema": SCHEMA,
        "scale": scale,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "results": [overhead, identity, memory],
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
        f"the recorder on/off ({identity['buckets_recorded']} buckets "
        "recorded)"
    )
    memory = report["results"][2]
    print(
        f"memory_model: n={memory['n']} costs {memory['per_node_bytes']} "
        f"per-node bytes + {memory['bucket_row_bytes']} B/bucket"
    )
    failed = False
    if legs["disabled"]["overhead_fraction"] > DISABLED_OVERHEAD_BAR:
        print(
            f"FAIL: disabled recorder costs "
            f"{legs['disabled']['overhead_fraction'] * 100:.2f}%, above the "
            f"{DISABLED_OVERHEAD_BAR * 100:.0f}% bar"
        )
        failed = True
    if legs["enabled"]["overhead_fraction"] > ENABLED_OVERHEAD_BAR:
        print(
            f"FAIL: enabled recorder costs "
            f"{legs['enabled']['overhead_fraction'] * 100:.2f}%, above the "
            f"{ENABLED_OVERHEAD_BAR * 100:.0f}% bar"
        )
        failed = True
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(_SCALES), default="smoke")
    parser.add_argument("--output", default="BENCH_timeline.json")
    args = parser.parse_args(argv)

    report = run_timeline_benchmarks(scale=args.scale)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    status = _gate(report)
    print(f"wrote {args.output}")
    return status


# -- pytest-benchmark wrappers ----------------------------------------------


def test_timeline_overhead(benchmark, repro_scale):
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


def test_byte_identity(benchmark):
    result = benchmark.pedantic(check_byte_identity, rounds=1, iterations=1)
    benchmark.extra_info["result"] = result
    assert result["identical"]
    assert result["buckets_recorded"] >= 1


if __name__ == "__main__":
    sys.exit(main())
