"""The shared baseline of the disabled-instrumentation overhead benchmarks.

``bench_telemetry.py`` and ``bench_timeline.py`` both time the shipped
:class:`~repro.core.engine.Channel` against :class:`BareChannel` on the
``repro bench`` channel-round workload
(:func:`repro.perf.hotpaths.channel_workload`). This module holds the one
copy of that baseline and of the leg timing both benchmarks share.
"""

import time

from repro.core.engine import Channel, RoundResult
from repro.core.faults import FaultConfig
from repro.timeline import TimelineConfig, TimelineRecorder


class BareChannel(Channel):
    """``Channel`` with an uninstrumented round epilogue.

    ``_run_round`` below is the shipped body minus the ``if
    timeline.enabled:`` and ``if metrics_on:`` branches, so a disabled
    leg measured against it pays for every instrumentation check the
    shipped round makes. If ``Channel._run_round`` changes shape, this
    override must follow; :func:`check_baseline` catches behavioural
    drift.
    """

    def _run_round(self, broadcasters, resolver):
        result = RoundResult(self.round_index)
        counters = self.counters
        count = len(broadcasters)
        counters.rounds += 1
        counters.broadcasts += count
        if count:
            resolver(broadcasters, result)
        self.round_index += 1
        return result


def leg_run(channel_cls, network, broadcast_sets, seed=7, record=False):
    """One pass: fresh channel (and recorder), every round transmitted."""
    channel = channel_cls(network, FaultConfig.receiver(0.1), rng=seed)
    if record:
        channel.timeline = TimelineRecorder(network.n, TimelineConfig(every=1))
    for broadcasters in broadcast_sets:
        channel.transmit(broadcasters)
    if record:
        channel.timeline.finish()
    return channel


def time_leg(channel_cls, network, broadcast_sets, record=False):
    """Seconds for one :func:`leg_run` pass."""
    start = time.perf_counter()
    leg_run(channel_cls, network, broadcast_sets, record=record)
    return time.perf_counter() - start


def check_baseline(network, broadcast_sets, seed=7):
    """Assert :class:`BareChannel` simulates exactly what ``Channel`` does.

    Otherwise the baseline would be measuring a different simulation.
    """
    bare = leg_run(BareChannel, network, broadcast_sets, seed=seed)
    shipped = leg_run(Channel, network, broadcast_sets, seed=seed)
    assert bare.counters.as_dict() == shipped.counters.as_dict(), (
        "BareChannel diverged from Channel; update its _run_round copy"
    )


def leg_summary(best, rounds):
    """Per-leg seconds, rate and overhead over the ``bare`` leg."""

    def leg(name):
        seconds = best[name]
        overhead = (seconds - best["bare"]) / best["bare"]
        return {
            "seconds": round(seconds, 6),
            "rounds_per_sec": round(rounds / seconds, 2),
            "overhead_fraction": round(max(0.0, overhead), 4),
        }

    return {name: leg(name) for name in ("bare", "disabled", "enabled")}
