"""Timed passes over one workload, with correctness checks and metrics.

A *pass* opens a fresh :class:`~repro.store.ResultStore` (untimed), runs
the workload's scenarios cold (timed: that is ``wall_s``), stores them,
and then serves the whole set from the store again and again for
:data:`WARM_SHARE` of the cold time (each one timed: the *warm* passes).
Passes repeat until the requested seconds are spent. A plain run reports
the end-to-end metrics; a traced run alternates plain and traced passes
and reports the per-layer metrics, the plain passes giving the base for
``trace.overhead``.

Before the cold pass and after each of its scenarios (or chunks) the
harness times the reference loop of ``perfbench/speed.py``, and divides
each timed unit by the slowdown that the probes just before and after it
show: the machine this was built on runs everything up to 2x slower for
a minute or more at a time, which moves raw pass times between runs far
more than any bound could allow. The end-to-end metrics are medians over
passes of these normalized times; the raw ones are printed too.

Every check feeds the failure count instead of aborting the run. A
scenario fails when it raises, reports ``success=False`` or reports
``informed != total``; a report whose canonical bytes differ from the
first plain pass's (a later pass, a warm store hit, a traced pass) or
that the store did not keep is a failure too.
"""

from __future__ import annotations

import contextlib
import gc
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

from perfbench import spans, speed

_clock = time.perf_counter

#: warm passes last this share of their cold pass's time: spread over
#: the run, they sample the machine as evenly as the cold passes do
WARM_SHARE = 0.2
#: at least this many warm passes follow every cold pass
MIN_WARM_PASSES = 3
#: reference-loop samples taken before a cold pass and after its warm
#: passes
PROBES = 8
#: reference-loop samples taken after every scenario or chunk of a cold
#: pass; the unit is normalized by these and the ones just before it
UNIT_PROBES = 3
#: scenarios per timed ``run_batch`` call: a batch workload's cold pass
#: and every warm pass are cut into chunks of this many, each about a
#: millisecond warm (timed on its own) and a twentieth of a second cold
BATCH_CHUNK = 27
#: failure messages printed to stderr before going quiet
MAX_REPORTED_FAILURES = 10


@dataclass
class Tally:
    """Attempted and failed scenario operations, across all passes."""

    attempted: int = 0
    failed: int = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            print(f"perfbench: FAILED {message}", file=sys.stderr)


@dataclass
class PassTimes:
    """Timings of one kind of pass (plain or traced), one per pass.

    ``cold_s`` and ``run_s`` are normalized, unit by unit, for the
    machine's speed (:class:`perfbench.speed.Meter`); ``warm_s`` holds
    the raw times of each chunk of every warm pass.
    """

    raw_cold_s: list = field(default_factory=list)
    slowdown: list = field(default_factory=list)
    cold_s: list = field(default_factory=list)
    #: chunk index -> its raw seconds in every warm pass
    warm_s: dict = field(default_factory=dict)
    #: raw seconds of every cold and warm pass together
    raw_total_s: float = 0.0
    #: scenario index -> its seconds in every pass (benchmark clock, or
    #: the report's own timer for batch workloads, where the batch hides
    #: scenario boundaries)
    run_s: dict = field(default_factory=dict)

    def add(
        self, raw_cold_s: float, cold_s: float, warm_s: list, run_s: list, slowdown: float
    ) -> None:
        self.raw_cold_s.append(raw_cold_s)
        self.slowdown.append(slowdown)
        self.cold_s.append(cold_s)
        self.raw_total_s += raw_cold_s
        for index, seconds in enumerate(warm_s):
            self.warm_s.setdefault(index, []).extend(seconds)
            self.raw_total_s += sum(seconds)
        for index, seconds in enumerate(run_s):
            if seconds is not None:
                self.run_s.setdefault(index, []).append(seconds)

    def best_warm_s(self) -> float:
        """A warm pass with every chunk at its fastest."""
        if not self.warm_s:
            return math.nan
        return sum(min(times) for times in self.warm_s.values() if times)

    def run_s_p50(self) -> float:
        """Median over scenarios of each one's median over passes: the
        sets mix algorithms of different speeds, and a median pooled over
        all runs would sit in the gap between them."""
        return _median([statistics.median(runs) for runs in self.run_s.values()])


class Bench:
    """One workload measured in one directory; see the module docstring."""

    def __init__(self, workload, workdir: str) -> None:
        self.workload = workload
        self.workdir = workdir
        self.tally = Tally()
        #: canonical bytes per scenario, from the first plain pass
        self.reference: list = [None] * len(workload.scenarios)
        self.reference_reports: list = [None] * len(workload.scenarios)
        self._store_count = 0
        #: the recorder of the pass being traced, if any
        self._recorder = None

    # -- one pass -------------------------------------------------------------

    def _open_store(self):
        from repro.store import ResultStore

        self._store_count += 1
        path = os.path.join(self.workdir, f"store-{self._store_count}.sqlite")
        return ResultStore(path)

    def _cold(self, store, meter: speed.Meter) -> tuple[list, float, float, list]:
        """Run every scenario once and store the reports.

        Returns the reports (None where lost), the raw and the normalized
        pass time, and the normalized per-scenario times.
        """
        import repro.runner

        scenarios = self.workload.scenarios
        self.tally.attempted += len(scenarios)
        gc.collect()
        reports = []
        run_s = []
        raw_s = cold_s = 0.0
        if self.workload.batch:
            for chunk in _chunks(scenarios):
                start = _clock()
                try:
                    done = repro.runner.run_batch(chunk, store=store)
                except Exception:
                    # the batch returns nothing, so every scenario counts as raised
                    traceback.print_exc()
                    done = [None] * len(chunk)
                seconds = _clock() - start
                raw_s += seconds
                normalized = meter.normalize(seconds)
                cold_s += normalized
                # the chunk's reports share its slowdown
                factor = normalized / seconds
                reports.extend(done)
                run_s.extend(
                    None if report is None else report.wall_time_s * factor
                    for report in done
                )
            return reports, raw_s, cold_s, run_s
        for scenario in scenarios:
            start = _clock()
            try:
                reports.append(repro.runner.run(scenario))
            except Exception:
                traceback.print_exc()
                reports.append(None)
            seconds = _clock() - start
            raw_s += seconds
            run_s.append(meter.normalize(seconds))
            cold_s += run_s[-1]
        start = _clock()
        try:
            store.put_many([report for report in reports if report is not None])
        except Exception:
            # _check_cold then finds the reports missing from the store
            traceback.print_exc()
        seconds = _clock() - start
        raw_s += seconds
        cold_s += meter.normalize(seconds)
        return reports, raw_s, cold_s, run_s

    def _warm(self, store, budget_s: float, label: str) -> list:
        """Serve the set from the store for ``budget_s`` seconds, checking
        each warm pass against the cold bytes as it completes; returns
        each chunk's times, over the warm passes where it did not raise."""
        import repro.runner

        chunks = _chunks(self.workload.scenarios)
        warm_s = [[] for _ in chunks]
        passes = 0
        spent = 0.0
        gc.collect()
        while spent < budget_s or passes < MIN_WARM_PASSES:
            self.tally.attempted += len(self.workload.scenarios)
            reports = []
            for chunk, times in zip(chunks, warm_s):
                start = _clock()
                try:
                    reports.extend(repro.runner.run_batch(chunk, store=store))
                except Exception:
                    traceback.print_exc()
                    reports.extend([None] * len(chunk))
                else:
                    times.append(_clock() - start)
                spent += _clock() - start
            passes += 1
            with self._untraced():
                self._check_warm(reports, label)
        return warm_s

    def _untraced(self):
        if self._recorder is None:
            return contextlib.nullcontext()
        return self._recorder.paused()

    def _check_cold(self, reports: list, store, label: str) -> None:
        for index, (scenario, report) in enumerate(
            zip(self.workload.scenarios, reports)
        ):
            name = f"{label} {scenario.algorithm}/{scenario.topology} seed={scenario.seed}"
            if report is None:
                self.tally.fail(f"{name}: raised")
                continue
            if not report.success or report.informed != report.total:
                self.tally.fail(
                    f"{name}: success={report.success} "
                    f"informed={report.informed}/{report.total}"
                )
                continue
            data = report.to_json(canonical=True)
            if self.reference[index] is None:
                self.reference[index] = data
                self.reference_reports[index] = report
            elif data != self.reference[index]:
                self.tally.fail(f"{name}: canonical bytes differ from first pass")
            if report.cache_key not in store:
                self.tally.fail(f"{name}: not in the store after the cold pass")

    def _check_warm(self, reports: list, label: str) -> None:
        for index, report in enumerate(reports):
            scenario = self.workload.scenarios[index]
            name = f"{label} warm {scenario.algorithm} seed={scenario.seed}"
            if report is None:
                self.tally.fail(f"{name}: raised")
                continue
            reference = self.reference[index]
            if reference is not None and report.to_json(canonical=True) != reference:
                self.tally.fail(f"{name}: stored bytes differ from the cold run")

    def one_pass(self, times: PassTimes, recorder=None) -> None:
        """A cold pass and its warm passes; traced when ``recorder`` is given."""
        label = "traced" if recorder is not None else "plain"
        store = self._open_store()
        self._recorder = recorder
        meter = speed.Meter(PROBES, UNIT_PROBES)
        try:
            traced = (
                spans.recording(recorder)
                if recorder is not None
                else contextlib.nullcontext()
            )
            with traced:
                reports, raw_s, cold_s, run_s = self._cold(store, meter)
                with self._untraced():
                    # the warm passes compare against these references
                    self._check_cold(reports, store, label)
                warm_s = self._warm(store, WARM_SHARE * raw_s, label)
        finally:
            self._recorder = None
            store.close()
        meter.samples.extend(speed.reference_s() for _ in range(PROBES))
        times.add(raw_s, cold_s, warm_s, run_s, speed.slowdown(meter.samples))

    # -- runs -----------------------------------------------------------------

    def plain(self, seconds: float) -> PassTimes:
        """Passes until the one closest to ``seconds`` ends; at least one."""
        times = PassTimes()
        deadline = _clock() + seconds
        while True:
            start = _clock()
            self.one_pass(times)
            now = _clock()
            # stop unless another pass of this length ends nearer the deadline
            if now + (now - start) / 2 > deadline:
                return times

    def traced(self, seconds: float) -> tuple[PassTimes, PassTimes, spans.SpanRecorder]:
        """Alternate plain and traced passes like :meth:`plain`; at least
        one of each."""
        plain, traced = PassTimes(), PassTimes()
        recorder = spans.SpanRecorder()
        recorder.register(self.workload.scenarios)
        deadline = _clock() + seconds
        while True:
            start = _clock()
            self.one_pass(plain)
            self.one_pass(traced, recorder)
            now = _clock()
            if now + (now - start) / 2 > deadline:
                return plain, traced, recorder

    # -- metrics --------------------------------------------------------------

    def _reports(self) -> list:
        return [report for report in self.reference_reports if report is not None]

    def rounds(self) -> int:
        """Simulated rounds summed over the scenario set."""
        return sum(report.rounds for report in self._reports())

    def end_to_end(self, times: PassTimes, setup_s: float) -> dict:
        """name -> (value, unit) for the plain run."""
        count = len(self.workload.scenarios)
        wall_s = _median(times.cold_s)
        return {
            "wall_s": (wall_s, "s"),
            "rounds_per_s": (_ratio(self.rounds(), wall_s), "rounds/s"),
            "run_s_p50": (times.run_s_p50(), "s"),
            "scenarios_per_s": (_ratio(count, wall_s), "1/s"),
            # a warm chunk takes a millisecond or so, short enough to meet
            # the machine at full speed some time in every run: its fastest
            # is steadier than any normalized figure
            "cached_scenarios_per_s": (_ratio(count, times.best_warm_s()), "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "failed_frac": (self.failed_frac(), "ratio"),
            "raw_wall_s": (_median(times.raw_cold_s), "s"),
            "slowdown": (_median(times.slowdown), "ratio"),
        }

    def failed_frac(self) -> float:
        return self.tally.failed / max(1, self.tally.attempted)

    def per_layer(self, plain: PassTimes, traced: PassTimes, recorder) -> dict:
        """name -> (value, unit) for the traced run; span times are raw."""
        passes = len(traced.cold_s)
        traced_total = traced.raw_total_s
        metrics = {}
        for index, layer in enumerate(spans.LAYER_NAMES):
            stem = "runner.run_self" if layer == "runner.run" else layer
            metrics[f"{stem}_s"] = (recorder.self_s[index] / passes, "s")
            metrics[f"{layer}.share"] = (
                recorder.self_s[index] / traced_total,
                "ratio",
            )

        def calls(layer):
            return recorder.calls[spans.LAYER_NAMES.index(layer)]

        metrics["adversary.hook_calls"] = (calls("adversary.hooks") / passes, "count")
        metrics["coding.emit_calls"] = (calls("coding.emit") / passes, "count")
        metrics["coding.receive_calls"] = (calls("coding.receive") / passes, "count")
        metrics["coding.innovative_ratio"] = (
            _ratio(recorder.innovative, calls("coding.receive")),
            "ratio",
        )
        metrics["topologies.build_calls"] = (calls("topologies.build") / passes, "count")
        run_ms = sorted(1000.0 * s for s in recorder.run_s)
        metrics["runner.run_ms_p50"] = (_percentile(run_ms, 0.50), "ms")
        metrics["runner.run_ms_p95"] = (_percentile(run_ms, 0.95), "ms")
        metrics["store.hit_ratio"] = (
            _ratio(recorder.store_hits, calls("store.get")),
            "ratio",
        )

        counters = {}
        for report in self._reports():
            for name, value in report.counters.items():
                counters[name] = counters.get(name, 0) + value
        for name in ("rounds", "broadcasts", "deliveries", "collisions"):
            metrics[f"engine.{name}"] = (counters.get(name, 0), "count")
        metrics["engine.deliveries_per_broadcast"] = (
            _ratio(counters.get("deliveries", 0), counters.get("broadcasts", 0)),
            "ratio",
        )
        metrics["mac.transmissions_per_offer"] = (
            _ratio(counters.get("mac_transmissions", 0), counters.get("mac_offers", 0)),
            "ratio",
        )
        metrics["trace.overhead"] = (
            _median(traced.cold_s) / _median(plain.cold_s) - 1.0,
            "ratio",
        )
        return metrics


def _median(values: list) -> float:
    """Median, or nan when nothing was measured (every batch raised)."""
    return statistics.median(values) if values else math.nan


def _chunks(scenarios: tuple) -> list:
    """``scenarios`` cut into the chunks of one ``run_batch`` call each."""
    return [
        scenarios[first : first + BATCH_CHUNK]
        for first in range(0, len(scenarios), BATCH_CHUNK)
    ]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _percentile(ordered: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list (nan when empty)."""
    if not ordered:
        return math.nan
    return ordered[min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def workdir_for(root: str) -> str:
    """A fresh scratch directory for stores, under ``root/.perfbench_work``."""
    base = os.path.join(root, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=base)


def remove_workdir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
