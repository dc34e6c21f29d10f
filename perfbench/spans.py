"""Span tracing for the traced run, from outside the program.

:func:`instrument` wraps the public entry point of each layer at class
or module level, so every call records a span (layer, start, end,
parent span, trace id) in a :class:`SpanRecorder`. The trace id is the
index of the scenario's cache key in :attr:`SpanRecorder.trace_keys`.
A span stack gives each layer its *self* time: its span time minus the
time of its child spans. Per-node ``act``/``is_done`` are not wrapped;
their cost is the self time of the span that calls them
(``Simulator.step`` and ``Simulator.run``).

Spans stay in memory (compact arrays) until :meth:`SpanRecorder.save`
writes them once the run ends. :func:`instrument` is a context manager
and puts every original attribute back on exit.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from typing import Callable, Iterator, Optional

#: one span name per layer; README.md maps each to the entry point it wraps
LAYER_NAMES = (
    "runner.run",
    "runner.cache_key",
    "runner.canonical_json",
    "topologies.build",
    "engine.stop",
    "algorithms.dispatch",
    "engine.transmit",
    "mac.transmit",
    "adversary.hooks",
    "coding.emit",
    "coding.receive",
    "store.put",
    "store.get",
)
_INDEX = {name: i for i, name in enumerate(LAYER_NAMES)}

#: adversary hooks the channel calls each round
ADVERSARY_HOOKS = ("begin_round", "sender_mask", "edge_alive", "receiver_mask")

_clock = time.perf_counter


class SpanRecorder:
    """In-memory spans plus per-layer self time and call counts.

    Recording happens only while :attr:`enabled` is true, so the
    benchmark's own checks between timed passes leave no spans.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.self_s = [0.0] * len(LAYER_NAMES)
        self.calls = [0] * len(LAYER_NAMES)
        #: total (not self) duration of every ``runner.run`` span
        self.run_s: list[float] = []
        self.store_hits = 0
        self.innovative = 0
        self.trace_keys: list[str] = []
        self._trace_of: dict[int, int] = {}
        self._key_trace: dict[str, int] = {}
        # open spans: [span index, start, child time, layer, trace id]
        self._stack: list[list] = []
        self.layer = array("h")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.trace = array("i")

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Record nothing inside the block (the benchmark's own checks)."""
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    def register(self, scenarios) -> None:
        """Give each scenario its cache key's trace id."""
        for scenario in scenarios:
            key = scenario.cache_key()
            if key not in self._key_trace:
                self._key_trace[key] = len(self.trace_keys)
                self.trace_keys.append(key)
            self._trace_of[id(scenario)] = self._key_trace[key]

    def trace_of_scenario(self, scenario) -> int:
        return self._trace_of.get(id(scenario), -1)

    def trace_of_key(self, key) -> int:
        return self._key_trace.get(key, -1)

    def enter(self, layer: int, trace: int = -1) -> None:
        stack = self._stack
        if stack:
            top = stack[-1]
            parent = top[0]
            if trace < 0:
                trace = top[4]
        else:
            parent = -1
        index = len(self.start)
        now = _clock()
        self.layer.append(layer)
        self.start.append(now)
        self.end.append(0.0)
        self.parent.append(parent)
        self.trace.append(trace)
        stack.append([index, now, 0.0, layer, trace])

    def exit(self) -> float:
        """Close the innermost span; returns its duration."""
        now = _clock()
        index, start, child, layer, _ = self._stack.pop()
        self.end[index] = now
        duration = now - start
        self.self_s[layer] += duration - child
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def save(self, path) -> int:
        """Write every span to ``path`` (``.npz``); returns the count."""
        import numpy as np

        np.savez(
            path,
            layer_names=np.array(LAYER_NAMES),
            trace_keys=np.array(self.trace_keys, dtype="U64"),
            layer=np.frombuffer(self.layer, dtype=np.int16),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            trace=np.frombuffer(self.trace, dtype=np.int32),
        )
        return len(self.start)


def _timed(
    recorder: SpanRecorder,
    layer: str,
    fn: Callable,
    trace_of: Optional[Callable] = None,
    observe: Optional[Callable] = None,
) -> Callable:
    """``fn`` recording one ``layer`` span per call.

    ``trace_of(args)`` picks the span's trace id (default: the parent's);
    ``observe(result, duration)`` sees each call's outcome.
    """
    index = _INDEX[layer]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.enabled:
            return fn(*args, **kwargs)
        recorder.enter(index, trace_of(args) if trace_of is not None else -1)
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = recorder.exit()
        if observe is not None:
            observe(result, duration)
        return result

    return wrapper


def _targets(recorder: SpanRecorder) -> list[tuple[object, str, Callable]]:
    """(owner, attribute, wrapper factory) for every wrapped entry point."""
    import repro
    import repro.runner
    import repro.runner.runner
    from repro.adversary.base import Adversary
    from repro.adversary.registry import all_adversaries
    from repro.coding.rlnc import RLNCEncoder
    from repro.core.engine import Channel, Simulator
    from repro.mac.channel import ContentionChannel
    from repro.runner import RunReport, Scenario
    from repro.store import ResultStore

    def timed(layer, **hooks):
        return lambda fn: _timed(recorder, layer, fn, **hooks)

    def by_scenario(args):
        return recorder.trace_of_scenario(args[0])

    def by_key(args):
        return recorder.trace_of_key(args[1])

    def run_done(report, duration):
        recorder.run_s.append(duration)

    def got(report, duration):
        recorder.store_hits += report is not None

    def received(innovative, duration):
        recorder.innovative += bool(innovative)

    run_hook = timed("runner.run", trace_of=by_scenario, observe=run_done)
    run_wrappers = {}

    def run_once(fn):
        # repro.runner and repro re-export the runner module's function
        # (which run_batch calls): all three names get one wrapper
        if fn not in run_wrappers:
            run_wrappers[fn] = run_hook(fn)
        return run_wrappers[fn]

    targets = [
        (repro.runner.runner, "run", run_once),
        (repro.runner, "run", run_once),
        (repro, "run", run_once),
        (Scenario, "cache_key", timed("runner.cache_key", trace_of=by_scenario)),
        (RunReport, "to_json", timed("runner.canonical_json")),
        (Scenario, "build_network", timed("topologies.build")),
        (Simulator, "run", timed("engine.stop")),
        (Simulator, "step", timed("algorithms.dispatch")),
        (Channel, "transmit", timed("engine.transmit")),
        (ContentionChannel, "transmit", timed("mac.transmit")),
        (RLNCEncoder, "emit", timed("coding.emit")),
        (RLNCEncoder, "receive", timed("coding.receive", observe=received)),
        (ResultStore, "put_many", timed("store.put")),
        (ResultStore, "get", timed("store.get", trace_of=by_key, observe=got)),
    ]
    # each hook only where a class defines it: wrapping an inherited
    # hook on a subclass would add an attribute the class never had
    classes = [Adversary] + [kind.factory for kind in all_adversaries()]
    for cls in dict.fromkeys(classes):
        for hook in ADVERSARY_HOOKS:
            if hook in vars(cls):
                targets.append((cls, hook, timed("adversary.hooks")))
    return targets


@contextlib.contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every layer entry point for the duration of the block.

    Originals are put back on exit, even when the block raises, so the
    traced objects are again the very same function objects afterwards.
    """
    saved: list[tuple[object, str, object]] = []
    try:
        for owner, name, factory in _targets(recorder):
            original = vars(owner)[name]
            saved.append((owner, name, original))
            setattr(owner, name, factory(original))
        yield recorder
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


@contextlib.contextmanager
def recording(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """:func:`instrument` with recording switched on inside the block."""
    with instrument(recorder):
        recorder.enabled = True
        try:
            yield recorder
        finally:
            recorder.enabled = False
