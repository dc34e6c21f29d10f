"""The array-based flight recorder the channel feeds.

:class:`TimelineRecorder` accumulates per-round channel statistics into
preallocated numpy buffers — no per-event Python objects on the hot path
(the gap ROADMAP item 3 calls out for million-node runs). The channel's
round epilogue costs one attribute read and one branch when recording is
off (:data:`NULL_TIMELINE`, the default), matching the telemetry
discipline from ``repro.telemetry``.

Rows are *buckets* of ``config.every`` consecutive rounds. A bucket is
flushed lazily — at the first round of the *next* bucket, or at
:meth:`finish` — because some per-round signals arrive after the channel
epilogue: the simulator dispatches deliveries to protocols only after
``transmit`` returns, so RLNC rank progress for round ``r``
(:meth:`note_innovative`) lands while round ``r``'s bucket is still open.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.trace import ChannelCounters
    from repro.timeline.config import TimelineConfig

__all__ = ["TimelineRecorder", "NULL_TIMELINE", "DATA_COLUMNS"]

#: bucket-row columns, in canonical order. ``round_start`` is the first
#: round index of the bucket; ``informed`` is cumulative at bucket end;
#: everything else is a within-bucket sum.
DATA_COLUMNS = (
    "round_start",
    "broadcasts",
    "deliveries",
    "collisions",
    "sender_faults",
    "receiver_faults",
    "new_informed",
    "informed",
    "innovative",
)

_NCOL = len(DATA_COLUMNS)
_ZERO_SNAPSHOT = (0, 0, 0, 0, 0)
_INITIAL_CAPACITY = 256


class _DisabledTimeline:
    """The no-op recorder every channel carries by default.

    Only ``enabled`` is ever read on the hot path; the methods exist so
    call sites outside the guarded branch (protocol hooks) stay safe.
    """

    enabled = False

    def on_round(self, round_index, counters, receivers) -> None:
        return

    def note_innovative(self, count: int = 1) -> None:
        return

    def mark_informed(self, node: int) -> None:
        return


#: module-level singleton: the disabled path never allocates
NULL_TIMELINE = _DisabledTimeline()


class TimelineRecorder:
    """Accumulates one run's per-round flight data into numpy buffers.

    Parameters
    ----------
    n:
        Network size (bounds the per-node arrays).
    config:
        Downsampling policy (bucket width, per-node detail cap).

    Bucket column values are differences of two snapshots of the channel's
    :class:`~repro.core.trace.ChannelCounters` — the counters are
    maintained identically by the vectorized and scalar kernels, so a
    timeline is kernel-independent by construction (the test suite checks
    this byte-for-byte). New-delivery detection is a bulk numpy mask over
    the round's receivers (unique per round by the channel model).
    """

    enabled = True

    def __init__(self, n: int, config: "TimelineConfig") -> None:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        self.n = n
        self.config = config
        self.every = config.every
        self.rounds = 0
        self.first_delivery = np.full(n, -1, dtype=np.int64)
        self._informed_mask = np.zeros(n, dtype=bool)
        self.informed = 0
        # nodes still waiting for their first delivery; once this hits 0
        # with everyone informed, deliveries carry no per-node news and
        # on_round degrades to pure bucket arithmetic
        self._first_pending = n
        self._rows = np.zeros((_INITIAL_CAPACITY, _NCOL), dtype=np.int64)
        self._len = 0
        # ChannelCounters snapshots (broadcasts, deliveries, collisions,
        # sender_faults, receiver_faults): after the latest round, and
        # before the open bucket's first round; a bucket's sums are the
        # difference of the two when it is flushed
        self._last = _ZERO_SNAPSHOT
        self._b_start = _ZERO_SNAPSHOT
        # open bucket
        self._b_open = False
        self._b_index = -1
        self._b_new_informed = 0
        self._b_innovative = 0
        self._finished = False

    # -- producer side (engine / protocols) ---------------------------------

    def mark_informed(self, node: int) -> None:
        """Mark a node informed before any delivery (the source set)."""
        if not self._informed_mask[node]:
            self._informed_mask[node] = True
            self.informed += 1

    def note_innovative(self, count: int = 1) -> None:
        """Credit rank-advancing receptions to the open bucket (RLNC)."""
        self._b_innovative += count

    def on_round(
        self,
        round_index: int,
        counters: "ChannelCounters",
        receivers: Sequence[int],
    ) -> None:
        """Absorb one resolved channel round (the ``_run_round`` epilogue)."""
        bucket = round_index // self.every
        if bucket != self._b_index or not self._b_open:
            if self._b_open:
                self._flush()
            self._b_open = True
            self._b_index = bucket
            self._b_start = self._last
        self.rounds += 1
        self._last = (
            counters.broadcasts,
            counters.deliveries,
            counters.collisions,
            counters.sender_faults,
            counters.receiver_faults,
        )

        if len(receivers) and (self._first_pending or self.informed < self.n):
            receivers = np.asarray(receivers, dtype=np.int64)
            fresh = receivers[self.first_delivery[receivers] < 0]
            if fresh.size:
                self.first_delivery[fresh] = round_index
                self._first_pending -= int(fresh.size)
            new = receivers[~self._informed_mask[receivers]]
            if new.size:
                self._informed_mask[new] = True
                self.informed += int(new.size)
                self._b_new_informed += int(new.size)

    def finish(self) -> None:
        """Flush the open bucket; idempotent, called once the run ends."""
        if self._finished:
            return
        if self._b_open:
            self._flush()
        self._finished = True

    # -- internals -----------------------------------------------------------

    def _flush(self) -> None:
        if self._len == len(self._rows):
            grown = np.zeros((2 * len(self._rows), _NCOL), dtype=np.int64)
            grown[: self._len] = self._rows
            self._rows = grown
        end = self._last
        start = self._b_start
        self._rows[self._len] = (
            self._b_index * self.every,
            end[0] - start[0],
            end[1] - start[1],
            end[2] - start[2],
            end[3] - start[3],
            end[4] - start[4],
            self._b_new_informed,
            self.informed,
            self._b_innovative,
        )
        self._len += 1
        self._b_open = False
        self._b_new_informed = 0
        self._b_innovative = 0

    # -- consumer side --------------------------------------------------------

    def rows(self) -> np.ndarray:
        """The flushed bucket rows, ``(len, len(DATA_COLUMNS))`` int64."""
        return self._rows[: self._len]

    def __len__(self) -> int:
        return self._len
