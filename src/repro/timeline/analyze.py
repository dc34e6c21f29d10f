"""Progress analytics over :class:`~repro.timeline.artifact.Timeline`.

The per-bucket columns answer the round-level questions a run report
cannot: how fast the informed wavefront moved (:func:`progress_curve`,
:func:`time_to_fraction`), and where listener-rounds were lost —
collisions vs. sender faults vs. receiver faults
(:func:`loss_attribution`). The per-node first deliveries give the wait
at each hop of a node order (:func:`hop_gaps`). :func:`summarize`
flattens one timeline to scalar metrics, and :func:`aggregate_timelines`
feeds those metrics into an ``analysis.aggregate``-style group-by over
every timeline a :class:`~repro.store.ResultStore` holds, returning a
canonical :class:`~repro.analysis.report.AnalysisReport`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro.timeline.artifact import Timeline

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.report import AnalysisReport
    from repro.store import ResultStore

__all__ = [
    "progress_curve",
    "time_to_fraction",
    "loss_attribution",
    "hop_gaps",
    "summarize",
    "aggregate_timelines",
]

#: the wavefront checkpoints :func:`summarize` reports
SUMMARY_FRACTIONS = ((0.5, "time_to_half"), (0.9, "time_to_90"), (1.0, "time_to_all"))


def _bucket_end_round(timeline: Timeline, index: int) -> int:
    """Last simulated round covered by bucket ``index``."""
    start = timeline.columns["round_start"][index]
    return min(start + timeline.every - 1, timeline.rounds - 1)


def progress_curve(timeline: Timeline) -> list[dict[str, Any]]:
    """The informed wavefront: one point per bucket.

    Each point carries the bucket's last round, the cumulative informed
    count/fraction at that round, and the bucket's delivery activity.
    """
    n = timeline.n
    columns = timeline.columns
    points = []
    for index in range(timeline.buckets):
        informed = columns["informed"][index]
        points.append(
            {
                "round": _bucket_end_round(timeline, index),
                "informed": informed,
                "fraction": informed / n,
                "new_informed": columns["new_informed"][index],
                "deliveries": columns["deliveries"][index],
            }
        )
    return points


def time_to_fraction(timeline: Timeline, fraction: float) -> Optional[int]:
    """First round by whose bucket end ``informed/n >= fraction``.

    ``None`` when the run never got there. Resolution is the bucket
    width: with ``every=k`` the answer is the last round of the earliest
    qualifying bucket.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    threshold = fraction * timeline.n
    for index, informed in enumerate(timeline.columns["informed"]):
        if informed >= threshold:
            return _bucket_end_round(timeline, index)
    return None


def loss_attribution(timeline: Timeline) -> dict[str, Any]:
    """Where listener-rounds went: delivered vs. lost, by cause.

    ``loss_fraction`` is lost receptions over all receptions that would
    have succeeded on a noiseless channel (deliveries + every loss).
    """
    columns = timeline.columns
    deliveries = sum(columns["deliveries"])
    collisions = sum(columns["collisions"])
    sender_faults = sum(columns["sender_faults"])
    receiver_faults = sum(columns["receiver_faults"])
    lost = collisions + sender_faults + receiver_faults
    total = deliveries + lost
    return {
        "broadcasts": sum(columns["broadcasts"]),
        "deliveries": deliveries,
        "collisions": collisions,
        "sender_faults": sender_faults,
        "receiver_faults": receiver_faults,
        "lost": lost,
        "loss_fraction": lost / total if total else 0.0,
    }


def hop_gaps(timeline: Timeline, order: Sequence[int]) -> list[int]:
    """Rounds between consecutive first deliveries along ``order``.

    Gap ``j`` is the wait between ``order[j]`` and ``order[j + 1]`` first
    being delivered to; the walk stops at the first node never delivered
    to (``-1``, which includes the source). Along a path this is the
    per-hop speed of the wavefront, so Lemma 10's stall mechanism shows
    up directly: a faulty hop waits out whole wave periods.

    Raises ``ValueError`` on a reservoir-capped timeline (a
    ``"nodes"`` key: not every node has detail) and when ``order`` shows
    no progress (fewer than two delivered nodes before the first ``-1``).
    """
    if "nodes" in timeline.first_delivery:
        raise ValueError(
            "hop_gaps needs per-node detail for every node; this timeline "
            "keeps a reservoir (raise TimelineConfig.node_detail)"
        )
    rounds = timeline.first_delivery["rounds"]
    times = []
    for v in order:
        if rounds[v] < 0:
            break
        times.append(rounds[v])
    if len(times) < 2:
        raise ValueError("timeline has no progress along the given order")
    return [b - a for a, b in zip(times, times[1:])]


def summarize(timeline: Timeline) -> dict[str, Any]:
    """Flatten one timeline to scalar progress + loss metrics."""
    summary: dict[str, Any] = {
        "n": timeline.n,
        "rounds": timeline.rounds,
        "every": timeline.every,
        "buckets": timeline.buckets,
        "informed": timeline.informed_final,
        "informed_fraction": (
            timeline.informed_final / timeline.n if timeline.n else 0.0
        ),
        "innovative": sum(timeline.columns["innovative"]),
    }
    for fraction, name in SUMMARY_FRACTIONS:
        summary[name] = time_to_fraction(timeline, fraction)
    summary.update(loss_attribution(timeline))
    return summary


#: summarize() keys aggregate_timelines accepts as metrics
_AGGREGATE_METRICS = frozenset(
    {
        "rounds",
        "informed",
        "informed_fraction",
        "innovative",
        "time_to_half",
        "time_to_90",
        "time_to_all",
        "broadcasts",
        "deliveries",
        "collisions",
        "sender_faults",
        "receiver_faults",
        "lost",
        "loss_fraction",
    }
)


def aggregate_timelines(
    store: "ResultStore",
    group_by: Sequence[str] = ("algorithm", "network_n"),
    metrics: Sequence[str] = ("time_to_half", "time_to_90", "rounds"),
    **filters: Any,
) -> "AnalysisReport":
    """Group-by over every stored timeline, ``analysis.aggregate``-style.

    Streams the store's denormalized rows (any :meth:`ResultStore.query`
    filter applies), joins each row's timeline sidecar, summarizes it,
    and reports per-group mean/min/max of the requested metrics plus the
    run count. Rows without a timeline sidecar are skipped (and counted
    in ``summary.skipped``). Returns a canonical
    :class:`~repro.analysis.report.AnalysisReport` of kind
    ``timeline_aggregate``.
    """
    # deferred: repro.analysis / repro.store import the runner stack,
    # which imports the engine, which imports this package
    from repro.analysis.report import AnalysisReport
    from repro.store.store import StoreRow

    for metric in metrics:
        if metric not in _AGGREGATE_METRICS:
            raise ValueError(
                f"unknown timeline metric {metric!r}; "
                f"allowed: {', '.join(sorted(_AGGREGATE_METRICS))}"
            )
    for column in group_by:
        if column not in StoreRow._fields:
            raise ValueError(
                f"unknown group_by column {column!r}; "
                f"allowed: {', '.join(StoreRow._fields)}"
            )

    groups: dict[tuple, dict[str, list]] = {}
    skipped = 0
    matched = 0
    for row in store.iter_rows(**filters):
        timeline = store.get_timeline(row.cache_key)
        if timeline is None:
            skipped += 1
            continue
        matched += 1
        key = tuple(getattr(row, column) for column in group_by)
        bucket = groups.setdefault(key, {metric: [] for metric in metrics})
        summary = summarize(timeline)
        for metric in metrics:
            value = summary[metric]
            if value is not None:
                bucket[metric].append(value)

    columns = list(group_by) + ["runs"]
    for metric in metrics:
        columns += [f"{metric}_mean", f"{metric}_min", f"{metric}_max"]
    rows = []
    for key in sorted(groups, key=lambda k: tuple(str(v) for v in k)):
        row_dict: dict[str, Any] = dict(zip(group_by, key))
        values = groups[key]
        row_dict["runs"] = max(
            (len(values[metric]) for metric in metrics), default=0
        )
        for metric in metrics:
            series = values[metric]
            if series:
                row_dict[f"{metric}_mean"] = sum(series) / len(series)
                row_dict[f"{metric}_min"] = min(series)
                row_dict[f"{metric}_max"] = max(series)
            else:
                row_dict[f"{metric}_mean"] = None
                row_dict[f"{metric}_min"] = None
                row_dict[f"{metric}_max"] = None
        rows.append(row_dict)

    return AnalysisReport(
        kind="timeline_aggregate",
        params={
            "group_by": list(group_by),
            "metrics": list(metrics),
            "filters": {k: v for k, v in sorted(filters.items())},
        },
        columns=tuple(columns),
        rows=rows,
        summary={
            "groups": len(rows),
            "timelines": matched,
            "skipped": skipped,
        },
    )
