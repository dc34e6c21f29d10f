"""Streaming group-by aggregation over run reports and result stores.

:func:`aggregate` consumes either a :class:`~repro.store.ResultStore`
(streamed through :meth:`~repro.store.ResultStore.iter_rows`, never
loading the store into memory) or any iterable of
:class:`~repro.runner.RunReport` records, groups on scenario dimensions
(algorithm, topology, n, adversary, fault model/probability, seed,
success), and reports per group: count, mean/stddev, percentiles,
success rate with a Wilson interval, and a seeded-bootstrap confidence
interval for the mean of the metric.

Two row sources exist on purpose. The fast path streams the store's
denormalized columns — no JSON parsing — which is what the 50k+ rows/s
aggregation bar in ``BENCH_analysis.json`` measures. Metrics that need
the scenario parameters (``rounds_per_message`` divides by the RLNC
``k``) stream full reports instead and pay the parse.

Determinism: group order is sorted, and each group's bootstrap is seeded
from the caller seed plus the group key, so the same underlying runs
aggregate to byte-identical canonical :class:`AnalysisReport` JSON
regardless of arrival order or store file layout.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterable, Iterator, Mapping, Optional, Sequence, Union

from repro.analysis.report import AnalysisReport
from repro.runner.report import RunReport
from repro.store.store import ResultStore, StoreRow
from repro.util.stats import bootstrap_ci, mean, percentile, stddev, wilson_interval

__all__ = [
    "aggregate",
    "DIMENSIONS",
    "METRICS",
    "rows_from_reports",
]

#: dimensions aggregate() can group on
DIMENSIONS = (
    "algorithm",
    "topology",
    "adversary",
    "fault_model",
    "fault_p",
    "n",
    "seed",
    "success",
)

#: metrics aggregate()/compare()/adaptive_sweep() understand; metrics in
#: _REPORT_METRICS need the full report (scenario params), not just the
#: store's denormalized columns
METRICS = ("rounds", "rounds_per_message", "informed_fraction")
_REPORT_METRICS = frozenset({"rounds_per_message", "informed_fraction"})

Row = Union[StoreRow, Mapping[str, Any]]
Source = Union[ResultStore, Iterable[Any]]


def rows_from_reports(reports: Iterable[RunReport]) -> Iterator[dict[str, Any]]:
    """Full report records -> analysis rows (every dimension + metric)."""
    for report in reports:
        scenario = report.scenario
        faults = scenario.get("faults", {})
        adversary = scenario.get("adversary")
        k = int(scenario.get("params", {}).get("k", 1)) or 1
        yield {
            "algorithm": report.algorithm,
            "topology": str(scenario.get("topology", "")),
            "adversary": adversary["kind"] if adversary else "",
            "fault_model": str(faults.get("model", "none")),
            "fault_p": float(faults.get("p", 0.0)),
            "seed": int(scenario.get("seed", 0)),
            "n": report.network_n,
            "success": bool(report.success),
            "rounds": int(report.rounds),
            "k": k,
            "rounds_per_message": report.rounds / k,
            "informed_fraction": report.informed_fraction,
        }


def _get(row: Row, field: str) -> Any:
    if isinstance(row, StoreRow):
        return row.network_n if field == "n" else getattr(row, field)
    return row[field]


def _iter_source(
    source: Source,
    metric: str,
    filters: Optional[Mapping[str, Any]],
    force_reports: bool = False,
) -> Iterator[Row]:
    """Rows from a store (streamed), reports, or pre-built row mappings.

    ``force_reports`` streams full reports from a store even when the
    metric alone would not require them (callers whose *filters* touch
    scenario params, e.g. compare arms on ``k``).
    """
    filters = dict(filters or {})
    if isinstance(source, ResultStore):
        if force_reports or metric in _REPORT_METRICS:
            yield from rows_from_reports(source.iter_reports(**filters))
        else:
            yield from source.iter_rows(**filters)
        return
    if filters:
        raise ValueError(
            "filters= only applies to ResultStore sources; filter report "
            "iterables before passing them"
        )
    iterator = iter(source)
    try:
        first = next(iterator)
    except StopIteration:
        return
    if isinstance(first, RunReport):
        yield from rows_from_reports(_chain_one(first, iterator))
    else:
        yield first
        yield from iterator


def _chain_one(first: Any, rest: Iterator[Any]) -> Iterator[Any]:
    yield first
    yield from rest


def group_seed(seed: int, key: Sequence[Any], salt: str = "") -> int:
    """A deterministic bootstrap seed for one group, order-independent."""
    payload = json.dumps([seed, salt, list(key)], sort_keys=True, default=str)
    return int.from_bytes(
        hashlib.sha256(payload.encode("utf-8")).digest()[:8], "big"
    )


def _percentile_name(q: float) -> str:
    text = f"{float(q):g}"
    return f"p{text}"


def aggregate(
    source: Source,
    by: Sequence[str] = ("algorithm",),
    metric: str = "rounds",
    percentiles: Sequence[float] = (5.0, 50.0, 95.0),
    confidence: float = 0.95,
    resamples: int = 1000,
    seed: int = 0,
    filters: Optional[Mapping[str, Any]] = None,
) -> AnalysisReport:
    """Group-by aggregation -> a canonical :class:`AnalysisReport`.

    Parameters
    ----------
    source:
        A :class:`~repro.store.ResultStore` (streamed; ``filters`` are
        pushed down to SQL) or an iterable of :class:`RunReport` records
        / pre-built row mappings.
    by:
        Dimensions to group on, any subset of :data:`DIMENSIONS`.
    metric:
        One of :data:`METRICS`; ``rounds_per_message`` normalizes
        multi-message (RLNC) runs by their ``k``.
    percentiles:
        Metric percentiles reported per group.
    confidence / resamples / seed:
        Wilson interval confidence and seeded-bootstrap parameters; the
        per-group bootstrap seed mixes ``seed`` with the group key, so
        results are independent of row order.
    """
    by = tuple(by)
    if not by:
        raise ValueError("by must name at least one dimension")
    unknown = set(by) - set(DIMENSIONS)
    if unknown:
        raise ValueError(
            f"unknown dimensions {sorted(unknown)}; allowed: {DIMENSIONS}"
        )
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; allowed: {METRICS}")

    groups: dict[tuple, list[float]] = {}
    successes: dict[tuple, int] = {}
    scanned = 0
    for row in _iter_source(source, metric, filters):
        key = tuple(_get(row, dimension) for dimension in by)
        values = groups.get(key)
        if values is None:
            values = groups[key] = []
            successes[key] = 0
        values.append(float(_get(row, metric)))
        if _get(row, "success"):
            successes[key] += 1
        scanned += 1

    quantile_names = [_percentile_name(q) for q in percentiles]
    columns = (
        list(by)
        + ["count", "mean", "stddev"]
        + quantile_names
        + ["ci_low", "ci_high", "success_rate", "success_low", "success_high"]
    )
    rows = []
    for key in sorted(groups, key=lambda k: tuple(str(v) for v in k)):
        values = groups[key]
        count = len(values)
        # sort before resampling: the bootstrap indexes into the sample,
        # so this makes the interval a function of the multiset of values
        # rather than their arrival order
        ci_low, ci_high = bootstrap_ci(
            sorted(values),
            confidence=confidence,
            resamples=resamples,
            seed=group_seed(seed, key, salt=metric),
        )
        success_low, success_high = wilson_interval(
            successes[key], count, confidence=confidence
        )
        row = dict(zip(by, key))
        row.update(
            count=count,
            mean=mean(values),
            stddev=stddev(values),
            ci_low=ci_low,
            ci_high=ci_high,
            success_rate=successes[key] / count,
            success_low=success_low,
            success_high=success_high,
        )
        for name, q in zip(quantile_names, percentiles):
            row[name] = percentile(values, float(q))
        rows.append(row)

    return AnalysisReport(
        kind="aggregate",
        params={
            "by": list(by),
            "metric": metric,
            "percentiles": [float(q) for q in percentiles],
            "confidence": confidence,
            "resamples": resamples,
            "seed": seed,
            "filters": dict(filters or {}),
        },
        columns=columns,
        rows=rows,
        summary={
            "title": f"aggregate {metric} by {'/'.join(by)}",
            "rows_scanned": scanned,
            "groups": len(rows),
        },
    )
