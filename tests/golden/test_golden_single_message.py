"""Golden corpus: pinned report bytes for every registered algorithm.

Each case is a :class:`~repro.runner.Scenario` of ``decay``, ``fastbc``,
``robust_fastbc`` or ``repeated_fastbc`` on a path, grid or gnp network
(n = 16..64) under one loss model: faultless, i.i.d. sender or receiver
faults at p = 0.3, the ``gilbert_elliott``, ``edge_churn`` and
``budgeted_jammer`` adversaries, or the contention channel. A few more
cases cover ``decay_interleave=False``, non-default ``block`` and
``round_multiplier``, a larger ``repeat``, and the timeline recorder.

A second slice pins the remaining algorithms: the ``rlnc_*`` family
(faultless, sender, receiver, one adversary, the contention channel,
payload bytes and the timeline recorder), the ``star_*`` schedules and
the ``single_link_*`` schedules (faultless, sender, receiver).

``single_message.json`` and ``other_algorithms.json`` hold the SHA-256
of each case's canonical report bytes (and, for timeline cases, of its
canonical ``Timeline`` bytes). The test fails on any changed hash: a change that alters
simulated outcomes must bump ``CACHE_KEY_SCHEMA`` and regenerate the
corpus in the same commit, or stored reports would go stale under
unchanged cache keys. Regenerate with::

    PYTHONPATH=src python tests/golden/test_golden_single_message.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core.faults import AdversaryConfig, FaultConfig
from repro.runner import Scenario, run
from repro.runner.registry import all_algorithms
from repro.runner.scenario import CACHE_KEY_SCHEMA
from repro.timeline import TimelineConfig

CORPUS = Path(__file__).with_name("single_message.json")
SLICE_CORPUS = Path(__file__).with_name("other_algorithms.json")

ALGORITHMS = ("decay", "fastbc", "robust_fastbc", "repeated_fastbc")
TOPOLOGIES = (("path", 16), ("grid", 36), ("gnp", 24), ("path", 48), ("grid", 64), ("gnp", 40))
LOSSES = {
    "faultless": {},
    "sender": {"faults": FaultConfig.sender(0.3)},
    "receiver": {"faults": FaultConfig.receiver(0.3)},
    "gilbert_elliott": {"adversary": AdversaryConfig("gilbert_elliott")},
    "edge_churn": {"adversary": AdversaryConfig("edge_churn")},
    "budgeted_jammer": {
        "adversary": AdversaryConfig("budgeted_jammer", {"budget": 20})
    },
    "contention": {"faults": FaultConfig.receiver(0.3), "channel": "contention"},
}


def _cases() -> dict[str, Scenario]:
    cases: dict[str, Scenario] = {}
    index = 0
    for algorithm in ALGORITHMS:
        for loss, fields in LOSSES.items():
            topology, n = TOPOLOGIES[index % len(TOPOLOGIES)]
            cases[f"{algorithm}-{topology}{n}-{loss}"] = Scenario(
                algorithm, topology, {"n": n}, seed=100 + index, **fields
            )
            index += 1
    receiver = LOSSES["receiver"]
    extra = {
        "fastbc-path32-receiver-no-interleave": Scenario(
            "fastbc", "path", {"n": 32}, {"decay_interleave": False}, seed=7, **receiver
        ),
        "robust_fastbc-path32-receiver-no-interleave": Scenario(
            "robust_fastbc", "path", {"n": 32}, {"decay_interleave": False}, seed=8, **receiver
        ),
        "robust_fastbc-path48-sender-block1": Scenario(
            "robust_fastbc", "path", {"n": 48}, {"block": 1}, seed=9,
            faults=FaultConfig.sender(0.3),
        ),
        "robust_fastbc-grid36-receiver-block4-c3": Scenario(
            "robust_fastbc", "grid", {"n": 36}, {"block": 4, "round_multiplier": 3},
            seed=10, **receiver
        ),
        "repeated_fastbc-gnp32-receiver-repeat5": Scenario(
            "repeated_fastbc", "gnp", {"n": 32}, {"repeat": 5}, seed=11, **receiver
        ),
        "decay-path64-receiver": Scenario(
            "decay", "path", {"n": 64}, seed=16, **receiver
        ),
        "fastbc-grid64-sender-no-interleave": Scenario(
            "fastbc", "grid", {"n": 64}, {"decay_interleave": False}, seed=17,
            faults=FaultConfig.sender(0.3),
        ),
        "robust_fastbc-gnp64-edge_churn-block2": Scenario(
            "robust_fastbc", "gnp", {"n": 64}, {"block": 2}, seed=18,
            **LOSSES["edge_churn"]
        ),
        "repeated_fastbc-path24-faultless-repeat1": Scenario(
            "repeated_fastbc", "path", {"n": 24}, {"repeat": 1}, seed=12
        ),
        "decay-grid64-receiver-timeline": Scenario(
            "decay", "grid", {"n": 64}, seed=13, timeline=TimelineConfig(every=1),
            **receiver
        ),
        "robust_fastbc-path32-sender-timeline": Scenario(
            "robust_fastbc", "path", {"n": 32}, seed=14,
            faults=FaultConfig.sender(0.3), timeline=TimelineConfig(every=2),
        ),
        "fastbc-gnp24-jammer-timeline": Scenario(
            "fastbc", "gnp", {"n": 24}, seed=15, timeline=TimelineConfig(every=1),
            **LOSSES["budgeted_jammer"]
        ),
    }
    cases.update(extra)
    return cases


CASES = _cases()

RLNC_ALGORITHMS = ("rlnc_decay", "rlnc_dense_wave", "rlnc_robust_fastbc")
RLNC_LOSSES = ("faultless", "sender", "receiver", "gilbert_elliott", "contention")
SCHEDULES = (
    ("star_routing", "star", 17),
    ("star_coding", "star", 33),
    ("single_link_routing", "single_link", 2),
    ("single_link_nonadaptive", "single_link", 2),
    ("single_link_coding", "single_link", 2),
)
SCHEDULE_LOSSES = ("faultless", "sender", "receiver")


def _slice_cases() -> dict[str, Scenario]:
    cases: dict[str, Scenario] = {}
    index = 0
    for algorithm in RLNC_ALGORITHMS:
        for loss in RLNC_LOSSES:
            topology, n = TOPOLOGIES[index % 3]
            cases[f"{algorithm}-{topology}{n}-{loss}"] = Scenario(
                algorithm, topology, {"n": n}, seed=200 + index, **LOSSES[loss]
            )
            index += 1
    for algorithm, topology, n in SCHEDULES:
        for loss in SCHEDULE_LOSSES:
            cases[f"{algorithm}-{topology}{n}-{loss}"] = Scenario(
                algorithm, topology, {"n": n}, seed=200 + index, **LOSSES[loss]
            )
            index += 1
    cases.update(
        {
            "rlnc_decay-grid36-receiver-payload8-timeline": Scenario(
                "rlnc_decay", "grid", {"n": 36}, {"k": 3, "payload_length": 8},
                seed=230, timeline=TimelineConfig(every=1), **LOSSES["receiver"]
            ),
            "rlnc_robust_fastbc-path24-edge_churn-k6": Scenario(
                "rlnc_robust_fastbc", "path", {"n": 24}, {"k": 6}, seed=231,
                **LOSSES["edge_churn"]
            ),
            "star_coding-star17-receiver-validate": Scenario(
                "star_coding", "star", {"n": 17}, {"k": 6, "validate_decode": True},
                seed=232, max_rounds=200, **LOSSES["receiver"]
            ),
        }
    )
    return cases


SLICE_CASES = _slice_cases()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digest(scenario: Scenario) -> dict[str, str]:
    report = run(scenario)
    digest = {"report": _sha256(report.to_json(canonical=True))}
    if report.timeline is not None:
        digest["timeline"] = _sha256(
            json.dumps(report.timeline, sort_keys=True, separators=(",", ":"))
        )
    return digest


def _load(corpus: Path = CORPUS) -> dict:
    return json.loads(corpus.read_text())


def test_corpus_covers_every_case_under_the_current_schema():
    corpus = _load()
    assert corpus["cache_key_schema"] == CACHE_KEY_SCHEMA
    assert sorted(corpus["cases"]) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_the_golden_hash(name):
    expected = _load()["cases"][name]
    assert _digest(CASES[name]) == expected, name


def test_slice_covers_every_case_under_the_current_schema():
    corpus = _load(SLICE_CORPUS)
    assert corpus["cache_key_schema"] == CACHE_KEY_SCHEMA
    assert sorted(corpus["cases"]) == sorted(SLICE_CASES)


def test_slice_pins_every_registered_algorithm():
    pinned = {scenario.algorithm for scenario in CASES.values()}
    pinned |= {scenario.algorithm for scenario in SLICE_CASES.values()}
    assert pinned == {algorithm.name for algorithm in all_algorithms()}


@pytest.mark.parametrize("name", sorted(SLICE_CASES))
def test_slice_report_bytes_match_the_golden_hash(name):
    expected = _load(SLICE_CORPUS)["cases"][name]
    assert _digest(SLICE_CASES[name]) == expected, name


def _regenerate() -> None:
    for path, cases in ((CORPUS, CASES), (SLICE_CORPUS, SLICE_CASES)):
        corpus = {
            "cache_key_schema": CACHE_KEY_SCHEMA,
            "cases": {name: _digest(cases[name]) for name in sorted(cases)},
        }
        path.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(cases)} cases to {path}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: test_golden_single_message.py --regenerate")
    _regenerate()
