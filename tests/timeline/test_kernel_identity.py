"""Timelines are kernel-independent: vectorized == scalar, byte for byte.

Extends the channel-equivalence property tests to the flight recorder:
for sampled (algorithm, topology, faults/adversary, seed) configurations
the timeline recorded with the vectorized kernel must render exactly the
bytes the scalar reference kernel produces. The recorder computes every
column as a ChannelCounters delta — counters both kernels maintain
identically — so any divergence here is a kernel bug, not noise.

The same holds one layer up: a run driven by the column population must
record the bytes its per-node reference protocols record.
"""

import pytest

from repro.algorithms import decay, robust_fastbc
from repro.core.engine import Channel
from repro.core.faults import AdversaryConfig, FaultConfig
from repro.runner import Scenario, run
from repro.timeline import TimelineConfig

_CONFIGS = [
    Scenario(
        algorithm="decay",
        topology="gnp",
        topology_params={"n": 24},
        seed=3,
        timeline=TimelineConfig(every=1),
    ),
    Scenario(
        algorithm="decay",
        topology="path",
        topology_params={"n": 16},
        faults=FaultConfig.receiver(0.3),
        seed=7,
        timeline=TimelineConfig(every=2),
    ),
    Scenario(
        algorithm="fastbc",
        topology="star",
        topology_params={"n": 12},
        faults=FaultConfig.sender(0.2),
        seed=11,
        timeline=TimelineConfig(every=1),
    ),
    Scenario(
        algorithm="decay",
        topology="path",
        topology_params={"n": 20},
        adversary=AdversaryConfig(
            "budgeted_jammer",
            {"per_round": 1, "budget": 40, "policy": "frontier"},
        ),
        seed=5,
        timeline=TimelineConfig(every=1),
    ),
    Scenario(
        algorithm="rlnc_decay",
        topology="gnp",
        topology_params={"n": 16},
        params={"k": 2},
        adversary=AdversaryConfig(
            "gilbert_elliott",
            {"p_bad": 0.7, "p_good": 0.05, "p_enter": 0.1, "p_exit": 0.4},
        ),
        seed=13,
        timeline=TimelineConfig(every=1),
    ),
    Scenario(
        algorithm="rlnc_decay",
        topology="grid",
        topology_params={"n": 16},
        params={"k": 2},
        faults=FaultConfig.receiver(0.2),
        seed=17,
        timeline=TimelineConfig(every=3, node_detail=6),
    ),
]


def _run_forced(scenario, monkeypatch, threshold):
    """Run with the auto dispatch pinned to one kernel via its threshold."""
    monkeypatch.setattr(Channel, "VECTORIZE_MIN_WORK", threshold)
    return run(scenario)


@pytest.mark.parametrize(
    "scenario", _CONFIGS, ids=lambda s: f"{s.algorithm}-{s.topology}-s{s.seed}"
)
def test_vectorized_and_scalar_timelines_are_byte_identical(
    scenario, monkeypatch
):
    vectorized = _run_forced(scenario, monkeypatch, 0)
    scalar = _run_forced(scenario, monkeypatch, 10**9)
    assert vectorized.timeline is not None
    assert scalar.timeline is not None
    assert vectorized.timeline == scalar.timeline
    # and the whole canonical report agrees, timeline aside
    assert vectorized.to_json(canonical=True) == scalar.to_json(canonical=True)


def _per_node_decay(network, rng):
    return [
        decay.DecayProtocol(network.n, rng.spawn(), informed=(v == network.source))
        for v in network.nodes()
    ]


_PER_NODE = {
    "decay": (decay, "decay_population", _per_node_decay),
    "robust_fastbc": (
        robust_fastbc,
        "robust_fastbc_population",
        robust_fastbc.make_robust_fastbc_protocols,
    ),
}

_POPULATION_CONFIGS = [
    Scenario(
        algorithm="decay",
        topology="grid",
        topology_params={"n": 36},
        adversary=AdversaryConfig("gilbert_elliott"),
        seed=21,
        timeline=TimelineConfig(every=1),
    ),
    Scenario(
        algorithm="robust_fastbc",
        topology="path",
        topology_params={"n": 24},
        params={"block": 2},
        faults=FaultConfig.receiver(0.3),
        seed=23,
        timeline=TimelineConfig(every=2, node_detail=8),
    ),
]


@pytest.mark.parametrize(
    "scenario", _POPULATION_CONFIGS, ids=lambda s: f"{s.algorithm}-{s.topology}"
)
def test_column_and_per_node_timelines_are_byte_identical(scenario, monkeypatch):
    column = run(scenario)
    module, builder, per_node = _PER_NODE[scenario.algorithm]
    monkeypatch.setattr(module, builder, per_node)
    reference = run(scenario)
    assert column.timeline is not None
    assert column.timeline == reference.timeline
    assert column.to_json(canonical=True) == reference.to_json(canonical=True)
