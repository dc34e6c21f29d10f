"""Property suite: the column population IS the per-node reference.

Mirrors ``tests/mac/test_parity.py`` for the protocol layer. For sampled
algorithms, topologies, loss models, channels, kernels and algorithm
knobs, two simulators run side by side from the same seeds:

* the reference: one ``DecayProtocol`` / ``FastBCProtocol`` /
  ``RobustFastBCProtocol`` / ``RepeatedFastBCProtocol`` object per node,
  driven through the per-node ``ProtocolPopulation`` adapter;
* the column ``SingleMessagePopulation`` the ``*_broadcast`` entry
  points run.

Every round must produce the same ``RoundResult``; at the end the channel
counters and every node's ``informed_round`` must agree. Both sides draw
node ``v``'s coins from the same spawned child stream, so any divergence
is a schedule or coin-placement bug, not noise.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.decay import DecayProtocol, decay_population
from repro.algorithms.fastbc import fastbc_population, make_fastbc_protocols
from repro.algorithms.repetition import RepeatedFastBCProtocol
from repro.algorithms.robust_fastbc import (
    make_robust_fastbc_protocols,
    robust_fastbc_population,
)
from repro.core.engine import Simulator
from repro.core.faults import AdversaryConfig, FaultConfig
from repro.core.population import ProtocolPopulation
from repro.gbst.gbst import build_gbst
from repro.mac import MacConfig
from repro.topologies import basic, random_graphs
from repro.util.rng import RandomSource

#: rounds compared per example (runs usually finish well before)
MAX_ROUNDS = 1500

_LOSSES = {
    "faultless": (FaultConfig.faultless(), None),
    "sender": (FaultConfig.sender(0.3), None),
    "receiver": (FaultConfig.receiver(0.4), None),
    "gilbert_elliott": (FaultConfig.faultless(), AdversaryConfig("gilbert_elliott")),
    "edge_churn": (FaultConfig.faultless(), AdversaryConfig("edge_churn")),
    "budgeted_jammer": (
        FaultConfig.faultless(),
        AdversaryConfig("budgeted_jammer", {"budget": 20}),
    ),
}


def _network(topology, n, seed):
    if topology == "grid":
        side = max(2, round(n**0.5))
        return basic.grid(side, side)
    if topology == "gnp":
        return random_graphs.gnp(n, min(1.0, 4.0 / n), rng=seed)
    if topology == "star":
        return basic.star(n - 1)
    if topology == "caterpillar":
        return basic.caterpillar(max(2, n // 2), 1)
    return basic.path(n)


def _pair(algorithm, network, seed, knobs):
    """(reference protocols, column population) from the same seed."""
    if algorithm == "decay":
        rng = RandomSource(seed)
        reference = [
            DecayProtocol(network.n, rng.spawn(), informed=(v == network.source))
            for v in network.nodes()
        ]
        return reference, decay_population(network, RandomSource(seed))
    tree = build_gbst(network).tree
    interleave = knobs["decay_interleave"]
    if algorithm == "fastbc":
        return (
            make_fastbc_protocols(
                network, RandomSource(seed), tree=tree, decay_interleave=interleave
            ),
            fastbc_population(
                network, RandomSource(seed), tree=tree, decay_interleave=interleave
            ),
        )
    if algorithm == "repeated_fastbc":
        rng = RandomSource(seed)
        repeat = knobs["repeat"]
        reference = [
            RepeatedFastBCProtocol(
                v, tree, rng.spawn(), repeat, informed=(v == network.source)
            )
            for v in network.nodes()
        ]
        population = fastbc_population(
            network, RandomSource(seed), tree=tree, repeat=repeat
        )
        return reference, population
    wave = {
        "tree": tree,
        "block": knobs["block"],
        "round_multiplier": knobs["round_multiplier"],
        "decay_interleave": interleave,
    }
    return (
        make_robust_fastbc_protocols(network, RandomSource(seed), **wave),
        robust_fastbc_population(network, RandomSource(seed), **wave),
    )


def _assert_rounds_equal(a, b, context):
    assert a.round_index == b.round_index, context
    assert a.receivers == b.receivers, context
    assert a.senders == b.senders, context
    assert a.noise_receivers == b.noise_receivers, context
    assert a.collision_receivers == b.collision_receivers, context
    assert a.faulty_senders == b.faulty_senders, context


@given(
    algorithm=st.sampled_from(["decay", "fastbc", "robust_fastbc", "repeated_fastbc"]),
    topology=st.sampled_from(["path", "grid", "gnp", "star", "caterpillar"]),
    n=st.integers(min_value=2, max_value=40),
    loss=st.sampled_from(sorted(_LOSSES)),
    contention=st.booleans(),
    kernel=st.sampled_from(["auto", "vectorized", "scalar"]),
    knobs=st.fixed_dictionaries(
        {
            "decay_interleave": st.booleans(),
            "block": st.sampled_from([None, 1, 2, 4]),
            "round_multiplier": st.integers(min_value=1, max_value=5),
            "repeat": st.integers(min_value=1, max_value=4),
        }
    ),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=80, deadline=None)
def test_column_population_matches_per_node_reference(
    algorithm, topology, n, loss, contention, kernel, knobs, seed
):
    network = _network(topology, n, seed)
    faults, adversary = _LOSSES[loss]
    reference_protocols, population = _pair(algorithm, network, seed, knobs)
    simulators = [
        Simulator(
            network,
            nodes,
            faults,
            rng=seed + 1,
            kernel=kernel,
            adversary=adversary,
            channel=MacConfig() if contention else None,
        )
        for nodes in (reference_protocols, population)
    ]
    reference, column = simulators
    assert isinstance(reference.population, ProtocolPopulation)
    assert column.population is population
    context = (algorithm, network.name, loss, contention, kernel, knobs, seed)
    for _ in range(MAX_ROUNDS):
        assert reference.all_done() == column.all_done(), context
        assert reference.done_count() == column.done_count(), context
        if column.all_done():
            break
        _assert_rounds_equal(reference.step(), column.step(), context)
    assert reference.counters.as_dict() == column.counters.as_dict(), context
    assert [p.informed_round for p in reference_protocols] == list(
        population.informed_round
    ), context
    assert population.active_nodes() == reference.population.active_nodes()
