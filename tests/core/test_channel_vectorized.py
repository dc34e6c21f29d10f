"""Property test: the vectorized channel kernel IS the scalar reference.

Samples random topologies, fault models, probabilities, seeds, and
broadcast sets, and checks that :meth:`Channel.transmit` (vectorized
kernel) and :meth:`Channel.transmit_reference` (scalar kernel) agree
reception-for-reception — same receiver and sender columns in the same
order, same noise and collision receivers, same faulty senders, same
counters. Both kernels
draw fault coins through the same bulk calls, so agreement is exact, not
statistical.
"""

import random

import networkx as nx
import pytest

from repro.core.engine import Channel, RoundResult, Simulator
from repro.core.faults import FaultConfig
from repro.core.network import RadioNetwork
from repro.topologies import basic, random_graphs


def _sample_network(sampler: random.Random, config_index: int) -> RadioNetwork:
    kind = sampler.choice(["gnp", "star", "path", "cycle", "grid", "caterpillar"])
    n = sampler.randint(2, 64)
    if kind == "gnp":
        return random_graphs.gnp(
            max(n, 4), min(1.0, 8.0 / max(n, 4)), rng=config_index
        )
    if kind == "star":
        return basic.star(max(1, n - 1))
    if kind == "cycle":
        return basic.cycle(max(3, n))
    if kind == "grid":
        side = max(2, round(n**0.5))
        return basic.grid(side, side)
    if kind == "caterpillar":
        return basic.caterpillar(max(1, n // 4), 3)
    return basic.path(n)


def _sample_faults(sampler: random.Random) -> FaultConfig:
    p = sampler.uniform(0.01, 0.9)
    return sampler.choice(
        [FaultConfig.faultless(), FaultConfig.sender(p), FaultConfig.receiver(p)]
    )


def _assert_rounds_equal(a, b, context: str) -> None:
    assert a.round_index == b.round_index, context
    assert a.receivers == b.receivers, context
    assert a.senders == b.senders, context
    assert a.noise_receivers == b.noise_receivers, context
    assert a.collision_receivers == b.collision_receivers, context
    assert a.faulty_senders == b.faulty_senders, context


class TestKernelEquivalence:
    def test_vectorized_matches_reference_across_sampled_configs(self):
        """Hypothesis-style loop over >= 50 sampled (topology, faults, seed)
        configurations, several rounds each with random broadcast sets."""
        sampler = random.Random(0xC5E)
        for config_index in range(60):
            network = _sample_network(sampler, config_index)
            faults = _sample_faults(sampler)
            seed = sampler.randrange(2**31)
            vectorized = Channel(network, faults, rng=seed, kernel="vectorized")
            reference = Channel(network, faults, rng=seed)
            context = (
                f"config {config_index}: {network.name} n={network.n} "
                f"faults={faults} seed={seed}"
            )
            for _ in range(8):
                count = sampler.randint(0, network.n)
                broadcasters = sorted(sampler.sample(range(network.n), count))
                got = vectorized.transmit(broadcasters)
                want = reference.transmit_reference(broadcasters)
                _assert_rounds_equal(got, want, context)
            assert vectorized.counters.as_dict() == reference.counters.as_dict(), (
                context
            )

    def test_auto_kernel_matches_reference_on_large_rounds(self):
        """Above the dispatch threshold auto takes the vectorized kernel;
        outcomes must still be identical."""
        network = basic.star(800)
        for seed in range(5):
            auto = Channel(network, FaultConfig.receiver(0.3), rng=seed)
            reference = Channel(network, FaultConfig.receiver(0.3), rng=seed)
            for _ in range(4):
                got = auto.transmit([0])
                want = reference.transmit_reference([0])
                _assert_rounds_equal(got, want, f"seed {seed}")

    def test_forced_kernels_validate(self):
        with pytest.raises(ValueError):
            Channel(basic.path(3), kernel="simd")

    def test_simulator_kernel_passthrough(self):
        sim = Simulator(
            basic.path(2),
            [_NullProtocol(), _NullProtocol()],
            kernel="vectorized",
        )
        assert sim.channel.kernel == "vectorized"


def _run_both(network, rounds, faults=FaultConfig.receiver(0.3), seed=5):
    """Run the same broadcaster lists through a vectorized-kernel and a
    reference channel; assert every round and the counters agree."""
    vectorized = Channel(network, faults, rng=seed, kernel="vectorized")
    reference = Channel(network, faults, rng=seed)
    results = []
    for broadcasters in rounds:
        got = vectorized.transmit(broadcasters)
        want = reference.transmit_reference(broadcasters)
        _assert_rounds_equal(got, want, f"{network.name} {broadcasters[:4]}")
        results.append(got)
    assert vectorized.counters.as_dict() == reference.counters.as_dict()
    return results, vectorized.counters


FAULTS = {
    "faultless": FaultConfig.faultless(),
    "sender": FaultConfig.sender(0.4),
    "receiver": FaultConfig.receiver(0.4),
}


class TestKernelLimits:
    """Inputs at the edges of the vectorized kernel's gather paths."""

    @pytest.mark.parametrize("faults", sorted(FAULTS))
    @pytest.mark.parametrize(
        "network",
        [basic.grid(8, 8), basic.path(40), random_graphs.gnp(50, 0.1, rng=3)],
        ids=["grid", "path", "gnp"],
    )
    def test_every_node_broadcasting(self, network, faults):
        everyone = list(range(network.n))
        results, counters = _run_both(network, [everyone] * 3, FAULTS[faults])
        for result in results:
            assert result.receivers == [] and result.senders == []
            assert result.collision_receivers == []
            assert result.noise_receivers == []
        assert counters.broadcasts == 3 * network.n
        assert counters.deliveries == counters.collisions == 0

    @pytest.mark.parametrize("faults", sorted(FAULTS))
    def test_empty_rounds_draw_nothing(self, faults):
        network = basic.grid(6, 6)
        rounds = [[], list(range(0, 36, 5)), [], [], list(range(1, 36, 3)), []]
        results, counters = _run_both(network, rounds, FAULTS[faults])
        for index in (0, 2, 3, 5):
            assert results[index] == RoundResult(index)
        assert counters.rounds == len(rounds)

    @pytest.mark.parametrize("faults", sorted(FAULTS))
    def test_single_node_network(self, faults):
        network = RadioNetwork(nx.empty_graph(1))
        assert network.padded_neighbors().shape == (1, 0)
        results, counters = _run_both(network, [[0], [], [0]], FAULTS[faults])
        assert all(r.receivers == [] for r in results)
        assert counters.as_dict() == {
            "rounds": 3,
            "broadcasts": 2,
            "deliveries": 0,
            "collisions": 0,
            "sender_faults": counters.sender_faults,
            "receiver_faults": 0,
        }

    @pytest.mark.parametrize("faults", sorted(FAULTS))
    def test_large_star_leaves_broadcasting(self, faults):
        """A skewed star gets no padded table: the CSR gather resolves it."""
        network = basic.star(800)
        assert network.padded_neighbors() is None
        hub = network.source
        leaves = [v for v in network.nodes() if v != hub]
        rounds = [leaves, leaves[:1], leaves[::2], [hub], leaves[-1:]]
        results, _ = _run_both(network, rounds, FAULTS[faults])
        everyone, one, half, hub_only, last = results
        assert everyone.collision_receivers == [hub]
        assert half.collision_receivers == [hub]
        if faults == "faultless":
            assert (one.receivers, one.senders) == ([hub], leaves[:1])
            assert (last.receivers, last.senders) == ([hub], leaves[-1:])
            assert hub_only.receivers == leaves
            assert hub_only.senders == [hub] * len(leaves)

    def test_auto_kernel_matches_reference_on_both_sides_of_threshold(self):
        network = basic.grid(10, 10)
        threshold = Channel.VECTORIZE_MIN_WORK
        few = list(range(threshold // network.max_degree - 1))
        many = list(range(0, 100, 2))
        for broadcasters in (few, many):
            auto = Channel(network, FaultConfig.receiver(0.3), rng=1)
            reference = Channel(network, FaultConfig.receiver(0.3), rng=1)
            _assert_rounds_equal(
                auto.transmit(broadcasters),
                reference.transmit_reference(broadcasters),
                f"{len(broadcasters)} broadcasters",
            )


class _NullProtocol:
    active = False

    def act(self, round_index):
        return None

    def on_receive(self, round_index, packet, sender):
        pass

    def is_done(self):
        return True


class TestCSRAdjacency:
    def test_csr_matches_neighbor_lists(self):
        for seed in range(10):
            network = random_graphs.gnp(40, 0.15, rng=seed)
            assert network.indptr.shape == (network.n + 1,)
            assert network.indices.shape == (2 * network.edge_count,)
            for v in network.nodes():
                start, stop = int(network.indptr[v]), int(network.indptr[v + 1])
                assert tuple(network.indices[start:stop]) == network.neighbors[v]

    def test_padded_table_matches_neighbor_lists(self):
        for network in (
            random_graphs.gnp(40, 0.15, rng=2),
            basic.grid(5, 7),
            basic.path(9),
        ):
            table = network.padded_neighbors()
            assert table.shape == (network.n, network.max_degree)
            assert network.padded_neighbors() is table  # cached
            for v in network.nodes():
                row = [u for u in table[v].tolist() if u != network.n]
                assert tuple(row) == network.neighbors[v]

    def test_skewed_degrees_get_no_padded_table(self):
        assert basic.star(50).padded_neighbors() is None

    def test_csr_single_node(self):
        network = RadioNetwork(nx.empty_graph(1))
        assert list(network.indptr) == [0, 0]
        assert network.indices.size == 0
