"""Property suite: the vectorized MAC kernel IS the scalar reference.

Mirrors ``tests/core/test_channel_vectorized.py`` for the contention
channel: random topologies, MAC configs, fault models, adversaries, and
offer sets; :meth:`ContentionChannel.transmit` and
:meth:`ContentionChannel.transmit_reference` must agree delivery-for-
delivery and counter-for-counter, because both kernels consume one
identical RNG stream (bulk draws, ascending node order).
"""

import random

import networkx as nx
import pytest

from repro.core.faults import AdversaryConfig, FaultConfig
from repro.core.network import RadioNetwork
from repro.mac import ContentionChannel, MacConfig
from repro.topologies import basic, random_graphs


def _sample_network(sampler, config_index):
    kind = sampler.choice(["gnp", "star", "path", "cycle", "grid"])
    n = sampler.randint(2, 48)
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
    return basic.path(n)


def _sample_config(sampler):
    cw_min = sampler.choice([1, 2, 4, 8, 16])
    cw_max = cw_min * sampler.choice([1, 2, 8])
    capture = sampler.choice([0.0, 0.0, 1.0, 1.5])
    return MacConfig(
        cw_min=cw_min,
        cw_max=cw_max,
        sense=sampler.random() < 0.7,
        capture=capture,
    )


def _sample_noise(sampler):
    """Either an iid FaultConfig or a stateful adversary — the channel
    forbids passing both (iid subsumes FaultConfig)."""
    p = sampler.uniform(0.01, 0.6)
    choice = sampler.choice(
        ["faultless", "sender", "receiver", "gilbert", "jammer"]
    )
    if choice == "sender":
        return FaultConfig.sender(p), None
    if choice == "receiver":
        return FaultConfig.receiver(p), None
    if choice == "gilbert":
        return FaultConfig.faultless(), AdversaryConfig("gilbert_elliott", {})
    if choice == "jammer":
        return FaultConfig.faultless(), AdversaryConfig(
            "budgeted_jammer", {"budget": 8}
        )
    return FaultConfig.faultless(), None


def _assert_rounds_equal(a, b, context):
    assert a.round_index == b.round_index, context
    assert a.receivers == b.receivers, context
    assert a.senders == b.senders, context
    assert a.noise_receivers == b.noise_receivers, context
    assert a.collision_receivers == b.collision_receivers, context
    assert a.faulty_senders == b.faulty_senders, context


class TestMacKernelEquivalence:
    def test_vectorized_matches_reference_across_sampled_configs(self):
        sampler = random.Random(0xAC0FF)
        for config_index in range(40):
            network = _sample_network(sampler, config_index)
            config = _sample_config(sampler)
            faults, adversary = _sample_noise(sampler)
            seed = sampler.randrange(2**31)
            vectorized = ContentionChannel(
                network,
                faults,
                rng=seed,
                kernel="vectorized",
                adversary=adversary,
                config=config,
            )
            reference = ContentionChannel(
                network,
                faults,
                rng=seed,
                kernel="scalar",
                adversary=adversary,
                config=config,
            )
            context = (
                f"config {config_index}: {network.name} n={network.n} "
                f"mac={config} faults={faults} adversary={adversary} "
                f"seed={seed}"
            )
            for _ in range(10):
                count = sampler.randint(0, network.n)
                offers = sorted(sampler.sample(range(network.n), count))
                _assert_rounds_equal(
                    vectorized.transmit(offers),
                    reference.transmit_reference(offers),
                    context,
                )
            assert (
                vectorized.counters.as_dict() == reference.counters.as_dict()
            ), context
            assert (vectorized._backoff == reference._backoff).all(), context
            assert (vectorized._stage == reference._stage).all(), context

    def test_same_seed_runs_are_byte_identical(self):
        def one_run():
            sampler = random.Random(7)
            channel = ContentionChannel(
                basic.grid(5, 5),
                rng=42,
                adversary=AdversaryConfig("gilbert_elliott", {}),
                config=MacConfig(cw_min=2, cw_max=16),
            )
            transcript = []
            for _ in range(30):
                count = sampler.randint(0, 25)
                offers = sorted(sampler.sample(range(25), count))
                result = channel.transmit(offers)
                transcript.append(
                    (
                        tuple(result.receivers),
                        tuple(result.senders),
                        tuple(result.collision_receivers),
                        tuple(result.noise_receivers),
                        tuple(result.faulty_senders),
                    )
                )
            return transcript, channel.counters.as_dict()

        assert one_run() == one_run()


def _run_both(network, rounds, config, faults=FaultConfig.receiver(0.3)):
    vectorized = ContentionChannel(
        network, faults, rng=3, kernel="vectorized", config=config
    )
    reference = ContentionChannel(network, faults, rng=3, config=config)
    for offers in rounds:
        _assert_rounds_equal(
            vectorized.transmit(offers),
            reference.transmit_reference(offers),
            f"{network.name} {offers[:4]}",
        )
    assert vectorized.counters.as_dict() == reference.counters.as_dict()
    assert (vectorized._backoff == reference._backoff).all()
    return vectorized.counters


CONFIGS = {
    "plain": MacConfig(cw_min=1, cw_max=4, sense=False),
    "sensing": MacConfig(cw_min=2, cw_max=8),
    "capture": MacConfig(cw_min=1, cw_max=2, sense=False, capture=1.0),
}


class TestMacKernelLimits:
    """The MAC pipeline at the vectorized kernel's input limits."""

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_everyone_offering(self, config):
        network = basic.grid(6, 6)
        counters = _run_both(network, [list(range(36))] * 6, CONFIGS[config])
        assert counters.mac_offers == 6 * 36

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_empty_slots(self, config):
        network = basic.path(12)
        rounds = [[], [0, 5, 11], [], [], [1, 2, 3], []]
        counters = _run_both(network, rounds, CONFIGS[config])
        assert counters.rounds == len(rounds)
        assert counters.mac_offers == 6

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_single_node_network(self, config):
        network = RadioNetwork(nx.empty_graph(1))
        counters = _run_both(network, [[0], [], [0], [0]], CONFIGS[config])
        assert counters.deliveries == 0

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_large_star_leaves_offering(self, config):
        network = basic.star(800)
        leaves = list(range(1, 801))
        rounds = [leaves, leaves[:1], leaves[::3], [0], leaves[-2:]]
        _run_both(network, rounds, CONFIGS[config])
