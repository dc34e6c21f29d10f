"""Tests for RLNC multi-message broadcast (Lemmas 12-13)."""

import pytest

from repro.algorithms.multi.rlnc_broadcast import (
    RLNCPopulation,
    rlnc_decay_broadcast,
    rlnc_robust_fastbc_broadcast,
)
from repro.core.engine import Simulator
from repro.core.faults import FaultConfig
from repro.topologies.basic import grid, path, star
from repro.topologies.random_graphs import gnp
from repro.util.rng import RandomSource


class TestRLNCDecay:
    def test_faultless_star(self):
        outcome = rlnc_decay_broadcast(star(8), k=4, rng=1)
        assert outcome.success
        assert outcome.k == 4

    def test_faultless_path(self):
        outcome = rlnc_decay_broadcast(path(12), k=4, rng=2)
        assert outcome.success

    def test_faultless_grid(self):
        outcome = rlnc_decay_broadcast(grid(4, 4), k=3, rng=3)
        assert outcome.success

    @pytest.mark.parametrize("faults", [
        FaultConfig.sender(0.3), FaultConfig.receiver(0.3),
    ], ids=str)
    def test_noisy_completes(self, faults):
        outcome = rlnc_decay_broadcast(path(10), k=4, faults=faults, rng=4)
        assert outcome.success

    def test_end_to_end_payload_integrity(self):
        """With payloads on, every node must decode the exact messages."""
        net = star(5)
        k, length = 3, 8
        rng = RandomSource(7)
        messages = [rng.bytes_array(length).tobytes() for _ in range(k)]
        population = RLNCPopulation(net, RandomSource(8), k, length, messages)
        sim = Simulator(net, population, FaultConfig.receiver(0.2), rng=9)
        sim.run(10_000)
        assert sim.all_done()
        for encoder in population.encoders:
            assert encoder.decode_messages() == messages

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            rlnc_decay_broadcast(path(4), k=0)

    def test_rounds_grow_linearly_in_k(self):
        """Lemma 12 shape: the k-dependence is ~k log n."""
        small = rlnc_decay_broadcast(star(16), k=4, rng=9)
        large = rlnc_decay_broadcast(star(16), k=16, rng=9)
        assert small.success and large.success
        # 4x the messages should cost >= 2x the rounds (additive terms
        # shrink the ratio below 4 at this scale)
        assert large.rounds >= 2 * small.rounds

    def test_determinism(self):
        a = rlnc_decay_broadcast(path(8), k=3, rng=11)
        b = rlnc_decay_broadcast(path(8), k=3, rng=11)
        assert a.rounds == b.rounds

    def test_outcome_metrics(self):
        outcome = rlnc_decay_broadcast(path(6), k=2, rng=12)
        assert outcome.rounds_per_message == outcome.rounds / 2
        assert outcome.informed == outcome.total == 6


class TestRLNCRobustFastBC:
    def test_faultless_path(self):
        outcome = rlnc_robust_fastbc_broadcast(path(12), k=3, rng=1)
        assert outcome.success

    def test_noisy_path(self):
        outcome = rlnc_robust_fastbc_broadcast(
            path(12), k=3, faults=FaultConfig.receiver(0.3), rng=2
        )
        assert outcome.success

    def test_noisy_sender_faults(self):
        outcome = rlnc_robust_fastbc_broadcast(
            path(12), k=3, faults=FaultConfig.sender(0.3), rng=3
        )
        assert outcome.success

    def test_gnp(self):
        outcome = rlnc_robust_fastbc_broadcast(
            gnp(24, 0.2, rng=4), k=3, faults=FaultConfig.receiver(0.2), rng=5
        )
        assert outcome.success

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            rlnc_robust_fastbc_broadcast(path(4), k=-1)
