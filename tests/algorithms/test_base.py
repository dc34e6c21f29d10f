"""Tests for the shared algorithm scaffolding."""

import pytest

from repro.algorithms.base import BroadcastOutcome
from repro.core.trace import ChannelCounters
from repro.util.rng import RandomSource


class TestBroadcastOutcome:
    def test_informed_fraction(self):
        outcome = BroadcastOutcome(
            success=False,
            rounds=10,
            informed=3,
            total=4,
            counters=ChannelCounters(),
        )
        assert outcome.informed_fraction == 0.75

    def test_frozen(self):
        outcome = BroadcastOutcome(
            success=True, rounds=1, informed=1, total=1,
            counters=ChannelCounters(),
        )
        with pytest.raises(AttributeError):
            outcome.rounds = 2  # type: ignore[misc]


class TestIterBernoulli:
    def test_stream(self):
        rng = RandomSource(3)
        stream = rng.iter_bernoulli(0.5)
        draws = [next(stream) for _ in range(100)]
        assert any(draws) and not all(draws)
