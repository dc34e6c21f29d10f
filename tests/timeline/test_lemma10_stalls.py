"""Lemma 10's stall mechanism, read off a run's flight recorder, plus
:func:`repro.timeline.analyze.hop_gaps` itself."""

import pytest

from repro.algorithms.base import ilog2
from repro.core.faults import FaultConfig
from repro.runner import Scenario, run
from repro.timeline import Timeline, TimelineConfig
from repro.timeline.analyze import hop_gaps


def _timeline(first_delivery):
    rounds = first_delivery["rounds"]
    return Timeline(
        n=len(rounds),
        every=1,
        rounds=max(rounds) + 1,
        columns={},
        first_delivery=first_delivery,
    )


def _wave_gaps(n, faults, seed):
    """Hop gaps of a wave-only FASTBC run on an n-node path."""
    report = run(
        Scenario(
            algorithm="fastbc",
            topology="path",
            topology_params={"n": n},
            params={"decay_interleave": False},
            faults=faults,
            seed=seed,
            timeline=TimelineConfig(),
        )
    )
    assert report.success
    # skip node 0->1: the source has no delivery, and the first hop is
    # the wave-alignment start-up (up to one period), not a fault stall
    return hop_gaps(Timeline.from_dict(report.timeline), range(1, n))


class TestHopGaps:
    def test_stops_at_the_first_undelivered_node(self):
        timeline = _timeline({"rounds": (-1, 3, 5, -1, 9)})
        assert hop_gaps(timeline, [1, 2, 3, 4]) == [2]

    def test_follows_the_given_order(self):
        timeline = _timeline({"rounds": (-1, 2, 10, 4)})
        assert hop_gaps(timeline, [1, 3, 2]) == [2, 6]

    def test_gaps_are_differences_of_first_delivery_rounds(self):
        timeline = _timeline({"rounds": (-1, 2, 10, 11)})
        assert hop_gaps(timeline, [1, 2, 3]) == [8, 1]

    def test_empty_order_has_no_progress(self):
        with pytest.raises(ValueError, match="no progress"):
            hop_gaps(_timeline({"rounds": (-1, 4, 6)}), [])

    def test_requires_progress(self):
        with pytest.raises(ValueError, match="no progress"):
            hop_gaps(_timeline({"rounds": (-1, 4)}), [0, 1])

    def test_refuses_a_reservoir_capped_timeline(self):
        capped = _timeline({"nodes": (0, 2), "rounds": (-1, 4)})
        with pytest.raises(ValueError, match="reservoir"):
            hop_gaps(capped, [0, 1])

    def test_refuses_a_capped_run(self):
        report = run(
            Scenario(
                algorithm="decay",
                topology="path",
                topology_params={"n": 12},
                seed=1,
                timeline=TimelineConfig(node_detail=4),
            )
        )
        timeline = Timeline.from_dict(report.timeline)
        assert "nodes" in timeline.first_delivery
        with pytest.raises(ValueError, match="reservoir"):
            hop_gaps(timeline, range(1, 12))


class TestLemma10StallDistribution:
    """The microscopic mechanism of Lemma 10: under faults, the FASTBC
    wave's inter-hop gaps are bimodal — the wave speed (2 rounds) or a
    full wave period (2 * 6 * ilog2(n) rounds)."""

    @pytest.mark.parametrize("seed", range(4))
    def test_wave_gaps_bimodal_under_faults(self, seed):
        n = 128
        gaps = _wave_gaps(n, FaultConfig.receiver(0.4), seed)
        period = 2 * 6 * ilog2(n)  # full wave period in real rounds
        fast_hops = [g for g in gaps if g <= 2]
        stalls = [g for g in gaps if g > period // 2]
        # both modes are populated...
        assert len(fast_hops) > 0.3 * len(gaps)
        assert len(stalls) > 0.1 * len(gaps)
        # ...and every stall is a whole number of wave periods plus the
        # 2-round hop itself: the Lemma 10 mechanism, literally
        for stall in stalls:
            assert (stall - 2) % period == 0, (stall, period)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_faultless_wave_has_no_stalls(self, seed):
        n = 96
        gaps = _wave_gaps(n, FaultConfig.faultless(), seed)
        period = 2 * 6 * ilog2(n)
        assert [g for g in gaps if g > period // 2] == []
