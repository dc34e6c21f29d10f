"""The public API surface: everything advertised resolves and works."""

import pytest

import repro


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_quickstart_snippet(self):
        """The README / docstring quickstart must keep working verbatim."""
        from repro import FaultConfig, decay_broadcast, path

        outcome = decay_broadcast(
            path(64), faults=FaultConfig.receiver(0.3), rng=1
        )
        assert outcome.success
        assert outcome.rounds > 0


class TestChannelValidation:
    def test_invalid_broadcaster_rejected(self):
        from repro import Channel, FaultConfig, path
        from repro.core.errors import SimulationError

        channel = Channel(path(3), FaultConfig.faultless(), rng=0)
        with pytest.raises(SimulationError):
            channel.transmit([99])
        with pytest.raises(SimulationError):
            channel.transmit(["a"])  # type: ignore[list-item]


class TestProtocolContract:
    def test_single_message_protocols_reject_foreign_packets(self):
        from repro.algorithms.decay import DecayProtocol
        from repro.core.errors import ProtocolError
        from repro.core.packets import RSPacket
        from repro.util.rng import RandomSource

        protocol = DecayProtocol(8, RandomSource(0))
        with pytest.raises(ProtocolError):
            protocol.on_receive(0, RSPacket(0), sender=1)


class TestErrorHierarchy:
    def test_all_domain_errors_derive_from_repro_error(self):
        from repro.core.errors import (
            BroadcastTimeout,
            ProtocolError,
            ReproError,
            SimulationError,
            TopologyError,
        )

        for error_type in (
            TopologyError,
            SimulationError,
            ProtocolError,
            BroadcastTimeout,
        ):
            assert issubclass(error_type, ReproError)

    def test_broadcast_timeout_carries_progress(self):
        from repro.core.errors import BroadcastTimeout

        error = BroadcastTimeout(rounds=100, informed=5, total=10)
        assert error.rounds == 100
        assert "5/10" in str(error)
