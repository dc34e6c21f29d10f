"""Micro-benchmarks of the library's substrates.

These time the hot paths every experiment leans on: GF(2^8) matrix
multiplication, Reed-Solomon encode/decode, RLNC decoding, and the radio
channel's round resolution. Useful for catching performance regressions
in the simulation core (the experiments above dominate everything else).
"""

import numpy as np

from repro.coding.gf256 import GF256
from repro.coding.matrix import GFMatrix
from repro.coding.reed_solomon import ReedSolomonCode
from repro.coding.rlnc import RLNCDecoder, RLNCEncoder
from repro.core.engine import Channel
from repro.core.faults import FaultConfig
from repro.topologies.basic import star
from repro.util.rng import RandomSource


def test_gf256_matmul_64(benchmark):
    rng = RandomSource(1)
    a = rng.bytes_array(64 * 64).reshape(64, 64)
    b = rng.bytes_array(64 * 64).reshape(64, 64)
    result = benchmark(GF256.matmul, a, b)
    assert result.shape == (64, 64)


def test_gfmatrix_rref_64(benchmark):
    rng = RandomSource(2)
    m = GFMatrix(rng.bytes_array(64 * 64).reshape(64, 64))
    reduced, pivots = benchmark(m.rref)
    assert len(pivots) <= 64


def test_reed_solomon_encode_k32_m128(benchmark):
    rng = RandomSource(3)
    code = ReedSolomonCode(k=32, m=128)
    message = rng.bytes_array(32 * 64).reshape(32, 64)
    coded = benchmark(code.encode_array, message)
    assert coded.shape == (128, 64)


def test_reed_solomon_decode_k32(benchmark):
    rng = RandomSource(4)
    code = ReedSolomonCode(k=32, m=128)
    message = rng.bytes_array(32 * 64).reshape(32, 64)
    coded = code.encode_array(message)
    indices = list(range(64, 96))

    def decode():
        return code.decode_array(indices, coded[indices])

    decoded = benchmark(decode)
    assert np.array_equal(decoded, message)


def test_rlnc_decode_k32(benchmark):
    rng = RandomSource(5)
    messages = [bytes(rng.bytes_array(32).tobytes()) for _ in range(32)]

    def fill_decoder():
        src = RLNCEncoder(k=32, payload_length=32, messages=messages)
        sink = RLNCDecoder(k=32, payload_length=32)
        emit_rng = RandomSource(6)
        while not sink.is_complete():
            sink.receive(src.emit(emit_rng))
        return sink

    sink = benchmark(fill_decoder)
    assert sink.decode_messages() == messages


def test_channel_round_star_1024(benchmark):
    network = star(1024)
    channel = Channel(network, FaultConfig.receiver(0.3), rng=7)
    def round_():
        return channel.transmit([network.source])

    result = benchmark(round_)
    assert result.round_index >= 0
