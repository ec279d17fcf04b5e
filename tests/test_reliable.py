"""Unit tests for the ack/retransmit layer (:mod:`repro.twopc.reliable`).

Chaos runs over full protocols live in ``test_chaos.py``; these tests pin the
reliability mechanics in isolation — header codec, CRC verification, dedup,
in-order reassembly, retransmit-on-timeout, and the give-up bound.
"""

import asyncio

import pytest

from repro.exceptions import (
    ProtocolError,
    ReliabilityError,
    TransportTimeoutError,
    WireFormatError,
)
from repro.obs import scoped_registry
from repro.twopc.reliable import (
    RELIABLE_HEADER,
    TYPE_ACK,
    TYPE_DATA,
    ReliableChannel,
    chaos_channel,
    decode_reliable,
    encode_reliable,
)
from repro.twopc.transport import (
    AsyncFaultyTransport,
    FaultSpec,
    FaultyTransport,
    LoopbackTransport,
)


def _lossy(spec: FaultSpec, parties=("client", "provider")) -> tuple[FaultyTransport, ReliableChannel]:
    faulty = FaultyTransport(LoopbackTransport(parties=parties), spec)
    return faulty, ReliableChannel(faulty)


class TestReliabilityHeader:
    def test_data_frame_round_trip(self):
        blob = encode_reliable(TYPE_DATA, 42, b"payload bytes")
        assert decode_reliable(blob) == (TYPE_DATA, 42, b"payload bytes")

    def test_ack_frame_round_trip(self):
        blob = encode_reliable(TYPE_ACK, 7)
        assert decode_reliable(blob) == (TYPE_ACK, 7, b"")

    def test_header_is_ten_bytes(self):
        assert RELIABLE_HEADER.size == 10
        assert len(encode_reliable(TYPE_ACK, 0)) == 10

    def test_every_flipped_bit_is_detected(self):
        blob = encode_reliable(TYPE_DATA, 3, b"abc")
        for position in range(len(blob) * 8):
            damaged = bytearray(blob)
            damaged[position // 8] ^= 1 << (position % 8)
            with pytest.raises(WireFormatError):
                decode_reliable(bytes(damaged))

    def test_truncated_frame_rejected(self):
        blob = encode_reliable(TYPE_DATA, 1, b"x")
        for cut in range(RELIABLE_HEADER.size):
            with pytest.raises(WireFormatError):
                decode_reliable(blob[:cut])

    def test_unknown_type_rejected(self):
        with pytest.raises(WireFormatError):
            encode_reliable(0x99, 1, b"")

    def test_sequence_must_fit_u32(self):
        with pytest.raises(WireFormatError):
            encode_reliable(TYPE_DATA, 1 << 32, b"")


class TestReliableChannelCleanPipe:
    def test_frames_pass_through_in_order(self):
        _, channel = _lossy(FaultSpec())
        frames = [bytes([index]) * 20 for index in range(10)]
        for frame in frames:
            channel.send("client", frame)
        assert [channel.receive("provider") for _ in frames] == frames

    def test_ledger_counts_payload_bytes_once(self):
        faulty, channel = _lossy(FaultSpec())
        channel.send("client", b"12345")
        channel.receive("provider")
        # The reliable ledger charges the logical payload exactly once; the
        # wire underneath carries the 10-byte header (and the ack).
        assert channel.bytes_by_sender["client"] == 5
        assert faulty.bytes_by_sender["client"] == 15

    def test_empty_receive_raises_timeout_like_bare_transport(self):
        _, channel = _lossy(FaultSpec())
        with pytest.raises(TransportTimeoutError):
            channel.receive("provider")

    def test_invalid_max_attempts_rejected(self):
        with pytest.raises(ProtocolError):
            ReliableChannel(LoopbackTransport(), max_attempts=0)


class TestReliableChannelUnderFaults:
    def test_dropped_frame_is_retransmitted(self):
        faulty, channel = _lossy(FaultSpec(drop_rate=0.5, seed=2))
        frames = [bytes([index]) * 8 for index in range(30)]
        for frame in frames:
            channel.send("client", frame)
            assert channel.receive("provider") == frame
        assert faulty.fault_counts().get("drop", 0) > 0
        assert channel.stats["retransmissions"] > 0

    def test_corrupt_frame_dropped_and_recovered(self):
        faulty, channel = _lossy(FaultSpec(corrupt_rate=0.5, seed=3))
        frames = [bytes([index]) * 8 for index in range(30)]
        for frame in frames:
            channel.send("client", frame)
            assert channel.receive("provider") == frame
        assert faulty.fault_counts().get("corrupt", 0) > 0
        assert channel.stats["corrupt_dropped"] > 0

    def test_duplicates_are_deduplicated(self):
        faulty, channel = _lossy(FaultSpec(duplicate_rate=1.0, seed=4))
        frames = [bytes([index]) * 8 for index in range(10)]
        for frame in frames:
            channel.send("client", frame)
        assert [channel.receive("provider") for _ in frames] == frames
        assert channel.stats["duplicates_dropped"] > 0
        with pytest.raises(TransportTimeoutError):
            channel.receive("provider")  # no ninth frame materialises

    def test_reordered_frames_reassemble_in_order(self):
        faulty, channel = _lossy(FaultSpec(reorder_rate=0.5, seed=5))
        frames = [bytes([index]) * 8 for index in range(30)]
        for frame in frames:
            channel.send("client", frame)
        assert [channel.receive("provider") for _ in frames] == frames
        assert faulty.fault_counts().get("reorder", 0) > 0

    def test_cocktail_bidirectional_ping_pong(self):
        for seed in range(10):
            _, channel = _lossy(FaultSpec.loss_cocktail(0.05, seed=seed))
            for index in range(20):
                ping = b"ping%d" % index
                pong = b"pong%d" % index
                channel.send("client", ping)
                assert channel.receive("provider") == ping
                channel.send("provider", pong)
                assert channel.receive("client") == pong

    def test_gives_up_after_max_attempts(self):
        # A pipe that drops everything: the receiver can never make progress
        # on a frame that was sent, so the layer must raise, not spin.
        faulty, _ = _lossy(FaultSpec())
        inner = LoopbackTransport(parties=("client", "provider"))
        black_hole = FaultyTransport(inner, FaultSpec(drop_rate=1.0, seed=6))
        channel = ReliableChannel(black_hole, max_attempts=4)
        channel.send("client", b"never arrives")
        with pytest.raises(ReliabilityError):
            channel.receive("provider")

    def test_mid_stream_disconnect_surfaces_to_sender(self):
        from repro.exceptions import TransportClosedError

        _, channel = _lossy(FaultSpec(disconnect_after_frames=2, seed=7))
        channel.send("client", b"one")
        channel.send("client", b"two")
        with pytest.raises(TransportClosedError):
            channel.send("client", b"three")


class TestFaultSpecValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(ProtocolError):
            FaultSpec(drop_rate=1.5)
        with pytest.raises(ProtocolError):
            FaultSpec(corrupt_rate=-0.1)

    def test_rates_must_sum_to_at_most_one(self):
        with pytest.raises(ProtocolError):
            FaultSpec(drop_rate=0.6, corrupt_rate=0.6)

    def test_delay_frames_positive(self):
        with pytest.raises(ProtocolError):
            FaultSpec(delay_frames=0)

    def test_loss_cocktail_rates(self):
        spec = FaultSpec.loss_cocktail(0.05, seed=9)
        assert spec.drop_rate == spec.corrupt_rate == 0.05
        assert spec.reorder_rate == spec.duplicate_rate == 0.05
        assert spec.seed == 9


class _AsyncLoopback:
    """The async send convention over an in-process LoopbackTransport."""

    def __init__(self):
        self.inner = LoopbackTransport()
        self.name = self.inner.name

    async def send(self, sender, data):
        return self.inner.send(sender, data)


def _faulty_after_traffic(spec: FaultSpec, wrapper: str):
    """The fault wrapper after 25 client frames (and their acks) went through.

    The sync input is a ReliableChannel over a FaultyTransport.  The async
    input replays the send sequence that FaultyTransport accepted through an
    AsyncFaultyTransport; fault decisions depend on the sender and the frame
    size only, so zero-filled frames of the logged sizes are the same sends.
    """
    faulty, channel = _lossy(spec)
    for index in range(25):
        channel.send("client", bytes([index]) * 12)
        channel.receive("provider")
    if wrapper == "sync":
        return faulty
    replay = AsyncFaultyTransport(_AsyncLoopback(), spec)

    async def send_all():
        for sender, size in faulty.frame_log:
            await replay.send(sender, bytes(size))

    asyncio.run(send_all())
    return replay


#: Both fault wrappers are inputs to every determinism test.
WRAPPERS = ("sync", "async")


class TestFaultDeterminism:
    def _ledger(self, seed: int, wrapper: str):
        return _faulty_after_traffic(FaultSpec.loss_cocktail(0.2, seed=seed), wrapper).fault_log

    def test_same_seed_same_ledger(self):
        # Both wrappers drive one injector: the same seed and the same sends
        # give the same fault events, frame for frame, under either wrapper.
        reference = self._ledger(11, "sync")
        assert reference
        for wrapper in WRAPPERS:
            assert self._ledger(11, wrapper) == reference

    def test_different_seed_different_ledger(self):
        for wrapper in WRAPPERS:
            assert self._ledger(11, wrapper) != self._ledger(12, wrapper)

    def test_ledger_matches_counts(self):
        spec = FaultSpec.loss_cocktail(0.2, seed=13)
        reference = _faulty_after_traffic(spec, "sync").fault_counts()
        for wrapper in WRAPPERS:
            faulty = _faulty_after_traffic(spec, wrapper)
            counts = faulty.fault_counts()
            assert counts == reference
            assert counts == {
                kind: sum(1 for event in faulty.fault_log if event.kind == kind)
                for kind in counts
            }
            assert all(event.size > 0 for event in faulty.fault_log)


def _transport_counters(registry) -> dict[tuple[str, str | None], float]:
    return {
        (entry["name"], entry["labels"].get("party")): entry["value"]
        for entry in registry.snapshot()["counters"]
        if entry["name"].startswith("transport_")
    }


class TestRegistryCountsEachFrameOnce:
    def test_stacked_layers_count_a_frame_once(self):
        with scoped_registry() as registry:
            _, faulty, reliable = chaos_channel(FaultSpec())
            reliable.send("client", b"x" * 100)
            assert reliable.receive("provider") == b"x" * 100
        loopback = faulty.inner
        counters = _transport_counters(registry)
        # Only the loopback moved bytes: a 110-byte DATA frame and a 10-byte ACK.
        assert counters[("transport_bytes_total", "client")] == 110
        assert counters[("transport_bytes_total", "provider")] == 10
        assert loopback.bytes_by_sender == {"client": 110, "provider": 10}
        assert counters[("transport_frames_total", "client")] == 1
        assert counters[("transport_frames_total", "provider")] == 1
        assert counters[("transport_rounds_total", None)] == loopback.rounds() == 2
        # The wrappers keep their own per-instance ledgers.
        assert reliable.bytes_by_sender["client"] == 100
        assert faulty.bytes_by_sender == {"client": 110, "provider": 10}

    def test_bare_loopback_still_feeds_the_registry(self):
        with scoped_registry() as registry:
            LoopbackTransport().send("client", b"x" * 100)
        counters = _transport_counters(registry)
        assert counters[("transport_bytes_total", "client")] == 100
        assert counters[("transport_frames_total", "client")] == 1
