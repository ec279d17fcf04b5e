"""Framing property tests: byte-stream transports under adversarial splits.

TCP (and the kernel socket layer under :class:`SocketTransport`) may deliver
a frame one byte at a time, or glue the tail of one frame to the head of the
next.  These tests pin the property that framing is independent of write
splits — every frame is delivered intact and in order no matter how the byte
stream is chopped — and that a closed transport surfaces
:class:`~repro.exceptions.TransportClosedError` rather than a raw ``OSError``.
"""

import asyncio
import socket
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import (
    ProtocolError,
    TransportClosedError,
    TransportTimeoutError,
    WireFormatError,
)
from repro.twopc.transport import (
    FRAME_LENGTH_PREFIX,
    AsyncFramedChannel,
    AsyncTcpTransport,
    FrameAssembler,
    SocketTransport,
)
from repro.twopc.wire import ClassifyResultFrame, FeaturesFrame, WireCodec


def _stream_of(frames):
    return b"".join(FRAME_LENGTH_PREFIX.pack(len(frame)) + frame for frame in frames)


def _chop(data: bytes, cuts) -> list[bytes]:
    """Split *data* at the given positions (any order, duplicates allowed)."""
    positions = sorted({cut % (len(data) + 1) for cut in cuts} | {0, len(data)})
    return [data[a:b] for a, b in zip(positions, positions[1:])]


class TestFrameAssembler:
    @given(
        st.lists(st.binary(max_size=200), max_size=8),
        st.lists(st.integers(min_value=0, max_value=10_000), max_size=32),
    )
    @settings(max_examples=200, deadline=None)
    def test_frames_survive_any_split(self, frames, cuts):
        assembler = FrameAssembler()
        out = []
        for chunk in _chop(_stream_of(frames), cuts):
            out += assembler.feed(chunk)
        assert out == frames
        assert assembler.buffered_bytes() == 0

    def test_one_byte_at_a_time(self):
        frames = [b"", b"x", b"hello world", bytes(range(256))]
        assembler = FrameAssembler()
        out = []
        for byte in _stream_of(frames):
            out += assembler.feed(bytes([byte]))
        assert out == frames

    def test_boundary_straddling_chunk(self):
        # One chunk carries the tail of frame 1 and the head of frame 2.
        stream = _stream_of([b"aaaa", b"bbbb"])
        assembler = FrameAssembler()
        first = assembler.feed(stream[:6])
        assert first == []
        rest = assembler.feed(stream[6:10]) + assembler.feed(stream[10:])
        assert rest == [b"aaaa", b"bbbb"]

    def test_one_mebibyte_frame(self):
        big = bytes(range(256)) * 4096  # 1 MiB
        assembler = FrameAssembler()
        stream = _stream_of([big])
        out = []
        for start in range(0, len(stream), 64 * 1024 - 1):  # misaligned chunks
            out += assembler.feed(stream[start : start + 64 * 1024 - 1])
        assert out == [big]

    def test_hostile_length_prefix_rejected(self):
        assembler = FrameAssembler(max_frame_bytes=1024)
        with pytest.raises(WireFormatError):
            assembler.feed(FRAME_LENGTH_PREFIX.pack(1 << 30))

    def test_zero_length_frames(self):
        assembler = FrameAssembler()
        out = assembler.feed(_stream_of([b"", b"", b"payload", b""]))
        assert out == [b"", b"", b"payload", b""]
        assert assembler.buffered_bytes() == 0

    def test_frame_exactly_at_max_frame_bytes(self):
        limit = 1024
        exactly = bytes(limit)
        assembler = FrameAssembler(max_frame_bytes=limit)
        assert assembler.feed(_stream_of([exactly])) == [exactly]

    def test_frame_one_past_max_frame_bytes(self):
        limit = 1024
        assembler = FrameAssembler(max_frame_bytes=limit)
        with pytest.raises(WireFormatError):
            assembler.feed(FRAME_LENGTH_PREFIX.pack(limit + 1))

    def test_length_prefix_split_across_five_one_byte_feeds(self):
        # The u32 prefix arrives one byte per feed; the fifth feed carries
        # the single payload byte.  No feed may deliver early or misparse.
        stream = _stream_of([b"z"])
        assert len(stream) == 5
        assembler = FrameAssembler()
        deliveries = [assembler.feed(bytes([byte])) for byte in stream]
        assert deliveries[:4] == [[], [], [], []]
        assert deliveries[4] == [b"z"]
        assert assembler.buffered_bytes() == 0


class TestSocketTransportFraming:
    def test_frame_reassembles_from_one_byte_writes(self):
        # Dribble a frame into the transport's raw socket byte by byte while
        # the receiver runs concurrently (one-byte skbs exhaust kernel socket
        # buffers fast); the frame must reassemble despite the segmentation.
        import threading

        transport = SocketTransport(timeout=10.0)
        received: list[bytes] = []
        try:
            payload = bytes(range(200))
            reader = threading.Thread(
                target=lambda: received.append(transport.receive("provider"))
            )
            reader.start()
            raw = transport._sockets["client"]
            for byte in FRAME_LENGTH_PREFIX.pack(len(payload)) + payload:
                raw.sendall(bytes([byte]))
            reader.join(timeout=10.0)
            assert received == [payload]
        finally:
            transport.close()

    def test_two_frames_in_one_write(self):
        transport = SocketTransport(timeout=10.0)
        try:
            raw = transport._sockets["client"]
            raw.sendall(_stream_of([b"first", b"second"]))
            assert transport.receive("provider") == b"first"
            assert transport.receive("provider") == b"second"
        finally:
            transport.close()

    def test_receive_after_close_raises_transport_closed(self):
        transport = SocketTransport()
        transport.close()
        with pytest.raises(TransportClosedError):
            transport.receive("client")
        with pytest.raises(TransportClosedError):
            transport.send("client", b"late")

    def test_peer_hangup_mid_frame_raises_transport_closed(self):
        transport = SocketTransport(timeout=10.0)
        try:
            raw = transport._sockets["client"]
            raw.sendall(FRAME_LENGTH_PREFIX.pack(100) + b"only-part")
            raw.shutdown(socket.SHUT_WR)
            with pytest.raises(TransportClosedError):
                transport.receive("provider")
        finally:
            transport.close()

    def test_hostile_length_prefix_rejected(self):
        transport = SocketTransport(timeout=10.0)
        try:
            transport._sockets["client"].sendall(FRAME_LENGTH_PREFIX.pack(1 << 31))
            with pytest.raises(WireFormatError):
                transport.receive("provider")
        finally:
            transport.close()


class TestReceiveTimeouts:
    """The optional receive deadline: silent peers raise instead of hanging."""

    def test_socket_receive_timeout_raises(self):
        transport = SocketTransport(timeout=10.0)
        try:
            with pytest.raises(TransportTimeoutError):
                transport.receive("provider", timeout_seconds=0.05)
        finally:
            transport.close()

    def test_socket_timeout_is_a_protocol_error(self):
        transport = SocketTransport(timeout=10.0)
        try:
            with pytest.raises(ProtocolError):  # subclass contract
                transport.receive("provider", timeout_seconds=0.05)
        finally:
            transport.close()

    def test_socket_usable_after_timeout(self):
        # The per-call deadline must not poison the socket's default timeout.
        transport = SocketTransport(timeout=10.0)
        try:
            with pytest.raises(TransportTimeoutError):
                transport.receive("provider", timeout_seconds=0.05)
            transport.send("client", b"after the silence")
            assert transport.receive("provider") == b"after the silence"
        finally:
            transport.close()

    def test_socket_timeout_mid_frame_keeps_the_partial_frame(self):
        # A deadline that expires inside a frame must not lose the bytes
        # read so far: the next receive completes the same frame.
        transport = SocketTransport(timeout=10.0)
        try:
            stream = _stream_of([b"split across a timeout", b"next"])
            raw = transport._sockets["client"]
            raw.sendall(stream[:10])
            with pytest.raises(TransportTimeoutError):
                transport.receive("provider", timeout_seconds=0.05)
            raw.sendall(stream[10:])
            assert transport.receive("provider") == b"split across a timeout"
            assert transport.receive("provider") == b"next"
        finally:
            transport.close()

    def test_async_receive_timeout_raises(self):
        async def scenario():
            server, provider, client = await _tcp_pair()()
            try:
                with pytest.raises(TransportTimeoutError):
                    await provider.receive("provider", timeout_seconds=0.05)
                # Still usable afterwards.
                await client.send("client", b"late but fine")
                assert await provider.receive("provider") == b"late but fine"
            finally:
                await client.aclose()
                await provider.aclose()
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())


def _tcp_pair(**kwargs):
    """A connected (server_transport, client_transport) pair on localhost."""

    async def build():
        accepted = asyncio.get_running_loop().create_future()

        async def on_connect(reader, writer):
            accepted.set_result(
                AsyncTcpTransport(reader, writer, local_party="provider", name="tcp-test")
            )
            await asyncio.Event().wait()  # keep the connection open

        server = await asyncio.start_server(on_connect, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        client = await AsyncTcpTransport.connect("127.0.0.1", port, **kwargs)
        return server, await accepted, client

    return build


class TestAsyncTcpTransport:
    def _run(self, coroutine):
        return asyncio.run(coroutine)

    def test_roundtrip_and_accounting(self):
        async def scenario():
            server, provider, client = await _tcp_pair()()
            try:
                await client.send("client", b"hello")
                assert await provider.receive("provider") == b"hello"
                await provider.send("provider", b"world!")
                assert await client.receive("client") == b"world!"
                # Each endpoint sees both directions in its ledger.
                assert client.bytes_by_sender == {"client": 5, "provider": 6}
                assert provider.bytes_by_sender == {"client": 5, "provider": 6}
                assert client.rounds() == provider.rounds() == 2
            finally:
                await client.aclose()
                await provider.aclose()
                server.close()
                await server.wait_closed()

        self._run(scenario())

    def test_frames_survive_one_byte_writes(self):
        async def scenario():
            accepted = asyncio.get_running_loop().create_future()

            async def on_connect(reader, writer):
                accepted.set_result(
                    AsyncTcpTransport(reader, writer, local_party="provider")
                )
                await asyncio.Event().wait()

            server = await asyncio.start_server(on_connect, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            # A raw writer that dribbles the frame one byte at a time.
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            provider = await accepted
            try:
                payload = bytes(range(256)) * 3
                for byte in FRAME_LENGTH_PREFIX.pack(len(payload)) + payload:
                    writer.write(bytes([byte]))
                    await writer.drain()
                assert await provider.receive("provider") == payload
            finally:
                writer.close()
                await provider.aclose()
                server.close()
                await server.wait_closed()

        self._run(scenario())

    def test_one_mebibyte_frame(self):
        async def scenario():
            server, provider, client = await _tcp_pair()()
            big = bytes(range(256)) * 4096  # 1 MiB
            try:
                send = asyncio.create_task(client.send("client", big))
                received = await provider.receive("provider")
                await send
                assert received == big
                assert provider.bytes_by_sender["client"] == len(big)
            finally:
                await client.aclose()
                await provider.aclose()
                server.close()
                await server.wait_closed()

        self._run(scenario())

    def test_receive_on_closed_endpoint_raises_transport_closed(self):
        async def scenario():
            server, provider, client = await _tcp_pair()()
            try:
                await client.aclose()
                with pytest.raises(TransportClosedError):
                    await client.receive("client")
                with pytest.raises(TransportClosedError):
                    await client.send("client", b"late")
                # The peer sees the hangup as a closed transport, not OSError.
                with pytest.raises(TransportClosedError):
                    await provider.receive("provider")
            finally:
                await provider.aclose()
                server.close()
                await server.wait_closed()

        self._run(scenario())

    def test_remote_party_cannot_use_local_endpoint(self):
        async def scenario():
            server, provider, client = await _tcp_pair()()
            try:
                with pytest.raises(ProtocolError):
                    await client.send("provider", b"spoof")
                with pytest.raises(ProtocolError):
                    await provider.receive("client")
            finally:
                await client.aclose()
                await provider.aclose()
                server.close()
                await server.wait_closed()

        self._run(scenario())

    def test_typed_frames_over_async_channel(self):
        async def scenario():
            server, provider, client = await _tcp_pair()()
            codec = WireCodec()
            client_channel = AsyncFramedChannel(client, codec)
            provider_channel = AsyncFramedChannel(provider, codec)
            try:
                sent = FeaturesFrame(((1, 2), (9, 1)))
                size = await client_channel.send("client", sent)
                assert size == len(codec.encode(sent))
                assert await provider_channel.receive("provider") == sent
                await provider_channel.send("provider", ClassifyResultFrame(3))
                assert await client_channel.receive("client") == ClassifyResultFrame(3)
                assert client_channel.total_bytes() == provider_channel.total_bytes()
            finally:
                await client_channel.aclose()
                await provider_channel.aclose()
                server.close()
                await server.wait_closed()

        self._run(scenario())
