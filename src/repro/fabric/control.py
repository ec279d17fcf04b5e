"""The fabric's control plane: versioned frames and the TCP worker link.

``FabricRuntime`` is the :class:`~repro.core.runtime.ShardRouter` — the same
parent-side router :class:`~repro.core.runtime.ShardedRuntime` runs over
pipes — driving N remote agents over TCP links.  The command vocabulary is
literally the same (both ends run a
:class:`~repro.core.runtime.ShardWorkerCore`), only the envelope differs.
Every message on the wire is a :class:`~repro.twopc.wire.ControlFrame`:
a verb byte, the :data:`~repro.twopc.wire.CONTROL_VERSION` stamp both ends
check before trusting a body, and an opaque payload this module pickles —
the parent<->agent link is a trusted deployment channel, like the pipe it
replaces, so rich registration payloads (protocols, setups) ride whole.

The channel stack is ``ControlFrame`` over
:class:`~repro.twopc.reliable.AsyncReliableTransport` over
:class:`~repro.twopc.transport.AsyncTcpTransport` (optionally with an
:class:`~repro.twopc.transport.AsyncFaultyTransport` chaos layer between
them, which the migration-under-chaos tests exploit): commands survive
drops, duplication and reordering, and arrive in order exactly once.

Health and telemetry ride the same link.  Agents push HEARTBEAT beacons
and streamed cumulative METRICS snapshots on configured intervals; a link
keeps only the *latest* snapshot, and the router counts every link it ever
held exactly once, so :meth:`FabricRuntime.aggregated_metrics` can never
double-count a retired or evicted agent.  An agent that stays silent past
``heartbeat_timeout`` (and has no command in flight — a shard deep in a
decrypt burst is busy, not dead) is evicted.
"""

from __future__ import annotations

import asyncio
import pickle
import threading
import time
from typing import Any, Mapping, Sequence

from repro.core.runtime import ShardRouter, scheduler_spec
from repro.exceptions import ProtocolError, WireFormatError
from repro.twopc.reliable import AsyncReliableTransport
from repro.twopc.transport import AsyncFaultyTransport, AsyncTcpTransport, FaultSpec
from repro.twopc.wire import CONTROL_VERSION, ControlFrame, ControlVerb, WireCodec

#: Parties of every control link: the fabric parent dials, the agent serves.
CONTROL_PARTIES = ("parent", "agent")

#: Reliable-layer retry budget on control links.  Much higher than the
#: protocol-channel default: a shard deep in a multi-second decrypt burst
#: legitimately goes quiet (its event loop is busy computing), and the
#: parent's reader must outwait that without declaring the link dead —
#: liveness policy belongs to the heartbeat watchdog, not the retry loop.
CONTROL_MAX_ATTEMPTS = 64

_CODEC = WireCodec()  # control frames never carry ciphertexts; schemeless is fine


def pack_control(verb: int, body: Any) -> bytes:
    """Encode one control message: pickle the body into a versioned frame."""
    return _CODEC.encode(
        ControlFrame(verb=verb, version=CONTROL_VERSION, payload=pickle.dumps(body))
    )


def unpack_control(data: bytes) -> tuple[int, Any]:
    """Decode one control message to ``(verb, body)``.

    Refuses a foreign version *before* unpickling the body — the version
    stamp exists precisely so an endpoint never has to parse a payload
    format it does not speak.
    """
    frame = _CODEC.decode(data)
    if not isinstance(frame, ControlFrame):
        raise ProtocolError(
            f"expected a control frame on the control channel, got {type(frame).__name__}"
        )
    if frame.version != CONTROL_VERSION:
        raise ProtocolError(
            f"control version mismatch: peer speaks v{frame.version}, "
            f"this end speaks v{CONTROL_VERSION}"
        )
    try:
        body = pickle.loads(frame.payload)
    except Exception as error:  # pickle raises a zoo of types on bad bytes
        raise WireFormatError(f"undecodable control payload: {error}") from error
    return frame.verb, body


# -- deterministic metrics projection ----------------------------------------
#
# Serving metrics split into two families: pure *work accounting* (emails,
# decrypt batches, protocol frames — identical however the stream is
# partitioned) and *timing* (decrypt ages, adaptive delays — wall-clock
# noise by nature).  Cross-fabric equivalence is asserted on the first
# family; byte counters are excluded too, because big-integer wire encodings
# vary by a byte when a random group element happens to have leading zeros.
_DETERMINISTIC_COUNTERS = frozenset(
    {
        "emails_served_total",
        "decrypt_batches_total",
        "transport_frames_total",
        "transport_rounds_total",
    }
)
_DETERMINISTIC_HISTOGRAMS = frozenset(
    {
        "decrypt_batch_ciphertexts",
        "window_flush_ciphertexts",
        "window_flush_sessions",
    }
)


def metrics_projection(snapshot: Mapping[str, Any]) -> dict:
    """The partition-invariant slice of a metrics snapshot.

    Two runs that served the same emails — whatever mix of in-box shards and
    remote agents did the serving, and however many migrations happened in
    between — must agree on this projection exactly.  The fabric equivalence
    tests and the ``regress.py --suite fabric`` gate compare these.
    """
    counters: dict[tuple, float] = {}
    for entry in snapshot.get("counters", []):
        if entry["name"] in _DETERMINISTIC_COUNTERS:
            key = (entry["name"], tuple(sorted(entry["labels"].items())))
            counters[key] = counters.get(key, 0) + entry["value"]
    histograms: dict[tuple, dict] = {}
    for entry in snapshot.get("histograms", []):
        if entry["name"] not in _DETERMINISTIC_HISTOGRAMS:
            continue
        key = (entry["name"], tuple(sorted(entry["labels"].items())))
        slot = histograms.setdefault(
            key, {"count": 0, "sum": 0, "counts": [0] * len(entry["counts"])}
        )
        slot["count"] += entry["count"]
        slot["sum"] += entry["sum"]
        for index, bucket in enumerate(entry["counts"]):
            slot["counts"][index] += bucket
    return {
        "counters": counters,
        "histograms": {
            key: dict(value, counts=tuple(value["counts"]))
            for key, value in histograms.items()
        },
    }


class _AgentLink:
    """A worker link to one remote agent over its reliable control channel.

    ``send`` schedules the command's request/reply exchange on the fabric's
    loop thread and returns at once; ``receive`` waits for that exchange —
    so a router fan-out (send to all, then receive from all) serves every
    agent concurrently.  Apart from ``metrics`` (always swapped whole), the
    link's state belongs to the loop thread.
    """

    def __init__(
        self, index: int, transport: AsyncReliableTransport, loop, timeout: float
    ) -> None:
        self.index = index
        self.name = f"agent {index}"
        self.transport = transport
        self.loop = loop
        self.timeout = timeout
        self.alive = True
        self.failure: BaseException | None = None
        self.last_seen = time.monotonic()
        self.metrics: dict | None = None  # latest cumulative snapshot
        self.pid: int | None = None
        self.shard_index: int | None = None
        self.has_checkpoint = False
        self.replies: asyncio.Queue = asyncio.Queue()
        self.lock = asyncio.Lock()  # serializes request/reply on this link
        self.reader: asyncio.Task | None = None
        self.next_seq = 0
        self._exchange: Any = None  # the future of the exchange send() scheduled

    def send(self, command: str, payload: Any) -> None:
        self._exchange = asyncio.run_coroutine_threadsafe(
            self.request(command, payload), self.loop
        )

    def receive(self) -> tuple[str, Any]:
        future, self._exchange = self._exchange, None
        try:
            return future.result(self.timeout)
        except TimeoutError:
            future.cancel()
            raise ProtocolError(
                f"fabric control operation timed out after {self.timeout:.0f}s"
            ) from None

    async def request(self, command: str, payload: Any) -> tuple[str, Any]:
        """One seq-tagged COMMAND and its REPLY's ``(tag, body)``."""
        async with self.lock:
            if not self.alive:
                raise ProtocolError(
                    f"agent {self.index} is gone (attach_replacement can recover it): "
                    f"{self.failure}"
                )
            seq = self.next_seq
            self.next_seq += 1
            await self.transport.send(
                "parent",
                pack_control(
                    ControlVerb.COMMAND,
                    {"seq": seq, "command": command, "payload": payload},
                ),
            )
            while True:
                item = await self.replies.get()
                if item is None:
                    raise ProtocolError(
                        f"agent {self.index} died mid-{command!r} "
                        f"(attach_replacement can recover it): {self.failure}"
                    )
                got_seq, reply = item
                if got_seq == seq:
                    return reply

    async def read_frames(self) -> None:
        """Route every inbound frame of the link (the only receive() caller)."""
        try:
            while True:
                verb, body = unpack_control(await self.transport.receive("parent"))
                self.last_seen = time.monotonic()
                if verb == ControlVerb.REPLY:
                    self.replies.put_nowait(body)
                elif verb == ControlVerb.METRICS:
                    # Streamed scrape: cumulative, so replace — never add.
                    self.metrics = body["metrics"]
                elif verb == ControlVerb.HEARTBEAT:
                    pass  # last_seen is the whole message
                elif verb == ControlVerb.BYE:
                    raise ProtocolError("agent said BYE")
        except asyncio.CancelledError:
            raise
        except BaseException as error:  # noqa: BLE001 — any reader death ends the link
            self.fail(error)

    def fail(self, error: BaseException) -> None:
        """Mark the link dead; its last metrics snapshot stays, counted once."""
        if not self.alive:
            return
        self.alive = False
        self.failure = error
        self.replies.put_nowait(None)  # wake any request waiting on this link
        self.transport.close()

    async def retire(self) -> None:
        if self.alive:
            try:
                await self.transport.send("parent", pack_control(ControlVerb.BYE, {}))
            except BaseException:  # noqa: BLE001 — retirement is best-effort
                pass
        self.fail(ProtocolError(f"agent {self.index} retired"))
        if self.reader is not None:
            self.reader.cancel()


class FabricRuntime(ShardRouter):
    """Drive remote TCP agents with the same router the in-box runtime uses.

    *endpoints* name the agents: ``(host, port)`` pairs or any object with
    ``host``/``port`` attributes (an
    :class:`~repro.fabric.agent.AgentProcess` qualifies).  The mailbox hash
    space is split into ``len(endpoints)`` **slots** — the same
    :func:`~repro.core.runtime.shard_of_address` partition the in-box
    runtime uses — and the slot→agent routing table is *mutable*: live
    migration (:meth:`migrate_agent`) redirects a slot to a different agent
    mid-stream with its open windows intact.

    The drive API (``register_spam``/``submit_spam``/``drain``/
    ``take_result``/…) is :class:`~repro.core.runtime.ShardRouter`'s, over
    TCP links instead of pipes, so
    :meth:`~repro.core.system.PretzelSystem.drain_all_mailboxes_sharded`
    accepts either runtime via its ``runtime=`` parameter.  Network plumbing
    lives on a private asyncio loop thread; the public surface is
    synchronous.
    """

    def __init__(
        self,
        endpoints: Sequence[Any],
        window_bursts: int = 1,
        max_pending_ciphertexts: int | None = None,
        max_delay_seconds: float | None = None,
        adaptive: bool = False,
        adaptive_options: Mapping[str, Any] | None = None,
        heartbeat_interval: float = 0.25,
        heartbeat_timeout: float = 30.0,
        metrics_interval: float = 0.2,
        request_timeout: float = 300.0,
        connect_timeout: float = 10.0,
        fault_spec: FaultSpec | None = None,
    ) -> None:
        if not endpoints:
            raise ProtocolError("a fabric runtime needs at least one agent")
        # The router's incarnation is shared by every agent of this fabric: a
        # checkpoint taken on host A is admissible on host B (migration),
        # while blobs from an earlier parent are still refused.
        super().__init__(len(endpoints))
        self._scheduler_spec = scheduler_spec(
            window_bursts, max_pending_ciphertexts, max_delay_seconds, adaptive, adaptive_options
        )
        self.num_slots = len(endpoints)
        self._heartbeat_interval = heartbeat_interval
        self._heartbeat_timeout = heartbeat_timeout
        self._metrics_interval = metrics_interval
        self._request_timeout = request_timeout
        self._connect_timeout = connect_timeout
        self._fault_spec = fault_spec
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="fabric-control", daemon=True
        )
        self._thread.start()
        try:
            for endpoint in endpoints:
                self._install(self._connect(len(self._links), endpoint))
            self._keepalive_task = asyncio.run_coroutine_threadsafe(
                self._keepalive(), self._loop
            )
        except BaseException:
            self._shutdown_loop()
            raise

    # -- loop plumbing -------------------------------------------------------
    def _run(self, coro, timeout: float | None = None):
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        try:
            return future.result(timeout or self._request_timeout)
        except TimeoutError:
            future.cancel()
            raise ProtocolError(
                f"fabric control operation timed out after "
                f"{timeout or self._request_timeout:.0f}s"
            ) from None

    def _shutdown_loop(self) -> None:
        async def _reap_tasks() -> None:
            me = asyncio.current_task()
            others = [task for task in asyncio.all_tasks() if task is not me]
            for task in others:
                task.cancel()
            await asyncio.gather(*others, return_exceptions=True)

        try:
            asyncio.run_coroutine_threadsafe(_reap_tasks(), self._loop).result(5.0)
        except Exception:  # noqa: BLE001 — shutdown is best-effort
            pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        # run_forever has returned; a close() on a live loop would raise.
        if not self._loop.is_running():
            self._loop.close()

    # -- link lifecycle ------------------------------------------------------
    def _connect(self, index: int, endpoint: Any) -> _AgentLink:
        if hasattr(endpoint, "host") and hasattr(endpoint, "port"):
            host, port = endpoint.host, endpoint.port
        else:
            host, port = endpoint
        return self._run(self._aconnect(index, host, port))

    async def _aconnect(self, index: int, host: str, port: int) -> _AgentLink:
        tcp = await asyncio.wait_for(
            AsyncTcpTransport.connect(
                host,
                port,
                local_party="parent",
                parties=CONTROL_PARTIES,
                name=f"fabric[{index}]",
                timeout=self._connect_timeout,
            ),
            self._connect_timeout,
        )
        inner: Any = tcp
        if self._fault_spec is not None:
            inner = AsyncFaultyTransport(tcp, self._fault_spec, name=f"fabric-chaos[{index}]")
        transport = AsyncReliableTransport(
            inner, name=f"fabric-link[{index}]", max_attempts=CONTROL_MAX_ATTEMPTS
        )
        link = _AgentLink(index, transport, self._loop, self._request_timeout)
        await transport.send(
            "parent",
            pack_control(
                ControlVerb.HELLO,
                {
                    "version": CONTROL_VERSION,
                    "incarnation": self._incarnation,
                    "scheduler_spec": self._scheduler_spec,
                    "agent_index": index,
                    "heartbeat_interval": self._heartbeat_interval,
                    "metrics_interval": self._metrics_interval,
                    "parent_timeout": max(self._heartbeat_timeout * 4, 60.0),
                },
            ),
        )
        verb, body = unpack_control(
            await transport.receive("parent", timeout_seconds=self._connect_timeout)
        )
        if verb == ControlVerb.BYE:
            raise ProtocolError(
                f"agent at {host}:{port} refused registration: "
                f"{body.get('error', 'no reason given')}"
            )
        if verb != ControlVerb.HELLO:
            raise ProtocolError(
                f"agent at {host}:{port} broke the HELLO handshake (verb 0x{verb:02x})"
            )
        if body.get("version") != CONTROL_VERSION:
            raise ProtocolError(
                f"agent at {host}:{port} speaks control v{body.get('version')}, "
                f"this parent speaks v{CONTROL_VERSION}"
            )
        link.pid = body.get("pid")
        link.shard_index = body.get("shard_index")
        link.has_checkpoint = bool(body.get("has_checkpoint"))
        link.last_seen = time.monotonic()
        link.reader = asyncio.get_running_loop().create_task(link.read_frames())
        return link

    async def _keepalive(self) -> None:
        """Parent-side heartbeats out, liveness policy in.

        Outbound beacons keep an idle agent's reliable receive loop fed (its
        retry budget measures silence, and silence is normal between
        bursts); the timeout check evicts an agent that has said nothing for
        ``heartbeat_timeout`` — unless a command is in flight, because a
        shard mid-burst is compute-bound, not gone.
        """
        beacon = pack_control(ControlVerb.HEARTBEAT, {})
        while True:
            await asyncio.sleep(self._heartbeat_interval)
            now = time.monotonic()
            for link in self._links:
                if not link.alive or link.lock.locked():
                    continue
                if now - link.last_seen > self._heartbeat_timeout:
                    link.fail(
                        ProtocolError(
                            f"agent {link.index} unheard from for "
                            f"{now - link.last_seen:.1f}s (> {self._heartbeat_timeout}s)"
                        )
                    )
                    continue
                try:
                    await link.transport.send("parent", beacon)
                except BaseException as error:  # noqa: BLE001
                    link.fail(error)

    # -- agent membership ----------------------------------------------------
    def attach_agent(self, endpoint: Any) -> int:
        """Connect one more agent (owning no slots yet); returns its index.

        The standard migration target: spawn a fresh agent, attach it, then
        :meth:`migrate_agent` a hash range onto it.
        """
        if self._closed:
            raise ProtocolError("the fabric runtime is closed")
        return self._install(self._connect(len(self._links), endpoint))

    def attach_replacement(self, index: int, endpoint: Any) -> int:
        """Rebuild a dead agent position from a fresh process; resubmit gaps.

        The cross-host twin of :meth:`ShardedRuntime.restart_shard`: replay
        the position's registrations (OT pools deferred when a checkpoint
        will cover them), restore from the agent's *own* on-disk log — the
        replacement must be launched with the dead agent's checkpoint
        directory and shard index — then resubmit whatever the checkpoint
        did not cover.  Returns the number of resubmitted emails; ``0``
        means every in-flight email resumed from its snapshot.
        """
        old = self._link(index)
        if old.alive:
            # On the loop thread, ahead of the connect below (FIFO).
            self._loop.call_soon_threadsafe(
                old.fail, ProtocolError("replaced by attach_replacement")
            )
        fresh = self._connect(index, endpoint)
        if fresh.shard_index != old.shard_index:
            self._run(fresh.retire())
            raise ProtocolError(
                f"replacement for agent {index} serves shard {fresh.shard_index}, "
                f"expected {old.shard_index} (checkpoints would not line up)"
            )
        self._install(fresh, index)
        return self._recover(index, self._slots_of(index), fresh.has_checkpoint)

    def retire_agent(self, index: int) -> None:
        """Say BYE to one agent; its final metrics stay counted once.

        The agent must not own any slots (migrate them away first) — retiring
        a serving agent would orphan its mailboxes.
        """
        if self._slots_of(index):
            raise ProtocolError(
                f"agent {index} still owns slots {sorted(self._slots_of(index))}; "
                "migrate them away before retiring it"
            )
        self._run(self._link(index).retire())

    def agent_alive(self, index: int) -> bool:
        return self._link(index).alive

    def agent_pid(self, index: int) -> int:
        """The OS pid the agent announced in HELLO (crash drills kill this)."""
        pid = self._link(index).pid
        if pid is None:
            raise ProtocolError(f"agent {index} never completed its HELLO")
        return pid

    def slot_owners(self) -> list[int]:
        """Routing table copy: ``slot -> agent index``, one entry per slot."""
        return list(self._slot_owner)

    # -- migration -----------------------------------------------------------
    def migrate_agent(self, source: int, target: int) -> int:
        """Move every slot *source* owns onto *target*, live; retire *source*.

        ::

            source agent                parent                       target agent
            ────────────                ──────                       ────────────
            serving ──checkpoint──▶ quiesced          │
                 (blob: open windows +  │  replay registrations ──▶  pools deferred
                  parked sessions,      │  restore(blob) ─────────▶  windows resumed
                  final metrics,        │  ensure_pools ──────────▶  pools backfilled
                  stray results)        │  redirect slots source→target
                                        │  resubmit anything the blob missed
                          ◀────BYE──────┤  source metrics stay counted once
               exits

        The ``checkpoint`` command quiesces the source *before* serializing,
        so the blob and the final metrics snapshot are a consistent cut: no
        idle tick can fire a window the target is about to resume, which is
        what makes the "every email served exactly once" accounting hold.
        The blob is admissible on the target because every agent of one
        fabric shares the parent's incarnation.  Resumed sessions restart
        bit-identically mid-protocol (same OT pads, same window cursors).

        Returns the number of emails that had to be *resubmitted* on the
        target (not covered by the checkpoint); ``0`` means the whole
        in-flight window state moved.
        """
        if source == target:
            raise ProtocolError("cannot migrate an agent onto itself")
        source_link = self._link(source)
        if not source_link.alive:
            raise ProtocolError(
                f"agent {source} is dead — use attach_replacement, not migrate"
            )
        if not self._link(target).alive:
            raise ProtocolError(f"migration target agent {target} is dead")
        slots = self._slots_of(source)
        if not slots:
            raise ProtocolError(f"agent {source} owns no slots; nothing to migrate")
        # Stray finished results and the final cumulative metrics snapshot
        # ride the checkpoint reply, so nothing is stranded on the source.
        blob, _results, _metrics = self._request(source, "checkpoint", None)
        resubmitted = self._recover(target, slots, blob is not None, blob)
        self._run(source_link.retire())
        return resubmitted

    def rebalance(self) -> tuple[int, int, int] | None:
        """Migrate the hottest agent's hash range onto the least-loaded spare.

        Load is ``emails_served_total`` from each agent's latest streamed
        cumulative snapshot — the aggregation the control plane already
        keeps, no extra round trip.  Candidates to receive the range are live
        agents owning *no* slots (freshly attached spares); with no spare, or
        with no load contrast at all, this is a no-op returning ``None``.
        Otherwise returns ``(source, target, resubmitted)``.
        """
        serving = self._serving_indexes()
        spares = [index for index in self._live_indexes() if index not in serving]
        if not spares or not serving:
            return None
        loads: list[tuple[float, int]] = []
        for index in serving:
            snapshot = self._link(index).metrics or {}
            served = sum(
                entry["value"]
                for entry in snapshot.get("counters", [])
                if entry["name"] == "emails_served_total"
            )
            loads.append((served, index))
        served, hottest = max(loads)
        if served <= 0:
            return None  # nobody has served anything; nothing is "hot" yet
        return hottest, spares[0], self.migrate_agent(hottest, spares[0])

    # -- telemetry -----------------------------------------------------------
    def agent_stats(self) -> list[dict[str, Any]]:
        """Per-agent serving stats from every live agent (by agent index)."""
        indexes = self._live_indexes()
        replies = self._fanout([(index, "stats", None) for index in indexes])
        return [
            dict(reply, agent=index, link=self._link(index).transport.stats)
            for index, reply in zip(indexes, replies)
        ]

    # -- shutdown ------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for link in self._links:
            if link.alive:
                try:
                    self._run(link.request("stop", None), timeout=10.0)
                except ProtocolError:
                    pass
        for link in self._links:
            try:
                self._run(link.retire(), timeout=5.0)
            except ProtocolError:
                pass
        self._shutdown_loop()
