"""Spans around the calls the benchmark makes into each layer of the program.

Nothing here changes the program: :func:`instrument` swaps a timing wrapper
in for a public function or method *where its caller looks it up* (for
example ``repro.twopc.spam.blind_dot_products`` as well as the defining
module, because ``spam`` imported the name), and :meth:`Patches.restore`
puts the originals back.  Spans live in memory as tuples and are written
out once, when the run ends.

A span is ``(id, name, start, end, parent id, email id, detail)``.  The
email id of a span comes from the protocol session it runs under (the
workload registers each job's two sessions), or else from its parent span;
batched decrypts serve several emails at once and carry none.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable

#: Spans of the named layers.  Their union over the benchmark's calls into the
#: program is the attributed time; the rest is ``trace.unattributed_share``.
LAYER_SPANS = (
    "packing.dot_products",
    "packing.encrypt_model",
    "blinding",
    "decrypt",
    "bv.keygen",
    "garbled.garble",
    "garbled.evaluate",
    "garbled.decode",
    "ot.ext_sender",
    "ot.ext_receiver",
    "ot.base",
    "wire.encode",
    "wire.decode",
    "fabric.submit",
    "fabric.poll",
    "fabric.drain",
)
#: Protocol-session steps: they attribute spans to emails and bound the
#: serving loop's own time (``runtime.loop_self_ms_per_email``).
SESSION_SPAN = "session"
#: The benchmark's calls into the program: the roots of every tree.
ROOT_PREFIX = "bench."
#: Roots that run the serving loop, whose own time is the loop's self time.
SERVING_ROOTS = tuple(
    ROOT_PREFIX + name for name in ("serve_burst", "poll", "run", "submit_spam")
)


class Spans:
    """In-memory span recorder; :func:`tracing` turns it on for a block."""

    def __init__(self) -> None:
        self.enabled = False
        self.records: list[tuple] = []
        self.session_email: dict[int, int] = {}
        # Registered jobs stay referenced so no session id is reused by a
        # later, unrelated session while the pass runs.
        self._jobs: list[Any] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def register_job(self, job: Any, email_id: int) -> None:
        if self.enabled:
            self._jobs.append(job)
            self.session_email[id(job.client)] = email_id
            self.session_email[id(job.provider)] = email_id

    def call(self, name: str, function: Callable, args: tuple, kwargs: dict,
             email: Any = None, detail: Callable[[tuple, Any], Any] | None = None) -> Any:
        stack = self._stack()
        parent_id, parent_email = stack[-1] if stack else (None, None)
        if email is None:
            email = parent_email
        span_id = next(self._ids)
        stack.append((span_id, email))
        start = time.perf_counter()
        try:
            result = function(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        info = detail(args, result) if detail is not None else None
        self.records.append((span_id, name, start, end, parent_id, email, info))
        return result

    @contextmanager
    def root(self, name: str, emails: int):
        """A call from the benchmark into the program, covering *emails* emails."""
        if not self.enabled:
            yield
            return
        stack = self._stack()
        span_id = next(self._ids)
        stack.append((span_id, None))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.records.append((span_id, ROOT_PREFIX + name, start, end, None, None, emails))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("id", "name", "start", "end", "parent", "email", "detail")
        with path.open("w", encoding="utf-8") as handle:
            json.dump([dict(zip(fields, record)) for record in self.records], handle)


_MISSING = object()


class Patches:
    """Attribute swaps that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def swap(self, owner: Any, name: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.name`` by ``make(original)``; methods stay methods."""
        own = vars(owner).get(name, _MISSING)
        if isinstance(own, (classmethod, staticmethod)):
            replacement: Any = type(own)(make(own.__func__))
        else:
            replacement = make(getattr(owner, name))
        self._undo.append((owner, name, own))
        setattr(owner, name, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, name, own = self._undo.pop()
            if own is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, own)


def _timed(spans: Spans, name: str, detail=None, email_of=None):
    def make(function: Callable) -> Callable:
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            email = email_of(args) if email_of is not None else None
            return spans.call(name, function, args, kwargs, email=email, detail=detail)

        return wrapper

    return make


class BaseOtCounter:
    """Counts base-OT handshakes (each runs one ``BaseOtSenderMachine``).

    Installed on every run, traced or not: the warm workloads must show none
    in their timed phase, and ``cold_mailboxes`` exactly one per op.  The
    warm serving path never reaches the wrapper, so it costs nothing there.
    """

    def __init__(self) -> None:
        self.count = 0
        self.patches = Patches()

    def install(self) -> "BaseOtCounter":
        from repro.crypto.ot import BaseOtSenderMachine

        def make(function: Callable) -> Callable:
            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                self.count += 1
                return function(*args, **kwargs)

            return wrapper

        self.patches.swap(BaseOtSenderMachine, "start", make)
        return self


@contextmanager
def tracing(spans: Spans):
    """Record spans at every layer boundary for the duration of the block."""
    patches = instrument(spans)
    spans.enabled = True
    try:
        yield
    finally:
        spans.enabled = False
        patches.restore()


def instrument(spans: Spans) -> Patches:
    """Wrap every layer boundary the per-layer metrics read."""
    from repro.crypto import yao
    from repro.crypto.bv import BVScheme
    from repro.crypto.ot import PooledIknpReceiverMachine, PooledIknpSenderMachine
    from repro.crypto.packing import PackedLinearModel
    from repro.fabric.control import FabricRuntime
    from repro.twopc import session, spam
    from repro.twopc.session import ProtocolSession
    from repro.twopc.wire import WireCodec

    patches = Patches()
    session_email = spans.session_email

    def email_of_session(args: tuple) -> Any:
        return session_email.get(id(args[0]))

    patches.swap(ProtocolSession, "start", _timed(spans, SESSION_SPAN, email_of=email_of_session))
    patches.swap(ProtocolSession, "handle", _timed(spans, SESSION_SPAN, email_of=email_of_session))
    patches.swap(PackedLinearModel, "dot_products", _timed(spans, "packing.dot_products"))
    patches.swap(PackedLinearModel, "encrypt", _timed(spans, "packing.encrypt_model"))
    patches.swap(BVScheme, "generate_keypair", _timed(spans, "bv.keygen"))
    patches.swap(spam, "blind_dot_products", _timed(spans, "blinding"))
    patches.swap(spam, "initialize_ot_pool", _timed(spans, "ot.base"))
    patches.swap(
        session, "batch_decrypt",
        _timed(spans, "decrypt", detail=lambda args, result: len(args[2])),
    )
    patches.swap(
        yao, "garble",
        _timed(spans, "garbled.garble", detail=lambda args, result: (
            result.tables.size_bytes(), args[0].and_count)),
    )
    patches.swap(yao, "evaluate", _timed(spans, "garbled.evaluate"))
    patches.swap(yao, "decode_outputs", _timed(spans, "garbled.decode"))
    patches.swap(PooledIknpSenderMachine, "handle", _timed(spans, "ot.ext_sender"))
    patches.swap(PooledIknpReceiverMachine, "start", _timed(spans, "ot.ext_receiver"))
    patches.swap(PooledIknpReceiverMachine, "handle", _timed(spans, "ot.ext_receiver"))
    patches.swap(
        WireCodec, "encode",
        _timed(spans, "wire.encode", detail=lambda args, result: len(result)),
    )
    patches.swap(WireCodec, "decode", _timed(spans, "wire.decode"))
    for method in ("submit_spam", "poll", "drain"):
        name = "fabric.submit" if method == "submit_spam" else f"fabric.{method}"
        patches.swap(FabricRuntime, method, _timed(spans, name))
    return patches


# -- turning spans into per-layer numbers ------------------------------------
def _merged(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    merged: list[tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _overlap(first: list[tuple[float, float]], second: list[tuple[float, float]]) -> float:
    """Length of the intersection of two merged interval lists."""
    total, i, j = 0.0, 0, 0
    while i < len(first) and j < len(second):
        low = max(first[i][0], second[j][0])
        high = min(first[i][1], second[j][1])
        total += max(0.0, high - low)
        if first[i][1] < second[j][1]:
            i += 1
        else:
            j += 1
    return total


def summarize(records: list[tuple], window: tuple[float, float]) -> dict[str, Any]:
    """Spans by name inside *window*, and how much of the roots' time they explain.

    Only time inside a benchmark call counts: a layer span on another thread
    between calls (the fabric's control loop, say) explains none of it.
    """
    low, high = window
    inside = [record for record in records if low <= record[2] and record[3] <= high]
    by_name: dict[str, list[tuple]] = {}
    for record in inside:
        by_name.setdefault(record[1], []).append(record)
    roots = [r for r in inside if r[1].startswith(ROOT_PREFIX)]
    serving = _merged([(r[2], r[3]) for r in roots if r[1] in SERVING_ROOTS])
    layer = _merged([(r[2], r[3]) for r in inside if r[1] in LAYER_SPANS])
    loop_children = _merged([
        (r[2], r[3]) for r in inside
        if r[1] in (SESSION_SPAN, "decrypt") or r[1].startswith("fabric.")
    ])
    serving_seconds = sum(end - start for start, end in serving)
    return {
        "by_name": by_name,
        "root_seconds": sum(r[3] - r[2] for r in roots),
        "attributed_seconds": _overlap(layer, _merged([(r[2], r[3]) for r in roots])),
        "loop_self_seconds": serving_seconds - _overlap(loop_children, serving),
    }
