"""The workloads: how each sets up, and one timed pass over its inputs.

A workload's ``setup`` builds everything its timed pass needs (model,
corpus, keys, encrypted models, OT pools, agents, warm caches); ``run``
then serves the seeded emails and returns one :class:`Email` per email
attempted, each holding its plaintext reference next to the program's
verdict.  Open-loop workloads time an email from its *scheduled* arrival,
closed-loop ones from the submission of its burst.
"""

from __future__ import annotations

import bisect
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.runtime import MailboxDirectory, ProviderRuntime, spam_job
from repro.crypto.bv import BVParameters, BVScheme
from repro.fabric import launch_fabric
from repro.twopc.spam import SpamFilterProtocol

import inputs
import spec
from layertrace import BaseOtCounter, Spans


@dataclass
class Outcome:
    """What the program returned for one email (a ``*ProtocolResult`` view)."""

    verdict: Any
    provider_seconds: float
    client_seconds: float
    network_bytes: int
    network_messages: int
    network_rounds: int


@dataclass
class Email:
    due: float                      # seconds since the pass began
    reference: Any                  # the plaintext model's verdict
    admitted: float | None = None
    done: float | None = None
    outcome: Outcome | None = None
    error: str | None = None

    @property
    def correct(self) -> bool:
        return self.outcome is not None and self.outcome.verdict == self.reference

    @property
    def succeeded(self) -> bool:
        return (
            self.correct
            and self.done is not None
            and self.done - self.due <= spec.TIMEOUT_S
        )


@dataclass
class Pass:
    """One timed pass: the emails, its wall-clock span, and what the load generator saw."""

    emails: list[Email]
    started: float                  # perf_counter() at the pass's time zero
    wall_s: float                   # time zero to the last verdict
    ended: float = 0.0              # perf_counter() when the pass returned
    bursts: list[int] = field(default_factory=list)
    lags: list[float] = field(default_factory=list)
    base_handshakes: int = 0
    window_ages: list[float] = field(default_factory=list)
    served: float = 0.0             # emails the fabric counted as served
    fabric: dict = field(default_factory=dict)


def _job_outcome(job: Any, verdict: Any) -> Outcome:
    return Outcome(
        verdict=verdict,
        provider_seconds=job.provider.seconds,
        client_seconds=job.client.seconds,
        network_bytes=job.channel.total_bytes(),
        network_messages=job.channel.total_messages(),
        network_rounds=job.channel.rounds(),
    )


def _result_outcome(result: Any) -> Outcome:
    return Outcome(
        verdict=result.is_spam,
        provider_seconds=result.provider_seconds,
        client_seconds=result.client_seconds,
        network_bytes=result.network_bytes,
        network_messages=result.network_messages,
        network_rounds=result.network_rounds,
    )


def _fail(emails: list[Email], ids, error: BaseException) -> None:
    traceback.print_exception(type(error), error, error.__traceback__, file=sys.stderr)
    for index in ids:
        emails[index].error = f"{type(error).__name__}: {error}"


def _spam_protocol() -> SpamFilterProtocol:
    scheme = BVScheme(BVParameters(ring_degree=spec.RING_DEGREE))
    return SpamFilterProtocol(scheme, inputs.dh_group())


class Workload:
    """Common shape: ``setup`` (repeatable), ``run`` (a timed pass), ``close``."""

    name = ""

    def __init__(self, seed: int, seconds: float, base_ots: BaseOtCounter) -> None:
        self.seed = seed
        self.seconds = seconds
        self.base_ots = base_ots
        self.shape = spec.WORKLOADS[self.name]

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, spans: Spans, pass_index: int) -> Pass:
        raise NotImplementedError

    def close(self) -> None:
        """Release what ``setup`` started (processes, sockets)."""

    def _timed(self, body: Callable[[], Pass]) -> Pass:
        before = self.base_ots.count
        result = body()
        result.ended = time.perf_counter()
        result.base_handshakes = self.base_ots.count - before
        return result


# -- open loop ---------------------------------------------------------------
#: How often the generator polls while the program holds unfinished emails.
POLL_TICK_S = 0.002


def open_loop(
    arrivals: list[float],
    emails: list[Email],
    submit: Callable[[list[int]], list[tuple[int, Outcome]]],
    poll: Callable[[], list[tuple[int, Outcome]]],
    outstanding: Callable[[], int],
) -> Pass:
    """Offer every email at its scheduled time, whatever the program's state.

    The generator is this one thread: when it wakes it submits every email
    already due as one burst, so a stall shows up as queueing delay on the
    emails that fell due meanwhile (their latency runs from the schedule).
    """
    result = Pass(emails=emails, started=time.perf_counter(), wall_s=0.0)
    zero = result.started
    last_arrival = arrivals[-1]
    next_index = 0

    def land(landed: list[tuple[int, Outcome]]) -> None:
        now = time.perf_counter() - zero
        for index, outcome in landed:
            emails[index].done = now
            emails[index].outcome = outcome

    while True:
        now = time.perf_counter() - zero
        due_end = bisect.bisect_right(arrivals, now, lo=next_index)
        if due_end > next_index:
            ids = list(range(next_index, due_end))
            next_index = due_end
            for index in ids:
                emails[index].admitted = now
            result.bursts.append(len(ids))
            try:
                land(submit(ids))
            except Exception as error:  # noqa: BLE001 — the emails fail, the run goes on
                _fail(emails, ids, error)
            continue
        if outstanding():
            try:
                land(poll())
            except Exception as error:  # noqa: BLE001
                _fail(emails, [i for i, e in enumerate(emails) if e.done is None], error)
                break
        if next_index >= len(arrivals) and not outstanding():
            break
        if now > last_arrival + spec.TIMEOUT_S:
            break
        target = arrivals[next_index] if next_index < len(arrivals) else now + 0.001
        if outstanding():
            # Keep ticking the program's poll while it holds unfinished work.
            time.sleep(max(0.0, min(target, now + POLL_TICK_S) - now))
            continue
        time.sleep(max(0.0, target - now))
        result.lags.append(time.perf_counter() - zero - target)
    finished = [email.done for email in emails if email.done is not None]
    result.wall_s = max(finished) if finished else time.perf_counter() - zero
    return result


class SpamStream(Workload):
    """Warm spam mailboxes behind one in-process ``ProviderRuntime``."""

    name = "spam_stream"

    def _mailboxes(self) -> None:
        """The spam model, corpus, protocol and mailbox addresses."""
        self.data = inputs.spam_inputs(self.seed)
        self.protocol = _spam_protocol()
        self.addresses = [
            inputs.mailbox_address(self.seed, "spam", index)
            for index in range(self.shape["mailboxes"])
        ]

    def setup(self) -> None:
        self._mailboxes()
        self.directory = MailboxDirectory()
        for address in self.addresses:
            self.directory.register_spam(
                address, self.protocol, self.protocol.setup(self.data.quantized)
            )
        self.runtime = ProviderRuntime()
        self._warm_up()

    def _job(self, address: str, features: dict[int, int], label: Any):
        protocol, setup = self.directory.spam_of(address)
        return spam_job(
            protocol, setup, features, label=label, ot_pool=self.directory.spam_pool_of(address)
        )

    def _warm_up(self) -> None:
        """One email per mailbox, so no timed email pays a first-use cost."""
        warm = [
            (self._job(address, self.data.warmup_emails[index], f"warm-{index}"),
             inputs.spam_reference(self.data.quantized, self.data.warmup_emails[index]))
            for index, address in enumerate(self.addresses)
        ]
        self.runtime.serve_burst([job for job, _ in warm])
        self.runtime.drain()
        for job, reference in warm:
            if job.client.is_spam != reference:
                raise AssertionError(f"warm-up email {job.label} disagrees with the plaintext model")

    def _schedule(self) -> tuple[list[float], list[int], list[dict[int, int]]]:
        arrivals = inputs.poisson_arrivals(self.seed, self.shape["rate_per_s"], self.seconds)
        ranks = inputs.zipf_mailboxes(
            self.seed, self.shape["mailboxes"], self.shape["zipf_exponent"], len(arrivals)
        )
        features = inputs.draw_emails(self.seed, self.data.emails, len(arrivals))
        return arrivals, ranks, features

    def run(self, spans: Spans, pass_index: int) -> Pass:
        arrivals, ranks, features = self._schedule()
        emails = [
            Email(due=due, reference=inputs.spam_reference(self.data.quantized, vector))
            for due, vector in zip(arrivals, features)
        ]
        runtime = self.runtime

        def submit(ids: list[int]) -> list[tuple[int, Outcome]]:
            with spans.root("serve_burst", len(ids)):
                jobs = []
                for index in ids:
                    job = self._job(self.addresses[ranks[index]], features[index], index)
                    spans.register_job(job, index)
                    jobs.append(job)
                finished = runtime.serve_burst(jobs)
            return [(job.label, _job_outcome(job, job.client.is_spam)) for job in finished]

        def poll() -> list[tuple[int, Outcome]]:
            with spans.root("poll", 0):
                finished = runtime.poll()
            return [(job.label, _job_outcome(job, job.client.is_spam)) for job in finished]

        ages_before = len(runtime.scheduler.decrypt_ages)
        result = self._timed(
            lambda: open_loop(arrivals, emails, submit, poll, runtime.outstanding_jobs)
        )
        result.window_ages = runtime.scheduler.decrypt_ages[ages_before:]
        return result


class FabricClient(SpamStream):
    """spam_stream's emails, one at a time, through a ``FabricRuntime`` over TCP agents."""

    name = "fabric_client"
    #: Rounds of distinct inputs; longer runs cycle through them again.
    INPUT_ROUNDS = 64

    def setup(self) -> None:
        self._mailboxes()
        self.fabric, self.agents = launch_fabric(self.shape["agents"])
        for address in self.addresses:
            self.fabric.register_spam(
                address, self.protocol, self.protocol.setup(self.data.quantized)
            )
        warm = [
            (address, self.data.warmup_emails[index]) for index, address in enumerate(self.addresses)
        ]
        for result, (_, features) in zip(self.fabric.run_spam_stream([warm]), warm):
            if result.is_spam != inputs.spam_reference(self.data.quantized, features):
                raise AssertionError("a fabric warm-up email disagrees with the plaintext model")

    def close(self) -> None:
        fabric, agents = getattr(self, "fabric", None), getattr(self, "agents", [])
        self.fabric, self.agents = None, []
        try:
            if fabric is not None:
                fabric.close()
        finally:
            for agent in agents:
                if agent.wait(timeout=10.0) is None:
                    agent.kill()
                    agent.wait(timeout=10.0)

    def _served_total(self) -> float:
        return sum(
            entry["value"]
            for entry in self.fabric.aggregated_metrics()["counters"]
            if entry["name"] == "emails_served_total"
        )

    def _agent_ledgers(self) -> list[dict]:
        return self.fabric.agent_stats()

    def run(self, spans: Spans, pass_index: int) -> Pass:
        burst, rounds = self.shape["burst"], self.INPUT_ROUNDS
        ranks = inputs.zipf_mailboxes(
            self.seed, self.shape["mailboxes"], self.shape["zipf_exponent"], rounds * burst
        )
        features = inputs.draw_emails(self.seed, self.data.emails, rounds * burst)
        emails: list[Email] = []
        fabric = self.fabric

        def round_(index: int, zero: float) -> None:
            submitted = time.perf_counter() - zero
            slots = range((index % rounds) * burst, (index % rounds + 1) * burst)
            ids = list(range(len(emails), len(emails) + burst))
            emails.extend(
                Email(
                    due=submitted,
                    reference=inputs.spam_reference(self.data.quantized, features[slot]),
                    admitted=submitted,
                )
                for slot in slots
            )
            try:
                with spans.root("submit_spam", burst):
                    job_ids = fabric.submit_spam(
                        [(self.addresses[ranks[slot]], features[slot]) for slot in slots]
                    )
                    if fabric.outstanding_count():
                        fabric.drain()
                results = [fabric.take_result(job_id) for job_id in job_ids]
            except Exception as error:  # noqa: BLE001 — the burst fails, the run goes on
                _fail(emails, ids, error)
                return
            done = time.perf_counter() - zero
            for email_id, outcome in zip(ids, results):
                emails[email_id].done = done
                emails[email_id].outcome = _result_outcome(outcome)

        served_before = self._served_total()
        ledgers_before = self._agent_ledgers()
        result = self._timed(
            lambda: closed_loop(self.seconds, emails, round_, self.shape["think"])
        )
        result.bursts = [burst] * (len(emails) // burst)
        result.served = self._served_total() - served_before
        batches: list[int] = []
        retransmissions = 0
        for before, after in zip(ledgers_before, self._agent_ledgers()):
            batches += after["decrypt_batch_sizes"][len(before["decrypt_batch_sizes"]):]
            result.window_ages += after["decrypt_ages"][len(before["decrypt_ages"]):]
            retransmissions += (
                after["link"]["retransmissions"] - before["link"]["retransmissions"]
            )
        result.fabric = {"decrypt_batches": batches, "retransmissions": retransmissions}
        return result


# -- closed loop ---------------------------------------------------------------
def closed_loop(
    seconds: float, emails: list[Email], round_: Callable[[int, float], None], think: float
) -> Pass:
    """Run ``round_(index, time_zero)`` until *seconds* have passed.

    After each round the client thinks for *think* times as long as the
    round took, so the loop keeps a fixed duty cycle however fast the
    program gets.  The wall time includes the last think, so
    ``emails_per_s`` is the same share of capacity on every run.
    """
    result = Pass(emails=emails, started=time.perf_counter(), wall_s=0.0)
    index = 0
    while time.perf_counter() - result.started < seconds:
        began = time.perf_counter()
        round_(index, result.started)
        index += 1
        time.sleep(think * (time.perf_counter() - began))
    result.wall_s = time.perf_counter() - result.started
    return result


class ColdMailboxes(Workload):
    """Register never-seen mailboxes one at a time and classify each one's first email."""

    name = "cold_mailboxes"

    def setup(self) -> None:
        self.data = inputs.spam_inputs(self.seed)
        self.protocol = _spam_protocol()
        self.directory = MailboxDirectory()
        self.runtime = ProviderRuntime()
        # Warm the process-wide caches (NTT plans, circuits) on one mailbox.
        address = inputs.mailbox_address(self.seed, "cold-warm", 0)
        self.directory.register_spam(address, self.protocol, self.protocol.setup(self.data.quantized))
        jobs = self.directory.spam_jobs(address, [self.data.warmup_emails[0]])
        self.runtime.run(jobs)
        if jobs[0].client.is_spam != inputs.spam_reference(
            self.data.quantized, self.data.warmup_emails[0]
        ):
            raise AssertionError("the cold warm-up email disagrees with the plaintext model")
        self.pool = inputs.draw_emails(self.seed, self.data.emails, 256)

    def run(self, spans: Spans, pass_index: int) -> Pass:
        emails: list[Email] = []
        data, protocol, directory = self.data, self.protocol, self.directory

        def round_(index: int, zero: float) -> None:
            submitted = time.perf_counter() - zero
            features = self.pool[index % len(self.pool)]
            email_id = len(emails)
            emails.append(Email(
                due=submitted,
                reference=inputs.spam_reference(data.quantized, features),
                admitted=submitted,
            ))
            address = inputs.mailbox_address(self.seed, f"cold-{pass_index}", index)
            try:
                with spans.root("setup", 0):
                    setup = protocol.setup(data.quantized)
                with spans.root("register_spam", 0):
                    directory.register_spam(address, protocol, setup)
                with spans.root("run", 1):
                    jobs = directory.spam_jobs(address, [features])
                    spans.register_job(jobs[0], email_id)
                    self.runtime.run(jobs)
            except Exception as error:  # noqa: BLE001 — the op fails, the run goes on
                _fail(emails, [email_id], error)
                return
            emails[email_id].done = time.perf_counter() - zero
            emails[email_id].outcome = _job_outcome(jobs[0], jobs[0].client.is_spam)

        result = self._timed(
            lambda: closed_loop(self.seconds, emails, round_, self.shape["think"])
        )
        result.bursts = [1] * len(emails)
        return result


WORKLOAD_CLASSES = {cls.name: cls for cls in (SpamStream, ColdMailboxes, FabricClient)}
