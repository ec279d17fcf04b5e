"""Turn timed passes and spans into the named metrics, and check the outputs."""

from __future__ import annotations

import math
import statistics
from typing import Any

import spec
from layertrace import Spans, summarize
from workloads import Pass


def percentile(values: list[float], percent: float) -> float:
    """Nearest-rank percentile of *values* (not necessarily sorted)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percent / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count: int) -> int:
    """The highest whole percentile with at least ten samples beyond it (p50 at least)."""
    if count <= 10:
        return 50
    return max(50, math.floor(100.0 * (count - 10) / count))


def latencies_ms(run: Pass) -> list[float]:
    """Per-email latency; a failed email counts as the timeout, missing every limit."""
    return [
        (email.done - email.due) * 1e3 if email.succeeded else spec.TIMEOUT_S * 1e3
        for email in run.emails
    ]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def end_to_end(run: Pass, setup_seconds: float, workload: str) -> tuple[dict[str, float], str]:
    """Every end-to-end metric of one untraced pass, plus a note on the tail."""
    attempted = len(run.emails)
    succeeded = [email for email in run.emails if email.succeeded]
    served = [email.outcome for email in run.emails if email.outcome is not None]
    latency = latencies_ms(run)
    limit = spec.WORKLOADS[workload]["latency_limit_ms"]
    tail = tail_percentile(attempted)
    beyond = attempted - math.ceil(tail / 100.0 * attempted)
    values = {
        "setup_s": setup_seconds,
        "emails_per_s": len(succeeded) / run.wall_s if run.wall_s > 0 else 0.0,
        "email_ms_p50": percentile(latency, 50),
        "email_ms_tail": percentile(latency, tail),
        "within_slo_share": sum(
            1 for email, ms in zip(run.emails, latency) if email.succeeded and ms <= limit
        ) / attempted,
        "provider_cpu_ms_per_email": _median([o.provider_seconds * 1e3 for o in served]),
        "client_cpu_ms_per_email": _median([o.client_seconds * 1e3 for o in served]),
        "network_bytes_per_email": _median([float(o.network_bytes) for o in served]),
        "success_share": len(succeeded) / attempted,
    }
    note = (
        f"email_ms_tail is p{tail} of {attempted} emails ({beyond} beyond it); "
        f"within_slo_share uses a {limit:g} ms limit"
    )
    return values, note


def check(run: Pass, workload: str) -> list[str]:
    """Invariants of one pass; each broken one is a line of the returned list."""
    problems = []
    wrong = sum(1 for e in run.emails if e.outcome is not None and not e.correct)
    if wrong:
        problems.append(f"{wrong} verdicts differ from the plaintext reference")
    expected_base_ots = len(run.emails) if workload == "cold_mailboxes" else 0
    if run.base_handshakes != expected_base_ots:
        problems.append(
            f"{run.base_handshakes} base-OT handshakes in the timed phase, "
            f"expected {expected_base_ots}"
        )
    if workload == "fabric_client" and run.served != len(run.emails):
        problems.append(
            f"the fabric served {run.served:g} emails of {len(run.emails)} submitted"
        )
    return problems


def per_layer(traced: Pass, untraced: Pass, spans: Spans, workload: str) -> dict[str, float]:
    """Every per-layer metric, from the traced pass (and all spans for set-up costs)."""
    window = summarize(spans.records, (traced.started, traced.ended))
    everything = summarize(spans.records, (float("-inf"), float("inf")))["by_name"]
    timed = window["by_name"]
    emails = max(1, len(traced.emails))
    served = [email.outcome for email in traced.emails if email.outcome is not None]

    def ms_per_email(*names: str) -> float:
        return sum(r[3] - r[2] for name in names for r in timed.get(name, ())) * 1e3 / emails

    def median_call_ms(name: str, source: dict) -> float:
        return _median([(r[3] - r[2]) * 1e3 for r in source.get(name, ())])

    decrypts = timed.get("decrypt", [])
    ciphertexts = sum(r[6] for r in decrypts)
    garbles = everything.get("garbled.garble", [])
    fabric_spans = [r for name in ("fabric.submit", "fabric.poll", "fabric.drain")
                    for r in timed.get(name, ())]
    p50_traced = percentile(latencies_ms(traced), 50)
    p50_untraced = percentile(latencies_ms(untraced), 50)
    return {
        "runtime.queue_wait_ms": _median(
            [(e.admitted - e.due) * 1e3 for e in traced.emails if e.admitted is not None]),
        "runtime.window_wait_ms": _median([age * 1e3 for age in traced.window_ages]),
        "runtime.burst_emails": _mean([float(size) for size in traced.bursts]),
        "runtime.loop_self_ms_per_email": window["loop_self_seconds"] * 1e3 / emails,
        "generator.lag_ms": _median([lag * 1e3 for lag in traced.lags]),
        "decrypt.ciphertexts_per_call": ciphertexts / len(decrypts) if decrypts else 0.0,
        "decrypt.ms_per_ciphertext": (
            sum(r[3] - r[2] for r in decrypts) * 1e3 / ciphertexts if ciphertexts else 0.0),
        "decrypt.calls_per_email": len(decrypts) / emails,
        "packing.dot_products_ms": ms_per_email("packing.dot_products"),
        "blinding.ms": ms_per_email("blinding"),
        "garbled.garble_ms": ms_per_email("garbled.garble"),
        "garbled.evaluate_ms": ms_per_email("garbled.evaluate"),
        "garbled.table_bytes": _median([float(r[6][0]) for r in garbles]),
        "garbled.and_gates": _median([float(r[6][1]) for r in garbles]),
        "ot.ext_sender_ms": ms_per_email("ot.ext_sender"),
        "ot.ext_receiver_ms": ms_per_email("ot.ext_receiver"),
        "ot.base_handshakes": float(traced.base_handshakes),
        "ot.base_ms": median_call_ms("ot.base", everything),
        "bv.keygen_ms": median_call_ms("bv.keygen", everything),
        "packing.encrypt_model_ms": median_call_ms("packing.encrypt_model", everything),
        "wire.encode_ms": ms_per_email("wire.encode"),
        "wire.decode_ms": ms_per_email("wire.decode"),
        "wire.bytes_per_email": sum(r[6] for r in timed.get("wire.encode", ())) / emails,
        "transport.messages_per_email": _median([float(o.network_messages) for o in served]),
        "transport.rounds_per_email": _median([float(o.network_rounds) for o in served]),
        "fabric.submit_ms": median_call_ms("fabric.submit", timed),
        "fabric.poll_ms": median_call_ms("fabric.poll", timed),
        "fabric.parent_busy_share": (
            sum(r[3] - r[2] for r in fabric_spans) / traced.wall_s if traced.wall_s else 0.0),
        "fabric.control_retransmissions": float(traced.fabric.get("retransmissions", 0)),
        "fabric.agent_decrypt_batch": _mean(
            [float(size) for size in traced.fabric.get("decrypt_batches", [])]),
        "fabric.served_share": (
            traced.served / emails if workload == "fabric_client" else 0.0),
        "trace.overhead": p50_traced / p50_untraced if p50_untraced else 0.0,
        "trace.unattributed_share": (
            1.0 - window["attributed_seconds"] / window["root_seconds"]
            if window["root_seconds"] else 0.0),
    }


def as_result(values: dict[str, float], units: dict[str, str], attempted: int,
              failed: int, correct: bool) -> dict[str, Any]:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
