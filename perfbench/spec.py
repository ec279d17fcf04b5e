"""What the benchmark measures: workloads, metrics, bounds and the layer map.

``BENCHMARK.json`` at the repository root is the machine-read copy of the
names, units, bounds and one-line reasons kept here; ``selfcheck.py`` fails
if the two disagree.  Everything else a later change needs in order to cite
a metric — each workload's shape and each per-layer metric's expected
effect — lives only here, because ``BENCHMARK.json`` has a fixed schema.
"""

from __future__ import annotations

#: Ring degree of the BV scheme on every workload (the paper's n).
RING_DEGREE = 1024
#: Bits of the DH group the OT handshakes run in (see ``inputs.dh_group``).
DH_BITS = 256
#: How many times one run builds its whole set-up; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: An email with no verdict this long after it was due has failed.
TIMEOUT_S = 30.0
#: Spam model quantization (``QuantizedLinearModel``).
VALUE_BITS = 10
FREQUENCY_BITS = 4

#: Offered rate of the open-loop workload.  A warm email costs about 31 ms on
#: a 2-vCPU 2.1 GHz Xeon VM, so at this rate fewer than ten emails of a run
#: arrive while another is being served and the tail percentile stays on the
#: service-time mode.  At any rate where Poisson coincidences reach the ten
#: slowest emails, that percentile moves by more than its bound from seed to
#: seed, even in a simulation with a constant service time.
OPEN_LOOP_RATE_PER_S = 3.0
#: Closed-loop think time, as a multiple of the round it follows (a one-third
#: duty cycle).  Run back to back, cold_mailboxes read up to a third faster
#: whenever the host lends the busy core a frequency boost, which comes and
#: goes with other tenants' load: over ten seeds its per-email CPU medians
#: spread by 0.20-0.29 back to back and by 0.06-0.13 with this pause.
#:
#: A fourth workload, topics_burst (8-email bursts of B'=10 topic extraction
#: over a B=512, 1000-feature model), was dropped: back to back or paced,
#: its per-email CPU and latency medians spread by 0.24-0.40 over ten seeds,
#: more than any bound allows.
CLOSED_LOOP_THINK = 2.0

WORKLOADS: dict[str, dict] = {
    "spam_stream": {
        "loop": "open",
        "rate_per_s": OPEN_LOOP_RATE_PER_S,
        "mailboxes": 16,
        "zipf_exponent": 1.1,
        "burst": "every email due when the generator wakes",
        "model": "GR-NB spam model, 2 categories over 1500 lingspam_like features",
        "latency_limit_ms": 250.0,
        "why": "open loop, Poisson 3/s, 16 warm spam mailboxes, Zipf(1.1), one ProviderRuntime: "
        "the paper's core function on the warm path; provider garbling and OT extension dominate",
    },
    "cold_mailboxes": {
        "loop": "closed",
        "clients": 1,
        "think": CLOSED_LOOP_THINK,
        "mailboxes": "one new mailbox per op",
        "burst": 1,
        "model": "the spam_stream model",
        "latency_limit_ms": 1000.0,
        "why": "closed loop, 1 client thinking 2x each op: register a new mailbox (keygen, "
        "model encryption, 128 base OTs), classify its first email; the registration path",
    },
    "fabric_client": {
        "loop": "closed",
        "clients": 1,
        "think": CLOSED_LOOP_THINK,
        "mailboxes": 16,
        "zipf_exponent": 1.1,
        "agents": 2,
        # One email per round keeps one agent busy at a time: with bursts of
        # 8 both agents and the parent share the two cores and the per-email
        # CPU medians spread by 0.31 over ten seeds.
        "burst": 1,
        "model": "the spam_stream model",
        "latency_limit_ms": 250.0,
        "why": "closed loop, 1 client thinking 2x each email, spam_stream's mailboxes and corpus "
        "through a FabricRuntime on 2 localhost TCP agents: control codec, reliable layer, TCP",
    },
}

#: (name, unit, better, bound).  ``bound`` is the share of the parent's median
#: by which a metric may get worse before a change counts as a regression.
END_TO_END: list[tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("emails_per_s", "1/s", "higher", 0.25),
    ("email_ms_p50", "ms", "lower", 0.25),
    ("email_ms_tail", "ms", "lower", 0.25),
    ("within_slo_share", "share", "higher", 0.1),
    ("provider_cpu_ms_per_email", "ms", "lower", 0.25),
    ("client_cpu_ms_per_email", "ms", "lower", 0.25),
    ("network_bytes_per_email", "bytes", "lower", 0.05),
    ("success_share", "share", "higher", 0.01),
]

#: name -> (unit, better, layer, end-to-end metrics it moves, workloads where).
PER_LAYER: dict[str, tuple[str, str, str, tuple[str, ...], tuple[str, ...]]] = {
    "runtime.queue_wait_ms": (
        "ms", "lower", "core.runtime",
        ("email_ms_p50", "email_ms_tail", "within_slo_share"), ("spam_stream",)),
    "runtime.window_wait_ms": (
        "ms", "lower", "core.runtime",
        ("email_ms_p50", "email_ms_tail", "within_slo_share"), ("spam_stream",)),
    "runtime.burst_emails": (
        "count", "higher", "core.runtime", ("emails_per_s", "email_ms_p50"), ("spam_stream",)),
    "runtime.loop_self_ms_per_email": (
        "ms", "lower", "core.runtime", ("emails_per_s", "email_ms_p50"), ("spam_stream",)),
    "generator.lag_ms": ("ms", "lower", "benchmark generator", (), ()),
    "decrypt.ciphertexts_per_call": (
        "count", "higher", "twopc.session.batch_decrypt / crypto.bv",
        ("provider_cpu_ms_per_email",), ("spam_stream",)),
    "decrypt.ms_per_ciphertext": (
        "ms", "lower", "twopc.session.batch_decrypt / crypto.bv",
        ("provider_cpu_ms_per_email",), ("spam_stream",)),
    "decrypt.calls_per_email": (
        "count", "lower", "twopc.session.batch_decrypt / crypto.bv",
        ("provider_cpu_ms_per_email",), ("spam_stream",)),
    "packing.dot_products_ms": (
        "ms", "lower", "crypto.packing", ("client_cpu_ms_per_email",), ("spam_stream",)),
    "blinding.ms": (
        "ms", "lower", "twopc.blinding", ("client_cpu_ms_per_email",), ("spam_stream",)),
    "garbled.garble_ms": (
        "ms", "lower", "crypto.garbled",
        ("provider_cpu_ms_per_email", "client_cpu_ms_per_email"),
        ("spam_stream", "cold_mailboxes")),
    "garbled.evaluate_ms": (
        "ms", "lower", "crypto.garbled",
        ("client_cpu_ms_per_email", "provider_cpu_ms_per_email"),
        ("spam_stream", "cold_mailboxes")),
    "garbled.table_bytes": (
        "bytes", "lower", "crypto.garbled", ("network_bytes_per_email",),
        ("spam_stream", "cold_mailboxes")),
    "garbled.and_gates": (
        "count", "lower", "crypto.garbled", ("network_bytes_per_email",),
        ("spam_stream", "cold_mailboxes")),
    "ot.ext_sender_ms": (
        "ms", "lower", "crypto.ot", ("provider_cpu_ms_per_email",), ("spam_stream",)),
    "ot.ext_receiver_ms": (
        "ms", "lower", "crypto.ot", ("client_cpu_ms_per_email",), ("spam_stream",)),
    "ot.base_handshakes": (
        "count", "lower", "crypto.ot", ("email_ms_p50", "emails_per_s", "setup_s"),
        ("cold_mailboxes", "spam_stream", "fabric_client")),
    "ot.base_ms": (
        "ms", "lower", "crypto.ot", ("email_ms_p50", "emails_per_s", "setup_s"),
        ("cold_mailboxes", "spam_stream", "fabric_client")),
    "bv.keygen_ms": (
        "ms", "lower", "crypto.bv", ("email_ms_p50", "emails_per_s", "setup_s"),
        ("cold_mailboxes",)),
    "packing.encrypt_model_ms": (
        "ms", "lower", "crypto.packing", ("email_ms_p50", "emails_per_s", "setup_s"),
        ("cold_mailboxes",)),
    "wire.encode_ms": (
        "ms", "lower", "twopc.wire", ("email_ms_p50",), ("spam_stream", "fabric_client")),
    "wire.decode_ms": (
        "ms", "lower", "twopc.wire", ("email_ms_p50",), ("spam_stream", "fabric_client")),
    "wire.bytes_per_email": (
        "bytes", "lower", "twopc.wire", ("network_bytes_per_email",),
        ("spam_stream", "fabric_client")),
    "transport.messages_per_email": (
        "count", "lower", "twopc.transport", ("email_ms_p50",),
        ("spam_stream", "fabric_client")),
    "transport.rounds_per_email": (
        "count", "lower", "twopc.transport", ("email_ms_p50",),
        ("spam_stream", "fabric_client")),
    "fabric.submit_ms": (
        "ms", "lower", "fabric", ("email_ms_p50", "emails_per_s"), ("fabric_client",)),
    "fabric.poll_ms": (
        "ms", "lower", "fabric", ("email_ms_p50", "emails_per_s"), ("fabric_client",)),
    "fabric.parent_busy_share": (
        "share", "lower", "fabric", ("email_ms_p50", "emails_per_s"), ("fabric_client",)),
    "fabric.control_retransmissions": (
        "count", "lower", "fabric", ("email_ms_p50", "emails_per_s"), ("fabric_client",)),
    "fabric.agent_decrypt_batch": (
        "count", "higher", "fabric", ("email_ms_p50", "emails_per_s"), ("fabric_client",)),
    "fabric.served_share": (
        "share", "higher", "fabric", ("email_ms_p50", "emails_per_s"), ("fabric_client",)),
    "trace.overhead": ("ratio", "lower", "benchmark tracing", (), ()),
    "trace.unattributed_share": ("share", "lower", "benchmark tracing", (), ()),
}
