"""Seeded inputs: every email, schedule, mailbox and model comes from the seed.

The program under test receives only what these functions build.  Each
input stream draws from its own ``numpy`` generator keyed by
``(seed, stream)``, so adding a draw to one stream never shifts another.
Mailbox addresses are SHA-256 digests of the seed and the mailbox index,
never Python's salted ``hash()``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.classify.model import QuantizedLinearModel
from repro.classify.naive_bayes import GrahamRobinsonNaiveBayes
from repro.crypto.dh import DHGroup
from repro.crypto.numtheory import is_probable_prime
from repro.datasets import lingspam_like, prepare_classification_data

import spec

SPAM_CORPUS_SCALE = 0.5
SPAM_MAX_FEATURES = 1500

_STREAMS = {
    "arrivals": 1,
    "popularity": 2,
    "emails": 3,
}

#: The 256-bit safe prime p = 2q + 1 that :func:`derive_dh_group` finds.  It
#: is stored rather than searched for on every run, because the search time
#: depends on where the next safe prime happens to lie and would make
#: ``setup_s`` noisy; ``selfcheck.py`` re-derives it and compares.
_DH_PRIME = int("e4885f38be413ac800b1010a11d69008cb73f8b64275089f1fed353d9687d4fb", 16)
_DH_LABEL = b"pretzel-perfbench-dh-256"


def rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAMS[stream]])


def derive_dh_group(bits: int = spec.DH_BITS) -> DHGroup:
    """The first safe prime at or above a SHA-256-derived start, generator 4.

    Walks odd q upward from ``SHA-256(label)`` truncated to ``bits - 1`` bits
    (top bit set) until both q and p = 2q + 1 are prime.  4 = 2² is a
    quadratic residue, so it generates the order-q subgroup.
    """
    start = int.from_bytes(hashlib.sha256(_DH_LABEL).digest(), "big")
    q = (start >> (256 - (bits - 1))) | (1 << (bits - 2)) | 1
    while not (is_probable_prime(q, rounds=2) and is_probable_prime(2 * q + 1, rounds=2)):
        q += 2
    if not (is_probable_prime(q) and is_probable_prime(2 * q + 1)):
        raise AssertionError("derived DH modulus failed the full primality test")
    return DHGroup(p=2 * q + 1, q=q, g=4)


def dh_group() -> DHGroup:
    """The stored group; ``DHGroup`` re-checks p = 2q + 1 and the order of g."""
    return DHGroup(p=_DH_PRIME, q=(_DH_PRIME - 1) // 2, g=4)


def mailbox_address(seed: int, kind: str, index: int) -> str:
    digest = hashlib.sha256(f"{seed}:{kind}:{index}".encode("utf-8")).hexdigest()
    return f"{kind}-{digest[:16]}@bench.example"


@dataclass
class SpamInputs:
    """The spam model and the corpus its emails come from."""

    quantized: QuantizedLinearModel
    emails: list[dict[int, int]]
    warmup_emails: list[dict[int, int]]


def spam_inputs(seed: int) -> SpamInputs:
    """Train the GR-NB spam model on a seeded ``lingspam_like`` corpus."""
    corpus = lingspam_like(scale=SPAM_CORPUS_SCALE, seed=seed)
    data = prepare_classification_data(
        corpus, boolean=True, max_features=SPAM_MAX_FEATURES, seed=seed
    )
    spam_label = corpus.category_names.index("spam")
    classifier = GrahamRobinsonNaiveBayes(num_features=data.num_features)
    classifier.fit(data.train_vectors, [int(label == spam_label) for label in data.train_labels])
    quantized = QuantizedLinearModel.from_linear_model(
        classifier.to_linear_model(),
        value_bits=spec.VALUE_BITS,
        frequency_bits=spec.FREQUENCY_BITS,
    )
    if quantized.category_names[0] != "spam":
        raise AssertionError("the spam protocol reads the spam score from column 0")
    return SpamInputs(
        quantized=quantized,
        emails=[dict(vector) for vector in data.test_vectors],
        warmup_emails=[dict(vector) for vector in data.train_vectors],
    )


def draw_emails(seed: int, pool: list[dict[int, int]], count: int) -> list[dict[int, int]]:
    """*count* corpus emails drawn with replacement."""
    picks = rng(seed, "emails").integers(0, len(pool), size=count)
    return [pool[int(index)] for index in picks]


def poisson_arrivals(seed: int, rate_per_s: float, seconds: float) -> list[float]:
    """A Poisson process conditioned on exactly ``rate * seconds`` arrivals.

    Conditioned on its count, a Poisson process on ``[0, seconds)`` is that
    many sorted uniform points, so the offered rate is exact on every seed
    and only the burstiness varies with it.
    """
    count = max(1, round(rate_per_s * seconds))
    return sorted(float(t) for t in rng(seed, "arrivals").uniform(0.0, seconds, size=count))


def zipf_mailboxes(seed: int, mailboxes: int, exponent: float, count: int) -> list[int]:
    """Mailbox rank of each of *count* emails under Zipf(*exponent*) popularity."""
    weights = 1.0 / np.arange(1, mailboxes + 1) ** exponent
    picks = rng(seed, "popularity").choice(mailboxes, size=count, p=weights / weights.sum())
    return [int(rank) for rank in picks]


# -- plaintext references ---------------------------------------------------
def spam_reference(quantized: QuantizedLinearModel, features: dict[int, int]) -> bool:
    """The verdict the secure protocol must reproduce: spam score > ham score."""
    return quantized.predict_is_spam(features, spam_column=0)
