"""Synthetic corpora with planted, known properties.

The central fixture is a four-class dataset whose classes were "collected"
in four disjoint 30-day windows of 2015, so ids carry the label in their
high bits by construction. Its label-permuted twin keeps the same ids and
marginals but breaks the id-label link, which makes the pair a
positive/negative control for every leakage probe.
"""

from __future__ import annotations

import numpy as np

from leakaudit import TWITTER_EPOCH_MS, build_dataset
from leakaudit.data import Dataset

DAY_MS = 86_400_000
LABELS = ("true", "false", "unverified", "non-rumor")
WINDOW_STARTS = {
    "true": 1_420_070_400_000,  # 2015-01-01
    "false": 1_427_846_400_000,  # 2015-04-01
    "unverified": 1_435_708_800_000,  # 2015-07-01
    "non-rumor": 1_443_657_600_000,  # 2015-10-01
}
VOCAB = (
    "the a on for and with about after report says people city police news "
    "storm game vote health market study crowd street photo video live"
).split()


def snowflake_id(ts_ms: int, rng: np.random.Generator, seen: set[str]) -> str:
    while True:
        sid = str(((ts_ms - TWITTER_EPOCH_MS) << 22) | int(rng.integers(0, 1 << 22)))
        if sid not in seen:
            seen.add(sid)
            return sid


def random_text(rng: np.random.Generator, lo: int = 6, hi: int = 14) -> str:
    n = int(rng.integers(lo, hi))
    return " ".join(VOCAB[int(i)] for i in rng.integers(0, len(VOCAB), n))


def leaky_dataset(
    seed: int = 7,
    n_per_label: int = 500,
    window_days: int = 30,
    name: str = "synthetic-leaky",
) -> Dataset:
    """Labels recoverable from ids: each label owns a disjoint time window."""
    rng = np.random.default_rng(seed)
    seen: set[str] = set()
    rows = []
    for label in LABELS:
        start = WINDOW_STARTS[label]
        for _ in range(n_per_label):
            ts = start + int(rng.integers(0, window_days * DAY_MS))
            rows.append(
                {"id": snowflake_id(ts, rng, seen), "text": random_text(rng), "label": label}
            )
    order = rng.permutation(len(rows))
    return build_dataset([rows[int(i)] for i in order], labels=LABELS, name=name)


def permuted_labels(dataset: Dataset, seed: int = 11, name: str = "synthetic-control") -> Dataset:
    """Same ids and label marginals, id-label link destroyed."""
    rng = np.random.default_rng(seed)
    labels = [r.label for r in dataset.records]
    order = rng.permutation(len(labels))
    rows = [
        {"id": r.id, "text": r.text, "label": labels[int(order[i])]}
        for i, r in enumerate(dataset.records)
    ]
    return build_dataset(rows, labels=dataset.label_set.labels, name=name)


def replacement_pool(
    anchor_label: str = "non-rumor",
    seed: int = 23,
    per_label: int = 800,
    margin_days: int = 7,
    window_days: int = 30,
    name: str = "synthetic-pool",
) -> Dataset:
    """Non-anchor records whose timestamps blanket the anchor's window."""
    rng = np.random.default_rng(seed)
    seen: set[str] = set()
    anchor_start = WINDOW_STARTS[anchor_label]
    lo = anchor_start - margin_days * DAY_MS
    hi = anchor_start + (window_days + margin_days) * DAY_MS
    rows = []
    for label in LABELS:
        if label == anchor_label:
            continue
        for _ in range(per_label):
            ts = int(rng.integers(lo, hi))
            rows.append(
                {"id": snowflake_id(ts, rng, seen), "text": random_text(rng), "label": label}
            )
    return build_dataset(rows, labels=LABELS, name=name)


PHEME_EVENTS = (
    "charliehebdo", "sydneysiege", "ferguson", "ottawashooting", "germanwings-crash",
    "putinmissing", "prince-toronto", "gurlitt", "ebola-essien",
)


def preset_corpus(seed: int = 5, n: int = 6000, name: str = "synthetic-presets") -> Dataset:
    """Every field a split preset reads, with gaps: the nine PHEME events
    (5% of records have none), 300 single-label articles of which a few
    receive an off-label record (5% of records have no article), and reply
    counts 0-9 (5% missing). Enough records clear 3 replies to meet the
    ``pheme9-4way`` quotas."""
    rng = np.random.default_rng(seed)
    seen: set[str] = set()
    rows = []
    for i in range(n):
        label = LABELS[i % len(LABELS)]
        ts = WINDOW_STARTS["true"] + int(rng.integers(0, 365 * DAY_MS))
        row: dict = {"id": snowflake_id(ts, rng, seen), "text": random_text(rng), "label": label}
        if rng.random() >= 0.05:
            row["event"] = PHEME_EVENTS[int(rng.integers(0, len(PHEME_EVENTS)))]
        if rng.random() >= 0.05:
            # articles 4j + l carry label l; 0.5% of records land in any article
            article = 4 * int(rng.integers(0, 75)) + LABELS.index(label)
            if rng.random() < 0.005:
                article = int(rng.integers(0, 300))
            row["article_id"] = f"a{article}"
        if rng.random() >= 0.05:
            row["reply_count"] = int(rng.integers(0, 10))
        rows.append(row)
    return build_dataset(rows, labels=LABELS, name=name)
