"""Keyword-label shortcut scanning.

Finds tokens whose presence alone separates classes: entity names, event
vocabulary, or collection-artifact strings that let a bag-of-words model
score well without reading meaning. Association is measured on document
frequency (a token counts once per record) with smoothed log-odds ratios,
one-vs-rest for each label some record with tokens carries. Both public
functions read one token-by-label count table, and raise
UnknownLabelError for a label outside the set.

Tokenization is deliberately blunt and fixed: lowercase, strip URLs, then
take maximal alphanumeric runs. @ and # sigils vanish, so mentions and
hashtags surface as plain tokens.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset
from .errors import UnknownLabelError

URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def strip_urls(text: str) -> str:
    """Replace each URL in lowercased text with a space."""
    # URL_RE matches only text holding one of these, and costs more than the test
    return URL_RE.sub(" ", text) if "://" in text or "www." in text else text


def tokenize(text: str) -> list[str]:
    """Lowercase, drop URLs, split into maximal alphanumeric runs."""
    return TOKEN_RE.findall(strip_urls(text.lower()))


def token_set(text: str) -> set[str]:
    return set(tokenize(text))


@dataclass(frozen=True)
class TokenStats:
    """Association profile of one token against every label."""

    token: str
    doc_freq: int
    per_label_counts: dict[str, int]
    per_label_log_odds: dict[str, float]
    log_odds: float
    top_label: str
    excluded_labels: tuple[str, ...]

    @property
    def is_label_excluding(self) -> bool:
        """True when the token never occurs under some scored label."""
        return len(self.excluded_labels) > 0


def _label_positions(dataset: Dataset) -> np.ndarray:
    labels = dataset.label_index
    if np.any(labels < 0):
        bad = dataset.records[int(np.argmax(labels < 0))].label
        raise UnknownLabelError(f"label {bad!r} not in {dataset.label_set.labels}")
    return labels


def _doc_counts(dataset: Dataset) -> tuple[dict[str, int], np.ndarray, list[int]]:
    """One pass over the records: the token -> row map, the int64 [n_tokens,
    n_labels] count of records holding each token under each label, and each
    label's count of records holding any token. Row order follows set order,
    so it must not reach output. An unknown label raises UnknownLabelError."""
    n_labels = len(dataset.label_set)
    row_of: dict[str, int] = {}
    keys, totals = [], [0] * n_labels
    for record, label in zip(dataset.records, _label_positions(dataset).tolist()):
        tokens = token_set(record.text)
        if tokens:
            totals[label] += 1
            keys.extend([row_of.setdefault(tok, len(row_of)) * n_labels + label for tok in tokens])
    counts = np.bincount(np.array(keys, dtype=np.int64), minlength=len(row_of) * n_labels)
    return row_of, counts.reshape(-1, n_labels), totals


def keyword_label_table(
    dataset: Dataset, keywords: Sequence[str], substring: bool = False
) -> dict[str, dict[str, int]]:
    """Per-label record counts for each keyword.

    Token mode (default) counts records whose token set contains the
    lowercased keyword; substring mode counts records whose raw lowercased
    text contains it. Keywords absent everywhere get an all-zero row.
    """
    names = dataset.label_set.labels
    if substring:
        labels, texts = _label_positions(dataset), [r.text.lower() for r in dataset.records]
        hit = {kw: np.array([kw.lower() in text for text in texts], dtype=bool) for kw in keywords}
        rows = {kw: np.bincount(labels[hit[kw]], minlength=len(names)) for kw in keywords}
    else:
        row_of, counts, _ = _doc_counts(dataset)
        zero = np.zeros(len(names), dtype=np.int64)
        rows = {kw: counts[row_of[kw.lower()]] if kw.lower() in row_of else zero for kw in keywords}
    return {kw: dict(zip(names, row.tolist())) for kw, row in rows.items()}


def scan_discriminative_tokens(dataset: Dataset, min_df: int = 5) -> list[TokenStats]:
    """Rank every token by how strongly it separates one label from the
    rest (max |smoothed log-odds| over labels), read off one count table.

    Records with empty token sets are skipped. Tokens below min_df total
    document frequency are dropped. Only labels that some record with
    tokens carries are scored; any other label is left out of the log-odds,
    the top label and the excluded labels, and counts 0 in
    ``per_label_counts``. Ties rank by token string, so output order is
    deterministic. A label outside the set raises UnknownLabelError.
    """
    row_of, counts, totals = _doc_counts(dataset)
    names, tokens, doc_freq = dataset.label_set.labels, list(row_of), counts.sum(axis=1)
    n_total, scored = sum(totals), [j for j, total in enumerate(totals) if total]
    stats: list[TokenStats] = []
    for i in np.flatnonzero(doc_freq >= min_df).tolist():
        row, df, lo = counts[i].tolist(), int(doc_freq[i]), {}
        for j in scored:
            # one-vs-rest 2x2 table, add-0.5 smoothed: docs with the token in
            # label j (a) and elsewhere (b), without it in j (c) and elsewhere (d)
            a, b, c, d = row[j], df - row[j], totals[j] - row[j], n_total - totals[j] - df + row[j]
            lo[names[j]] = math.log((a + 0.5) * (d + 0.5)) - math.log((b + 0.5) * (c + 0.5))
        top = max(scored, key=lambda j: (abs(lo[names[j]]), -j))
        stats.append(TokenStats(
            token=tokens[i], doc_freq=df, per_label_counts=dict(zip(names, row)),
            per_label_log_odds=lo, log_odds=lo[names[top]], top_label=names[top],
            excluded_labels=tuple(names[j] for j in scored if row[j] == 0),
        ))
    stats.sort(key=lambda s: (-abs(s.log_odds), s.token))
    return stats
