"""Keyword-label shortcut scanning.

Finds tokens whose presence alone separates classes: entity names, event
vocabulary, or collection-artifact strings that let a bag-of-words model
score well without reading meaning. Association is measured on document
frequency (a token counts once per record) with smoothed log-odds ratios,
one-vs-rest per label.

Tokenization is deliberately blunt and fixed: lowercase, strip URLs, then
take maximal alphanumeric runs. @ and # sigils vanish, so mentions and
hashtags surface as plain tokens.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Sequence

from .data import Dataset

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
        """True when the token never occurs under some label."""
        return len(self.excluded_labels) > 0


def keyword_label_table(
    dataset: Dataset, keywords: Sequence[str], substring: bool = False
) -> dict[str, dict[str, int]]:
    """Per-label record counts for each keyword.

    Token mode (default) counts records whose token set contains the
    lowercased keyword; substring mode counts records whose raw lowercased
    text contains it. Keywords absent everywhere get an all-zero row.
    """
    table = {kw: {label: 0 for label in dataset.label_set} for kw in keywords}
    lowered = [(kw, kw.lower()) for kw in keywords]
    for record in dataset.records:
        if substring:
            text = record.text.lower()
            for kw, low in lowered:
                if low in text:
                    table[kw][record.label] += 1
        else:
            tokens = token_set(record.text)
            for kw, low in lowered:
                if low in tokens:
                    table[kw][record.label] += 1
    return table


def _smoothed_log_odds(a: float, b: float, c: float, d: float) -> float:
    # one-vs-rest 2x2 table with add-0.5 smoothing:
    #   a = docs with token in label, b = docs with token elsewhere,
    #   c = docs without token in label, d = docs without token elsewhere
    return math.log((a + 0.5) * (d + 0.5)) - math.log((b + 0.5) * (c + 0.5))


def scan_discriminative_tokens(dataset: Dataset, min_df: int = 5) -> list[TokenStats]:
    """Rank every token by how strongly it separates one label from the
    rest (max |smoothed log-odds| over labels).

    Records with empty token sets are skipped. Tokens below min_df total
    document frequency are dropped. Ties rank by token string, so output
    order is deterministic.
    """
    label_totals = {label: 0 for label in dataset.label_set}
    counts: dict[str, dict[str, int]] = {}
    for record in dataset.records:
        tokens = token_set(record.text)
        if not tokens:
            continue
        label_totals[record.label] += 1
        for tok in tokens:
            row = counts.get(tok)
            if row is None:
                row = counts[tok] = {label: 0 for label in dataset.label_set}
            row[record.label] += 1

    n_total = sum(label_totals.values())
    stats: list[TokenStats] = []
    for tok, row in counts.items():
        df = sum(row.values())
        if df < min_df:
            continue
        per_label_lo: dict[str, float] = {}
        for label in dataset.label_set:
            a = row[label]
            b = df - a
            c = label_totals[label] - a
            d = (n_total - label_totals[label]) - b
            per_label_lo[label] = _smoothed_log_odds(a, b, c, d)
        top = max(dataset.label_set, key=lambda lab: (abs(per_label_lo[lab]), -dataset.label_set.index(lab)))
        excluded = tuple(lab for lab in dataset.label_set if row[lab] == 0)
        stats.append(
            TokenStats(
                token=tok,
                doc_freq=df,
                per_label_counts=dict(row),
                per_label_log_odds=per_label_lo,
                log_odds=per_label_lo[top],
                top_label=top,
                excluded_labels=excluded,
            )
        )
    stats.sort(key=lambda s: (-abs(s.log_odds), s.token))
    return stats
