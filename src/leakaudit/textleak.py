"""Keyword-label shortcut scanning.

Finds tokens whose presence alone separates classes: entity names, event
vocabulary, or collection-artifact strings that let a bag-of-words model
score well without reading meaning. Association is measured on document
frequency (a token counts once per record) with smoothed log-odds ratios,
one-vs-rest for each label some record with tokens carries. Both public
functions read one token-by-label count table, and raise
UnknownLabelError for a label outside the set.

That count table is read off the dataset's text table
(``leakaudit.text``), which the duplicate scan shares: each distinct
word is tokenized once, and each distinct normalized text's tokens count
once for every record of that text, per label.

Tokenization is deliberately blunt and fixed: lowercase, strip URLs, then
take maximal alphanumeric runs. @ and # sigils vanish, so mentions and
hashtags surface as plain tokens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._arrays import batches, ragged_arange, sorted_unique
from .data import Dataset
from .text import assign_ids, split_tokens

_BATCH_CHARS = 1 << 15  # vocab characters one tokenizing pass holds at most


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


def _word_tokens(vocab: str) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The tokens of each word of a text table's vocab, from one translate
    and split per _BATCH_CHARS characters: the tokens in id order, and the
    words' token ids laid end to end with a tokens-per-word array. A
    lowercased word holds no ASCII capital, so the token "A" can end each
    word's tokens."""
    token_ids, parts, lo = {"A": -1}, [np.empty(0, dtype=np.int32)], 0
    while lo < len(vocab):
        hi = vocab.find(" ", lo + _BATCH_CHARS) + 1 or len(vocab)
        parts.append(assign_ids(split_tokens(vocab[lo:hi].replace(" ", " A ")), token_ids)[0])
        lo = hi
    flat = np.concatenate(parts)
    ends = np.flatnonzero(flat < 0)
    tokens = flat[flat >= 0].astype(np.int64)  # token * n_nodes must not overflow
    return list(token_ids)[1:], tokens, np.diff(ends, prepend=-1) - 1


def _doc_counts(dataset: Dataset) -> tuple[list[str], np.ndarray, list[int]]:
    """The tokens, the int64 [n_tokens, n_labels] count of records holding
    each token under each label, row for row, and each label's count of
    records holding any token. Row order follows first appearance, so it
    must not reach output. An unknown label raises UnknownLabelError.

    Each distinct text's distinct tokens are counted once, weighted by its
    node's records per label, in batches of nodes.
    """
    labels, table = dataset.label_index, dataset.text_table
    if np.any(labels < 0):  # index raises UnknownLabelError for the first unknown label
        dataset.label_set.index(dataset.records[int(np.argmax(labels < 0))].label)
    n_labels, n_nodes = len(dataset.label_set), len(table.n_words)
    tokens, flat, n_tokens = _word_tokens(table.vocab)
    first_token = np.cumsum(n_tokens) - n_tokens
    word_bounds = np.concatenate(([0], np.cumsum(table.n_words)))
    has_text = table.node >= 0
    # each node's records per label, one label per row
    per_node = np.bincount(
        labels[has_text] * n_nodes + table.node[has_text], minlength=n_labels * n_nodes
    ).reshape(n_labels, n_nodes)
    counts = np.zeros((len(tokens), n_labels), dtype=np.int64)
    has_tokens = np.zeros(n_nodes, dtype=bool)
    for lo, hi in batches(table.n_words):
        words = table.words[word_bounds[lo] : word_bounds[hi]]
        per_word = n_tokens[words]
        pairs = flat[ragged_arange(first_token[words], per_word)] * n_nodes
        pairs += np.repeat(np.repeat(np.arange(lo, hi), table.n_words[lo:hi]), per_word)
        del words, per_word
        # the batch's distinct (token, node) pairs, sorted by token
        token, node = np.divmod(sorted_unique(pairs), n_nodes)
        del pairs
        has_tokens[node] = True
        starts = np.flatnonzero(np.diff(token, prepend=-1))
        rows = token[starts]
        for j, label_row in enumerate(per_node):
            counts[rows, j] += np.add.reduceat(label_row[node], starts)
    return tokens, counts, per_node[:, has_tokens].sum(axis=1).tolist()


def keyword_label_table(dataset: Dataset, keywords: Sequence[str]) -> dict[str, dict[str, int]]:
    """Per-label counts of the records whose token set contains each
    lowercased keyword. Keywords absent everywhere get an all-zero row.

    Raises:
        TypeError: if ``keywords`` is a single string, which would read as
            one-letter keywords.
    """
    if isinstance(keywords, str):
        raise TypeError(f"keywords must be a sequence of strings, not the string {keywords!r}")
    names = dataset.label_set.labels
    tokens, counts, _ = _doc_counts(dataset)
    row_of = dict(zip(tokens, range(len(tokens))))
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

    Raises:
        ValueError: if min_df is not an int >= 1 (a bool is refused).
    """
    if isinstance(min_df, bool) or not isinstance(min_df, int) or min_df < 1:
        raise ValueError(f"min_df must be an integer >= 1, got {min_df}")
    tokens, counts, totals = _doc_counts(dataset)
    names, doc_freq = dataset.label_set.labels, counts.sum(axis=1)
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
