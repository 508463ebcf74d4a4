"""Text rules and the word table that the keyword and duplicate scans share.

Both scans read a record's text lowercased, with URLs stripped. The
keyword scan takes maximal alphanumeric runs as tokens; the duplicate
scan takes whitespace-separated words, punctuation kept. Whitespace is
not alphanumeric, so a text's tokens are its words' tokens in order, and
each distinct word needs tokenizing only once.

``build_text_table`` normalizes each record once and gives every distinct
normalized text (a node) and every distinct word a small id, in order of
first appearance. ``Dataset.text_table`` builds it on first use, so one
audit builds it once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
_BATCH_TEXTS = 256  # texts one table-building pass holds at most
_EMPTY = np.empty(0, dtype=np.int32)


def strip_urls(text: str) -> str:
    """Replace each URL in lowercased text with a space."""
    # URL_RE matches only text holding one of these, and costs more than the test
    return URL_RE.sub(" ", text) if "://" in text or "www." in text else text


def text_words(text: str) -> list[str]:
    """The whitespace-separated words of text, lowercased, URLs stripped."""
    return strip_urls(text.lower()).split()


def normalize_text(text: str) -> str:
    """Lowercase, strip URLs, collapse whitespace. Empty result means the
    record has no usable text."""
    return " ".join(text_words(text))


class _TokenChars(dict):
    """str.translate table: a codepoint TOKEN_RE matches maps to itself,
    any other to a space. Entries are made on first sight, so TOKEN_RE
    stays the one rule."""

    def __missing__(self, code: int) -> str:
        char = chr(code)
        value = self[code] = char if TOKEN_RE.fullmatch(char) else " "
        return value


_TOKEN_CHARS = _TokenChars()


def split_tokens(text: str) -> list[str]:
    """TOKEN_RE.findall(text): the maximal runs of token characters."""
    return text.translate(_TOKEN_CHARS).split()


def assign_ids(keys: list[str], ids: dict[str, int]) -> tuple[np.ndarray, list[str]]:
    """Each key's id in ``ids`` as int32, and the keys that ids lacked,
    which get the next ids in order of first appearance. ids maps one
    reserved key to -1 and the others to 0, 1, ...; it is updated in place."""
    unseen = [key for key in dict.fromkeys(keys) if key not in ids]
    ids.update(zip(unseen, range(len(ids) - 1, len(ids) - 1 + len(unseen))))
    return np.fromiter(map(ids.__getitem__, keys), np.int32, len(keys)), unseen


@dataclass(frozen=True)
class TextTable:
    """The distinct normalized texts (nodes) of a dataset, as word ids.

    node[row] is the node of the row's ``normalize_text`` result, -1 when
    that is empty. Node i's words are words[s : s + n_words[i]] with s the
    sum of n_words[:i]. The three arrays are int32, to halve what the
    table keeps; widen them before multiplying. vocab holds the distinct
    words in id order, each followed by one space: one string costs far
    less memory than a list of them. Nodes and words are numbered in order
    of first appearance.
    """

    node: np.ndarray
    words: np.ndarray
    n_words: np.ndarray
    vocab: str


def build_text_table(texts: Sequence[str]) -> TextTable:
    """The text table of ``texts``, built _BATCH_TEXTS texts at a time.
    ``Dataset.text_table`` keeps the table of a dataset's texts."""
    node_of = {"": -1}  # normalized text -> node; the empty text is no node
    word_ids = {"": -1}  # no word is empty
    nodes, words, n_words, vocab = [_EMPTY], [_EMPTY], [_EMPTY], []
    for lo in range(0, len(texts), _BATCH_TEXTS):
        splits = list(map(text_words, texts[lo : lo + _BATCH_TEXTS]))
        normalized = list(map(" ".join, splits))
        node, new_texts = assign_ids(normalized, node_of)
        new_splits = list(map(dict(zip(normalized, splits)).__getitem__, new_texts))
        word, new_words = assign_ids(list(chain.from_iterable(new_splits)), word_ids)
        nodes.append(node)
        words.append(word)
        n_words.append(np.fromiter(map(len, new_splits), np.int32, len(new_splits)))
        vocab.append(" ".join([*new_words, ""]))
    del node_of, word_ids  # before the arrays are joined, to lower the peak
    table = TextTable(
        np.concatenate(nodes), np.concatenate(words), np.concatenate(n_words), "".join(vocab)
    )
    for array in (table.node, table.words, table.n_words):
        array.flags.writeable = False
    return table
