"""Snowflake id arithmetic: id parsing, timestamp decoding, histograms.

Twitter ids minted since late 2010 pack a millisecond timestamp into the
high bits:

    id = ((unix_ms - 1288834974657) << 22) | (worker_id << 12) | sequence

so the creation time is recoverable as ``(id >> 22) + 1288834974657``. Two
consequences drive everything else in this package: ids sort by creation
time, and the leading decimal digits of an id are a coarse clock. Ids from
the sequential era (before the scheme) have a zero timestamp field and are
rejected rather than decoded to nonsense.

The id rule and the decoding rule live here only. ``parse_id`` and
``timestamp_of`` apply them to one value; ``parse_ids`` and
``timestamps_of`` apply them to a column at once. The loaders check every
id, and ``Dataset.id_values`` and ``Dataset.timestamps`` parse a dataset's
ids once and decode those values; ``decode_timestamp`` composes the two.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import compress, repeat

import numpy as np

from .errors import IdParseError, PreSnowflakeIdError

TWITTER_EPOCH_MS = 1288834974657
# worker (10 bits) and sequence (12 bits) sit below the timestamp field
TIMESTAMP_SHIFT = 22
MAX_ID = 2**63 - 1
# MAX_ID has 19 digits, so a canonical id's value is exact in uint64
_ID_DIGITS = len(str(MAX_ID))
_PLACE_VALUES = 10 ** np.arange(_ID_DIGITS - 1, -1, -1, dtype=np.uint64)


def parse_id(id_str: str) -> int:
    """Parse a canonical decimal id string.

    Accepts exactly the strings that render back identically: ASCII digits
    only, no leading zeros, value in [1, 2**63 - 1]. This is the one id
    rule; the loaders apply it to every id they read.

    Raises:
        IdParseError: for anything else, naming the broken rule.
    """
    if not isinstance(id_str, str) or not (id_str.isascii() and id_str.isdigit()):
        raise IdParseError(f"id is not a decimal string: {id_str!r}")
    value = int(id_str)
    if not 1 <= value <= MAX_ID:
        raise IdParseError(f"id outside [1, 2**63 - 1]: {id_str!r}")
    if id_str[0] == "0":
        raise IdParseError(f"id has a leading zero: {id_str!r}")
    return value


def parse_ids(ids: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """``parse_id`` over a list of strings at once: a bool mask of the ids
    it accepts, and each accepted id's value as uint64 (meaningless where
    the mask is False).

    The ids are zero-filled on the left into one fixed-width byte view, so
    each row reads as the digits of a 19-digit number. A sign, which
    ``str.zfill`` moves to the front, and a non-ASCII character, encoded as
    ``?``, fail the digit check; an empty id, or one longer than 19
    characters, reads as zeros and fails the leading-digit check.
    """
    width = _ID_DIGITS
    lengths = np.fromiter(map(len, ids), np.int64, len(ids))
    if lengths.max(initial=0) > width:
        ids = [s if len(s) <= width else "" for s in ids]
    text = "".join(map(str.zfill, ids, repeat(width))).encode("ascii", "replace")
    digits = np.frombuffer(text, np.uint8).reshape(-1, width) - np.uint8(ord("0"))  # bytes below '0' wrap above 9
    first = width - np.clip(lengths, 1, width)
    values = digits @ _PLACE_VALUES
    accepted = (
        np.all(digits <= 9, axis=1)
        & (digits[np.arange(len(ids)), first] != 0)
        & (values <= MAX_ID)
    )
    return accepted, values


def timestamp_of(value: int) -> int | None:
    """Creation time, in unix milliseconds, of a parsed id value; None when
    its timestamp field is zero (a sequential-era id).

    The largest id decodes to ``(MAX_ID >> 22) + TWITTER_EPOCH_MS``, in
    the year 2080, so every nonzero timestamp field is a plausible time.
    """
    offset = value >> TIMESTAMP_SHIFT
    return offset + TWITTER_EPOCH_MS if offset else None


def timestamps_of(values: np.ndarray) -> np.ndarray:
    """``timestamp_of`` over an array of parsed id values at once: int64, -1 for None."""
    offsets = (values >> np.uint64(TIMESTAMP_SHIFT)).astype(np.int64)
    return np.where(offsets > 0, offsets + TWITTER_EPOCH_MS, -1)


def decode_timestamp(id_str: str) -> int:
    """Decode the creation time of a snowflake id, in unix milliseconds.

    Raises:
        IdParseError: if the id is not a canonical decimal string.
        PreSnowflakeIdError: if the timestamp field is zero (sequential-era
            id).
    """
    timestamp = timestamp_of(parse_id(id_str))
    if timestamp is None:
        raise PreSnowflakeIdError(
            f"id {id_str} has a zero timestamp field (pre-snowflake id)"
        )
    return timestamp


def try_decode_timestamp(id_str: str) -> int | None:
    """decode_timestamp, but None instead of PreSnowflakeIdError."""
    return timestamp_of(parse_id(id_str))


@dataclass(frozen=True)
class TimestampHistogram:
    """Per-label counts of records falling in fixed-width time buckets.

    Bucket keys are unix-epoch-aligned start times: bucket(ts) is
    ``(ts // bucket_ms) * bucket_ms``. Records whose id carries no
    timestamp are tallied in excluded_count, not in any bucket.
    """

    bucket_ms: int
    counts: dict[tuple[str, int], int] = field(default_factory=dict)
    excluded_count: int = 0

    def label_marginal(self, label: str) -> dict[int, int]:
        return {b: c for (lab, b), c in self.counts.items() if lab == label}

    def rows(self) -> list[tuple[str, int, int]]:
        """(label, bucket_start_ms, count) rows, sorted for stable output."""
        return sorted((lab, b, c) for (lab, b), c in self.counts.items())


def timestamp_histogram(dataset, bucket_ms: int) -> TimestampHistogram:
    """Histogram a dataset's creation times, per label. A record's time is
    its entry in ``dataset.timestamps``, decoded from its id. Counts are
    keyed in first-occurrence order.

    Raises:
        ValueError: if bucket_ms is not an int >= 1 (a bool, float or numpy
            integer is refused).
    """
    if type(bucket_ms) is not int or bucket_ms < 1:
        raise ValueError(f"bucket_ms must be an int >= 1, got {bucket_ms!r}")
    stamps = dataset.timestamps
    timed = stamps >= 0
    labels = dataset.label_index[timed]
    if np.any(labels < 0):  # a hand-built record's label outside the set
        pairs = compress(zip([r.label for r in dataset.records], stamps.tolist()), timed.tolist())
        counts = dict(Counter((label, (ts // bucket_ms) * bucket_ms) for label, ts in pairs))
    else:
        # a bucket_ms beyond every timestamp puts all in bucket 0, and would overflow int64
        buckets = stamps[timed] // min(bucket_ms, 2**62)
        span = int(buckets.max(initial=0)) + 1
        keys, first, n = np.unique(labels * span + buckets, return_index=True, return_counts=True)
        order = np.argsort(first)  # first-occurrence order, which the TV sums read
        names = dataset.label_set.labels
        counts = {(names[key // span], key % span * bucket_ms): count
                  for key, count in zip(keys[order].tolist(), n[order].tolist())}
    return TimestampHistogram(bucket_ms, counts, excluded_count=len(stamps) - len(labels))
