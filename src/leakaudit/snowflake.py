"""Snowflake id arithmetic: id parsing, timestamp decoding, histograms.

Twitter ids minted since late 2010 pack a millisecond timestamp into the
high bits:

    id = ((unix_ms - 1288834974657) << 22) | (worker_id << 12) | sequence

so the creation time is recoverable as ``(id >> 22) + 1288834974657``. Two
consequences drive everything else in this package: ids sort by creation
time, and the leading decimal digits of an id are a coarse clock. Ids from
the sequential era (before the scheme) have a zero timestamp field and are
rejected rather than decoded to nonsense.

``parse_id`` is the one id rule and ``timestamp_of`` the one decoding rule,
on an already parsed value; the loaders parse each id once and decode that
value, and ``decode_timestamp`` composes the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import IdParseError, PreSnowflakeIdError

TWITTER_EPOCH_MS = 1288834974657
# worker (10 bits) and sequence (12 bits) sit below the timestamp field
TIMESTAMP_SHIFT = 22
MAX_ID = 2**63 - 1


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


def timestamp_of(value: int) -> int | None:
    """Creation time, in unix milliseconds, of a parsed id value; None when
    its timestamp field is zero (a sequential-era id).

    The largest id decodes to ``(MAX_ID >> 22) + TWITTER_EPOCH_MS``, in
    the year 2080, so every nonzero timestamp field is a plausible time.
    """
    offset = value >> TIMESTAMP_SHIFT
    return offset + TWITTER_EPOCH_MS if offset else None


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
    ``(ts // bucket_ms) * bucket_ms``. Records without a ``timestamp_ms``
    are tallied in excluded_count, not in any bucket.
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
    its ``timestamp_ms``, which the loaders decode from its id.

    Raises:
        ValueError: if bucket_ms < 1.
    """
    if bucket_ms < 1:
        raise ValueError(f"bucket_ms must be >= 1, got {bucket_ms}")
    counts: dict[tuple[str, int], int] = {}
    excluded = 0
    for record in dataset.records:
        ts = record.timestamp_ms
        if ts is None:
            excluded += 1
            continue
        key = (record.label, (ts // bucket_ms) * bucket_ms)
        counts[key] = counts.get(key, 0) + 1
    return TimestampHistogram(bucket_ms=bucket_ms, counts=counts, excluded_count=excluded)
