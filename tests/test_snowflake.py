"""Id decoding and timestamp histograms."""

import re
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from leakaudit import (
    TWITTER_EPOCH_MS,
    build_dataset,
    decode_timestamp,
    timestamp_histogram,
    try_decode_timestamp,
)
from leakaudit.data import Dataset, LabelSet, Record
from leakaudit.errors import IdParseError, PreSnowflakeIdError, RecordParseError
from leakaudit.snowflake import MAX_ID, parse_id, parse_ids, timestamp_of, timestamps_of

from _synth import snowflake_id


def test_decode_smallest_snowflake_id():
    # timestamp field 1 -> exactly one ms past the epoch
    assert decode_timestamp(str(1 << 22)) == 1288834974658


def test_decode_known_2015_id():
    # oracle: this id is from early January 2015 (checked against the
    # calendar via an independent datetime conversion)
    ts = decode_timestamp("553588178687655936")
    dt = datetime.fromtimestamp(ts / 1000, tz=timezone.utc)
    assert (dt.year, dt.month) == (2015, 1)
    assert ts == 1420820681627


def test_pre_snowflake_ids_rejected():
    with pytest.raises(PreSnowflakeIdError):
        decode_timestamp("20")
    with pytest.raises(PreSnowflakeIdError):
        decode_timestamp(str((1 << 22) - 1))
    assert try_decode_timestamp("20") is None


@pytest.mark.parametrize(
    # Arabic-Indic digits and a superscript two are str.isdigit() but not ids
    "bad", ["", "abc", "12.3", "0", "007", "-5", str(2**63), "\u0661\u0662\u0663", "\u00b2"]
)
def test_parse_id_rejects_non_canonical(bad):
    broken = {"0": "id outside [1, 2**63 - 1]", str(2**63): "id outside [1, 2**63 - 1]",
              "007": "id has a leading zero"}.get(bad, "id is not a decimal string")
    message = re.escape(f"{broken}: {bad!r}")
    with pytest.raises(IdParseError, match=f"^{message}$"):
        parse_id(bad)
    with pytest.raises(IdParseError, match=f"^{message}$"):
        decode_timestamp(bad)
    # the loader applies the same rule
    with pytest.raises(RecordParseError, match=f"^line 1: {message}$"):
        build_dataset([{"id": bad, "text": "t", "label": "x"}], labels=["x"])


def test_parse_id_accepts_bounds():
    assert parse_id("1") == 1
    assert parse_id(str(2**63 - 1)) == 2**63 - 1


# ids near the rule's edges: digits that may lead with zeros, 18 to 20 digit
# values around MAX_ID, signs and blanks, non-ASCII digits and lone surrogates
_ID_STRINGS = st.one_of(
    st.text(alphabet="0123456789", max_size=21),
    st.integers(-1, 3 * MAX_ID).map(str),
    st.integers(MAX_ID - 10**4, MAX_ID + 10**4).map(str),
    st.integers(0, 1 << 23).map(str),
    st.text(alphabet="0123456789 +-.e\u0663\u00b2\ud800", max_size=21),
    st.text(max_size=21),
)


@given(st.lists(_ID_STRINGS, max_size=40))
def test_parse_ids_and_timestamps_of_match_the_scalar_rules(ids):
    accepted, values = parse_ids(ids)
    stamps = timestamps_of(values)
    assert stamps.dtype == np.int64
    rows = zip(ids, accepted.tolist(), values.tolist(), stamps.tolist())
    for id_str, ok, value, stamp in rows:
        try:
            want = parse_id(id_str)
        except IdParseError:
            assert not ok, id_str
            continue
        assert ok, id_str
        want_stamp = timestamp_of(want)
        assert (value, stamp) == (want, -1 if want_stamp is None else want_stamp)


@given(
    st.lists(
        # snowflake-era ids, sequential-era ids (no timestamp field) and the
        # largest ids, some written as JSON numbers
        st.one_of(
            st.integers(1 << 22, MAX_ID), st.integers(1, (1 << 22) - 1),
            st.integers(MAX_ID - 100, MAX_ID),
        ),
        max_size=30, unique=True,
    ),
    st.booleans(),
)
def test_dataset_id_columns_match_the_scalar_rules(values, as_numbers):
    rows = [{"id": v if as_numbers else str(v), "text": "t", "label": "x"} for v in values]
    ds = build_dataset(rows, labels=["x"])
    assert ds.id_values.dtype == np.uint64 and ds.timestamps.dtype == np.int64
    assert not ds.id_values.flags.writeable and not ds.timestamps.flags.writeable
    want = [parse_id(r.id) for r in ds.records]
    assert ds.id_values.tolist() == want
    stamps = [timestamp_of(v) for v in want]
    assert ds.timestamps.tolist() == [-1 if ts is None else ts for ts in stamps]


def test_decode_random_ids():
    rng = np.random.default_rng(3)
    for _ in range(200):
        offset = int(rng.integers(1, 2**41))
        worker = int(rng.integers(0, 1 << 10))
        seq = int(rng.integers(0, 1 << 12))
        sid = str((offset << 22) | (worker << 12) | seq)
        assert decode_timestamp(sid) == offset + TWITTER_EPOCH_MS
    # the largest id decodes too: no timestamp field is out of range
    assert decode_timestamp(str(2**63 - 1)) == (2**41 - 1) + TWITTER_EPOCH_MS


def test_decode_monotone_in_id():
    rng = np.random.default_rng(4)
    ids = sorted(int(rng.integers(1 << 22, 2**63)) for _ in range(1000))
    times = [decode_timestamp(str(i)) for i in ids]
    assert times == sorted(times)


def test_low_22_bits_never_change_the_timestamp():
    rng = np.random.default_rng(5)
    for _ in range(200):
        base = int(rng.integers(1, 2**40)) << 22
        ts = decode_timestamp(str(base))
        for _ in range(5):
            jitter = int(rng.integers(0, 1 << 22))
            assert decode_timestamp(str(base | jitter)) == ts


def test_timestamp_histogram_buckets_and_exclusions():
    rng = np.random.default_rng(8)
    seen = set()
    day = 86_400_000
    base_a = 1_420_070_400_000
    base_b = 1_427_846_400_000
    rows = []
    for i in range(40):
        rows.append(
            {"id": snowflake_id(base_a + i * day // 8, rng, seen), "text": "x", "label": "a"}
        )
        rows.append(
            {"id": snowflake_id(base_b + i * day // 8, rng, seen), "text": "x", "label": "b"}
        )
    rows.append({"id": "99", "text": "pre-snowflake", "label": "a"})
    ds = build_dataset(rows, labels=["a", "b"])

    hist = timestamp_histogram(ds, bucket_ms=day)
    assert hist.excluded_count == 1
    assert sum(hist.counts.values()) == 80
    buckets_a = set(hist.label_marginal("a"))
    buckets_b = set(hist.label_marginal("b"))
    assert buckets_a and buckets_b
    assert not buckets_a & buckets_b  # eras are disjoint
    for (_, bucket), _count in hist.counts.items():
        assert bucket % day == 0

    # a float would make float bucket keys, and a bool would act as 1
    for bad in (0, -1, 1.5, True, np.int64(7)):
        with pytest.raises(ValueError) as exc:
            timestamp_histogram(ds, bucket_ms=bad)
        assert str(exc.value) == f"bucket_ms must be an int >= 1, got {bad!r}"


def test_timestamp_histogram_rows_sorted():
    rng = np.random.default_rng(9)
    seen = set()
    rows = [
        {"id": snowflake_id(1_420_070_400_000 + i * 10_000_000, rng, seen), "text": "t", "label": "a"}
        for i in range(20)
    ]
    ds = build_dataset(rows, labels=["a"])
    out = timestamp_histogram(ds, bucket_ms=3_600_000).rows()
    assert out == sorted(out)


@given(
    st.lists(
        st.tuples(
            st.one_of(st.integers(1 << 22, MAX_ID), st.integers(1, (1 << 22) - 1)),
            st.sampled_from("ab"),
        ),
        max_size=30, unique_by=lambda row: row[0],
    ),
    st.integers(1, 10**13),
)
def test_timestamp_histogram_matches_a_per_record_loop(rows, bucket_ms):
    ds = build_dataset([{"id": str(v), "text": "t", "label": lab} for v, lab in rows], ["a", "b"])
    counts, excluded = {}, 0
    for value, label in rows:
        ts = timestamp_of(value)
        if ts is None:
            excluded += 1
            continue
        key = (label, (ts // bucket_ms) * bucket_ms)
        counts[key] = counts.get(key, 0) + 1
    hist = timestamp_histogram(ds, bucket_ms)
    # the same keys in the same first-occurrence order
    assert list(hist.counts.items()) == list(counts.items())
    assert hist.excluded_count == excluded



def _histogram_loop(records, bucket_ms):
    counts = {}
    for r in records:
        ts = timestamp_of(int(r.id))
        if ts is not None:
            key = (r.label, (ts // bucket_ms) * bucket_ms)
            counts[key] = counts.get(key, 0) + 1
    return counts


def test_timestamp_histogram_of_a_huge_bucket():
    # a bucket wider than int64 holds every time in bucket 0; a label the
    # set holds but no record carries gets no key
    ids = [str((1 << 40) + 3), "77", str(MAX_ID), str(1 << 50), str((1 << 40) + 5)]
    records = tuple(Record(id=i, text="t", label=lab) for i, lab in zip(ids, "babba"))
    for labels in (("a", "b"), ("a", "c", "b")):
        ds = Dataset(records=records, label_set=LabelSet(labels))
        for bucket_ms in (1, 86_400_000, 2**62, 2**70):
            hist = timestamp_histogram(ds, bucket_ms)
            assert list(hist.counts.items()) == list(_histogram_loop(records, bucket_ms).items())
            assert hist.excluded_count == 1
