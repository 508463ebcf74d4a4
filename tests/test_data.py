"""Loaders, the JSONL saver, and the core model."""

import csv
import json
import re
import tempfile
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leakaudit import LabelSet, Manifest, build_dataset, load_jsonl
from leakaudit.data import (
    CANONICAL_FIELDS,
    CHUNK_SIZE,
    _NO_EXTRA,
    Dataset,
    Record,
    _chunk_builder,
    _record_builder,
    label_distribution,
    load_csv,
    save_jsonl,
)
from leakaudit.errors import (
    DuplicateIdError,
    IdParseError,
    LeakAuditError,
    RecordParseError,
    SchemaError,
    UnknownLabelError,
)
from leakaudit.snowflake import MAX_ID, parse_id

MANIFEST = Manifest(labels=("real", "fake"))


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_label_set_order_and_membership():
    ls = LabelSet.of("b", "a")
    assert list(ls) == ["b", "a"]
    assert ls.index("a") == 1
    assert "a" in ls and "z" not in ls
    with pytest.raises(UnknownLabelError):
        ls.index("z")


def test_label_set_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        LabelSet.of("a", "a")
    with pytest.raises(ValueError):
        LabelSet(())
    with pytest.raises(ValueError):
        LabelSet.of("a", "")


def test_load_jsonl_basic(tmp_path):
    path = write(
        tmp_path / "d.jsonl",
        '{"id": "4211941865", "text": "first", "label": "real"}\n'
        '{"id": 4211941866, "text": "second", "label": "fake", "reply_count": 3, "lang": "en"}\n'
        "\n"
        '{"id": "99", "text": "", "label": "real", "event": "ev1"}\n',
    )
    ds = load_jsonl(path, MANIFEST)
    assert len(ds) == 3
    assert ds.records[1].id == "4211941866"  # numeric ids accepted
    assert ds.records[1].reply_count == 3
    assert ds.records[1].extra == {"lang": "en"}
    assert ds.records[2].event == "ev1"
    assert ds.name == "d"
    assert ds.timestamps.tolist() == [1288834975661, 1288834975661, -1]  # "99" is pre-snowflake


# each bad second line and the full error it raises
BAD_LINES = {
    '{"id": "1", "text": "x"}': (
        RecordParseError,
        "line 2: missing required field 'label'",
    ),
    '{"id": "1", "text": "x", "label": "nope"}': (
        UnknownLabelError,
        "line 2: label 'nope' not in manifest labels ['real', 'fake']",
    ),
    '{"id": "01", "text": "x", "label": "real"}': (
        RecordParseError,
        "line 2: id has a leading zero: '01'",
    ),
    '{"id": "0", "text": "x", "label": "real"}': (
        RecordParseError,
        "line 2: id outside [1, 2**63 - 1]: '0'",
    ),
    '{"id": "x1", "text": "x", "label": "real"}': (
        RecordParseError,
        "line 2: id is not a decimal string: 'x1'",
    ),
    '{"id": "1", "text": 5, "label": "real"}': (
        RecordParseError,
        "line 2: text is not a string: 5",
    ),
    '{"id": "1", "text": "x", "label": "real", "reply_count": -1}': (
        RecordParseError,
        "line 2: reply_count is negative: -1",
    ),
    "not json": (
        RecordParseError,
        "line 2: invalid JSON: Expecting value: line 1 column 1 (char 0)",
    ),
    "[1, 2]": (RecordParseError, "line 2: line is not a JSON object"),
    '{"id": "1", "text": "x", "label": "real"} trailing': (
        RecordParseError,
        "line 2: invalid JSON: Extra data: line 1 column 43 (char 42)",
    ),
    '{"id": "1", "text": "x", "label": "real"}{"id": "2"}': (
        RecordParseError,
        "line 2: invalid JSON: Extra data: line 1 column 42 (char 41)",
    ),
    '{"id": }': (
        RecordParseError,
        "line 2: invalid JSON: Expecting value: line 1 column 8 (char 7)",
    ),
    '{"id": "1", "text": "x", "label": "real"': (
        RecordParseError,
        "line 2: invalid JSON: Expecting ',' delimiter: line 2 column 1 (char 41)",
    ),
    '﻿{"id": "1", "text": "x", "label": "real"}': (
        RecordParseError,
        "line 2: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
        "line 1 column 1 (char 0)",
    ),
    '"just a string"': (RecordParseError, "line 2: line is not a JSON object"),
    '{"text": "x", "label": "nope"}': (
        RecordParseError,
        "line 2: missing required field 'id'",
    ),
    '{"id": true, "text": "x", "label": "real"}': (
        RecordParseError,
        "line 2: id is not a decimal string: True",
    ),
    '{"id": 1.5, "text": "x", "label": "real"}': (
        RecordParseError,
        "line 2: id is not a decimal string: 1.5",
    ),
    '{"id": -5, "text": "x", "label": "real"}': (
        RecordParseError,
        "line 2: id is not a decimal string: '-5'",
    ),
    '{"id": 9223372036854775808, "text": "x", "label": "real"}': (
        RecordParseError,
        "line 2: id outside [1, 2**63 - 1]: '9223372036854775808'",
    ),
    '{"id": "1", "text": "x", "label": "real", "reply_count": "many"}': (
        RecordParseError,
        "line 2: reply_count is not an integer: 'many'",
    ),
    '{"id": "1", "text": "x", "label": ["real"]}': (
        UnknownLabelError,
        "line 2: label ['real'] not in manifest labels ['real', 'fake']",
    ),
    '{"id": "1", "text": "x", "label": "real", "reply_count": Infinity}': (
        RecordParseError,
        "line 2: reply_count is not an integer: inf",
    ),
    '{"id": "1", "text": "x", "label": "real", "reply_count": 1e400}': (
        RecordParseError,
        "line 2: reply_count is not an integer: inf",
    ),
    '{"id": "1", "text": "x", "label": "real", "reply_count": NaN}': (
        RecordParseError,
        "line 2: reply_count is not an integer: nan",
    ),
    '{"id": "1", "text": "x", "label": "real", "reply_count": true}': (
        RecordParseError,
        "line 2: reply_count is not an integer: True",
    ),
    '{"id": "1", "text": "x", "label": "real", "reply_count": 3.7}': (
        RecordParseError,
        "line 2: reply_count is not an integer: 3.7",
    ),
}


@pytest.mark.parametrize("line,error", [(line, error) for line, (error, _) in BAD_LINES.items()])
def test_load_jsonl_rejects_bad_lines(tmp_path, line, error):
    path = write(
        tmp_path / "bad.jsonl",
        '{"id": "7", "text": "fine", "label": "real"}\n' + line + "\n",
    )
    with pytest.raises(error) as exc:
        load_jsonl(path, MANIFEST)
    assert type(exc.value) is error
    assert str(exc.value) == BAD_LINES[line][1]


def test_load_jsonl_accepts_integral_reply_counts(tmp_path):
    path = write(
        tmp_path / "replies.jsonl",
        "".join(
            f'{{"id": "{i}", "text": "x", "label": "real", "reply_count": {value}}}\n'
            for i, value in enumerate(["7", "3.0", '"12"', "0", "1e3", "null", '""'], start=1)
        ),
    )
    counts = [r.reply_count for r in load_jsonl(path, MANIFEST).records]
    assert counts == [7, 3, 12, 0, 1000, None, None]
    assert all(type(c) is int for c in counts[:5])


def test_load_jsonl_rejects_one_trailing_character_on_the_last_line(tmp_path):
    path = tmp_path / "tail.jsonl"
    path.write_bytes(
        b'{"id": "7", "text": "fine", "label": "real"}\n'
        b'{"id": "1", "text": "x", "label": "real"}x'
    )
    with pytest.raises(RecordParseError) as exc:
        load_jsonl(path, MANIFEST)
    assert str(exc.value) == "line 2: invalid JSON: Extra data: line 1 column 42 (char 41)"


@pytest.mark.parametrize(
    "line,error,message",
    [
        ('{"label": "real"}', RecordParseError, "missing required field 'id'"),
        ('{"id": "1", "label": "nope"}', RecordParseError, "missing required field 'text'"),
        ('{"id": "x", "text": "t"}', RecordParseError, "missing required field 'label'"),
        (
            '{"id": "x", "text": 5, "label": "real"}',
            RecordParseError,
            "id is not a decimal string: 'x'",
        ),
        ('{"id": "1", "text": 5, "label": "nope"}', RecordParseError, "text is not a string: 5"),
        (
            '{"id": "1", "text": "t", "label": "nope", "reply_count": -1}',
            UnknownLabelError,
            "label 'nope' not in manifest labels ['real', 'fake']",
        ),
    ],
)
def test_load_jsonl_reports_the_first_broken_rule_of_a_record(tmp_path, line, error, message):
    # missing fields, id, text type, label, reply_count: in that order
    path = write(tmp_path / "order.jsonl", line + "\n")
    with pytest.raises(error) as exc:
        load_jsonl(path, MANIFEST)
    assert str(exc.value) == "line 1: " + message


def test_load_jsonl_accepts_padded_lines_and_int_ids(tmp_path):
    path = tmp_path / "padded.jsonl"
    path.write_bytes(
        b'  {"id": "11", "text": "leading blanks", "label": "real"}\n'
        b'{"id": "12", "text": "crlf", "label": "fake"}\r\n'
        b" \t \n"
        b'{"id": 4211941866, "text": "int id", "label": "real"}  \n'
        b'{"id": "13", "text": "no final newline", "label": "real"}'
    )
    ds = load_jsonl(path, MANIFEST)
    assert [(r.id, r.text, r.label) for r in ds.records] == [
        ("11", "leading blanks", "real"),
        ("12", "crlf", "fake"),
        ("4211941866", "int id", "real"),
        ("13", "no final newline", "real"),
    ]
    assert ds.timestamps.tolist() == [-1, -1, 1288834975661, -1]


def test_load_jsonl_reports_a_bad_line_before_an_earlier_duplicate(tmp_path):
    # every line is built and checked before ids are compared
    path = write(
        tmp_path / "order.jsonl",
        '{"id": "5", "text": "a", "label": "real"}\n'
        '{"id": "5", "text": "b", "label": "fake"}\n'
        '{"id": "6", "text": "c", "label": "real"}\n'
        '{"id": "7", "text": "d", "label": "nope"}\n',
    )
    with pytest.raises(UnknownLabelError) as exc:
        load_jsonl(path, MANIFEST)
    assert str(exc.value) == "line 4: label 'nope' not in manifest labels ['real', 'fake']"


def _plain_lines(n, start=1):
    return [json.dumps({"id": str(start + i), "text": "t", "label": "real"}) for i in range(n)]


def test_load_jsonl_reports_a_bad_record_at_a_chunk_end_before_the_next_json_error(tmp_path):
    # the bad record ends one chunk, the unreadable line opens the next
    bad = '{"id": "01", "text": "t", "label": "real"}'
    lines = _plain_lines(CHUNK_SIZE - 1) + [bad, "not json"]
    path = write(tmp_path / "edge.jsonl", "\n".join(lines) + "\n")
    with pytest.raises(RecordParseError) as exc:
        load_jsonl(path, MANIFEST)
    assert str(exc.value) == f"line {CHUNK_SIZE}: id has a leading zero: '01'"


def test_load_jsonl_reports_a_bad_record_before_a_later_json_error_in_its_chunk(tmp_path):
    lines = _plain_lines(3) + ['{"id": "9", "text": "t", "label": "nope"}'] + _plain_lines(5, 10)
    path = write(tmp_path / "mixed.jsonl", "\n".join(lines + ["[1, 2]", "not json"]) + "\n")
    with pytest.raises(UnknownLabelError) as exc:
        load_jsonl(path, MANIFEST)
    assert str(exc.value) == "line 4: label 'nope' not in manifest labels ['real', 'fake']"


def test_load_jsonl_reports_a_json_error_after_full_chunks(tmp_path):
    lines = _plain_lines(2 * CHUNK_SIZE + 1) + ["not json"]
    path = write(tmp_path / "late.jsonl", "\n".join(lines) + "\n")
    with pytest.raises(RecordParseError) as exc:
        load_jsonl(path, MANIFEST)
    assert str(exc.value) == (
        f"line {2 * CHUNK_SIZE + 2}: invalid JSON: Expecting value: line 1 column 1 (char 0)"
    )


def test_load_jsonl_finds_duplicates_across_chunks(tmp_path):
    lines = _plain_lines(CHUNK_SIZE + 5) + [json.dumps({"id": "3", "text": "t", "label": "fake"})]
    path = write(tmp_path / "dup.jsonl", "\n".join(lines) + "\n")
    with pytest.raises(DuplicateIdError) as exc:
        load_jsonl(path, MANIFEST)
    assert str(exc.value) == f"line {CHUNK_SIZE + 6}: id 3 already seen on line 3"


def test_loaded_records_are_immutable(tmp_path):
    path = write(
        tmp_path / "d.jsonl",
        '{"id": "4211941865", "text": "plain", "label": "real"}\n'
        '{"id": "4211941866", "text": "extra", "label": "fake", "lang": "en"}\n',
    )
    plain, extra = load_jsonl(path, MANIFEST).records
    with pytest.raises(AttributeError):
        plain.text = "changed"
    with pytest.raises(AttributeError):
        extra.id = "1"
    assert extra.extra == {"lang": "en"}
    # records without extras share the default's one empty read-only mapping
    assert plain.extra is Record(id="1", text="t", label="real").extra
    assert plain.extra == {} and isinstance(plain.extra, MappingProxyType)
    with pytest.raises(TypeError):
        plain.extra["lang"] = "de"
    assert plain == Record("4211941865", "plain", "real")
    # the creation time is a dataset column, not a field decoded per record
    assert "timestamp_ms" not in Record._fields


def test_loaders_skip_a_leading_byte_order_mark(tmp_path):
    bom = "\ufeff"
    jsonl = write(tmp_path / "bom.jsonl", bom + '{"id": "1", "text": "t", "label": "real"}\n')
    assert [r.id for r in load_jsonl(jsonl, MANIFEST).records] == ["1"]
    csv_path = tmp_path / "bom.csv"
    csv_path.write_bytes((bom + "id,text,label\r\n1,t,real\r\n").encode("utf-8"))
    assert [r.id for r in load_csv(csv_path, MANIFEST).records] == ["1"]
    manifest = write(tmp_path / "m.json", bom + json.dumps({"labels": ["real", "fake"]}))
    assert Manifest.from_json_file(manifest) == MANIFEST
    # a byte order mark anywhere else is data, and fails as it did
    later = write(tmp_path / "later.csv", "id,text,label\n" + bom + "1,t,real\n")
    with pytest.raises(RecordParseError) as exc:
        load_csv(later, MANIFEST)
    assert str(exc.value) == "line 2: id is not a decimal string: '\\ufeff1'"


def test_load_jsonl_duplicate_id(tmp_path):
    path = write(
        tmp_path / "dup.jsonl",
        '{"id": "5", "text": "a", "label": "real"}\n'
        '{"id": "5", "text": "b", "label": "fake"}\n',
    )
    with pytest.raises(DuplicateIdError) as exc:
        load_jsonl(path, MANIFEST)
    assert str(exc.value) == "line 2: id 5 already seen on line 1"


def test_load_csv_rfc4180(tmp_path):
    path = write(
        tmp_path / "d.csv",
        'id,text,label,reply_count\n'
        '11,"hello, world",real,\n'
        '12,"line one\nline two",fake,7\n',
    )
    ds = load_csv(path, MANIFEST)
    assert ds.records[0].text == "hello, world"
    assert ds.records[0].reply_count is None
    assert ds.records[1].text == "line one\nline two"
    assert ds.records[1].reply_count == 7


@pytest.mark.parametrize(
    "content,error,message",
    [
        ("id,text\n1,abc\n", SchemaError, "{path}: missing required column 'label'"),
        ("", SchemaError, "{path}: empty file, no header row"),
        ("id,text,label\n1,abc\n", RecordParseError, "line 2: row width does not match header"),
        (
            "id,text,label\n1,abc,real,extra\n",
            RecordParseError,
            "line 2: row width does not match header",
        ),
        ("id,text,label\n01,abc,real\n", RecordParseError, "line 2: id has a leading zero: '01'"),
        ("id,text,label\n,a,real\n", RecordParseError, "line 2: id is not a decimal string: ''"),
        (
            "id,text,label\n1,abc,nope\n",
            UnknownLabelError,
            "line 2: label 'nope' not in manifest labels ['real', 'fake']",
        ),
        (
            "id,text,label,reply_count\n1,abc,real,x\n",
            RecordParseError,
            "line 2: reply_count is not an integer: 'x'",
        ),
        (
            "id,text,label\n5,a,real\n5,b,fake\n",
            DuplicateIdError,
            "line 3: id 5 already seen on line 2",
        ),
        # errors name the line a row starts on, after texts that span lines
        (
            'id,text,label\n1,"a\nb\nc",real\n2,ok,real\n3,ok,bogus\n',
            UnknownLabelError,
            "line 6: label 'bogus' not in manifest labels ['real', 'fake']",
        ),
        (
            'id,text,label\n1,"two\nlines",real\n1,dup,real\n',
            DuplicateIdError,
            "line 4: id 1 already seen on line 2",
        ),
        (
            'id,text,label\n1,"two\nlines",real\n2,"x\ny",real,extra\n',
            RecordParseError,
            "line 4: row width does not match header",
        ),
        # and after blank lines, which hold no row
        (
            "id,text,label\n1,a,real\n\n2,b,bogus\n",
            UnknownLabelError,
            "line 4: label 'bogus' not in manifest labels ['real', 'fake']",
        ),
        (
            "id,text,label\n\n\n1,a,real\n\n1,b,real\n",
            DuplicateIdError,
            "line 6: id 1 already seen on line 4",
        ),
    ],
)
def test_load_csv_error_text(tmp_path, content, error, message):
    path = write(tmp_path / "bad.csv", content)
    with pytest.raises(error) as exc:
        load_csv(path, MANIFEST)
    assert type(exc.value) is error
    assert str(exc.value) == message.format(path=path)


def test_load_csv_reports_a_bad_row_before_a_later_unreadable_row(tmp_path):
    # a field over the csv module's size limit cannot be read at all
    too_long = "x" * (csv.field_size_limit() + 1)
    path = write(tmp_path / "big.csv", f"id,text,label\n1,a,nope\n2,{too_long},real\n")
    with pytest.raises(UnknownLabelError) as exc:
        load_csv(path, MANIFEST)
    assert str(exc.value) == "line 2: label 'nope' not in manifest labels ['real', 'fake']"


def test_load_csv_field_mapping(tmp_path):
    path = write(
        tmp_path / "m.csv",
        "tweet_id,content,verdict\n31,some text,fake\n",
    )
    manifest = Manifest(
        labels=("real", "fake"),
        fields={"id": "tweet_id", "text": "content", "label": "verdict"},
    )
    ds = load_csv(path, manifest)
    assert ds.records[0].id == "31"
    assert ds.records[0].label == "fake"
    assert ds.records[0].extra == {}


def test_load_csv_missing_column(tmp_path):
    path = write(tmp_path / "x.csv", "id,text\n1,abc\n")
    with pytest.raises(SchemaError):
        load_csv(path, MANIFEST)


def test_load_csv_mapped_column_missing(tmp_path):
    path = write(tmp_path / "x.csv", "id,text,label\n1,abc,real\n")
    manifest = Manifest(labels=("real",), fields={"event": "ev_col"})
    with pytest.raises(SchemaError):
        load_csv(path, manifest)


def test_manifest_rejects_unknown_canonical_field():
    with pytest.raises(SchemaError):
        Manifest(labels=("a",), fields={"bogus": "col"})


@pytest.mark.parametrize(
    "labels, message",
    [((), "label set is empty"), (("a", "a"), "duplicate labels"), (("a", ""), "non-empty")],
)
def test_manifest_refuses_a_bad_label_set_when_made(labels, message):
    with pytest.raises(ValueError, match=message):
        Manifest(labels=labels)


def test_manifest_from_json_file(tmp_path):
    path = write(
        tmp_path / "m.json",
        json.dumps({"labels": ["x", "y"], "fields": {"id": "tid"}}),
    )
    m = Manifest.from_json_file(path)
    assert m.labels == ("x", "y")
    assert m.source_key("id") == "tid"
    assert m.source_key("text") == "text"


def test_manifest_file_ignores_other_keys(tmp_path):
    # keys other than labels and fields are ignored, "name" too: the
    # loader names the dataset after its file
    path = write(
        tmp_path / "m.json",
        json.dumps(
            {"name": "demo", "source_notes": "n", "mystery": 1, "labels": ["real", "fake"]}
        ),
    )
    m = Manifest.from_json_file(path)
    assert m == Manifest(labels=("real", "fake"))
    data = write(tmp_path / "corpus.jsonl", '{"id": "1", "text": "t", "label": "real"}\n')
    assert load_jsonl(data, m).name == "corpus"


@pytest.mark.parametrize(
    "content",
    [
        "{not json",
        "5",
        '["x", "y"]',
        "{}",
        '{"labels": []}',
        '{"labels": "true"}',
        '{"labels": ["x", 2]}',
        '{"labels": ["x"], "fields": ["id"]}',
        '{"labels": ["x"], "fields": {"id": ["x"]}}',
    ],
)
def test_manifest_from_json_file_rejects_malformed(tmp_path, content):
    path = write(tmp_path / "m.json", content)
    with pytest.raises(SchemaError, match=f"manifest {re.escape(str(path))}"):
        Manifest.from_json_file(path)


def test_jsonl_round_trip(tmp_path):
    rows = [
        {"id": "4211941865", "text": "first ünicode ✓", "label": "real", "extra_col": [1, 2]},
        {
            "id": "99",
            "text": "",
            "label": "fake",
            "event": "ev",
            "article_id": "a1",
            "reply_count": 0,
        },
    ]
    ds = build_dataset(rows, labels=["real", "fake"], name="rt")
    out = tmp_path / "rt.jsonl"
    save_jsonl(ds, out)
    again = load_jsonl(out, Manifest(labels=("real", "fake")), name="rt")
    assert again.records == ds.records
    assert again.label_set == ds.label_set

    save_jsonl(again, tmp_path / "rt2.jsonl")
    assert (tmp_path / "rt2.jsonl").read_bytes() == out.read_bytes()


# ids from the sequential era (zero timestamp field) and from the snowflake era
_ids = st.one_of(st.integers(1, 2**22 - 1), st.integers(2**22, 2**63 - 1))
_texts = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"))
_optional_text = st.one_of(st.none(), _texts)
_extra_keys = st.text(min_size=1, max_size=8).filter(
    lambda key: key not in CANONICAL_FIELDS and "\x00" not in key
)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | _texts,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_texts, inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _rows(draw, extra_values):
    ids = draw(st.lists(_ids, max_size=12, unique=True))
    extra_keys = draw(st.lists(_extra_keys, max_size=3, unique=True))
    rows = []
    for value in ids:
        row = {
            "id": draw(st.sampled_from((value, str(value)))),
            "text": draw(_texts),
            "label": draw(st.sampled_from(("real", "fake", "satire"))),
            "event": draw(_optional_text),
            "article_id": draw(_optional_text),
            "reply_count": draw(st.one_of(st.none(), st.integers(0, 2**40))),
        }
        for key in extra_keys:
            row[key] = draw(extra_values)
        rows.append(row)
    return rows


ROUND_TRIP_LABELS = ("real", "fake", "satire")


def assert_record_rules(dataset):
    """The rules the loaders refuse to break, so a loaded dataset keeps
    them all: the CLI fingerprint's n_violations of 0 relies on this."""
    ids = [r.id for r in dataset.records]
    assert len(set(ids)) == len(ids)
    for r in dataset.records:
        assert str(parse_id(r.id)) == r.id
        assert r.label in dataset.label_set
        assert isinstance(r.text, str)
        assert r.reply_count is None or (type(r.reply_count) is int and r.reply_count >= 0)


@settings(max_examples=150, deadline=None)
@given(rows=_rows(_json_values))
def test_jsonl_load_save_round_trip_property(rows):
    built = build_dataset(rows, labels=ROUND_TRIP_LABELS, name="rt")
    with tempfile.TemporaryDirectory() as tmp:
        first = Path(tmp) / "rt.jsonl"
        save_jsonl(built, first)
        loaded = load_jsonl(first, Manifest(labels=ROUND_TRIP_LABELS), name="rt")
        second = Path(tmp) / "rt2.jsonl"
        save_jsonl(loaded, second)
        assert second.read_bytes() == first.read_bytes()
    assert loaded.records == built.records
    assert_record_rules(built)
    assert_record_rules(loaded)
    for row, record in zip(rows, loaded.records):
        assert record.id == str(row["id"])
        assert record.event == (row["event"] or None)
        assert record.reply_count == row["reply_count"]


# strings with quotes, backslashes, control characters, U+2028 and non-ASCII;
# a lone surrogate cannot be written as UTF-8 by either path
_ESCAPED = st.text(
    st.sampled_from('a"\\/\n\t\x00\x1f\x7f\u2028\u2029é✓\U0001f600 ')
    | st.characters(codec="utf-8"),
    max_size=8,
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(
    _ESCAPED, _ESCAPED, _ESCAPED,
    st.none() | _ESCAPED, st.none() | _ESCAPED, st.none() | st.integers(0, 10**6),
    st.none() | st.dictionaries(st.sampled_from(["x", "é", 'q"']), _ESCAPED | st.integers(),
                                max_size=2),
), max_size=8))
def test_save_jsonl_writes_what_json_dumps_writes(rows):
    # plain records (no optional field, no extra) take the writer's fast
    # path, the others the encoder; an empty dict extra is not the shared one
    records, want = [], ""
    for id_, text, label, event, article_id, reply_count, extra in rows:
        records.append(Record(id_, text, label, event, article_id, reply_count,
                              _NO_EXTRA if extra is None else extra))
        row = {"id": id_, "text": text, "label": label}
        for name, value in (("event", event), ("article_id", article_id),
                            ("reply_count", reply_count)):
            if value is not None:
                row[name] = value
        row.update(extra or {})
        want += json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.jsonl"
        save_jsonl(Dataset(records=tuple(records), label_set=LabelSet.of("x")), path)
        assert path.read_bytes().decode("utf-8") == want


@settings(max_examples=150, deadline=None)
@given(rows=_rows(_texts))
def test_csv_load_round_trip_property(rows):
    # a CSV cell is a string, and an empty cell reads as an absent field
    cells = [{k: "" if v is None else str(v) for k, v in row.items()} for row in rows]
    header = list(cells[0]) if cells else list(CANONICAL_FIELDS)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rt.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=header)
            writer.writeheader()
            writer.writerows(cells)
        loaded = load_csv(path, Manifest(labels=ROUND_TRIP_LABELS))
        save_jsonl(loaded, Path(tmp) / "rt.jsonl")
        again = load_jsonl(Path(tmp) / "rt.jsonl", Manifest(labels=ROUND_TRIP_LABELS))
    assert loaded.records == build_dataset(cells, labels=ROUND_TRIP_LABELS).records
    assert again.records == loaded.records
    assert_record_rules(loaded)
    assert_record_rules(again)
    for row, record in zip(rows, loaded.records):
        assert record.id == str(row["id"])
        assert record.reply_count == row["reply_count"]
        assert record.event == (row["event"] or None)


# Manifests for the chunk builder property: the default keys, renamed keys,
# an optional field read from a required column, and two required fields
# read from one column.
_CHUNK_MANIFESTS = (
    MANIFEST,
    Manifest(labels=("real", "fake"), fields={"id": "tweet_id", "text": "body"}),
    Manifest(labels=("real", "fake"), fields={"event": "text"}),
    Manifest(labels=("real", "fake"), fields={"text": "id"}),
)
# small ids have a zero timestamp field
_good_ids = (st.integers(1, 1 << 23) | st.integers(1, MAX_ID)).map(str)
_good_labels = st.sampled_from(("real", "fake"))
# each fault gives one required field a value that is not plain
_FAULTS = {
    "long id": (
        "id",
        st.integers(10**17, 10**20).map(str) | st.integers(MAX_ID - 2**12, MAX_ID + 2**12).map(str),
    ),
    "leading zero": ("id", st.integers(0, 10**17).map(lambda value: "0" + str(value))),
    "odd id": (
        "id",
        st.text("0123456789٣１", max_size=21)  # with non-ASCII digits
        | st.sampled_from(["", "٣", "+5", "-5", " 5", "5 ", "1_000", "12\x00", "\x00"]),
    ),
    "id type": ("id", st.integers(-5, 2**64) | st.booleans() | st.floats() | st.none()),
    "text": ("text", st.integers() | st.none() | st.just(["t"])),
    "label": (
        "label",
        st.sampled_from(("satire", "", "REAL")) | st.just(["real"]) | st.just({"real": 1})
        | st.integers(),
    ),
}
_reply_counts = st.one_of(
    st.none(),
    st.integers(-3, 2**40),
    st.booleans(),
    st.floats(),
    st.sampled_from(["", "12", " 7", "x", "٣", "-1"]),
)


@st.composite
def _chunk_rows(draw, manifest):
    """Raw rows for ``manifest``. Each row starts plain, and most get one
    fault: an id, text or label that is not plain, a missing required
    field, or a mapping that is not a dict. Optional fields and an extra
    key come and go."""
    keys = dict(zip(CANONICAL_FIELDS, map(manifest.source_key, CANONICAL_FIELDS)))
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        row = {keys["id"]: draw(_good_ids), keys["text"]: draw(_texts),
               keys["label"]: draw(_good_labels)}
        fault = draw(st.sampled_from(("none", *_FAULTS, "missing", "mapping")))
        if fault in _FAULTS:
            field, values = _FAULTS[fault]
            row[keys[field]] = draw(values)
        elif fault == "missing":
            del row[keys[draw(st.sampled_from(("id", "text", "label")))]]
        for key, values in (
            (keys["event"], _optional_text),
            (keys["article_id"], _optional_text),
            (keys["reply_count"], _reply_counts),
            ("note", _json_values),
        ):
            if draw(st.integers(0, 7)) == 0:
                row[key] = draw(values)
        rows.append(MappingProxyType(row) if fault == "mapping" else row)
    return rows


def _outcome(build):
    """The records ``build()`` gives, or the type and text of its error."""
    try:
        return build()
    except LeakAuditError as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_chunk_builder_matches_the_record_builder(data):
    manifest = data.draw(st.sampled_from(_CHUNK_MANIFESTS))
    chunk = list(enumerate(data.draw(_chunk_rows(manifest)), start=1))
    build = _record_builder(manifest)
    expected = _outcome(lambda: [build(raw, line) for line, raw in chunk])
    got = _outcome(lambda: _chunk_builder(manifest)(chunk))
    assert got == expected
    if isinstance(got, list):
        assert [[type(value) for value in r] for r in got] == [
            [type(value) for value in r] for r in expected
        ]


def test_load_csv_keeps_extra_columns(tmp_path):
    # the full canonical header, empty optional cells, and one extra column
    path = write(
        tmp_path / "extra.csv",
        "id,text,label,event,article_id,reply_count,note\n"
        '4211941865,"comma, ""quote""",real,,,,n1\n'
        "77,plain,fake,,,2,n2\n",
    )
    ds = load_csv(path, MANIFEST)
    assert [r.id for r in ds.records] == ["4211941865", "77"]
    assert [r.text for r in ds.records] == ['comma, "quote"', "plain"]
    assert [r.reply_count for r in ds.records] == [None, 2]
    assert [(r.event, r.article_id) for r in ds.records] == [(None, None), (None, None)]
    assert [r.extra for r in ds.records] == [{"note": "n1"}, {"note": "n2"}]


def test_label_distribution_zeros_included():
    ds = build_dataset(
        [
            {"id": "1", "text": "a", "label": "real"},
            {"id": "2", "text": "b", "label": "real"},
            {"id": "3", "text": "c", "label": "fake"},
        ],
        labels=["real", "fake", "unused"],
    )
    assert "label_index" not in vars(ds)  # built on first use, not at load
    assert label_distribution(ds) == {"real": 2, "fake": 1, "unused": 0}
    assert ds.label_index.tolist() == [0, 0, 1]
    empty = Dataset(records=(), label_set=LabelSet.of("real", "fake"))
    assert label_distribution(empty) == {"real": 0, "fake": 0}
    outside = Dataset(
        records=(Record(id="1", text="a", label="real"), Record(id="2", text="b", label="other")),
        label_set=LabelSet.of("fake", "real"),
    )
    assert outside.label_index.tolist() == [1, -1]
    assert label_distribution(outside) == {"fake": 0, "real": 1}


def test_id_columns_are_built_on_first_use():
    ds = build_dataset(
        [{"id": "4211941865", "text": "a", "label": "real"},
         {"id": "99", "text": "b", "label": "fake"}],
        labels=["real", "fake"],
    )
    assert "id_values" not in vars(ds) and "timestamps" not in vars(ds)
    assert ds.timestamps.tolist() == [1288834975661, -1]
    assert ds.id_values.tolist() == [4211941865, 99]
    assert ds.timestamps is ds.timestamps and ds.id_values is ds.id_values
    with pytest.raises(ValueError):
        ds.id_values[0] = 1
    empty = Dataset(records=(), label_set=LabelSet.of("real"))
    assert empty.id_values.tolist() == [] and empty.timestamps.tolist() == []


@pytest.mark.parametrize("ids, message", [
    (["12", 5, "0"], "id is not a decimal string: 5"),
    (["12", "007", 5], "id has a leading zero: '007'"),
    (["12", None], "id is not a decimal string: None"),
    ([b"12"], "id is not a decimal string: b'12'"),
    (["12", str(2**63)], f"id outside [1, 2**63 - 1]: '{2**63}'"),
])
def test_id_values_refuse_the_first_id_parse_id_refuses(ids, message):
    # construction checks nothing, so a hand-built dataset may hold any id
    ds = Dataset(
        records=tuple(Record(id=i, text="t", label="real") for i in ids),
        label_set=LabelSet.of("real"),
    )
    with pytest.raises(IdParseError) as exc:
        ds.id_values
    assert str(exc.value) == message
    with pytest.raises(IdParseError):
        ds.timestamps

