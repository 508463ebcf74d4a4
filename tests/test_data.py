"""Loaders, the JSONL saver, validation, and the core model."""

import json
import re

import pytest

from leakaudit import LabelSet, Manifest, build_dataset, load_jsonl
from leakaudit.data import Dataset, Record, label_distribution, load_csv, save_jsonl, validate
from leakaudit.errors import (
    DuplicateIdError,
    RecordParseError,
    SchemaError,
    UnknownLabelError,
)

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
    assert ds.records[0].timestamp_ms is not None
    assert ds.records[1].id == "4211941866"  # numeric ids accepted
    assert ds.records[1].reply_count == 3
    assert ds.records[1].extra == {"lang": "en"}
    assert ds.records[2].timestamp_ms is None  # pre-snowflake id
    assert ds.records[2].event == "ev1"
    assert ds.name == "d"


@pytest.mark.parametrize(
    "line,error",
    [
        ('{"id": "1", "text": "x"}', RecordParseError),  # missing label
        ('{"id": "1", "text": "x", "label": "nope"}', UnknownLabelError),
        ('{"id": "01", "text": "x", "label": "real"}', RecordParseError),
        ('{"id": "0", "text": "x", "label": "real"}', RecordParseError),
        ('{"id": "x1", "text": "x", "label": "real"}', RecordParseError),
        ('{"id": "1", "text": 5, "label": "real"}', RecordParseError),
        ('{"id": "1", "text": "x", "label": "real", "reply_count": -1}', RecordParseError),
        ("not json", RecordParseError),
        ("[1, 2]", RecordParseError),
    ],
)
def test_load_jsonl_rejects_bad_lines(tmp_path, line, error):
    path = write(
        tmp_path / "bad.jsonl",
        '{"id": "7", "text": "fine", "label": "real"}\n' + line + "\n",
    )
    with pytest.raises(error) as exc:
        load_jsonl(path, MANIFEST)
    assert "2" in str(exc.value)  # the offending line number


def test_load_jsonl_duplicate_id(tmp_path):
    path = write(
        tmp_path / "dup.jsonl",
        '{"id": "5", "text": "a", "label": "real"}\n'
        '{"id": "5", "text": "b", "label": "fake"}\n',
    )
    with pytest.raises(DuplicateIdError):
        load_jsonl(path, MANIFEST)


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


def test_manifest_from_json_file(tmp_path):
    path = write(
        tmp_path / "m.json",
        json.dumps({"name": "demo", "labels": ["x", "y"], "fields": {"id": "tid"}}),
    )
    m = Manifest.from_json_file(path)
    assert m.name == "demo"
    assert m.labels == ("x", "y")
    assert m.source_key("id") == "tid"
    assert m.source_key("text") == "text"


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


def test_validate_reports_instead_of_raising():
    ds = Dataset(
        records=(
            Record(id="0", text="x", label="real"),
            Record(id="7", text="y", label="mystery"),
            Record(id="7", text="z", label="real", reply_count=-1),
            Record(id="007", text="w", label="real"),
        ),
        label_set=LabelSet.of("real", "fake"),
    )
    violations = validate(ds)
    rules = sorted(v.rule for v in violations)
    assert rules == [
        "duplicate-id",
        "id-leading-zero",
        "id-range",
        "negative-reply-count",
        "unknown-label",
    ]


def test_validate_clean_dataset():
    ds = build_dataset(
        [{"id": "5", "text": "ok", "label": "real"}], labels=["real", "fake"]
    )
    assert validate(ds) == []


def test_validate_is_total_on_garbage():
    ds = Dataset(
        records=(Record(id=None, text=None, label=None, reply_count="x"),),  # type: ignore[arg-type]
        label_set=LabelSet.of("real"),
    )
    violations = validate(ds)
    assert {v.rule for v in violations} >= {"id-syntax", "unknown-label", "text-type"}


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

