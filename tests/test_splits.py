"""Split generator tests: allocation exactness, determinism, group and
event invariants, quota subsampling, split files, and the preset registry.
"""

import dataclasses
import hashlib
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import _oracle_splits
import _synth
from _oracle_splits import split_of
from leakaudit import (
    LabelSet,
    SplitSpec,
    build_dataset,
    export_split,
    load_presets,
    make_split,
    preset_split,
)
from leakaudit.data import Dataset, Record
from leakaudit.errors import (
    EmptyInputError,
    InsufficientRecordsError,
    LeakAuditError,
    MissingGroupFieldError,
    RatioError,
    SplitFileError,
    UnknownEventError,
    UnknownLabelError,
    UnknownPresetError,
)
from leakaudit.splits import (
    CONFIG_DIR_ENV,
    PARTITIONS,
    get_preset,
    import_split,
    largest_remainder,
)

PRESET_NAMES = {
    "pheme9-tf",
    "pheme5-rnr",
    "pheme5-3way",
    "pheme9-4way",
    "pheme5-lc",
    "politifact",
    "gossipcop",
    "twitter15",
    "twitter16",
    "twitter15-tf",
    "twitter16-tf",
    "wnut2020",
}


def _all_ids(split):
    return set(split.train_ids) | set(split.dev_ids) | set(split.test_ids)


def _records(split, parts=PARTITIONS):
    """The split's records in the named partitions, read at its positions."""
    return [split.dataset.records[i] for part in parts for i in getattr(split, part)]


def _partition_of(split):
    ids = (split.train_ids, split.dev_ids, split.test_ids)
    return {rid: part for part, each in zip(PARTITIONS, ids) for rid in each}


def _balanced(n_per_label=50, labels=("a", "b")):
    rows = []
    i = 0
    for label in labels:
        for _ in range(n_per_label):
            rows.append({"id": str(1000 + i), "text": f"text {i}", "label": label})
            i += 1
    return build_dataset(rows, labels=list(labels))


def test_largest_remainder_exact_and_ties():
    assert largest_remainder(100, (0.7, 0.1, 0.2)) == [70, 10, 20]
    assert largest_remainder(10, (1 / 3, 1 / 3, 1 / 3)) == [4, 3, 3]
    assert largest_remainder(7, (0.5, 0.5, 0.0)) == [4, 3, 0]
    assert largest_remainder(1, (0.5, 0.5, 0.0)) == [1, 0, 0]
    assert largest_remainder(0, (0.7, 0.1, 0.2)) == [0, 0, 0]


def test_largest_remainder_within_one_of_exact():
    rng = np.random.default_rng(60)
    for _ in range(500):
        k = int(rng.integers(2, 5))
        ratios = rng.dirichlet(np.ones(k))
        n = int(rng.integers(0, 500))
        alloc = largest_remainder(n, ratios)
        assert sum(alloc) == n
        for got, r in zip(alloc, ratios):
            assert abs(got - n * r) < 1.0


def test_random_split_sizes_disjoint_deterministic(tmp_path):
    ds = _balanced()
    spec = SplitSpec(ratios=(0.7, 0.1, 0.2), seed=3)
    split = make_split(ds, spec)
    assert split.sizes() == (70, 10, 20)
    assert _all_ids(split) == {r.id for r in ds.records}
    assert not set(split.train_ids) & set(split.test_ids)
    assert not set(split.train_ids) & set(split.dev_ids)
    # stratified: each label contributes exactly 35/5/10
    for part, want in zip(PARTITIONS, (35, 5, 10)):
        by_label = {}
        for r in _records(split, (part,)):
            by_label[r.label] = by_label.get(r.label, 0) + 1
        assert by_label == {"a": want, "b": want}

    p1, p2 = tmp_path / "s1.json", tmp_path / "s2.json"
    export_split(make_split(ds, spec), p1)
    export_split(make_split(ds, spec), p2)
    assert p1.read_bytes() == p2.read_bytes()

    other = make_split(ds, SplitSpec(ratios=(0.7, 0.1, 0.2), seed=4))
    assert other.train_ids != split.train_ids


def test_unstratified_split_sizes():
    ds = _balanced(30)
    split = make_split(ds, SplitSpec(ratios=(0.5, 0.25, 0.25), seed=0, stratify=False))
    assert split.sizes() == (30, 15, 15)
    assert _all_ids(split) == {r.id for r in ds.records}


def test_split_validation_errors():
    ds = _balanced(5)
    with pytest.raises(RatioError):
        make_split(ds, SplitSpec(ratios=(0.7, 0.1, 0.2)))  # no seed
    with pytest.raises(RatioError):
        make_split(ds, SplitSpec(ratios=(0.7, 0.4, 0.2), seed=0))
    with pytest.raises(RatioError):
        make_split(ds, SplitSpec(ratios=(0.9, -0.1, 0.2), seed=0))
    with pytest.raises(RatioError):
        make_split(ds, SplitSpec(ratios=(0.5, 0.5), seed=0))  # type: ignore[arg-type]
    with pytest.raises(EmptyInputError):
        make_split(
            Dataset(records=(), label_set=ds.label_set), SplitSpec(seed=0)
        )
    with pytest.raises(RatioError):
        SplitSpec(holdout_event="x", ratios=(0.7, 0.1, 0.2), seed=0).validated()
    with pytest.raises(RatioError):
        SplitSpec(holdout_event="x", group_by="article_id", ratios=(0.9, 0.1, 0.0), seed=0).validated()
    # only the group fields a record carries as a plain value
    for field in ("extra", "__class__", "reply_count", "id"):
        with pytest.raises(RatioError, match="group_by must be one of article_id, event"):
            make_split(ds, SplitSpec(seed=0, group_by=field))


def _grouped_dataset():
    rows = []
    rid = 0
    # 10 articles, 4 tweets each; article label is uniform except g9
    for g in range(10):
        label = "real" if g % 2 == 0 else "fake"
        for t in range(4):
            rows.append(
                {
                    "id": str(7000 + rid),
                    "text": f"tweet {rid}",
                    "label": label if g != 9 else ("real" if t < 2 else "fake"),
                    "article_id": f"g{g}",
                }
            )
            rid += 1
    rows.append({"id": "9999", "text": "orphan", "label": "real"})
    return build_dataset(rows, labels=["real", "fake"])


def test_group_split_keeps_groups_whole():
    ds = _grouped_dataset()
    spec = SplitSpec(ratios=(0.6, 0.2, 0.2), seed=1, group_by="article_id")
    split = make_split(ds, spec)
    part_of = _partition_of(split)
    article_of = {r.id: r.article_id for r in ds.records}
    group_parts = {}
    for rid, part in part_of.items():
        group_parts.setdefault(article_of[rid], set()).add(part)
    assert all(len(parts) == 1 for parts in group_parts.values())
    # 10 groups at (0.6, 0.2, 0.2) -> 6/2/2 groups -> 24/8/8 records
    assert split.sizes() == (24, 8, 8)
    assert split.provenance["excluded_ungrouped_records"] == 1
    assert split.provenance["n_groups"] == 10
    assert "9999" not in part_of


def test_group_split_excludes_conflicting():
    ds = _grouped_dataset()
    spec = SplitSpec(
        ratios=(0.6, 0.2, 0.2), seed=1, group_by="article_id", exclude_conflicting_groups=True
    )
    split = make_split(ds, spec)
    assert split.provenance["excluded_conflicting_groups"] == ["g9"]
    assert all(r.article_id != "g9" for r in _records(split))
    # 9 groups at (0.6, 0.2, 0.2): exact (5.4, 1.8, 1.8) -> 5/2/2 groups
    assert split.sizes() == (20, 8, 8)


def test_group_split_errors_and_warning():
    no_groups = build_dataset(
        [{"id": "1", "text": "x", "label": "a"}], labels=["a"]
    )
    with pytest.raises(MissingGroupFieldError):
        make_split(no_groups, SplitSpec(seed=0, group_by="article_id"))
    with pytest.raises(RatioError):
        make_split(no_groups, SplitSpec(group_by="article_id"))  # seed missing
    one_conflicting = build_dataset(
        [
            {"id": "1", "text": "x", "label": "a", "article_id": "g1"},
            {"id": "2", "text": "y", "label": "b", "article_id": "g1"},
        ],
        labels=["a", "b"],
    )
    with pytest.raises(MissingGroupFieldError, match="every group was excluded as conflicting"):
        make_split(
            one_conflicting,
            SplitSpec(seed=0, group_by="article_id", exclude_conflicting_groups=True),
        )

    two_groups = build_dataset(
        [
            {"id": "1", "text": "x", "label": "a", "article_id": "g1"},
            {"id": "2", "text": "y", "label": "a", "article_id": "g2"},
        ],
        labels=["a"],
    )
    spec = SplitSpec(ratios=(0.6, 0.2, 0.2), seed=0, group_by="article_id")
    split = make_split(two_groups, spec)
    assert "warning" in split.provenance


def _event_dataset():
    rows = []
    rid = 0
    for event, n in (("storm", 30), ("quake", 30), ("flood", 20)):
        for i in range(n):
            rows.append(
                {
                    "id": str(3000 + rid),
                    "text": f"text {rid}",
                    "label": "true" if i % 2 == 0 else "false",
                    "event": event,
                }
            )
            rid += 1
    return build_dataset(rows, labels=["true", "false"])


def test_event_holdout_split():
    ds = _event_dataset()
    split = make_split(ds, SplitSpec(ratios=(0.9, 0.1, 0.0), seed=2, holdout_event="flood"))
    assert len(split.test_ids) == 20
    assert all(r.event == "flood" for r in _records(split, ("test",)))
    assert all(r.event != "flood" for r in _records(split, ("train", "dev")))
    assert split.sizes() == (54, 6, 20)
    assert split.provenance["n_holdout_records"] == 20

    with pytest.raises(UnknownEventError):
        make_split(ds, SplitSpec(ratios=(0.9, 0.1, 0.0), seed=2, holdout_event="eclipse"))
    with pytest.raises(RatioError):
        make_split(ds, SplitSpec(ratios=(0.8, 0.1, 0.1), seed=2, holdout_event="flood"))


def _reply_dataset():
    rows = []
    for i in range(40):
        rows.append(
            {
                "id": str(4000 + i),
                "text": f"text {i}",
                "label": "a" if i < 25 else "b",
                "reply_count": i % 5,
            }
        )
    rows.append({"id": "4999", "text": "no replies field", "label": "a"})
    return build_dataset(rows, labels=["a", "b"])


def _quota_split(ds, quotas, min_reply_count=None, seed=0, **fields):
    """make_split of the quota stage alone: every kept record in train."""
    spec = SplitSpec(
        ratios=(1.0, 0.0, 0.0), seed=seed, quotas=quotas, min_reply_count=min_reply_count, **fields
    )
    return make_split(ds, spec)


def test_quota_subsample():
    ds = _reply_dataset()
    out = _quota_split(ds, {"a": 6, "b": 4})
    dist = {}
    for r in _records(out, ("train",)):
        dist[r.label] = dist.get(r.label, 0) + 1
    assert dist == {"a": 6, "b": 4}
    assert out.provenance["stages"]["quota_subsample"]["n_after"] == 10
    # determinism
    again = _quota_split(ds, {"a": 6, "b": 4})
    assert again.train_ids == out.train_ids

    filtered = _quota_split(ds, {"a": 5}, min_reply_count=3, seed=1)
    assert len(filtered.train_ids) == 5
    assert all((r.reply_count or 0) >= 3 for r in _records(filtered, ("train",)))
    assert all(r.label == "a" for r in _records(filtered, ("train",)))

    with pytest.raises(InsufficientRecordsError) as err:
        _quota_split(ds, {"b": 99})
    assert "need 99, have 15" in str(err.value)
    with pytest.raises(UnknownLabelError):
        _quota_split(ds, {"zzz": 1})
    with pytest.raises(UnknownLabelError, match="quota label 'b' not in label set"):
        _quota_split(ds, {"b": 1}, label_filter=("a",))  # b was filtered out
    with pytest.raises(RatioError):
        _quota_split(ds, {"a": 1}, seed=None)  # seed required

    # quotas come from user preset files: counts must be non-negative
    # integers, and at least one positive
    for bad in ({"a": -1, "b": 2}, {"a": 1.5}, {"a": True}, {"a": "2"}):
        with pytest.raises(RatioError, match="non-negative integer count"):
            _quota_split(ds, bad)
    for empty in ({"a": 0, "b": 0}, {}):
        with pytest.raises(RatioError, match="at least one label needs a positive count"):
            _quota_split(ds, empty)


def test_label_filter():
    ds = _balanced(10, labels=("a", "b", "c"))
    out = make_split(ds, SplitSpec(seed=0, label_filter=("c", "a")))
    assert all(r.label in ("a", "c") for r in _records(out))
    assert len(_all_ids(out)) == 20
    assert out.provenance["stages"]["label_filter"]["n_after"] == 20
    # filtering to the full label set changes nothing but the provenance
    identity = make_split(ds, SplitSpec(seed=0, label_filter=("a", "b", "c")))
    plain = make_split(ds, SplitSpec(seed=0))
    assert (identity.train_ids, identity.dev_ids, identity.test_ids) == (
        plain.train_ids,
        plain.dev_ids,
        plain.test_ids,
    )
    with pytest.raises(UnknownLabelError):
        make_split(ds, SplitSpec(seed=0, label_filter=("nope",)))
    with pytest.raises(RatioError, match="label_filter must keep at least one label"):
        make_split(ds, SplitSpec(seed=0, label_filter=()))


def test_make_split_runs_stages():
    ds = _event_dataset()
    spec = SplitSpec(
        ratios=(0.7, 0.1, 0.2),
        seed=5,
        event_filter=("storm", "quake"),
        label_filter=("true", "false"),
        name="staged",
    )
    split = make_split(ds, spec)
    assert split.name() == "staged"
    stages = split.provenance["stages"]
    assert stages["event_filter"]["n_after"] == 60
    assert stages["label_filter"]["n_after"] == 60
    assert all(r.event in ("storm", "quake") for r in _records(split))

    with pytest.raises(UnknownEventError):
        make_split(ds, SplitSpec(seed=0, event_filter=("storm", "eclipse")))


def test_export_import_round_trip(tmp_path):
    ds = _balanced()
    split = make_split(ds, SplitSpec(ratios=(0.7, 0.1, 0.2), seed=8, name="rt"))
    path = tmp_path / "split.json"
    export_split(split, path)
    back = import_split(path, ds)
    assert back.train_ids == split.train_ids
    assert back.dev_ids == split.dev_ids
    assert back.test_ids == split.test_ids
    assert back.spec is not None and back.spec.name == "rt"
    assert "missing_ids" not in back.provenance

    # ids the dataset does not know are dropped and counted
    only_a = tuple(r for r in ds.records if r.label == "a")
    smaller = Dataset(records=only_a, label_set=ds.label_set)
    partial = import_split(path, smaller)
    assert partial.provenance["missing_ids"] == 50
    assert all(rid in {r.id for r in smaller.records} for rid in _all_ids(partial))

    # re-export is byte-identical
    path2 = tmp_path / "split2.json"
    export_split(back, path2)
    assert path2.read_bytes() == path.read_bytes()
    back2 = import_split(path2, ds)
    assert back2.train_ids == back.train_ids


RATIOS = st.sampled_from(
    [(0.7, 0.1, 0.2), (0.5, 0.25, 0.25), (1 / 3, 1 / 3, 1 / 3), (1.0, 0.0, 0.0), (0.8, 0.2, 0.0)]
)


@st.composite
def _datasets(draw, min_size=0):
    """Small datasets whose label set may hold labels no record carries."""
    label_set = draw(st.lists(st.sampled_from("pqrs"), min_size=1, max_size=4, unique=True))
    rows = draw(
        st.lists(
            st.tuples(st.sampled_from(label_set), st.sampled_from(["storm", "flood", None])),
            min_size=min_size,
            max_size=40,
        )
    )
    records = tuple(
        Record(id=str(1000 + i), text="t", label=label, event=event)
        for i, (label, event) in enumerate(rows)
    )
    return Dataset(records=records, label_set=LabelSet(tuple(label_set)))


@settings(max_examples=200, deadline=None)
@given(
    ds=_datasets(min_size=1),
    ratios=RATIOS,
    seed=st.integers(0, 2**64 - 1),
    stratify=st.booleans(),
)
def test_random_split_matches_per_label_oracle(ds, ratios, seed, stratify):
    split = make_split(ds, SplitSpec(ratios=ratios, seed=seed, stratify=stratify))
    want = _oracle_splits.random_split_ids(ds, ratios, seed, stratify)
    assert (split.train_ids, split.dev_ids, split.test_ids) == want


@settings(max_examples=200, deadline=None)
@given(
    ds=_datasets(),
    dev_ratio=st.sampled_from([0.0, 0.1, 0.25, 0.5]),
    seed=st.integers(0, 2**64 - 1),
    stratify=st.booleans(),
)
def test_event_holdout_split_matches_per_label_oracle(ds, dev_ratio, seed, stratify):
    ratios = (1.0 - dev_ratio, dev_ratio, 0.0)
    spec = SplitSpec(ratios=ratios, seed=seed, stratify=stratify, holdout_event="storm")
    if not any(r.event == "storm" for r in ds.records):
        with pytest.raises(UnknownEventError):
            make_split(ds, spec)
        return
    split = make_split(ds, spec)
    want = _oracle_splits.holdout_split_ids(ds, "storm", dev_ratio, seed, stratify)
    assert (split.train_ids, split.dev_ids, split.test_ids) == want


@st.composite
def _specs(draw, ds):
    """A random, group, event-holdout or quota spec for ``ds``."""
    kind = draw(st.sampled_from(["random", "group", "holdout", "quotas"]))
    spec = SplitSpec(
        ratios=draw(RATIOS), seed=draw(st.integers(0, 2**64 - 1)), stratify=draw(st.booleans()),
        name="p",
    )
    if kind == "group":
        return dataclasses.replace(
            spec, group_by="event", exclude_conflicting_groups=draw(st.booleans())
        )
    if kind == "holdout":
        dev = draw(st.sampled_from([0.0, 0.1, 0.5]))
        return dataclasses.replace(spec, ratios=(1.0 - dev, dev, 0.0), holdout_event="storm")
    if kind == "quotas":
        have = [sum(r.label == lab for r in ds.records) for lab in ds.label_set]
        quotas = {lab: draw(st.integers(0, n)) for lab, n in zip(ds.label_set, have)}
        if any(quotas.values()):
            return dataclasses.replace(spec, quotas=quotas)
    return spec


@settings(max_examples=200, deadline=None)
@given(data=st.data(), ds=_datasets(min_size=1))
def test_export_import_round_trip_property(data, ds):
    spec = data.draw(_specs(ds))
    try:
        split = make_split(ds, spec)
    except LeakAuditError:  # no storm event, no group, too few records
        assume(False)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.json", Path(tmp) / "b.json"
        export_split(split, first)
        back = import_split(first, ds)
        export_split(back, second)
        again = import_split(second, ds)
        assert first.read_bytes() == second.read_bytes()
    for each in (back, again):
        assert each.dataset is ds
        for part in PARTITIONS:
            got, want = getattr(each, part), getattr(split, part)
            assert got.dtype == np.int64 and not got.flags.writeable
            assert got.tolist() == want.tolist()
        assert each.spec == split.spec
        assert each.provenance == split.provenance


def test_import_split_keeps_present_ids_in_file_order(tmp_path):
    ds = build_dataset(
        [{"id": str(i), "text": "t", "label": "a"} for i in range(1, 6)], labels=["a"]
    )
    path = tmp_path / "split.json"
    path.write_text(
        json.dumps({"train_ids": ["5", "999", "2"], "dev_ids": ["4"], "test_ids": ["888", "1"]}),
        encoding="utf-8",
    )
    split = import_split(path, ds)
    assert (split.train.tolist(), split.dev.tolist(), split.test.tolist()) == ([4, 1], [3], [0])
    assert split.train_ids == ("5", "2")
    assert split.provenance == {"generator": "import_split", "missing_ids": 2}


def test_import_split_rejects_bad_files(tmp_path):
    ds = build_dataset(
        [{"id": "1", "text": "t", "label": "a"}, {"id": "2", "text": "t", "label": "a"}],
        labels=["a"],
    )
    bad = tmp_path / "bad.json"
    bad.write_text("not json", encoding="utf-8")
    with pytest.raises(SplitFileError):
        import_split(bad, ds)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(SplitFileError):
        import_split(arr, ds)
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"train_ids": ["1"], "dev_ids": []}), encoding="utf-8")
    with pytest.raises(SplitFileError):
        import_split(missing, ds)
    overlap = tmp_path / "overlap.json"
    overlap.write_text(
        json.dumps({"train_ids": ["1"], "dev_ids": ["1"], "test_ids": []}),
        encoding="utf-8",
    )
    with pytest.raises(SplitFileError):
        import_split(overlap, ds)
    with pytest.raises(SplitFileError):
        SplitSpec.from_json_dict({"ratios": [1, 0, 0], "mystery_knob": 1})

    ids = {"train_ids": [1], "dev_ids": [], "test_ids": ["2"]}
    typed = tmp_path / "typed.json"
    typed.write_text(json.dumps({**ids, "spec": None}), encoding="utf-8")
    assert import_split(typed, ds).train_ids == ("1",)  # int ids are read losslessly
    for bad in (
        {"spec": 5},
        {"spec": ["ratios"]},
        {"provenance": None},
        {"provenance": [1]},
        {"train_ids": [1, None]},
        {"test_ids": [True]},
        {"dev_ids": [1.5]},
        {"dev_ids": [["3"]]},
    ):
        typed.write_text(json.dumps({**ids, **bad}), encoding="utf-8")
        with pytest.raises(SplitFileError, match=f"^{re.escape(str(typed))}: "):
            import_split(typed, ds)


def test_spec_seed_must_be_an_int_or_none(tmp_path):
    ds = build_dataset(
        [{"id": "1", "text": "t", "label": "a"}, {"id": "2", "text": "t", "label": "a"}],
        labels=["a"],
    )
    # a bool would split as 0 or 1, and the others failed inside the generator
    for seed in (True, 1.5, "3", np.int64(2)):
        with pytest.raises(RatioError) as exc:
            make_split(ds, SplitSpec(seed=seed))
        assert str(exc.value) == f"seed: needs an integer or None, got {seed!r}"
    # the split-file schema allows any integer seed
    assert make_split(ds, SplitSpec(seed=-1)).spec.seed == -1
    path = tmp_path / "split.json"
    for seed in (True, 1.5, "3"):
        spec = {"ratios": [0.5, 0.0, 0.5], "seed": seed}
        path.write_text(
            json.dumps({"train_ids": ["1"], "dev_ids": [], "test_ids": ["2"], "spec": spec}),
            encoding="utf-8",
        )
        with pytest.raises(SplitFileError) as exc:
            import_split(path, ds)
        assert str(exc.value) == f"{path}: seed: needs an integer or None, got {seed!r}"


def test_import_split_skips_a_leading_byte_order_mark(tmp_path):
    ds = build_dataset(
        [{"id": "1", "text": "t", "label": "a"}, {"id": "2", "text": "t", "label": "a"}],
        labels=["a"],
    )
    path = tmp_path / "split.json"
    body = json.dumps({"train_ids": ["1"], "dev_ids": [], "test_ids": ["2"]})
    path.write_text("\ufeff" + body, encoding="utf-8")
    assert import_split(path, ds).train_ids == ("1",)
    # a second mark is not skipped: only a leading one is
    path.write_text("\ufeff\ufeff" + body, encoding="utf-8")
    with pytest.raises(SplitFileError) as exc:
        import_split(path, ds)
    assert str(exc.value) == (
        f"cannot read split file {path}: Unexpected UTF-8 BOM (decode using utf-8-sig): "
        "line 1 column 1 (char 0)"
    )


def test_user_presets_skip_a_leading_byte_order_mark(tmp_path, monkeypatch):
    user = {"presets": {"local-proto": {"spec": {"ratios": [0.8, 0.1, 0.1]}}}}
    path = tmp_path / "presets.json"
    path.write_text("\ufeff" + json.dumps(user), encoding="utf-8")
    monkeypatch.setenv(CONFIG_DIR_ENV, str(tmp_path))
    assert load_presets()["local-proto"]["spec"].ratios == (0.8, 0.1, 0.1)
    path.write_text("\ufeff\ufeff" + json.dumps(user), encoding="utf-8")
    with pytest.raises(SplitFileError) as exc:
        load_presets()
    assert str(exc.value) == (
        f"{path}: not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
        "line 1 column 1 (char 0)"
    )


@pytest.mark.parametrize(
    "parts, message",
    [
        ({"train_ids": ["1", "2", "1"]}, "id 1 appears more than once in train_ids"),
        ({"test_ids": ["2", 2]}, "id 2 appears more than once in test_ids"),
        ({"train_ids": ["1"], "test_ids": ["2", 1]}, "id 1 appears in both train_ids and test_ids"),
        ({"dev_ids": ["2"], "test_ids": ["2"]}, "id 2 appears in both dev_ids and test_ids"),
    ],
)
def test_import_split_names_the_partitions_of_a_repeated_id(tmp_path, parts, message):
    ds = build_dataset(
        [{"id": "1", "text": "t", "label": "a"}, {"id": "2", "text": "t", "label": "a"}],
        labels=["a"],
    )
    path = tmp_path / "repeat.json"
    path.write_text(
        json.dumps({"train_ids": [], "dev_ids": [], "test_ids": [], **parts}), encoding="utf-8"
    )
    with pytest.raises(SplitFileError) as exc:
        import_split(path, ds)
    assert str(exc.value) == f"{path}: {message}"


def test_presets_registry():
    registry = load_presets()
    assert set(registry) == PRESET_NAMES
    for name, entry in registry.items():
        assert entry["description"]
        spec = entry["spec"]
        assert spec.name == name
        spec.validated()
    with pytest.raises(UnknownPresetError):
        get_preset("pheme99")


def test_preset_split_on_synthetic_data(leaky):
    split = preset_split(leaky, "pheme9-tf", seed=3)
    labels = {r.label for r in _records(split)}
    assert labels == {"true", "false"}
    n = len(_all_ids(split))
    assert n == 1000  # 500 true + 500 false
    assert split.sizes() == (700, 100, 200)

    plain = preset_split(leaky, "twitter16", seed=3)
    assert sum(plain.sizes()) == len(leaky)
    # stratified per label: exact (337.5, 50, 112.5) -> (338, 50, 112) each
    assert plain.sizes() == (4 * 338, 4 * 50, 4 * 112)


# SHA-256 of each preset's exported split file for preset_corpus() at seed 3,
# recorded before the split stages were rewritten as one row pipeline
PRESET_DIGESTS = {
    "gossipcop": "2a59cd45feedc224bbf1aa5d7f187c3835e0e6c73e97ffeec3c8cb84e890a2b7",
    "pheme5-3way": "d36d00bf1228bb6a7602aa72797ac5d7ad3851f6baba914b847bfb278a0d5ecc",
    "pheme5-lc": "59b143e3b8ba022843a94e60f1faf19582d9440a6847aa534d90032c0b4f9608",
    "pheme5-rnr": "b7e73f151f3ebdd533ba33250fcfb5c6d1d7f06bd4bcd45f62672cf3e440f954",
    "pheme9-4way": "cd8437f9ea5209a5cbf2d3de2b9f38f40ce8c60983b05e5b60fb755cd886b8c7",
    "pheme9-tf": "04c5099178b576a94a1528089a8a354d976ff911fd701e83a16faff260b71c7c",
    "politifact": "5e874cf85e2ea23be0647d4c3a6cb60d393eacdb0100e987e2856c75346be196",
    "twitter15": "2fef704865bd0b0ca286a57a285726411820460f0f762cceb5b8b4bc7fb5b80d",
    "twitter15-tf": "9b77dcdb19ca3fad40beb03a452eddb8c37fe58cc81832244e68eff09a2318c4",
    "twitter16": "684b6bfb2d34bf854022ced569bdf03ea7fc1009d10d2f9453bfef9e0ddc0a16",
    "twitter16-tf": "ebbb98fe22b2f1e1ca7c0f01046bfeae6c805e8c42967f29975efb0196ed9c4f",
    "wnut2020": "36ecd3d8d740dd51f5d51fa4d7255be941f3c266507889d3f166b28426e6917b",
}


@pytest.fixture(scope="module")
def preset_corpus():
    return _synth.preset_corpus()


@pytest.mark.parametrize("name", sorted(PRESET_DIGESTS))
def test_preset_split_file_is_pinned(name, preset_corpus, tmp_path):
    path = tmp_path / "split.json"
    export_split(preset_split(preset_corpus, name, seed=3), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PRESET_DIGESTS[name]


def test_user_preset_dir_merges(tmp_path, monkeypatch):
    user = {
        "presets": {
            "local-proto": {
                "description": "local protocol",
                "spec": {"ratios": [0.8, 0.1, 0.1], "stratify": False},
            },
            "twitter16": {
                "description": "override",
                "spec": {"ratios": [0.5, 0.25, 0.25]},
            },
        }
    }
    (tmp_path / "presets.json").write_text(json.dumps(user), encoding="utf-8")
    monkeypatch.setenv(CONFIG_DIR_ENV, str(tmp_path))
    registry = load_presets()
    assert "local-proto" in registry
    assert registry["local-proto"]["spec"].stratify is False
    assert registry["twitter16"]["spec"].ratios == (0.5, 0.25, 0.25)
    assert set(PRESET_NAMES) <= set(registry)

    monkeypatch.delenv(CONFIG_DIR_ENV)
    assert "local-proto" not in load_presets()


def test_split_accessors():
    ds = build_dataset(
        [{"id": str(i), "text": "t", "label": "a"} for i in range(1, 5)], labels=["a"]
    )
    spec = SplitSpec(ratios=(0.5, 0.25, 0.25), seed=0, name="named")
    split = split_of(ds, train_ids=("2", "1"), dev_ids=("3",), test_ids=("4",), spec=spec)
    assert split.name() == "named"
    assert split.sizes() == (2, 1, 1)
    assert split.train.tolist() == [1, 0]
    assert (split.train_ids, split.dev_ids, split.test_ids) == (("2", "1"), ("3",), ("4",))
    for part in (split.train, split.dev, split.test):
        assert part.dtype == np.int64 and not part.flags.writeable
    anon = split_of(ds, provenance={"generator": "import_split"})
    assert anon.name() == "import_split"
