"""ID-digit leak probe tests.

The leaky fixture packs each label into its own 30-day window, so digit
prefixes of the ids separate the classes perfectly; the control fixture
permutes the same labels, destroying the link while keeping everything
else identical. The probe must say "severe" on one and "none" on the
other.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leakaudit.cli as cli_module
import leakaudit.data as data_module
import leakaudit.forest as forest_module
import leakaudit.idleak as idleak_module
from _oracle_splits import split_of
from leakaudit import LabelSet, SplitSpec, build_dataset, run_id_leak_test
from leakaudit.data import Dataset, Record, save_jsonl
from leakaudit.errors import (
    AllIdsTooShortError,
    DuplicateIdError,
    EmptySplitError,
    IdParseError,
    RecordParseError,
    UnknownLabelError,
)
from leakaudit.forest import ForestConfig, baseline_expected_macro_f1
from leakaudit.idleak import (
    _pattern_tables,
    leakage_score,
    probe_splits,
    run_id_leak_suite,
    summarize_id_leak_suite,
    verdict,
)
from leakaudit.snowflake import parse_id, parse_ids
from leakaudit.splits import Split, export_split, import_split, make_split
from test_snowflake import _ID_STRINGS

FAST = ForestConfig(n_trees=20, seed=0)


def _split(dataset, seed=0):
    return make_split(dataset, SplitSpec(ratios=(0.7, 0.1, 0.2), seed=seed))


def test_leaky_dataset_scores_severe(leaky):
    report = run_id_leak_test(leaky, _split(leaky), k=3)
    assert report.macro_f1 >= 0.95
    assert abs(report.baseline_macro_f1 - 0.25) < 1e-9
    assert report.leakage_score > 0.9
    assert report.verdict == "severe"
    assert report.excluded_short_ids == 0
    assert report.n_train == 1400 and report.n_test == 400
    assert set(report.per_class_f1) == set(leaky.label_set)


def test_control_dataset_scores_none(control):
    report = run_id_leak_test(control, _split(control), k=3)
    assert abs(report.macro_f1 - report.baseline_macro_f1) < 0.05
    assert report.verdict == "none"
    assert report.leakage_score < 0.05


def _dataset_of(ids):
    """A hand-built one-label dataset with these ids."""
    return Dataset(
        records=tuple(Record(id=i, text="t", label="x") for i in ids), label_set=LabelSet.of("x")
    )


def _id_values(ids):
    """The parsed values of canonical ids, which may repeat."""
    accepted, values = parse_ids(ids)
    assert accepted.all()
    return values


def test_pattern_tables_basic():
    table, pattern_of = _pattern_tables(_dataset_of(["12345", "99", "54321"]).id_values, (3,))[3]
    assert table.tolist() == [[1, 2, 3], [5, 4, 3]]
    assert pattern_of.tolist() == [0, -1, 1]
    tables = _pattern_tables(_dataset_of(["88", "7", "80"]).id_values, (1, 2))
    assert [(t.tolist(), p.tolist()) for t, p in tables.values()] == [
        ([[7], [8]], [1, 0, 1]),
        ([[8, 0], [8, 8]], [1, -1, 0]),
    ]
    table, pattern_of = _pattern_tables(_dataset_of(["12"]).id_values, (5,))[5]
    assert table.shape == (0, 5) and pattern_of.tolist() == [-1]


def _pattern_tables_by_character(ids, k):
    """The per-character oracle: a dict from each prefix to its row, in
    sorted order, and each id's row or -1."""
    row_of = {p: i for i, p in enumerate(sorted({i[:k] for i in ids if len(i) >= k}))}
    table = [[int(c) for c in prefix] for prefix in row_of]
    return table, [row_of[i[:k]] if len(i) >= k else -1 for i in ids]


@settings(max_examples=300, deadline=None)
@given(
    ids=st.lists(
        st.one_of(st.integers(1, 2**63 - 1).map(str), st.integers(1, 999).map(str)),
        max_size=30,
    ),
    # k above 19, the most digits an id has, keeps no id
    k_values=st.lists(st.integers(1, 27), min_size=1, max_size=4, unique=True),
)
def test_pattern_tables_match_per_character_oracle(ids, k_values):
    tables = _pattern_tables(_id_values(ids), tuple(k_values))
    assert list(tables) == k_values
    for k, (table, pattern_of) in tables.items():
        want_table, want_pattern_of = _pattern_tables_by_character(ids, k)
        assert table.dtype == np.int64 and table.shape == (len(want_table), k)
        assert table.tolist() == want_table
        assert pattern_of.dtype == np.int64 and pattern_of.tolist() == want_pattern_of


@settings(max_examples=300, deadline=None)
@given(
    ids=st.lists(
        # hand-built ids past int64, 19 to 25 digits, are refused too
        st.one_of(_ID_STRINGS, st.integers(10**18, 10**25 - 1).map(str)), max_size=30
    )
)
def test_constructor_refuses_exactly_the_ids_parse_id_refuses(ids):
    # the suite reads the tables' ids from Dataset.id_values, which hold
    # only ids parse_id accepts: the constructor refuses the first other
    # id, at its 1-based position, and a dataset of unique accepted ids
    # gets as far as the suite's EmptySplitError for a split with no rows
    refusals = []
    for line, id_str in enumerate(ids, start=1):
        try:
            parse_id(id_str)
        except IdParseError as exc:
            refusals.append(f"line {line}: {exc}")
    if refusals:
        with pytest.raises(RecordParseError) as exc:
            _dataset_of(ids)
        assert type(exc.value) is RecordParseError and str(exc.value) == refusals[0]
    elif len(set(ids)) < len(ids):
        with pytest.raises(DuplicateIdError):
            _dataset_of(ids)
    else:
        ds = _dataset_of(ids)
        assert ds.id_values.tolist() == [parse_id(i) for i in ids]
        with pytest.raises(EmptySplitError):
            run_id_leak_suite([Split(ds, [], [], [])], (1, 3))


def test_pattern_tables_error_text():
    # the suite checks the k values before it builds a table
    def suite(ids, k_values):
        run_id_leak_suite([Split(_dataset_of(ids), [0], [], [0])], k_values)

    with pytest.raises(ValueError, match=r"^no k values to probe$"):
        suite(["12"], ())
    with pytest.raises(ValueError, match=r"^k must be >= 1, got 0$"):
        suite(["12"], (2, 0))
    # a bool would probe as k = 0 or 1, a float fails deep in the table
    # code, and a numpy integer would reach the report's JSON; every k's
    # type is checked before any k's value
    for k_values in ((True,), (2.0,), (np.int64(2),), (0, True)):
        with pytest.raises(ValueError) as exc:
            suite(["12"], k_values)
        assert str(exc.value) == f"k must be an int, got {k_values[-1]!r}"
    with pytest.raises(ValueError, match=r"^k values repeat: \[2, 3, 2\]$"):
        suite(["12"], (2, 3, 2))
    # an id the loaders refuse is refused when the dataset is made, even
    # one too short to be kept
    for bad, rule in (
        ("12a", "is not a decimal string"), ("1 2", "is not a decimal string"),
        ("1\x002", "is not a decimal string"), ("12\x00", "is not a decimal string"),
        ("/", "is not a decimal string"), (":", "is not a decimal string"),
        ("", "is not a decimal string"), ("\u0661\u0662\u0663", "is not a decimal string"),
        ("07", "has a leading zero"), ("0", "outside [1, 2**63 - 1]"),
        ("1234567890123456789012", "outside [1, 2**63 - 1]"),
    ):
        with pytest.raises(RecordParseError) as exc:
            _dataset_of(["456", bad])
        assert str(exc.value) == f"line 2: id {rule}: {bad!r}"


def test_suite_errors_come_in_order_before_any_run_is_checked():
    # every check below fails at once: there is no k, k 0 repeats, and the
    # split's train is empty; an id that is not digits is refused before,
    # when the dataset is made
    ids = ["523456789012345678", "623456789012345678"]
    records = tuple(Record(id=i, text="t", label="x") for i in ids + ["12a"])
    with pytest.raises(RecordParseError, match=r"^line 3: id is not a decimal string: '12a'$"):
        Dataset(records=records, label_set=LabelSet.of("x"))
    ds = Dataset(records=records[:2], label_set=LabelSet.of("x"))
    split = split_of(ds, test_ids=ids)
    for k_values, message in (
        ((), r"^no k values to probe$"),
        ((0, 0), r"^k must be >= 1, got 0$"),
        ((3, 3), r"^k values repeat: \[3, 3\]$"),
    ):
        with pytest.raises(ValueError, match=message):
            run_id_leak_suite([split], k_values, config=FAST)
    with pytest.raises(EmptySplitError, match=r"^need non-empty train and test \(got 0/2\)$"):
        run_id_leak_suite([split], (3,), config=FAST)


SHORT_ID_ROWS = [
    {"id": "51", "text": "a", "label": "x"},
    {"id": "523456789012345678", "text": "b", "label": "x"},
    {"id": "623456789012345678", "text": "c", "label": "y"},
    {"id": "62", "text": "d", "label": "y"},
    {"id": "533456789012345678", "text": "e", "label": "x"},
    {"id": "633456789012345678", "text": "f", "label": "y"},
]
SHORT_ID_SPEC = SplitSpec(ratios=(0.5, 0.0, 0.5), seed=1)
SHORT_ID_DATASET = build_dataset(SHORT_ID_ROWS, labels=["x", "y"])
SHORT_ID_SPLIT = split_of(
    SHORT_ID_DATASET,
    train_ids=("51", "523456789012345678", "623456789012345678", "62"),
    test_ids=("533456789012345678", "633456789012345678"),
    spec=SHORT_ID_SPEC,
)


def test_short_ids_excluded_and_counted():
    ds = SHORT_ID_DATASET
    spec = SHORT_ID_SPEC
    report = run_id_leak_test(ds, SHORT_ID_SPLIT, k=3, config=FAST)
    assert report.excluded_short_ids == 2
    assert report.n_train == 2 and report.n_test == 2

    all_short = split_of(ds, train_ids=("51", "62"), test_ids=("533456789012345678",), spec=spec)
    with pytest.raises(AllIdsTooShortError):
        run_id_leak_test(ds, all_short, k=3, config=FAST)

    with pytest.raises(EmptySplitError):
        run_id_leak_test(ds, split_of(ds, train_ids=("51",), spec=spec), k=1)


def test_split_of_another_dataset_is_refused(leaky, control):
    # same ids and records in the same order, but another dataset object:
    # a split indexes the dataset it was made from
    split = _split(leaky)
    with pytest.raises(ValueError, match="^the split was made from another dataset$"):
        run_id_leak_test(control, split, k=3, config=FAST)
    with pytest.raises(ValueError, match="^the splits were made from different datasets$"):
        run_id_leak_suite([split, _split(control)], (2, 3), config=FAST)


def test_empty_split_list_is_refused():
    with pytest.raises(ValueError, match="^no splits to probe$"):
        run_id_leak_suite([], (2, 3), config=FAST)


def test_probe_splits_names_and_sizes(leaky):
    splits = probe_splits(leaky, n_splits=3, seed=5)
    assert [s.name() for s in splits] == ["probe-split-0", "probe-split-1", "probe-split-2"]
    assert all(s.dataset is leaky for s in splits)
    # stratified 70/10/20 of 2000 records in four labels of 500
    assert [s.sizes() for s in splits] == [(1400, 200, 400)] * 3
    assert len({tuple(s.test) for s in splits}) == 3
    assert [s.train_ids for s in probe_splits(leaky, n_splits=3, seed=5)] == [
        s.train_ids for s in splits
    ]
    assert probe_splits(leaky, n_splits=0) == []
    # a bool would make one split, and the others fail in range()
    for n_splits in (True, 1.5, "2", np.int64(2)):
        with pytest.raises(ValueError) as exc:
            probe_splits(leaky, n_splits=n_splits)
        assert str(exc.value) == f"n_splits must be an int, got {n_splits!r}"


@pytest.mark.parametrize("seed", [True, 1.5, "3", np.int64(2)])
def test_probe_splits_refuse_a_seed_that_is_not_an_int(leaky, seed):
    # a bool would run as seed 0 or 1, and the others would fail deep in
    # the split code with a TypeError or an OverflowError
    with pytest.raises(ValueError) as exc:
        probe_splits(leaky, n_splits=1, seed=seed)
    assert str(exc.value) == f"seed must be an int, got {seed!r}"
    assert len(probe_splits(leaky, n_splits=1, seed=-3)) == 1  # negative ints stay allowed


def test_repeated_k_is_refused(leaky):
    # a repeated k would report each of its runs twice and shrink the spread
    with pytest.raises(ValueError, match="repeat"):
        run_id_leak_suite(probe_splits(leaky, n_splits=1), (3, 3), config=FAST)
    with pytest.raises(ValueError, match="repeat"):
        run_id_leak_suite([_split(leaky)], (2, 3, 2), config=FAST)


@pytest.mark.parametrize("bad_in", ["train", "test"])
def test_label_outside_label_set_is_refused(bad_in):
    # no dataset the probe reads holds such a row: the constructor refuses
    # it at its position, whichever partition a split would give it
    ids = ["523456789012345678", "623456789012345678", "533456789012345678", "633456789012345678"]
    labels = ["x", "y", "x", "y"]
    at = 0 if bad_in == "train" else 2
    labels[at] = "z"
    records = tuple(Record(id=i, text="t", label=lab) for i, lab in zip(ids, labels))
    with pytest.raises(UnknownLabelError) as exc:
        Dataset(records=records, label_set=LabelSet.of("x", "y"))
    assert str(exc.value) == f"line {at + 1}: label 'z' not in manifest labels ['x', 'y']"


def test_non_digit_id_outside_the_split_is_refused():
    # every dataset id is checked when the dataset is made, before any split
    ids = ["523456789012345678", "623456789012345678", "533456789012345678", "633456789012345678"]
    records = [Record(id=i, text="t", label=lab) for i, lab in zip(ids, "xyxy")]
    with pytest.raises(RecordParseError, match=r"^line 5: id is not a decimal string: '12a'$"):
        Dataset(
            records=tuple(records) + (Record(id="12a", text="t", label="x"),),
            label_set=LabelSet.of("x", "y"),
        )


def test_int_id_in_a_hand_built_dataset_reads_as_its_string():
    # as from a file, an int id is accepted and probed as its string
    ids = ["523456789012345678", "623456789012345678"]
    records = [Record(id=i, text="t", label=lab) for i, lab in zip(ids, "xy")]
    ds = Dataset(records=(*records, Record(id=5, text="t", label="x")),
                 label_set=LabelSet.of("x", "y"))
    assert ds.ids == (*ids, "5") and ds.records[2] == Record(id="5", text="t", label="x")
    same = Dataset(records=(*records, Record(id="5", text="t", label="x")),
                   label_set=ds.label_set)
    assert ds == same and ds.id_values.tolist() == same.id_values.tolist()
    split = split_of(ds, train_ids=(ids[0], "5"), test_ids=ids[1:])
    assert run_id_leak_suite([split], (1,), FAST) == run_id_leak_suite(
        [split_of(same, train_ids=(ids[0], "5"), test_ids=ids[1:])], (1,), FAST)


def test_suite_parses_the_ids_once(leaky, pool, monkeypatch, tmp_path, capsys):
    # an audit and a rebalance parse each input id once, while its file
    # loads: the probe, the fingerprint and the rebalanced dataset read the
    # loaded columns, and no id is parsed after load
    paths = {}
    for name, dataset in (("leaky", leaky), ("pool", pool)):
        paths[name] = tmp_path / f"{name}.jsonl"
        save_jsonl(dataset, paths[name])
    calls = []
    parse_ids, load = data_module.parse_ids, cli_module._load_dataset

    def counted(ids):
        calls.append(list(ids))
        return parse_ids(ids)

    def loaded(*args):
        calls.append("load")
        dataset = load(*args)
        calls.append("loaded")
        return dataset

    monkeypatch.setattr(data_module, "parse_ids", counted)
    monkeypatch.setattr(cli_module, "_load_dataset", loaded)
    labels = ",".join(leaky.label_set)
    runs = [
        (["audit", str(paths["leaky"]), "--labels", labels, "--n-splits", "2",
          "--skip-duplicates", "--json", str(tmp_path / "bundle.json")], 2, [leaky]),
        (["rebalance", str(paths["leaky"]), "--labels", labels, "--pool", str(paths["pool"]),
          "--anchor-label", "non-rumor", "--seed", "0", "--out", str(tmp_path / "out.jsonl")],
         0, [leaky, pool]),
    ]
    for argv, exit_code, inputs in runs:
        calls.clear()
        assert cli_module.main(argv) == exit_code
        assert calls.count("load") == len(inputs) and calls[-1] == "loaded"
        for dataset in inputs:
            assert calls[0] == "load"
            end = calls.index("loaded")
            assert all(isinstance(ids, list) for ids in calls[1:end])
            assert sum(calls[1:end], []) == [r.id for r in dataset.records]
            del calls[:end + 1]
        assert calls == []  # no parse outside a load
    bundle = json.loads((tmp_path / "bundle.json").read_text())
    assert bundle["fingerprint"]["n_undecodable_ids"] == 0


def test_suite_grows_each_k_once_and_draws_each_tree_once(leaky, monkeypatch):
    growers, substreams = [], []
    grower = forest_module._LockstepGrower
    tree_rng = forest_module._tree_rng

    def counted_grower(*args):
        growers.append(args)
        return grower(*args)

    def counted_rng(seed, t):
        substreams.append(t)
        return tree_rng(seed, t)

    monkeypatch.setattr(forest_module, "_LockstepGrower", counted_grower)
    monkeypatch.setattr(forest_module, "_tree_rng", counted_rng)
    reports = run_id_leak_suite(probe_splits(leaky, n_splits=5), k_values=(2, 3), config=FAST)
    # every stratified split has the same n_train, so the 5 forests of a k
    # share each tree's bootstrap draw and feature-order stream
    assert len({r.n_train for r in reports}) == 1
    assert len(reports) == 10
    assert len(growers) == 2
    # each grower takes 100 trees' alive-entry counts and 20 order streams
    assert [(len(args[6]), len(args[7])) for args in growers] == [(100, 20), (100, 20)]
    assert sorted(substreams) == sorted(list(range(20)) * 2)


def test_runs_of_several_datasets_equal_each_dataset_alone(leaky):
    # a copy of leaky with other unique ids, some too short for k=3 and k=2,
    # so its union table with leaky's differs from both and its runs keep
    # fewer rows
    other = Dataset(
        records=tuple(
            r._replace(id=str(i // 9 + 1) if i % 9 == 0 else str(int(r.id) // 7919))
            for i, r in enumerate(leaky.records)
        ),
        label_set=leaky.label_set,
    )
    splits = probe_splits(leaky, n_splits=3)
    runs = [(leaky, splits[0]), (other, splits[1]), (leaky, splits[2])]
    got = idleak_module._probe_runs(runs, (2, 3), FAST)
    want = [
        report for dataset, split in runs
        for report in run_id_leak_suite([make_split(dataset, split.spec)], (2, 3), FAST)
    ]
    assert got == want
    assert got[2].n_train < got[0].n_train and got[3].n_train < got[1].n_train


def _mixed_length_id(i):
    if i % 11 == 0:
        return str(i % 9 + 1)
    if i % 7 == 0:
        return str(10 + i)
    return str(5 * 10**17 + 13 * 10**14 * i)


# 70 records in three labels; 7 one-digit and 9 two-digit ids among
# 18-digit ones, so every generated split loses ids at k=2 and at k=3
MIXED_LENGTH_ROWS = [
    {"id": _mixed_length_id(i), "text": "t", "label": "xyz"[i * 5 // 7 % 3]} for i in range(70)
]


def _reports_digest(reports):
    blob = json.dumps([r.to_json_dict() for r in reports], sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _order_sensitive_probe():
    """Reports on a split whose test labels first occur in reverse label-set
    order, with counts that make the baseline's float mean depend on the
    order its per-class terms are summed in."""
    train_counts = {"a": 3, "b": 2, "c": 5, "d": 2}
    test_counts = {"d": 7, "c": 8, "b": 8, "a": 8}
    labels = [
        lab for counts in (train_counts, test_counts) for lab, n in counts.items() for _ in range(n)
    ]
    rows = [
        {"id": str(523456789012345678 + 7919 * i), "text": "t", "label": lab}
        for i, lab in enumerate(labels)
    ]
    ids = tuple(row["id"] for row in rows)
    n_train = sum(train_counts.values())
    ds = build_dataset(rows, labels=["a", "b", "c", "d"])
    split = split_of(ds, train_ids=ids[:n_train], test_ids=ids[n_train:])
    reports = [run_id_leak_test(ds, split, k=k, config=FAST) for k in (2, 3)]
    reordered = dict(reversed(test_counts.items()))
    assert baseline_expected_macro_f1(train_counts, reordered) != reports[0].baseline_macro_f1
    return reports


# SHA-256 of the reports' sort_keys JSON, pinned from the record-level probe
# that fitted on label strings (suite-mixed-lengths from the probe that
# parsed each run's ids on its own); any change to patterns, bootstrap draws,
# votes, confusion counts or the baseline's summation order changes them
REPORT_DIGESTS = {
    "baseline-order": "61da8d82b383fe4129dacd09d792b92895771bc69103f7419e49547928967a97",
    "suite-leaky": "693903b6bb8af5d0cbf2a5823a663a38eee11cfde69d5d5e8d48eabd6206cf70",
    "suite-control": "446a76ab18048e89f3810300e60a8538daf74e6bd5bdefc5280291c81a516304",
    "short-ids": "da56eb0c133fe2b1cb229f0ec56307baa9928bf5c5fd641d1abeb3f0c58e58b7",
    "suite-mixed-lengths": "a77243d1dc4b4f15ee03a6b13d5dfca641b254ce54597feb65c849c93125b359",
    "absent-ids": "9947286e2086cb14790232e17fbf97afb5ba3fe22aff13995e031a006e1d315b",
}


@pytest.mark.parametrize("case", sorted(REPORT_DIGESTS))
def test_probe_reports_are_pinned(request, case):
    if case == "suite-mixed-lengths":
        ds = build_dataset(MIXED_LENGTH_ROWS, labels=["x", "y", "z"])
        reports = run_id_leak_suite(probe_splits(ds, n_splits=2), k_values=(2, 3), config=FAST)
        assert all(r.excluded_short_ids > 0 for r in reports)
    elif case.startswith("suite-"):
        dataset = request.getfixturevalue(case.removeprefix("suite-"))
        reports = run_id_leak_suite(probe_splits(dataset, n_splits=2), k_values=(2, 3), config=FAST)
    elif case == "baseline-order":
        reports = _order_sensitive_probe()
    elif case == "short-ids":
        reports = [run_id_leak_test(SHORT_ID_DATASET, SHORT_ID_SPLIT, k=3, config=FAST)]
    else:
        # a split file listing ids the dataset lacks: import drops them
        leaky, tmp_path = request.getfixturevalue("leaky"), request.getfixturevalue("tmp_path")
        split = _split(leaky)
        path = tmp_path / "absent.json"
        export_split(split, path)
        raw = json.loads(path.read_text(encoding="utf-8"))
        raw["train_ids"].insert(5, "999999999999999999")
        raw["test_ids"].insert(0, "999999999999999998")
        path.write_text(json.dumps(raw), encoding="utf-8")
        absent = import_split(path, leaky)
        assert absent.provenance["missing_ids"] == 2
        assert absent.name() == "random_split"
        # pinned from a split built in memory, which had no name
        reports = [
            dataclasses.replace(run_id_leak_test(leaky, absent, k=k, config=FAST), split_name="")
            for k in (2, 3)
        ]
        assert [r.n_train for r in reports] == [len(split.train_ids)] * 2
    assert _reports_digest(reports) == REPORT_DIGESTS[case]


def test_leakage_score_formula():
    assert leakage_score(0.6, 0.25) == pytest.approx(0.35 / 0.75)
    assert leakage_score(0.2, 0.25) == 0.0
    assert leakage_score(0.9, 1.0) == 0.0
    assert leakage_score(1.0, 0.25) == 1.0


def test_verdict_thresholds():
    assert verdict(0.049) == "none"
    assert verdict(0.05) == "mild"
    assert verdict(0.149) == "mild"
    assert verdict(0.15) == "moderate"
    assert verdict(0.399) == "moderate"
    assert verdict(0.40) == "severe"


def test_suite_on_canonical_split(leaky):
    split = _split(leaky)
    reports = run_id_leak_suite([split], k_values=(2, 3), config=FAST)
    assert [r.k for r in reports] == [2, 3]
    assert all(r.split_name == split.name() for r in reports)


def test_suite_generated_splits_deterministic(leaky):
    first = run_id_leak_suite(probe_splits(leaky, n_splits=3, seed=5), (3,), FAST)
    second = run_id_leak_suite(probe_splits(leaky, n_splits=3, seed=5), (3,), FAST)
    assert len(first) == 3
    assert [r.to_json_dict() for r in first] == [r.to_json_dict() for r in second]
    # distinct generated splits, not one split three times
    assert len({r.macro_f1 for r in first}) >= 1
    names = [r.split_name for r in first]
    assert len(set(names)) == 3


def test_summarize_suite(leaky, control):
    reports = run_id_leak_suite(probe_splits(leaky, n_splits=3, seed=2), k_values=(3,), config=FAST)
    summary = summarize_id_leak_suite(reports)
    assert set(summary) == {3}
    entry = summary[3]
    assert entry["n_runs"] == 3
    assert entry["verdict"] == "severe"
    assert entry["leakage_mean"] > 0.9
    assert entry["leakage_std"] >= 0.0
    macros = np.array([r.macro_f1 for r in reports])
    assert entry["macro_f1_mean"] == pytest.approx(float(macros.mean()))
    assert entry["macro_f1_std"] == pytest.approx(float(macros.std(ddof=1)))

    single = summarize_id_leak_suite(reports[:1])
    assert single[3]["macro_f1_std"] == 0.0 and single[3]["n_runs"] == 1

    control_splits = probe_splits(control, n_splits=3, seed=2)
    control_reports = run_id_leak_suite(control_splits, k_values=(3,), config=FAST)
    control_summary = summarize_id_leak_suite(control_reports)
    assert control_summary[3]["verdict"] == "none"


def test_report_json_dict(leaky):
    import json

    report = run_id_leak_test(leaky, _split(leaky), k=2, config=FAST)
    blob = json.loads(json.dumps(report.to_json_dict(), sort_keys=True))
    assert blob["k"] == 2
    assert blob["config"]["n_trees"] == 20
    assert 0.0 <= blob["leakage_score"] <= 1.0
    assert blob["verdict"] in ("none", "mild", "moderate", "severe")
