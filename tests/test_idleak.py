"""ID-digit leak probe tests.

The leaky fixture packs each label into its own 30-day window, so digit
prefixes of the ids separate the classes perfectly; the control fixture
permutes the same labels, destroying the link while keeping everything
else identical. The probe must say "severe" on one and "none" on the
other.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leakaudit import SplitSpec, build_dataset, run_id_leak_test
from leakaudit.errors import AllIdsTooShortError, EmptySplitError
from leakaudit.forest import ForestConfig
from leakaudit.idleak import (
    digit_features,
    leakage_score,
    run_id_leak_suite,
    summarize_id_leak_suite,
    verdict,
)
from leakaudit.splits import Split, random_split

FAST = ForestConfig(n_trees=20, seed=0)


def _split(dataset, seed=0):
    return random_split(dataset, SplitSpec(ratios=(0.7, 0.1, 0.2), seed=seed))


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


def test_digit_features_basic():
    X, kept = digit_features(["12345", "99", "54321"], k=3)
    assert X.tolist() == [[1, 2, 3], [5, 4, 3]]
    assert kept == [0, 2]
    X1, kept1 = digit_features(["7", "88"], k=1)
    assert X1.tolist() == [[7], [8]] and kept1 == [0, 1]
    X0, kept0 = digit_features(["12"], k=5)
    assert X0.shape == (0, 5) and kept0 == []


def _digit_rows_by_character(ids, k):
    rows, kept = [], []
    for i, id_str in enumerate(ids):
        if len(id_str) >= k:
            rows.append([int(c) for c in id_str[:k]])
            kept.append(i)
    return rows, kept


@settings(max_examples=300, deadline=None)
@given(
    ids=st.lists(
        st.one_of(st.integers(1, 2**63 - 1), st.integers(1, 999)).map(str), max_size=30
    ),
    k=st.integers(1, 20),
)
def test_digit_features_matches_per_character_loop(ids, k):
    X, kept = digit_features(ids, k)
    rows, want_kept = _digit_rows_by_character(ids, k)
    assert X.dtype == np.int64 and X.shape == (len(want_kept), k)
    assert X.tolist() == rows
    assert kept == want_kept


def test_digit_features_rejects_bad_k_and_non_digit_ids():
    with pytest.raises(ValueError):
        digit_features(["123"], 0)
    for bad in ("12a", "1 2", "\u0661\u0662\u0663", "1\x002"):
        with pytest.raises(ValueError):
            digit_features(["456", bad], 1)
    # a non-digit id is an error even when it is too short to be kept
    with pytest.raises(ValueError):
        digit_features(["456", "a"], 3)


def test_short_ids_excluded_and_counted():
    rows = [
        {"id": "51", "text": "a", "label": "x"},
        {"id": "523456789012345678", "text": "b", "label": "x"},
        {"id": "623456789012345678", "text": "c", "label": "y"},
        {"id": "62", "text": "d", "label": "y"},
        {"id": "533456789012345678", "text": "e", "label": "x"},
        {"id": "633456789012345678", "text": "f", "label": "y"},
    ]
    ds = build_dataset(rows, labels=["x", "y"])
    spec = SplitSpec(ratios=(0.5, 0.0, 0.5), seed=1)
    split = Split(
        train_ids=("51", "523456789012345678", "623456789012345678", "62"),
        dev_ids=(),
        test_ids=("533456789012345678", "633456789012345678"),
        spec=spec,
    )
    report = run_id_leak_test(ds, split, k=3, config=FAST)
    assert report.excluded_short_ids == 2
    assert report.n_train == 2 and report.n_test == 2

    all_short = Split(
        train_ids=("51", "62"),
        dev_ids=(),
        test_ids=("533456789012345678",),
        spec=spec,
    )
    with pytest.raises(AllIdsTooShortError):
        run_id_leak_test(ds, all_short, k=3, config=FAST)

    with pytest.raises(EmptySplitError):
        run_id_leak_test(ds, Split(train_ids=("51",), dev_ids=(), test_ids=(), spec=spec), k=1)


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
    reports = run_id_leak_suite(leaky, k_values=(2, 3), split=split, config=FAST)
    assert [r.k for r in reports] == [2, 3]
    assert all(r.split_name == split.name() for r in reports)


def test_suite_generated_splits_deterministic(leaky):
    kwargs = dict(k_values=(3,), n_splits=3, seed=5, config=FAST)
    first = run_id_leak_suite(leaky, **kwargs)
    second = run_id_leak_suite(leaky, **kwargs)
    assert len(first) == 3
    assert [r.to_json_dict() for r in first] == [r.to_json_dict() for r in second]
    # distinct generated splits, not one split three times
    assert len({r.macro_f1 for r in first}) >= 1
    names = [r.split_name for r in first]
    assert len(set(names)) == 3


def test_summarize_suite(leaky, control):
    reports = run_id_leak_suite(leaky, k_values=(3,), n_splits=3, seed=2, config=FAST)
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

    control_reports = run_id_leak_suite(control, k_values=(3,), n_splits=3, seed=2, config=FAST)
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
