"""Metrics tests.

The random-case oracle recomputes every quantity with exact Fractions and
pure-Python loops, so any agreement with the numpy implementation is real
and not a shared bug.
"""

from fractions import Fraction

import numpy as np
import pytest

from leakaudit import LabelSet, build_dataset, evaluate
from leakaudit.errors import EmptyInputError, PredictionFileError, UnknownLabelError
from leakaudit.metrics import (
    ConfusionMatrix,
    aggregate_article_votes,
    evaluate_prediction_file,
    read_prediction_file,
    result_from_matrix,
)


def brute_force_eval(gold, preds, labels, mode):
    """Exact-arithmetic reference. Returns None when no label has support."""
    tp = {l: 0 for l in labels}
    pred_n = {l: 0 for l in labels}
    gold_n = {l: 0 for l in labels}
    n_missing = 0
    for rid, g in gold.items():
        if rid in preds:
            p = preds[rid]
            gold_n[g] += 1
            pred_n[p] += 1
            if g == p:
                tp[g] += 1
        else:
            n_missing += 1
            if mode == "wrong":
                gold_n[g] += 1
    per_f1 = {}
    present = []
    for l in labels:
        prec = Fraction(tp[l], pred_n[l]) if pred_n[l] else Fraction(0)
        rec = Fraction(tp[l], gold_n[l]) if gold_n[l] else Fraction(0)
        f1 = Fraction(0) if prec + rec == 0 else 2 * prec * rec / (prec + rec)
        per_f1[l] = f1
        if gold_n[l] > 0:
            present.append(f1)
    if not present:
        return None
    macro = sum(present) / len(present)
    total = sum(gold_n.values())
    micro = Fraction(sum(tp.values()), total) if total else Fraction(0)
    return per_f1, macro, micro, gold_n, pred_n, n_missing


def test_hand_worked_two_class_case():
    # gold a,a,b,b vs pred a,b,b,b:
    #   a: P=1, R=1/2 -> F1=2/3;  b: P=2/3, R=1 -> F1=4/5;  macro=11/15
    ls = LabelSet.of("a", "b")
    gold = {"1": "a", "2": "a", "3": "b", "4": "b"}
    pred = {"1": "a", "2": "b", "3": "b", "4": "b"}
    res = evaluate(gold, pred, ls)
    assert abs(res.per_class_f1()["a"] - 2 / 3) < 1e-12
    assert abs(res.per_class_f1()["b"] - 4 / 5) < 1e-12
    assert abs(res.macro_f1 - 11 / 15) < 1e-12
    assert abs(res.micro_f1 - 3 / 4) < 1e-12
    assert res.accuracy == res.micro_f1
    assert res.n_scored == 4 and res.n_missing == 0
    a = next(m for m in res.per_class if m.label == "a")
    assert a.precision == 1.0 and abs(a.recall - 0.5) < 1e-12
    assert a.support == 2 and a.predicted == 1


def test_f1_zero_when_precision_plus_recall_zero():
    ls = LabelSet.of("a", "b")
    res = evaluate({"1": "a", "2": "a"}, {"1": "b", "2": "b"}, ls)
    assert res.per_class_f1()["a"] == 0.0
    # macro averages only gold-present labels: just "a" here
    assert res.macro_f1 == 0.0
    assert res.micro_f1 == 0.0
    # the per-class table still covers the full label set
    assert [m.label for m in res.per_class] == ["a", "b"]


def test_missing_modes_differ():
    ls = LabelSet.of("a", "b")
    gold = {"1": "a", "2": "a", "3": "b", "4": "b"}
    pred = {"1": "a", "3": "b"}
    wrong = evaluate(gold, pred, ls, missing="wrong")
    # each class: P=1, R=1/2 -> F1=2/3
    assert abs(wrong.macro_f1 - 2 / 3) < 1e-12
    assert abs(wrong.micro_f1 - 1 / 2) < 1e-12
    excl = evaluate(gold, pred, ls, missing="exclude")
    assert excl.macro_f1 == 1.0 and excl.micro_f1 == 1.0
    for res in (wrong, excl):
        assert res.n_scored == 2 and res.n_missing == 2


def test_predictions_outside_gold_are_ignored():
    ls = LabelSet.of("a", "b")
    gold = {"1": "a", "2": "b"}
    base = evaluate(gold, {"1": "a", "2": "b"}, ls)
    extra = evaluate(gold, {"1": "a", "2": "b", "999": "a"}, ls)
    assert base.macro_f1 == extra.macro_f1 == 1.0
    assert extra.n_scored == 2


def test_evaluate_error_cases():
    ls = LabelSet.of("a", "b")
    with pytest.raises(EmptyInputError):
        evaluate({}, {}, ls)
    with pytest.raises(UnknownLabelError):
        evaluate({"1": "z"}, {"1": "a"}, ls)
    with pytest.raises(UnknownLabelError):
        evaluate({"1": "a"}, {"1": "z"}, ls)
    with pytest.raises(ValueError):
        evaluate({"1": "a"}, {"1": "a"}, ls, missing="drop")
    # exclude mode with every prediction missing leaves nothing to score
    with pytest.raises(EmptyInputError):
        evaluate({"1": "a"}, {}, ls, missing="exclude")


def test_confusion_matrix_validation():
    ls = LabelSet.of("a", "b")
    with pytest.raises(ValueError):
        ConfusionMatrix(label_set=ls, counts=np.zeros((3, 3), dtype=np.int64))
    with pytest.raises(ValueError):
        ConfusionMatrix.from_pairs(["a"], ["a", "b"], ls)
    for gold, pred, missing_gold in ((["z"], ["a"], ()), (["a"], ["z"], ()), ([], [], ["z"])):
        with pytest.raises(UnknownLabelError):
            ConfusionMatrix.from_pairs(gold, pred, ls, missing_gold)
    m = ConfusionMatrix.from_pairs(["a", "b"], ["b", "b"], ls, missing_gold=["a"])
    assert m.counts.tolist() == [[0, 1], [0, 1]]
    assert m.missing_per_label == (1, 0)
    assert m.total == 2


def test_random_cases_match_exact_oracle():
    rng = np.random.default_rng(401)
    alphabet = ["a", "b", "c", "d", "e"]
    checked = 0
    for case in range(1000):
        k = int(rng.integers(2, 6))
        labels = alphabet[:k]
        ls = LabelSet.of(*labels)
        n = int(rng.integers(1, 31))
        gold = {str(i): labels[int(rng.integers(k))] for i in range(n)}
        preds = {}
        for i in range(n):
            if rng.random() < 0.8:
                preds[str(i)] = labels[int(rng.integers(k))]
        if rng.random() < 0.3:
            preds["stranger"] = labels[0]
        mode = "wrong" if case % 2 == 0 else "exclude"
        want = brute_force_eval(gold, preds, labels, mode)
        if want is None:
            with pytest.raises(EmptyInputError):
                evaluate(gold, preds, ls, missing=mode)
            continue
        per_f1, macro, micro, gold_n, pred_n, n_missing = want
        res = evaluate(gold, preds, ls, missing=mode)
        for m in res.per_class:
            assert abs(m.f1 - float(per_f1[m.label])) < 1e-12
            assert m.support == gold_n[m.label]
            assert m.predicted == pred_n[m.label]
        assert abs(res.macro_f1 - float(macro)) < 1e-12
        assert abs(res.micro_f1 - float(micro)) < 1e-12
        assert res.n_missing == n_missing
        assert res.n_scored == sum(1 for rid in gold if rid in preds)
        checked += 1
    assert checked > 900


def test_result_json_dict_round_trips():
    import json

    ls = LabelSet.of("a", "b")
    res = evaluate({"1": "a", "2": "b"}, {"1": "a"}, ls)
    blob = json.dumps(res.to_json_dict(), sort_keys=True)
    back = json.loads(blob)
    assert back["labels"] == ["a", "b"]
    assert back["macro_f1"] == res.macro_f1
    assert back["n_missing"] == 1
    assert back["missing_mode"] == "wrong"
    assert len(back["confusion"]) == 2


def test_read_prediction_csv(tmp_path):
    p = tmp_path / "preds.csv"
    p.write_text("id,label,score\n10,a,0.9\n11,b,0.2\n", encoding="utf-8")
    assert read_prediction_file(p) == {"10": "a", "11": "b"}

    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("id,prediction\n10,a\n", encoding="utf-8")
    with pytest.raises(PredictionFileError):
        read_prediction_file(bad_header)

    dup = tmp_path / "dup.csv"
    dup.write_text("id,label\n10,a\n10,b\n", encoding="utf-8")
    with pytest.raises(PredictionFileError) as err:
        read_prediction_file(dup)
    assert "line 3" in str(err.value)

    empty_id = tmp_path / "empty.csv"
    empty_id.write_text("id,label\n,a\n", encoding="utf-8")
    with pytest.raises(PredictionFileError):
        read_prediction_file(empty_id)

    # errors name the line a row starts on, after blank lines and after a
    # quoted id that spans lines
    for name, content in (
        ("blank.csv", "id,label\n1,real\n\n,fake\n"),
        ("spanning.csv", 'id,label\n"1\n",real\n,fake\n'),
    ):
        bad = tmp_path / name
        bad.write_text(content, encoding="utf-8")
        with pytest.raises(PredictionFileError) as err:
            read_prediction_file(bad)
        assert str(err.value) == "line 4: row missing id or label"


def test_read_prediction_jsonl(tmp_path):
    p = tmp_path / "preds.jsonl"
    p.write_text(
        '{"id": 10, "label": "a"}\n\n{"id": "11", "label": "b"}\n', encoding="utf-8"
    )
    assert read_prediction_file(p) == {"10": "a", "11": "b"}

    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "1", "label": "a"}\nnot json\n', encoding="utf-8")
    with pytest.raises(PredictionFileError) as err:
        read_prediction_file(bad)
    assert "line 2" in str(err.value)

    missing_key = tmp_path / "mk.jsonl"
    missing_key.write_text('{"id": "1"}\n', encoding="utf-8")
    with pytest.raises(PredictionFileError):
        read_prediction_file(missing_key)

    dup = tmp_path / "dup.jsonl"
    dup.write_text('{"id": "1", "label": "a"}\n{"id": "1", "label": "b"}\n', encoding="utf-8")
    with pytest.raises(PredictionFileError):
        read_prediction_file(dup)

    # an id that is not a string or an int, or a label that is not a
    # string, is refused, not read as its str()
    for row, message in (
        ('{"id": null, "label": "a"}', "id None is not a string or integer"),
        ('{"id": true, "label": "a"}', "id True is not a string or integer"),
        ('{"id": 1.0, "label": "a"}', "id 1.0 is not a string or integer"),
        ('{"id": ["1"], "label": "a"}', "id ['1'] is not a string or integer"),
        ('{"id": "1", "label": ["x"]}', "label ['x'] is not a string"),
        ('{"id": "1", "label": 1}', "label 1 is not a string"),
        ('{"id": "1", "label": null}', "label None is not a string"),
    ):
        bad = tmp_path / "typed.jsonl"
        bad.write_text('{"id": 2, "label": "a"}\n\n' + row + "\n", encoding="utf-8")
        with pytest.raises(PredictionFileError) as err:
            read_prediction_file(bad)
        assert str(err.value) == f"line 3: {message}"


def test_read_prediction_csv_skips_a_leading_byte_order_mark(tmp_path):
    p = tmp_path / "preds.csv"
    p.write_text("\ufeffid,label\n10,a\n", encoding="utf-8")
    assert read_prediction_file(p) == {"10": "a"}


def test_read_prediction_jsonl_skips_a_leading_byte_order_mark(tmp_path):
    p = tmp_path / "preds.jsonl"
    p.write_text('\ufeff{"id": 10, "label": "a"}\n', encoding="utf-8")
    assert read_prediction_file(p) == {"10": "a"}


def test_prediction_files_fail_on_a_byte_order_mark_that_does_not_lead(tmp_path):
    # a second mark makes the CSV header's first column "\ufeffid"
    csv_path = tmp_path / "preds.csv"
    csv_path.write_text("\ufeff\ufeffid,label\n10,a\n", encoding="utf-8")
    with pytest.raises(PredictionFileError) as err:
        read_prediction_file(csv_path)
    assert str(err.value) == f"{csv_path}: header must contain id,label columns"
    jsonl_path = tmp_path / "preds.jsonl"
    jsonl_path.write_text(
        '{"id": 10, "label": "a"}\n\ufeff{"id": 11, "label": "b"}\n', encoding="utf-8"
    )
    with pytest.raises(PredictionFileError) as err:
        read_prediction_file(jsonl_path)
    assert str(err.value) == (
        "line 2: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
        "line 1 column 1 (char 0)"
    )


def test_evaluate_prediction_file(tmp_path):
    ds = build_dataset(
        [
            {"id": "1", "text": "t1", "label": "a"},
            {"id": "2", "text": "t2", "label": "a"},
            {"id": "3", "text": "t3", "label": "b"},
            {"id": "4", "text": "t4", "label": "b"},
        ],
        labels=["a", "b"],
    )
    p = tmp_path / "preds.csv"
    p.write_text("id,label\n1,a\n2,b\n3,b\n4,b\n", encoding="utf-8")
    res = evaluate_prediction_file(ds, np.arange(4), p)
    assert abs(res.macro_f1 - 11 / 15) < 1e-12
    # only the records at the test positions are scored: id 3 (right)
    # and id 2 (wrong)
    res2 = evaluate_prediction_file(ds, np.array([2, 1]), p)
    assert res2.n_scored == 2 and res2.accuracy == 0.5

    alien = tmp_path / "alien.csv"
    alien.write_text("id,label\n1,z\n", encoding="utf-8")
    with pytest.raises(UnknownLabelError):
        evaluate_prediction_file(ds, np.array([0]), alien)


def test_aggregate_article_votes():
    ls = LabelSet.of("x", "y")
    article_of = {
        "t1": "A", "t2": "A", "t3": "A",
        "t4": "B", "t5": "B",
        "t6": "C", "t7": "C", "t8": "C", "t9": "C",
    }
    preds = {
        "t1": "x", "t2": "x", "t3": "y",        # A: x wins 2-1
        "t4": "x", "t5": "x",                     # B: only 2 votes
        "t6": "x", "t7": "x", "t8": "y", "t9": "y",  # C: 2-2 tie -> x (earlier)
        "t99": "y",                               # no article mapping
    }
    out = aggregate_article_votes(preds, article_of, ls)
    assert out == {"A": "x", "C": "x"}
    relaxed = aggregate_article_votes(preds, article_of, ls, min_tweets=1)
    assert relaxed == {"A": "x", "B": "x", "C": "x"}
