"""Forest trainer tests.

The centerpiece is a randomized structural comparison against the
Fraction-exact reference in _oracle_forest; the rest pins determinism,
serialization, distinct-row prediction, and the baseline formulas.
"""

import numpy as np
import pytest

from _oracle_forest import oracle_predict, oracle_tree
from leakaudit import (
    DecisionTree,
    EmptyDistributionError,
    EmptyInputError,
    ForestConfig,
    ForestModel,
    LabelSet,
    RaggedRowsError,
    StratifiedBaseline,
    WidthMismatchError,
    baseline_expected_macro_f1,
    baseline_macro_f1_monte_carlo,
    fit_forest,
    fit_tree,
)


def _plain_config(max_depth=None, min_samples_split=2, min_samples_leaf=1):
    return ForestConfig(
        n_trees=1,
        max_depth=max_depth,
        max_features="all",
        bootstrap=False,
        min_samples_split=min_samples_split,
        min_samples_leaf=min_samples_leaf,
        seed=0,
    )


def test_depth_one_split_at_midpoint():
    X = [[1], [2], [7], [8]]
    y = ["a", "a", "b", "b"]
    model = fit_tree(X, y, _plain_config())
    tree = model.trees[0]
    assert tree.feature[0] == 0
    assert tree.threshold[0] == 4.5
    assert tree.depth() == 1
    assert model.predict([[0], [4], [5], [9]]) == ["a", "a", "b", "b"]


def test_identical_rows_become_one_leaf():
    model = fit_tree([[3], [3], [3]], ["a", "a", "b"], _plain_config())
    tree = model.trees[0]
    assert tree.n_nodes == 1 and tree.feature[0] == -1
    assert tree.counts[0] == [2, 1]
    assert model.predict([[3]]) == ["a"]
    # 1-1 tie on a forced leaf goes to the lower label index
    tie = fit_tree([[3], [3]], ["a", "b"], _plain_config())
    assert tie.predict([[3]]) == ["a"]


def test_tie_breaks_lowest_feature_then_threshold():
    # both features separate the classes perfectly: feature 0 must win
    model = fit_tree([[0, 0], [0, 0], [1, 1], [1, 1]], ["a", "a", "b", "b"], _plain_config())
    assert model.trees[0].feature[0] == 0

    # thresholds 0.5 and 1.5 score identically; the lower one must win
    model2 = fit_tree([[0], [1], [2]], ["a", "b", "a"], _plain_config())
    assert model2.trees[0].threshold[0] == 0.5


def test_random_trees_match_exact_oracle():
    rng = np.random.default_rng(707)
    labels_pool = ["a", "b", "c"]
    for case in range(300):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(1, 3))
        k = int(rng.integers(1, 4))
        rows = [[int(rng.integers(0, 5)) for _ in range(d)] for _ in range(n)]
        y_idx = [int(rng.integers(0, k)) for _ in range(n)]
        y = [labels_pool[i] for i in y_idx]
        max_depth = [None, 1, 2][case % 3]
        mss = 2 if case % 2 == 0 else 3
        msl = 1 if case % 5 else 2
        config = _plain_config(max_depth=max_depth, min_samples_split=mss, min_samples_leaf=msl)
        model = fit_tree(rows, y, config, label_set=LabelSet.of(*labels_pool[:k]))
        tree = model.trees[0]
        want = oracle_tree(
            rows, y_idx, k, max_depth=max_depth, min_samples_split=mss, min_samples_leaf=msl
        )
        w_feature, w_threshold, w_left, w_right, w_counts = want
        assert tree.feature.tolist() == w_feature, f"case {case}"
        assert tree.threshold.tolist() == pytest.approx(w_threshold, abs=0), f"case {case}"
        assert tree.left.tolist() == w_left, f"case {case}"
        assert tree.right.tolist() == w_right, f"case {case}"
        assert tree.counts == w_counts, f"case {case}"
        queries = [[int(rng.integers(0, 5)) for _ in range(d)] for _ in range(8)]
        got = model.predict_index(np.asarray(queries))
        assert [int(g) for g in got] == [oracle_predict(want, q) for q in queries]


def _digit_training_set(seed, n=400, d=4, k=3):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 10, size=(n, d))
    y = [["x", "y", "z"][int(i)] for i in rng.integers(0, k, size=n)]
    return X, y


def test_forest_is_deterministic_and_seed_sensitive():
    X, y = _digit_training_set(14)
    config = ForestConfig(n_trees=12, seed=42)
    one = fit_forest(X, y, config).to_json_str()
    two = fit_forest(X, y, config).to_json_str()
    assert one == two
    other = fit_forest(X, y, ForestConfig(n_trees=12, seed=43)).to_json_str()
    assert one != other


def test_model_serialization_round_trip(tmp_path):
    X, y = _digit_training_set(16)
    model = fit_forest(X, y, ForestConfig(n_trees=5, seed=9))
    path = tmp_path / "model.json"
    model.save(path)
    back = ForestModel.load(path)
    assert back.to_json_str() == model.to_json_str()
    Xq = np.asarray([[1, 2, 3, 4], [9, 8, 7, 6]])
    assert back.predict(Xq) == model.predict(Xq)
    with pytest.raises(ValueError):
        ForestModel.from_json_str('{"format_version": 99}')


def test_single_tree_forest_equals_fit_tree():
    X, y = _digit_training_set(17, n=120)
    config = ForestConfig(n_trees=1, bootstrap=False, seed=3)
    forest = fit_forest(X, y, config)
    tree = fit_tree(X, y, config)
    assert forest.to_json_str() == tree.to_json_str()


def test_predict_on_repeated_rows_matches_row_by_row_loop():
    X, y = _digit_training_set(18)
    model = fit_forest(X, y, ForestConfig(n_trees=9, seed=5))
    # 3**4 = 81 possible rows over 600 queries: most rows repeat, in shuffled order
    Xq = np.random.default_rng(19).integers(0, 3, size=(600, 4))

    def walk(tree, row):
        node = 0
        while tree.feature[node] >= 0:
            go_left = row[tree.feature[node]] <= tree.threshold[node]
            node = tree.left[node] if go_left else tree.right[node]
        return int(tree.leaf_class[node])

    want = []
    for row in Xq:
        votes = [0] * len(model.label_set)
        for tree in model.trees:
            votes[walk(tree, row)] += 1
        want.append(votes.index(max(votes)))
    got = model.predict_index(Xq)
    assert got.shape == (600,)
    assert got.tolist() == want
    assert len(set(got.tolist())) > 1


def test_vote_ties_go_to_lowest_label_index():
    def leaf(counts):
        return DecisionTree(
            feature=np.array([-1]),
            threshold=np.array([0.0]),
            left=np.array([-1]),
            right=np.array([-1]),
            counts=[counts],
        )

    model = ForestModel(
        config=ForestConfig(n_trees=2),
        label_set=LabelSet.of("a", "b"),
        trees=[leaf([1, 0]), leaf([0, 1])],
        n_features=1,
    )
    assert model.predict([[0]]) == ["a"]


def test_input_validation():
    with pytest.raises(RaggedRowsError):
        fit_tree([[1, 2], [3]], ["a", "b"])
    with pytest.raises(RaggedRowsError):
        fit_tree([1, 2, 3], ["a", "b", "c"])
    with pytest.raises(EmptyInputError):
        fit_tree(np.zeros((0, 2), dtype=np.int64), [])
    with pytest.raises(ValueError):
        fit_tree([[2**53]], ["a"])
    with pytest.raises(ValueError):
        fit_tree([[1], [2]], ["a"])

    model = fit_tree([[1], [2]], ["a", "b"])
    with pytest.raises(WidthMismatchError):
        model.predict([[1, 2]])
    with pytest.raises(EmptyInputError):
        model.predict(np.zeros((0, 1), dtype=np.int64))

    for bad in (
        dict(n_trees=0),
        dict(max_depth=0),
        dict(max_features="most"),
        dict(max_features=0),
        dict(min_samples_split=1),
        dict(min_samples_leaf=0),
    ):
        with pytest.raises(ValueError):
            ForestConfig(**bad)


def test_resolve_max_features():
    assert ForestConfig(max_features="sqrt").resolve_max_features(9) == 3
    assert ForestConfig(max_features="sqrt").resolve_max_features(2) == 1
    assert ForestConfig(max_features="all").resolve_max_features(7) == 7
    assert ForestConfig(max_features=3).resolve_max_features(2) == 2


def test_baseline_closed_form_exact_values():
    balanced = {"a": 1, "b": 1, "c": 1, "d": 1}
    # p == q == 1/4 per class: F1 = 2*p*q/(p+q) = 1/4 for every class
    assert baseline_expected_macro_f1(balanced, balanced) == 0.25

    skew = {"t": 0.9, "f": 0.1}
    assert abs(baseline_expected_macro_f1(skew, skew) - 0.5) < 1e-15

    # class absent from train scores 0 but still counts in the macro
    got = baseline_expected_macro_f1({"a": 1.0}, {"a": 0.5, "b": 0.5})
    assert abs(got - (2 * 1.0 * 0.5 / 1.5) / 2) < 1e-15

    with pytest.raises(EmptyDistributionError):
        baseline_expected_macro_f1({}, {"a": 1})
    with pytest.raises(EmptyDistributionError):
        baseline_expected_macro_f1({"a": -1, "b": 2}, {"a": 1})


def test_baseline_monte_carlo_agrees_with_closed_form():
    train = {"a": 1, "b": 1, "c": 1, "d": 1}
    counts = {"a": 250, "b": 250, "c": 250, "d": 250}
    mc = baseline_macro_f1_monte_carlo(train, counts, n_draws=2000, seed=12)
    assert abs(mc - 0.25) < 0.01
    again = baseline_macro_f1_monte_carlo(train, counts, n_draws=2000, seed=12)
    assert mc == again
    with pytest.raises(EmptyDistributionError):
        baseline_macro_f1_monte_carlo(train, {"a": 0})


def test_stratified_baseline_predictions():
    base = StratifiedBaseline.from_labels(["t"] * 9 + ["f"], seed=4)
    assert abs(base.label_probs["t"] - 0.9) < 1e-15
    ids = [str(i) for i in range(10000)]
    preds = base.predict_for(ids)
    assert set(preds) == set(ids)
    rate_t = sum(1 for v in preds.values() if v == "t") / len(ids)
    assert abs(rate_t - 0.9) < 0.03
    assert preds == base.predict_for(ids)
