"""Forest trainer tests.

The centerpiece is a randomized structural comparison against the
Fraction-exact reference in _oracle_forest, for single trees and for the
bootstrapped, feature-subsampled trees of a forest. Forests fitted together
by one ``fit_rows`` call must equal each fitted alone, and the forest-wide
prediction walk must vote as every tree walked on its own; the rest pins
model digests, determinism, row-by-row prediction, and the baseline
formulas.
"""

import hashlib
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leakaudit.forest as forest_module
from _oracle_forest import (
    baseline_macro_f1_monte_carlo,
    fit_forest,
    fit_tree,
    oracle_predict,
    oracle_tree,
    trees_of,
)
from leakaudit import LabelSet
from leakaudit.errors import EmptyDistributionError
from leakaudit.forest import (
    ForestConfig,
    ForestModel,
    _tree_rng,
    baseline_expected_macro_f1,
    fit_rows,
)
from leakaudit.idleak import _pattern_tables


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


def _predicted_labels(model, X):
    predicted = model.predict_index(np.asarray(X, dtype=np.int64))
    return [model.label_set.labels[i] for i in predicted]


def test_depth_one_split_at_midpoint():
    X = [[1], [2], [7], [8]]
    y = ["a", "a", "b", "b"]
    model = fit_tree(X, y, _plain_config())
    tree = trees_of(model)[0]
    assert tree.feature[0] == 0
    assert tree.threshold[0] == 4.5
    # one split, two leaves: depth 1
    assert tree.left[0] == 1 and tree.right[0] == 2
    assert tree.feature[1:].tolist() == [-1, -1]
    assert _predicted_labels(model, [[0], [4], [5], [9]]) == ["a", "a", "b", "b"]


def test_identical_rows_become_one_leaf():
    model = fit_tree([[3], [3], [3]], ["a", "a", "b"], _plain_config())
    tree = trees_of(model)[0]
    assert tree.n_nodes == 1 and tree.feature[0] == -1
    assert tree.counts[0] == [2, 1]
    assert _predicted_labels(model, [[3]]) == ["a"]
    # 1-1 tie on a forced leaf goes to the lower label index
    tie = fit_tree([[3], [3]], ["a", "b"], _plain_config())
    assert _predicted_labels(tie, [[3]]) == ["a"]


def test_tie_breaks_lowest_feature_then_threshold():
    # both features separate the classes perfectly: feature 0 must win
    model = fit_tree([[0, 0], [0, 0], [1, 1], [1, 1]], ["a", "a", "b", "b"], _plain_config())
    assert trees_of(model)[0].feature[0] == 0

    # thresholds 0.5 and 1.5 score identically; the lower one must win
    model2 = fit_tree([[0], [1], [2]], ["a", "b", "a"], _plain_config())
    assert trees_of(model2)[0].threshold[0] == 0.5


def test_near_tie_is_decided_in_exact_arithmetic():
    # Class totals (T, T + 1). Splitting on feature 0 puts (b, a) of the
    # two classes left, feature 1 puts (a, b) left, with b = a - 1. The
    # feature-1 split is better by 2 / (2T - 2a + 2), about 1.7e-5, well
    # inside the float shortlist's 1e-9 relative tolerance, so only the
    # exact integer stage can prefer it over the lower feature index.
    T, a = 100_000, 40_000
    b = a - 1
    cells = {
        (0, 1, "p"): b,
        (1, 0, "p"): a,
        (1, 1, "p"): T - a - b,
        (0, 1, "q"): a,
        (1, 0, "q"): b,
        (1, 1, "q"): T + 1 - a - b,
    }
    sizes = list(cells.values())
    X = np.repeat(np.array([key[:2] for key in cells]), sizes, axis=0)
    y = [label for key, size in zip(cells, sizes) for label in [key[2]] * size]
    model = fit_tree(X, y, _plain_config(max_depth=1))
    assert trees_of(model)[0].feature[0] == 1


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
        tree = trees_of(model)[0]
        want = oracle_tree(
            rows, y_idx, k, max_depth=max_depth, min_samples_split=mss, min_samples_leaf=msl
        )
        _assert_tree_matches(tree, want, f"case {case}")
        queries = [[int(rng.integers(0, 5)) for _ in range(d)] for _ in range(8)]
        got = model.predict_index(np.asarray(queries))
        assert [int(g) for g in got] == [oracle_predict(want, q) for q in queries]


def _assert_tree_matches(tree, want, msg):
    w_feature, w_threshold, w_left, w_right, w_counts = want
    assert tree.feature.tolist() == w_feature, msg
    assert tree.threshold.tolist() == pytest.approx(w_threshold, abs=0), msg
    assert tree.left.tolist() == w_left, msg
    assert tree.right.tolist() == w_right, msg
    assert tree.counts == w_counts, msg


def test_bootstrapped_subsampled_forest_trees_match_exact_oracle():
    rng = np.random.default_rng(909)
    labels_pool = ["a", "b", "c"]
    for case in range(150):
        n = int(rng.integers(2, 13))
        d = int(rng.integers(2, 5))
        k = int(rng.integers(2, 4))
        rows = [[int(rng.integers(-3, 4)) for _ in range(d)] for _ in range(n)]
        y_idx = [int(rng.integers(0, k)) for _ in range(n)]
        y = [labels_pool[i] for i in y_idx]
        config = ForestConfig(
            n_trees=3,
            max_depth=[None, 2, 3][case % 3],
            max_features=["sqrt", 1, 2, 3][case % 4],
            bootstrap=True,
            min_samples_split=2 + case % 2,
            min_samples_leaf=1 + case % 3,
            seed=int(rng.integers(0, 2**63)),
        )
        model = fit_forest(rows, y, config, label_set=LabelSet.of(*labels_pool[:k]))
        max_eval = config.resolve_max_features(d)
        for t, tree in enumerate(trees_of(model)):
            # replay tree t's substream: its bootstrap draw, then one feature
            # order per split-candidate node in preorder
            stream = _tree_rng(config.seed, t)
            weights = np.bincount(stream.integers(0, n, size=n), minlength=n).tolist()
            if max_eval < d:
                order = lambda: stream.permutation(d).tolist()  # noqa: E731
            else:
                order = None
            want = oracle_tree(
                rows,
                y_idx,
                k,
                max_depth=config.max_depth,
                min_samples_split=config.min_samples_split,
                min_samples_leaf=config.min_samples_leaf,
                weights=weights,
                feature_order=order,
                max_eval=max_eval,
            )
            _assert_tree_matches(tree, want, f"case {case} tree {t}")


@pytest.mark.parametrize("first_block", [1, 4, None], ids=["block-1", "block-4", "default"])
@pytest.mark.parametrize("bootstrap", [True, False], ids=["bootstrap", "no-bootstrap"])
def test_deep_forests_read_past_the_first_order_block(monkeypatch, bootstrap, first_block):
    # unbounded trees on a noisy 5-digit table have more split candidates
    # than a stream's first blocks of orders hold; the sets of 160 rows
    # share their streams, the set of 100 reads its own
    if first_block is not None:
        monkeypatch.setattr(forest_module, "_FIRST_BLOCK", first_block)
    rng = np.random.default_rng(5)
    rows = np.unique(rng.integers(0, 10, size=(240, 5)), axis=0)
    sets = [
        (rng.integers(0, len(rows), size=n), rng.integers(0, 3, size=n)) for n in (160, 100, 160)
    ]
    label_set = LabelSet.of("a", "b", "c")
    config = ForestConfig(n_trees=3, max_depth=None, max_features=2, bootstrap=bootstrap, seed=11)
    together = list(fit_rows(rows, sets, label_set, config))
    alone = [next(fit_rows(rows, [each], label_set, config)) for each in sets]
    assert [m.to_json_str() for m in together] == [m.to_json_str() for m in alone]
    most_splits = 0
    for (row_of, y_idx), model in zip(sets, together):
        for t, tree in enumerate(trees_of(model)):
            stream = _tree_rng(config.seed, t)
            n = len(row_of)
            weights = [1] * n
            if bootstrap:
                weights = np.bincount(stream.integers(0, n, size=n), minlength=n).tolist()
            want = oracle_tree(
                rows[row_of].tolist(),
                y_idx.tolist(),
                3,
                weights=weights,
                feature_order=lambda: stream.permutation(5).tolist(),
                max_eval=2,
            )
            _assert_tree_matches(tree, want, f"set of {n}, tree {t}")
            most_splits = max(most_splits, int(np.count_nonzero(tree.feature >= 0)))
    assert most_splits > forest_module._FIRST_BLOCK


@pytest.mark.parametrize("n_features", range(1, 7))
def test_order_blocks_draw_as_sequential_permutations(n_features):
    # each stream's feature orders come in blocks from Generator.permuted;
    # a numpy that draws them otherwise than one permutation at a time fails
    # here, naming the cause, before the pinned digests
    blocked, single = _tree_rng(9, n_features), _tree_rng(9, n_features)
    for m in (1, 3, 16, 5, 32, 2):
        block = forest_module._order_block(blocked, n_features, m)
        assert block.tolist() == [single.permutation(n_features).tolist() for _ in range(m)]
        assert blocked.bit_generator.state == single.bit_generator.state


def _digits_and_labels(dataset, k):
    table, pattern_of = _pattern_tables(dataset.id_values, (k,))[k]
    kept = np.flatnonzero(pattern_of >= 0)
    return table[pattern_of[kept]], [dataset.records[i].label for i in kept.tolist()]


# SHA-256 of to_json_str(), pinned from the recursive per-node trainer that
# preceded lockstep growth; any change to the fitted trees changes them
@pytest.mark.parametrize(
    "fixture, k, fit, config, digest",
    [
        (
            "leaky",
            3,
            fit_forest,
            ForestConfig(),
            "2d35b592eeed25703ba88c1346c77bd0c0a937e218e569d438a394b953ace9de",
        ),
        (
            "control",
            3,
            fit_forest,
            ForestConfig(),
            "08b9e8b391aafc935dd28de74decbb4432c9b61fb3ee8586ba3fceb6ac16a624",
        ),
        (
            "control",
            4,
            fit_tree,
            ForestConfig(max_features="all", bootstrap=False, min_samples_leaf=2),
            "69a44dc7934538684cacad953fa9fa0dc67040c0e5b4a8ced2ef3aee6a7fca92",
        ),
    ],
    ids=["forest-leaky", "forest-control", "tree-control"],
)
def test_model_digest_is_pinned(request, fixture, k, fit, config, digest):
    dataset = request.getfixturevalue(fixture)
    X, y = _digits_and_labels(dataset, k)
    model = fit(X, y, config, dataset.label_set)
    assert hashlib.sha256(model.to_json_str().encode("utf-8")).hexdigest() == digest


def test_split_search_in_small_batches_grows_the_same_forest(monkeypatch):
    X, y = _digit_training_set(21, n=300)
    config = ForestConfig(n_trees=8, max_depth=6, seed=4)
    whole = fit_forest(X, y, config).to_json_str()
    # a bound below one node's cells searches every node in its own batch
    monkeypatch.setattr(forest_module, "_BATCH_CELLS", 1)
    assert fit_forest(X, y, config).to_json_str() == whole
    monkeypatch.setattr(forest_module, "_BATCH_CELLS", 400)
    assert fit_forest(X, y, config).to_json_str() == whole


def test_high_cardinality_column_fits_in_bounded_time():
    # a dense (feature, value, label) histogram per node grows with the
    # 8,000 distinct values of column 0 and takes over a minute here
    rng = np.random.default_rng(8000)
    X = np.column_stack([rng.permutation(8000), rng.integers(0, 10, 8000)])
    y = [("a", "b")[i] for i in rng.integers(0, 2, 8000)]
    started = time.perf_counter()
    model = fit_forest(X, y, ForestConfig(n_trees=10, seed=1))
    assert time.perf_counter() - started < 20
    assert len(model.roots) == 10


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

    trees = trees_of(model)
    want = []
    for row in Xq:
        votes = [0] * len(model.label_set)
        for tree in trees:
            votes[walk(tree, row)] += 1
        want.append(votes.index(max(votes)))
    got = model.predict_index(Xq)
    assert got.shape == (600,)
    assert got.tolist() == want
    assert len(set(got.tolist())) > 1


def _per_tree_prediction(model, X):
    """Reference: each tree walks every row on its own, then the votes are
    summed and ties go to the lowest label index."""
    votes = np.zeros((len(X), len(model.label_set)), dtype=np.int64)
    for tree in trees_of(model):
        node = np.zeros(len(X), dtype=np.int64)
        while True:
            feat = tree.feature[node]
            active = np.flatnonzero(feat >= 0)
            if active.size == 0:
                break
            cur = node[active]
            go_left = X[active, feat[active]] <= tree.threshold[cur]
            node[active] = np.where(go_left, tree.left[cur], tree.right[cur])
        votes[np.arange(len(X)), tree.leaf_class[node]] += 1
    return np.argmax(votes, axis=1)


@pytest.mark.parametrize("cells", [1, 40, None], ids=["row-chunks", "small-chunks", "default"])
def test_forest_wide_predict_matches_per_tree_walk(monkeypatch, cells):
    if cells is not None:
        # small budgets cut the rows into many chunks; a budget of 1 walks
        # one row at a time down every tree
        monkeypatch.setattr(forest_module, "_PREDICT_CELLS", cells)
    rng = np.random.default_rng(23)
    for case in range(12):
        X, y = _digit_training_set(100 + case, n=int(rng.integers(20, 300)))
        config = ForestConfig(
            n_trees=int(rng.integers(1, 13)),
            max_depth=[None, 1, 3][case % 3],
            bootstrap=case % 2 == 0,
            seed=case,
        )
        model = fit_forest(X, y, config)
        Xq = rng.integers(0, 10, size=(int(rng.integers(1, 200)), 4))
        assert model.predict_index(Xq).tolist() == _per_tree_prediction(model, Xq).tolist()


def test_vote_ties_go_to_lowest_label_index():
    # two one-leaf trees, one voting for each label
    model = ForestModel(
        config=ForestConfig(n_trees=2),
        label_set=LabelSet.of("a", "b"),
        n_features=1,
        roots=np.array([0, 1]),
        feature=np.array([-1, -1]),
        threshold=np.array([0.0, 0.0]),
        left=np.array([-1, -1]),
        right=np.array([-1, -1]),
        leaf_counts=np.array([[1, 0], [0, 1]]),
    )
    assert _predicted_labels(model, [[0]]) == ["a"]


def test_input_validation():
    features = "max_features must be an int >= 1, 'sqrt' or 'all', got"
    for bad, message in (
        (dict(n_trees=0), "n_trees must be an int >= 1, got 0"),
        (dict(n_trees=2.5), "n_trees must be an int >= 1, got 2.5"),
        (dict(n_trees=True), "n_trees must be an int >= 1, got True"),
        (dict(max_depth=0), "max_depth must be an int >= 1 or None, got 0"),
        (dict(max_depth=True), "max_depth must be an int >= 1 or None, got True"),
        (dict(max_depth=3.0), "max_depth must be an int >= 1 or None, got 3.0"),
        (dict(max_features="most"), f"{features} 'most'"),
        (dict(max_features=0), f"{features} 0"),
        (dict(max_features=True), f"{features} True"),
        (dict(max_features=1.5), f"{features} 1.5"),
        (dict(min_samples_split=1), "min_samples_split must be an int >= 2, got 1"),
        (dict(min_samples_split=2.5), "min_samples_split must be an int >= 2, got 2.5"),
        (dict(min_samples_leaf=0), "min_samples_leaf must be an int >= 1, got 0"),
        (dict(min_samples_leaf=False), "min_samples_leaf must be an int >= 1, got False"),
        (dict(seed=-1), "seed must be an int >= 0, got -1"),
        (dict(seed=True), "seed must be an int >= 0, got True"),
        (dict(seed=1.5), "seed must be an int >= 0, got 1.5"),
        (dict(seed="3"), "seed must be an int >= 0, got '3'"),
        (dict(bootstrap="no"), "bootstrap must be a bool, got 'no'"),
        (dict(bootstrap=0), "bootstrap must be a bool, got 0"),
        (dict(bootstrap=np.bool_(True)), f"bootstrap must be a bool, got {np.bool_(True)!r}"),
    ):
        with pytest.raises(ValueError) as exc:
            ForestConfig(**bad)
        assert str(exc.value) == message, bad


def test_config_refuses_numpy_integers():
    # the model's JSON holds the config, and json cannot write a numpy integer
    names = ("n_trees", "max_depth", "max_features", "min_samples_split", "min_samples_leaf", "seed")
    for name in names:
        with pytest.raises(ValueError, match=f"^{name} must be an int >= "):
            ForestConfig(**{name: np.int64(3)})


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



@pytest.mark.parametrize("group_entries", [1, 2**62], ids=["one-forest-groups", "one-group"])
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_features=st.integers(1, 4),
    n_labels=st.integers(2, 3),
    sizes=st.lists(st.sampled_from([3, 8, 8, 21]), min_size=1, max_size=4),
    n_trees=st.integers(1, 4),
    max_features=st.sampled_from(["sqrt", 1, 2, "all"]),
    bootstrap=st.booleans(),
    max_depth=st.sampled_from([None, 1, 3]),
    min_samples_leaf=st.integers(1, 2),
)
def test_forests_fitted_together_equal_each_fitted_alone(
    group_entries, seed, n_features, n_labels, sizes, n_trees, max_features, bootstrap,
    max_depth, min_samples_leaf,
):
    # sizes repeat, so sets share bootstrap draws and order streams, and
    # also differ, so some sets draw alone
    rng = np.random.default_rng(seed)
    rows = np.unique(rng.integers(0, 4, size=(12, n_features)), axis=0)
    sets = [
        (rng.integers(0, len(rows), size=n), rng.integers(0, n_labels, size=n)) for n in sizes
    ]
    label_set = LabelSet.of(*"abc"[:n_labels])
    config = ForestConfig(
        n_trees=n_trees,
        max_features=max_features,
        bootstrap=bootstrap,
        max_depth=max_depth,
        min_samples_leaf=min_samples_leaf,
        seed=seed,
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(forest_module, "_GROUP_ENTRIES", group_entries)
        together = list(fit_rows(rows, sets, label_set, config))
    alone = [next(fit_rows(rows, [each], label_set, config)) for each in sets]
    assert [m.to_json_str() for m in together] == [m.to_json_str() for m in alone]


def test_group_budget_bounds_the_forests_grown_together(monkeypatch):
    # 4 sets of 30 rows, 5 trees each: at most 5 * 30 alive entries per forest
    rng = np.random.default_rng(31)
    rows = np.unique(rng.integers(0, 10, size=(60, 2)), axis=0)
    sets = [(rng.integers(0, len(rows), size=30), rng.integers(0, 2, size=30)) for _ in range(4)]
    grown = []
    grower = forest_module._LockstepGrower

    def counted(*args):
        grown.append(len(args[6]))  # one alive-entry count per tree
        return grower(*args)

    monkeypatch.setattr(forest_module, "_LockstepGrower", counted)
    config = ForestConfig(n_trees=5, seed=2)
    for budget, trees_per_grower in ((1, [5, 5, 5, 5]), (2 * 5 * 30, [10, 10]), (2**62, [20])):
        grown.clear()
        monkeypatch.setattr(forest_module, "_GROUP_ENTRIES", budget)
        list(fit_rows(rows, sets, LabelSet.of("a", "b"), config))
        assert grown == trees_per_grower
