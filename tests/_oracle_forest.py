"""Exact-arithmetic reference CART used to cross-check the fast trainer,
and the fits only the tests use.

``oracle_tree`` is pure-Python, Fraction-based, O(n^2)-ish and proud of
it. It implements the same contract as the production builder (midpoint
thresholds, weighted Gini, ties to the lowest feature index then lowest
threshold, preorder node layout with left children first) from entirely
different code, so structural equality between the two is strong evidence
of correctness.

``fit_forest`` and ``fit_tree`` fit production models on any integer
feature matrix, building the distinct-row table the production fit takes.
``trees_of`` reads a model's trees back from its JSON, in
``oracle_tree``'s preorder layout. ``baseline_macro_f1_monte_carlo``
simulates the stratified-random baseline whose limit
``baseline_expected_macro_f1`` gives in closed form.
"""

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from leakaudit import LabelSet
from leakaudit.errors import EmptyDistributionError
from leakaudit.forest import ForestConfig, ForestModel, _normalize, fit_rows


def fit_forest(
    X, y: Sequence[str], config: ForestConfig | None = None, label_set: LabelSet | None = None
) -> ForestModel:
    """Fit a voting forest on an integer feature matrix and its labels (the
    sorted labels of y when no label set is given), through the distinct
    rows and the training set over them that ``fit_rows`` takes."""
    label_set = label_set or LabelSet(tuple(sorted(set(y))))
    rows, row_of = np.unique(np.asarray(X, dtype=np.int64), axis=0, return_inverse=True)
    sets = [(row_of.reshape(-1), label_set.encode(y))]
    return next(fit_rows(rows, sets, label_set, config or ForestConfig()))


def fit_tree(
    X, y: Sequence[str], config: ForestConfig | None = None, label_set: LabelSet | None = None
) -> ForestModel:
    """Fit a single deterministic tree (no bootstrap) on all rows, whatever
    config.n_trees and config.bootstrap say.

    Returned as a one-tree ForestModel, keeping config, so predict and
    serialize are uniform.
    """
    config = config or ForestConfig()
    one_tree = replace(config, n_trees=1, bootstrap=False)
    return replace(fit_forest(X, y, one_tree, label_set), config=config)


@dataclass(frozen=True)
class Tree:
    """One tree as parallel node arrays in preorder (node 0 is the root).
    ``counts`` holds each node's class counts, None at an internal node;
    ``leaf_class`` the majority label index at a leaf (ties toward the
    lowest index), -1 at an internal node."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    counts: list

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    @cached_property
    def leaf_class(self) -> np.ndarray:
        return np.array([-1 if c is None else int(np.argmax(c)) for c in self.counts])


def trees_of(model: ForestModel) -> list[Tree]:
    """The model's trees, read from ``to_json_str()``."""
    return [
        Tree(
            feature=np.array(tree["feature"], dtype=np.int64),
            threshold=np.array(tree["threshold"], dtype=np.float64),
            left=np.array(tree["left"], dtype=np.int64),
            right=np.array(tree["right"], dtype=np.int64),
            counts=tree["counts"],
        )
        for tree in json.loads(model.to_json_str())["trees"]
    ]


def oracle_tree(
    rows,
    labels,
    k,
    max_depth=None,
    min_samples_split=2,
    min_samples_leaf=1,
    weights=None,
    feature_order=None,
    max_eval=None,
):
    """Grow one tree on integer rows and 0-based label indices.

    ``weights`` gives each row an integer multiplicity (default 1); a row
    of weight 0 is left out. ``feature_order`` is called with no arguments
    once per split-candidate node (one that is not depth-capped, pure or
    below min_samples_split), in preorder, and returns the order in which
    that node tries features; it defaults to ascending order. The node
    evaluates the first ``max_eval`` (default: all) features of that order
    that are not constant at the node.

    Returns (feature, threshold, left, right, counts) parallel lists in
    preorder; internal nodes carry counts=None, leaves a k-vector.
    """
    if weights is None:
        weights = [1] * len(rows)
    d = len(rows[0])
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    counts: list = []

    def tally(idx):
        out = [0] * k
        for i in idx:
            out[labels[i]] += weights[i]
        return out

    def weighted_gini(li, ri):
        n = sum(weights[i] for i in li + ri)
        total = Fraction(0)
        for part in (li, ri):
            size = sum(weights[i] for i in part)
            p2 = sum(Fraction(c, size) ** 2 for c in tally(part))
            total += Fraction(size, n) * (1 - p2)
        return total

    def best_split(idx):
        order = list(range(d)) if feature_order is None else list(feature_order())
        limit = d if max_eval is None else max_eval
        evaluated = []
        for f in order:
            if len(evaluated) == limit:
                break
            if len({rows[i][f] for i in idx}) > 1:
                evaluated.append(f)
        best = None
        for f in sorted(evaluated):
            vals = sorted({rows[i][f] for i in idx})
            for a, b in zip(vals, vals[1:]):
                thr = Fraction(a + b, 2)
                li = [i for i in idx if rows[i][f] <= thr]
                ri = [i for i in idx if rows[i][f] > thr]
                if (
                    sum(weights[i] for i in li) < min_samples_leaf
                    or sum(weights[i] for i in ri) < min_samples_leaf
                ):
                    continue
                g = weighted_gini(li, ri)
                # strict < while scanning (feature asc, threshold asc)
                # keeps the earliest of any exact tie
                if best is None or g < best[0]:
                    best = (g, f, thr, li, ri)
        return best

    def build(idx, depth):
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        counts.append(None)
        node_tally = tally(idx)
        capped = max_depth is not None and depth >= max_depth
        pure = sum(1 for c in node_tally if c) <= 1
        if capped or pure or sum(node_tally) < min_samples_split:
            counts[node] = node_tally
            return node
        found = best_split(idx)
        if found is None:
            counts[node] = node_tally
            return node
        _, f, thr, li, ri = found
        feature[node] = f
        threshold[node] = float(thr)
        left[node] = build(li, depth + 1)
        right[node] = build(ri, depth + 1)
        return node

    build([i for i in range(len(rows)) if weights[i] > 0], 0)
    return feature, threshold, left, right, counts


def oracle_predict(tree, row):
    """Traverse an oracle_tree result; returns the majority label index."""
    feature, threshold, left, right, counts = tree
    node = 0
    while feature[node] >= 0:
        node = left[node] if row[feature[node]] <= threshold[node] else right[node]
    tally = counts[node]
    return max(range(len(tally)), key=lambda i: (tally[i], -i))


def baseline_macro_f1_monte_carlo(
    train_dist: Mapping[str, float],
    test_counts: Mapping[str, int],
    n_draws: int = 1000,
    seed: int = 0,
) -> float:
    """Mean macro-F1 over n_draws simulated stratified-random prediction
    files against a fixed gold multiset (integer test counts).

    Converges to baseline_expected_macro_f1 as the gold set grows; on
    small test sets the mean sits slightly off the closed form, which is
    exactly the finite-sample wobble this mode exists to quantify.
    """
    labels = sorted(set(train_dist) | set(test_counts))
    k = len(labels)
    probs = np.zeros(k, dtype=np.float64)
    train_norm = _normalize(dict(train_dist), "train")
    for i, lab in enumerate(labels):
        probs[i] = train_norm.get(lab, 0.0)
    gold_counts = np.array([int(test_counts.get(lab, 0)) for lab in labels], dtype=np.int64)
    if gold_counts.sum() <= 0:
        raise EmptyDistributionError("test counts sum to zero")
    gold = np.repeat(np.arange(k), gold_counts)
    n = len(gold)
    present = gold_counts > 0

    cum = np.cumsum(probs)
    cum[-1] = 1.0
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed % 2**64)))

    chunk = max(1, min(n_draws, 4_000_000 // max(n, 1)))
    macro_sum = 0.0
    done = 0
    while done < n_draws:
        m = min(chunk, n_draws - done)
        preds = np.searchsorted(cum, rng.random((m, n)), side="right")
        code = preds * k + gold[None, :]
        flat = code + (np.arange(m) * k * k)[:, None]
        conf = np.bincount(flat.ravel(), minlength=m * k * k).reshape(m, k, k)
        tp = conf[:, np.arange(k), np.arange(k)].astype(np.float64)
        pred_tot = conf.sum(axis=2).astype(np.float64)
        denom = pred_tot + gold_counts[None, :].astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            f1 = np.where(denom > 0, 2.0 * tp / denom, 0.0)
        macro_sum += float(f1[:, present].mean(axis=1).sum())
        done += m
    return macro_sum / n_draws
