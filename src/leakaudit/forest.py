"""Deterministic CART random forest over small ordinal integer features.

Written from scratch so that every tie is broken by rule instead of by
float rounding or library version:

  * candidate thresholds are midpoints between adjacent distinct feature
    values present at the node;
  * the split minimizing weighted Gini impurity wins; mathematical ties go
    to the lowest feature index, then the lowest threshold (candidates are
    compared in exact integer arithmetic, so "tie" means tie, not
    "difference below some epsilon");
  * leaf predictions and forest votes break ties toward the lowest label
    index in label-set order;
  * all randomness (bootstrap, per-node feature subsampling) flows from
    one seed through per-tree substreams, so a forest is a pure function
    of (X, y, config) and serializes to byte-identical JSON across runs.

Feature values must be exact integers (integer, bool or integral float
arrays); anything else is refused, never truncated.

Feature matrices here are tiny-alphabet ordinal ints (digit positions of
ids), which makes duplicate rows the common case. The fit core,
``fit_rows``, takes the distinct rows, each training row's index into them
and its label position; one 1-D unique of ``row * n_labels + label``
collapses them into weighted patterns, and trees grow on the patterns.
Weighted CART on multiplicities is arithmetically identical to unweighted
CART on the duplicated rows, and million-row inputs collapse to a few
hundred patterns.

All trees of a fit grow in lockstep (``_LockstepGrower``). Each feature
column is rank-coded once. A step takes the next node in preorder from
every tree, counts the (node, feature, present value, label) weights of
all those nodes with one sort and one bincount, scores every boundary
together, and partitions every split node's patterns with one stable
sort. The counts are sparse, so a step's work follows the rows times the
features it evaluates, never a column's number of distinct values. Since
each tree still visits its nodes in preorder and draws from its own
substream, the trees are exactly those a node-by-node recursion grows.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .data import LabelSet
from .errors import (
    EmptyDistributionError,
    EmptyInputError,
    RaggedRowsError,
    UnknownLabelError,
    WidthMismatchError,
)

FORMAT_VERSION = 1
# float64 midpoints and comparisons are exact below this magnitude
_MAX_FEATURE_MAGNITUDE = 2**52


@dataclass(frozen=True)
class ForestConfig:
    """Training knobs. Defaults match the common reference setup:
    100 trees, depth cap 25, sqrt feature subsampling, bootstrap on."""

    n_trees: int = 100
    max_depth: int | None = 25
    max_features: str | int = "sqrt"
    bootstrap: bool = True
    min_samples_split: int = 2
    min_samples_leaf: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1 or None, got {self.max_depth}")
        if isinstance(self.max_features, str):
            if self.max_features not in ("sqrt", "all"):
                raise ValueError(f"max_features must be 'sqrt', 'all', or an int")
        elif self.max_features < 1:
            raise ValueError(f"max_features must be >= 1, got {self.max_features}")
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")

    def resolve_max_features(self, n_features: int) -> int:
        if self.max_features == "sqrt":
            return max(1, int(math.sqrt(n_features)))
        if self.max_features == "all":
            return n_features
        return min(int(self.max_features), n_features)

    def to_json_dict(self) -> dict:
        return {
            "n_trees": self.n_trees,
            "max_depth": self.max_depth,
            "max_features": self.max_features,
            "bootstrap": self.bootstrap,
            "min_samples_split": self.min_samples_split,
            "min_samples_leaf": self.min_samples_leaf,
            "seed": self.seed,
        }


@dataclass
class DecisionTree:
    """One CART tree as parallel node arrays (node 0 is the root).

    Internal nodes: feature >= 0, threshold, left/right child indices.
    Leaves: feature == -1 and a class-count vector; leaf_class caches the
    majority label index (ties toward the lowest index).
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    counts: list
    leaf_class: np.ndarray = field(init=False)

    def __post_init__(self):
        leaf_class = np.full(len(self.feature), -1, dtype=np.int64)
        leaves = [i for i, c in enumerate(self.counts) if c is not None]
        if leaves:
            # argmax takes the first maximum: ties go to the lowest label index
            leaf_class[leaves] = np.argmax([self.counts[i] for i in leaves], axis=1)
        self.leaf_class = leaf_class

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def predict_index(self, X: np.ndarray) -> np.ndarray:
        node = np.zeros(len(X), dtype=np.int64)
        while True:
            feat = self.feature[node]
            active = np.nonzero(feat >= 0)[0]
            if active.size == 0:
                break
            cur = node[active]
            go_left = X[active, feat[active]] <= self.threshold[cur]
            node[active] = np.where(go_left, self.left[cur], self.right[cur])
        return self.leaf_class[node]

    def to_json_dict(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "counts": [None if c is None else [int(x) for x in c] for c in self.counts],
        }


def _as_feature_matrix(X) -> np.ndarray:
    try:
        arr = np.asarray(X)
    except ValueError:
        raise RaggedRowsError("feature rows have unequal widths") from None
    if arr.dtype == object:
        raise RaggedRowsError("feature rows have unequal widths")
    if arr.ndim != 2:
        raise RaggedRowsError(f"expected a 2-d feature matrix, got ndim={arr.ndim}")
    if arr.dtype.kind == "f":
        if not np.isfinite(arr).all():
            raise ValueError("feature values must be integers, got NaN or infinity")
        if (arr != np.floor(arr)).any():
            raise ValueError("feature values must be integers, got a fractional float")
    elif arr.dtype.kind not in "biu":
        raise ValueError(f"feature values must be integers, got dtype {arr.dtype}")
    if arr.size and (arr.max() >= _MAX_FEATURE_MAGNITUDE or arr.min() <= -_MAX_FEATURE_MAGNITUDE):
        raise ValueError("feature values too large for exact threshold arithmetic")
    return arr.astype(np.int64, copy=False)


_BATCH_CELLS = 1 << 18  # (pattern, feature) cells one split search sorts at most


class _LockstepGrower:
    """Grows a list of trees on the same patterns, one node per tree per step.

    Every tree's alive patterns (nonzero weight) sit in one flat array, and
    each pending node owns a contiguous range of it. A step pops the next
    node in preorder from every tree's stack, searches all their splits in
    one batch and partitions the split ranges in place, so the per-node
    Python cost of a recursive builder becomes a per-step cost shared by
    all trees. Each tree draws from its own RNG in its own preorder, so a
    tree does not depend on how many others grow beside it.
    """

    def __init__(self, pat_X, pat_y, n_labels, config, rngs, weights):
        self.K = n_labels
        self.config = config
        self.rngs = rngs
        n_features = pat_X.shape[1]
        self.n_features = n_features
        self.max_eval = config.resolve_max_features(n_features)
        self.subsample = self.max_eval < n_features
        self.pat_y = pat_y
        # rank codes: column f's distinct values get the consecutive codes
        # offset_f .. offset_f + n_distinct_f - 1 in ascending value order
        self.codes = np.empty(pat_X.shape, dtype=np.int64)
        distinct = []
        offset = 0
        for f in range(n_features):
            values, rank = np.unique(pat_X[:, f], return_inverse=True)
            self.codes[:, f] = rank.reshape(-1) + offset
            distinct.append(values)
            offset += len(values)
        self.n_codes = offset
        self.value_of = np.concatenate(distinct)
        self.feature_of = np.repeat(np.arange(n_features), [len(v) for v in distinct])
        alive = [np.flatnonzero(w) for w in weights]
        self.flat_pat = np.concatenate(alive)
        self.flat_w = np.concatenate([w[a] for w, a in zip(weights, alive)])
        self.root_ends = np.cumsum([len(a) for a in alive])

    def grow(self) -> list[DecisionTree]:
        K, config = self.K, self.config
        n_trees = len(self.rngs)
        starts = np.concatenate([[0], self.root_ends[:-1]])
        root_w = np.zeros((n_trees, K), dtype=np.int64)
        tree_of = np.repeat(np.arange(n_trees), self.root_ends - starts)
        np.add.at(root_w, (tree_of, self.pat_y[self.flat_pat]), self.flat_w)
        # a pending node: (start, end, depth, parent node, is right child, label weights)
        stacks = [
            [(start, end, 0, -1, False, root_w[t])]
            for t, (start, end) in enumerate(zip(starts.tolist(), self.root_ends.tolist()))
        ]
        # typed arrays, not lists of int objects: every tree's nodes stay in
        # memory until the last tree finishes
        nodes = [(array("q"), array("d"), array("q"), array("q"), []) for _ in range(n_trees)]

        while True:
            live = [t for t in range(n_trees) if stacks[t]]
            if not live:
                break
            popped = [stacks[t].pop() for t in live]
            bounds = np.array([p[:3] for p in popped], dtype=np.int64)
            label_w = np.array([p[5] for p in popped], dtype=np.int64)
            n = label_w.sum(axis=1)
            open_ = ((label_w > 0).sum(axis=1) > 1) & (n >= config.min_samples_split)
            if config.max_depth is not None:
                open_ &= bounds[:, 2] < config.max_depth
            split_feat = np.full(len(popped), -1, dtype=np.int64)
            split_thr = np.zeros(len(popped), dtype=np.float64)
            n_left = np.zeros(len(popped), dtype=np.int64)
            left_w = np.zeros_like(label_w)
            cand = np.flatnonzero(open_)
            if cand.size:
                # one feature order per split candidate, drawn in its tree's preorder
                perms = (
                    np.array([self.rngs[live[j]].permutation(self.n_features) for j in cand])
                    if self.subsample
                    else None
                )
                for lo, hi in self._batches(cand, bounds):
                    batch = cand[lo:hi]
                    found = self._split(
                        bounds[batch, 0],
                        bounds[batch, 1],
                        label_w[batch],
                        None if perms is None else perms[lo:hi],
                    )
                    split_feat[batch], split_thr[batch], n_left[batch], left_w[batch] = found

            right_w = label_w - left_w
            split_feat = split_feat.tolist()
            for j, (t, (start, end, depth, parent, is_right, _)) in enumerate(zip(live, popped)):
                feature, threshold, left, right, counts = nodes[t]
                node = len(feature)
                if parent >= 0:
                    (right if is_right else left)[parent] = node
                left.append(-1)
                right.append(-1)
                feature.append(split_feat[j])
                if split_feat[j] < 0:
                    threshold.append(0.0)
                    counts.append(label_w[j].tolist())
                    continue
                threshold.append(float(split_thr[j]))
                counts.append(None)
                mid = start + int(n_left[j])
                # right pushed first so the left child is popped next: preorder ids
                stacks[t].append((mid, end, depth + 1, node, True, right_w[j]))
                stacks[t].append((start, mid, depth + 1, node, False, left_w[j]))

        return [
            DecisionTree(
                feature=np.asarray(feature, dtype=np.int64),
                threshold=np.asarray(threshold, dtype=np.float64),
                left=np.asarray(left, dtype=np.int64),
                right=np.asarray(right, dtype=np.int64),
                counts=counts,
            )
            for feature, threshold, left, right, counts in nodes
        ]

    def _batches(self, cand: np.ndarray, bounds: np.ndarray):
        """Cut the candidates into runs of at most _BATCH_CELLS cells, as
        (lo, hi) positions in cand; a single larger node runs alone. This
        bounds the memory of the batch's sort."""
        cells = ((bounds[cand, 1] - bounds[cand, 0]) * self.n_features).tolist()
        lo, acc = 0, 0
        for i, size in enumerate(cells):
            if acc and acc + size > _BATCH_CELLS:
                yield lo, i
                lo, acc = i, 0
            acc += size
        yield lo, len(cells)

    def _split(self, starts, ends, label_w, perms):
        """Best split of each node [starts[i], ends[i]) and its partition.

        Returns (feature, threshold, n_left, left label weights) per node;
        feature is -1 where the node stays a leaf. Split nodes have their
        range stably partitioned in place: left patterns first.

        Gini comparisons happen in two stages: float scores shortlist the
        near-best candidates, then exact integer cross-multiplication picks
        the true best and applies the tie rules. Minimizing child impurity
        is equivalent to maximizing sum(left_count_k^2)/n_left +
        sum(right_count_k^2)/n_right, which keeps everything integral.
        """
        K = self.K
        m = len(starts)
        lengths = ends - starts
        seg = np.repeat(np.arange(m), lengths)
        seg_first = np.cumsum(lengths) - lengths
        idx = np.arange(len(seg)) + np.repeat(starts - seg_first, lengths)
        pat = self.flat_pat[idx]
        w = self.flat_w[idx]
        codes = self.codes[pat]

        # a constant feature takes no evaluation slot; with subsampling, each
        # node evaluates the first max_eval non-constant features of its order
        evaluated = np.minimum.reduceat(codes, seg_first) < np.maximum.reduceat(codes, seg_first)
        if perms is not None:
            rows = np.arange(m)[:, None]
            in_order = evaluated[rows, perms]
            in_order &= np.cumsum(in_order, axis=1) <= self.max_eval
            evaluated[rows, perms] = in_order

        # sparse histogram of the evaluated (pattern, feature) cells: one row
        # per (node, feature, present value), sorted in that order, and one
        # column per label
        cell, cell_feat = np.nonzero(evaluated[seg])
        groups, inverse = np.unique(
            seg[cell] * self.n_codes + codes[cell, cell_feat], return_inverse=True
        )
        hist = np.bincount(
            inverse.reshape(-1) * K + self.pat_y[pat[cell]],
            weights=w[cell],
            minlength=len(groups) * K,
        ).astype(np.int64).reshape(-1, K)
        g_seg = groups // self.n_codes
        g_code = groups - g_seg * self.n_codes
        block = g_seg * self.n_features + self.feature_of[g_code]

        # cut c separates group c from group c + 1 of the same block
        new_block = np.ones(len(groups), dtype=bool)
        new_block[1:] = block[1:] != block[:-1]
        cut = np.flatnonzero(~new_block[1:])
        cut_seg = g_seg[cut]
        block_first = np.maximum.accumulate(np.where(new_block, np.arange(len(groups)), 0))
        prefix = np.zeros((len(groups) + 1, K), dtype=np.int64)
        np.cumsum(hist, axis=0, out=prefix[1:])
        left = prefix[cut + 1] - prefix[block_first[cut]]
        nL = left.sum(axis=1)
        nR = label_w.sum(axis=1)[cut_seg] - nL
        min_leaf = self.config.min_samples_leaf
        keep = np.flatnonzero((nL >= min_leaf) & (nR >= min_leaf))
        cut, cut_seg, left, nL, nR = cut[keep], cut_seg[keep], left[keep], nL[keep], nR[keep]

        split_feat = np.full(m, -1, dtype=np.int64)
        split_thr = np.zeros(m, dtype=np.float64)
        n_left = np.zeros(m, dtype=np.int64)
        left_w = np.zeros((m, K), dtype=np.int64)
        if len(cut) == 0:
            return split_feat, split_thr, n_left, left_w

        right = label_w[cut_seg] - left
        A = (left * left).sum(axis=1)
        B = (right * right).sum(axis=1)
        score = A / nL + B / nR
        best_float = np.full(m, -np.inf)
        np.maximum.at(best_float, cut_seg, score)
        best_float = best_float[cut_seg]
        tol = np.abs(best_float) * 1e-9 + 1e-12
        shortlist = np.flatnonzero(score >= best_float - tol)
        # within a node, cuts run in (feature, threshold) order, so the first
        # exact maximum follows the tie rule
        s_seg = cut_seg[shortlist]
        head = np.ones(len(shortlist), dtype=bool)
        head[1:] = s_seg[1:] != s_seg[:-1]
        heads = np.flatnonzero(head)
        chosen = shortlist[heads]
        if len(heads) < len(shortlist):
            tails = np.append(heads[1:], len(shortlist))
            for h in np.flatnonzero(tails - heads > 1).tolist():
                best = best_num = best_den = None
                for i in shortlist[heads[h] : tails[h]].tolist():
                    num = int(A[i]) * int(nR[i]) + int(B[i]) * int(nL[i])
                    den = int(nL[i]) * int(nR[i])
                    if best is None or num * best_den > best_num * den:
                        best, best_num, best_den = i, num, den
                chosen[h] = best

        node = cut_seg[chosen]
        g = cut[chosen]
        split_feat[node] = self.feature_of[g_code[g]]
        split_thr[node] = (self.value_of[g_code[g]] + self.value_of[g_code[g + 1]]) / 2.0
        left_w[node] = left[chosen]
        split_code = np.zeros(m, dtype=np.int64)
        split_code[node] = g_code[g]

        # one stable sort keyed by (node, side) partitions every split range
        moving = np.flatnonzero(split_feat[seg] >= 0)
        m_seg = seg[moving]
        goes_right = codes[moving, split_feat[m_seg]] > split_code[m_seg]
        order = np.argsort(m_seg * 2 + goes_right, kind="stable")
        self.flat_pat[idx[moving]] = pat[moving][order]
        self.flat_w[idx[moving]] = w[moving][order]
        n_left[:] = np.bincount(m_seg[~goes_right], minlength=m)
        return split_feat, split_thr, n_left, left_w


@dataclass
class ForestModel:
    """A trained forest: trees + the label vocabulary they vote over."""

    config: ForestConfig
    label_set: LabelSet
    trees: list[DecisionTree]
    n_features: int

    def predict_index(self, X) -> np.ndarray:
        X = _as_feature_matrix(X)
        if len(X) == 0:
            raise EmptyInputError("no rows to predict")
        if X.shape[1] != self.n_features:
            raise WidthMismatchError(
                f"model expects {self.n_features} features, got {X.shape[1]}"
            )
        # digit-prefix matrices repeat rows heavily: run the trees on each
        # distinct row once and gather the votes back
        distinct, inverse = np.unique(X, axis=0, return_inverse=True)
        votes = np.zeros((len(distinct), len(self.label_set)), dtype=np.int64)
        rows = np.arange(len(distinct))
        for tree in self.trees:
            votes[rows, tree.predict_index(distinct)] += 1
        # argmax takes the first maximum: vote ties go to the lowest label index
        return np.argmax(votes, axis=1)[inverse.reshape(-1)]

    def to_json_str(self) -> str:
        payload = {
            "format_version": FORMAT_VERSION,
            "kind": "forest",
            "config": self.config.to_json_dict(),
            "labels": list(self.label_set),
            "n_features": self.n_features,
            "trees": [t.to_json_dict() for t in self.trees],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _prepare(X, y: Sequence[str], label_set: LabelSet | None):
    X = _as_feature_matrix(X)
    if len(X) == 0 or X.shape[1] == 0:
        raise EmptyInputError("training input is empty")
    if len(X) != len(y):
        raise ValueError(f"{len(X)} rows vs {len(y)} labels")
    if label_set is None:
        label_set = LabelSet(tuple(sorted(set(y))))
    y_idx = label_set.encode(y)
    outside = np.flatnonzero(y_idx < 0)
    if outside.size:
        raise UnknownLabelError(f"label {y[int(outside[0])]!r} not in {label_set.labels}")
    rows, row_of = np.unique(X, axis=0, return_inverse=True)
    return rows, row_of.reshape(-1), y_idx, label_set


def _tree_rng(seed: int, tree_index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed % 2**64, tree_index]))
    )


def fit_rows(rows, row_of, y_idx, label_set, config, n_trees: int, bootstrap: bool) -> ForestModel:
    """Fit on training rows ``rows[row_of]`` with label positions y_idx.
    ``rows`` are distinct int64 rows in ``np.unique(axis=0)`` order, so the
    patterns sort as a 2-d unique of (row, label) would. Nothing is checked."""
    K = len(label_set)
    keys, inverse, counts = np.unique(row_of * K + y_idx, return_inverse=True, return_counts=True)
    rngs = [_tree_rng(config.seed, t) for t in range(n_trees)]
    if bootstrap:
        # each substream makes its bootstrap draw before any feature order
        n = len(row_of)
        weights = [
            np.bincount(inverse[rng.integers(0, n, size=n)], minlength=len(keys)) for rng in rngs
        ]
    else:
        weights = [counts] * n_trees
    grower = _LockstepGrower(rows[keys // K], keys % K, K, config, rngs, weights)
    return ForestModel(
        config=config, label_set=label_set, trees=grower.grow(), n_features=rows.shape[1]
    )


def fit_tree(
    X, y: Sequence[str], config: ForestConfig | None = None, label_set: LabelSet | None = None
) -> ForestModel:
    """Fit a single deterministic tree (no bootstrap) on all rows, whatever
    config.n_trees and config.bootstrap say.

    Returned as a one-tree ForestModel, keeping config, so predict and
    serialize are uniform.
    """
    return fit_rows(
        *_prepare(X, y, label_set), config or ForestConfig(), n_trees=1, bootstrap=False
    )


def fit_forest(
    X, y: Sequence[str], config: ForestConfig | None = None, label_set: LabelSet | None = None
) -> ForestModel:
    """Fit a voting forest; tree t draws its RNG substream from
    (config.seed, t), so no tree depends on the trees fitted beside it."""
    config = config or ForestConfig()
    return fit_rows(*_prepare(X, y, label_set), config, config.n_trees, config.bootstrap)


# --- stratified random baseline -------------------------------------------


def _normalize(dist: Mapping[str, float], what: str) -> dict[str, float]:
    total = float(sum(dist.values()))
    if total <= 0:
        raise EmptyDistributionError(f"{what} distribution sums to {total}")
    if any(v < 0 for v in dist.values()):
        raise EmptyDistributionError(f"{what} distribution has negative mass")
    return {k: v / total for k, v in dist.items()}


def baseline_expected_macro_f1(
    train_dist: Mapping[str, float], test_dist: Mapping[str, float]
) -> float:
    """Expected macro-F1 of predictions drawn iid from the training label
    distribution, scored against the test label distribution.

    Closed form: predictions independent of gold gives per-class
    precision -> q_c (test rate) and recall -> p_c (train prediction
    rate), so F1_c = 2*p_c*q_c / (p_c + q_c); macro averages over classes
    present in the test distribution. This is the large-sample limit; a
    single finite draw scatters around it (see
    baseline_macro_f1_monte_carlo).
    """
    p = _normalize(dict(train_dist), "train")
    q = _normalize(dict(test_dist), "test")
    f1s = []
    for label, q_c in q.items():
        if q_c == 0:
            continue
        p_c = p.get(label, 0.0)
        f1s.append(0.0 if p_c + q_c == 0 else 2.0 * p_c * q_c / (p_c + q_c))
    if not f1s:
        raise EmptyDistributionError("test distribution has no mass")
    return float(np.mean(f1s))


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
