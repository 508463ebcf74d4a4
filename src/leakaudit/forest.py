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

Feature matrices here are tiny-alphabet ordinal ints (digit positions of
ids), which makes duplicate rows the common case. Training therefore
compresses (row, label) duplicates into weighted patterns once and grows
trees on the patterns; weighted CART on multiplicities is arithmetically
identical to unweighted CART on the duplicated rows, and million-row
inputs collapse to a few hundred patterns.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .data import LabelSet
from .errors import (
    EmptyDistributionError,
    EmptyInputError,
    RaggedRowsError,
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
        for i, c in enumerate(self.counts):
            if c is not None:
                leaf_class[i] = int(np.argmax(c))
        self.leaf_class = leaf_class

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def depth(self) -> int:
        def walk(node: int) -> int:
            if self.feature[node] < 0:
                return 0
            return 1 + max(walk(int(self.left[node])), walk(int(self.right[node])))

        return walk(0)

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

    @classmethod
    def from_json_dict(cls, raw: dict) -> "DecisionTree":
        return cls(
            feature=np.asarray(raw["feature"], dtype=np.int64),
            threshold=np.asarray(raw["threshold"], dtype=np.float64),
            left=np.asarray(raw["left"], dtype=np.int64),
            right=np.asarray(raw["right"], dtype=np.int64),
            counts=[None if c is None else list(c) for c in raw["counts"]],
        )


def _as_feature_matrix(X) -> np.ndarray:
    try:
        arr = np.asarray(X)
    except ValueError:
        raise RaggedRowsError("feature rows have unequal widths") from None
    if arr.dtype == object:
        raise RaggedRowsError("feature rows have unequal widths")
    if arr.ndim != 2:
        raise RaggedRowsError(f"expected a 2-d feature matrix, got ndim={arr.ndim}")
    if arr.size and np.abs(arr).max() >= _MAX_FEATURE_MAGNITUDE:
        raise ValueError("feature values too large for exact threshold arithmetic")
    return arr.astype(np.int64, copy=False)


def _compress(X: np.ndarray, y_idx: np.ndarray):
    """Collapse duplicate (row, label) pairs into weighted patterns."""
    combined = np.concatenate([X, y_idx[:, None]], axis=1)
    patterns, inverse, counts = np.unique(
        combined, axis=0, return_inverse=True, return_counts=True
    )
    return patterns[:, :-1], patterns[:, -1], counts.astype(np.int64), inverse


class _TreeBuilder:
    """Grows one tree on weighted patterns; all state is per-fit."""

    def __init__(self, n_labels: int, config: ForestConfig, rng: np.random.Generator):
        self.K = n_labels
        self.config = config
        self.rng = rng
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.counts: list = []

    def fit(self, X: np.ndarray, y: np.ndarray, w: np.ndarray) -> DecisionTree:
        alive = w > 0
        self._n_features = X.shape[1]
        self._max_eval = self.config.resolve_max_features(self._n_features)
        self._subsample = self._max_eval < self._n_features
        self._build(X[alive], y[alive], w[alive], depth=0)
        return DecisionTree(
            feature=np.asarray(self.feature, dtype=np.int64),
            threshold=np.asarray(self.threshold, dtype=np.float64),
            left=np.asarray(self.left, dtype=np.int64),
            right=np.asarray(self.right, dtype=np.int64),
            counts=self.counts,
        )

    def _new_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.counts.append(None)
        return len(self.feature) - 1

    def _leaf(self, node: int, label_w: np.ndarray) -> None:
        self.counts[node] = [int(x) for x in label_w]

    def _build(self, X: np.ndarray, y: np.ndarray, w: np.ndarray, depth: int) -> int:
        node = self._new_node()
        label_w = np.zeros(self.K, dtype=np.int64)
        np.add.at(label_w, y, w)
        n = int(label_w.sum())

        depth_capped = self.config.max_depth is not None and depth >= self.config.max_depth
        pure = int((label_w > 0).sum()) <= 1
        if depth_capped or pure or n < self.config.min_samples_split:
            self._leaf(node, label_w)
            return node

        split = self._choose_split(X, y, w)
        if split is None:
            self._leaf(node, label_w)
            return node

        feat, thr = split
        mask = X[:, feat] <= thr
        # children are built left-first; node ids are preorder
        self.feature[node] = feat
        self.threshold[node] = thr
        self.left[node] = self._build(X[mask], y[mask], w[mask], depth + 1)
        self.right[node] = self._build(X[~mask], y[~mask], w[~mask], depth + 1)
        return node

    def _feature_order(self) -> np.ndarray:
        if self._subsample:
            return self.rng.permutation(self._n_features)
        return np.arange(self._n_features)

    def _choose_split(self, X, y, w):
        """Best (feature, threshold) by weighted Gini, or None.

        Gini comparisons happen in two stages: float scores shortlist the
        near-best candidates, then exact integer cross-multiplication picks
        the true best and applies the tie rules. Minimizing child impurity
        is equivalent to maximizing sum(left_count_k^2)/n_left +
        sum(right_count_k^2)/n_right, which keeps everything integral.
        """
        min_leaf = self.config.min_samples_leaf
        feats: list[np.ndarray] = []
        thrs: list[np.ndarray] = []
        a_sq: list[np.ndarray] = []
        b_sq: list[np.ndarray] = []
        n_left: list[np.ndarray] = []
        n_right: list[np.ndarray] = []
        evaluated = 0
        for f in self._feature_order():
            cand = self._candidates_for_feature(X[:, f], y, w, min_leaf)
            if cand is None:
                continue  # constant at this node: no slot consumed
            evaluated += 1
            if cand:
                thr, A, B, nL, nR = cand
                feats.append(np.full(len(thr), f, dtype=np.int64))
                thrs.append(thr)
                a_sq.append(A)
                b_sq.append(B)
                n_left.append(nL)
                n_right.append(nR)
            if evaluated >= self._max_eval:
                break
        if not feats:
            return None

        feat_arr = np.concatenate(feats)
        thr_arr = np.concatenate(thrs)
        A = np.concatenate(a_sq)
        B = np.concatenate(b_sq)
        nL = np.concatenate(n_left)
        nR = np.concatenate(n_right)

        score = A / nL + B / nR
        best_float = score.max()
        tol = abs(best_float) * 1e-9 + 1e-12
        shortlist = np.nonzero(score >= best_float - tol)[0]
        # tie rule: lowest feature index, then lowest threshold
        shortlist = shortlist[np.lexsort((thr_arr[shortlist], feat_arr[shortlist]))]

        best = None
        best_num = best_den = 0
        for i in shortlist:
            num = int(A[i]) * int(nR[i]) + int(B[i]) * int(nL[i])
            den = int(nL[i]) * int(nR[i])
            if best is None or num * best_den > best_num * den:
                best, best_num, best_den = int(i), num, den
        return int(feat_arr[best]), float(thr_arr[best])

    def _candidates_for_feature(self, values, y, w, min_leaf):
        """Per-boundary split stats for one feature.

        Returns None when the feature is constant at the node, an empty
        tuple when boundaries exist but none satisfies min_samples_leaf,
        else (thresholds, A, B, n_left, n_right) arrays.
        """
        order = np.argsort(values, kind="stable")
        sv = values[order]
        if sv[0] == sv[-1]:
            return None
        sy = y[order]
        sw = w[order]
        change = np.empty(len(sv), dtype=bool)
        change[0] = True
        change[1:] = sv[1:] != sv[:-1]
        group = np.cumsum(change) - 1
        distinct = sv[change]
        M = np.zeros((len(distinct), self.K), dtype=np.int64)
        np.add.at(M, (group, sy), sw)
        prefix = np.cumsum(M, axis=0)
        total = prefix[-1]
        n = int(total.sum())

        left_counts = prefix[:-1]
        nL = left_counts.sum(axis=1)
        nR = n - nL
        valid = (nL >= min_leaf) & (nR >= min_leaf)
        if not valid.any():
            return ()
        right_counts = total[None, :] - left_counts
        A = (left_counts * left_counts).sum(axis=1)
        B = (right_counts * right_counts).sum(axis=1)
        thr = (distinct[:-1] + distinct[1:]) / 2.0
        return thr[valid], A[valid], B[valid], nL[valid], nR[valid]


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

    def predict(self, X) -> list[str]:
        return [self.label_set.labels[i] for i in self.predict_index(X)]

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

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json_str() + "\n", encoding="utf-8")

    @classmethod
    def from_json_str(cls, text: str) -> "ForestModel":
        raw = json.loads(text)
        if raw.get("format_version") != FORMAT_VERSION:
            raise ValueError(f"unsupported model format: {raw.get('format_version')!r}")
        return cls(
            config=ForestConfig(**raw["config"]),
            label_set=LabelSet(tuple(raw["labels"])),
            trees=[DecisionTree.from_json_dict(t) for t in raw["trees"]],
            n_features=int(raw["n_features"]),
        )

    @classmethod
    def load(cls, path: str | Path) -> "ForestModel":
        return cls.from_json_str(Path(path).read_text(encoding="utf-8"))


def _prepare(X, y: Sequence[str], label_set: LabelSet | None):
    X = _as_feature_matrix(X)
    if len(X) == 0 or X.shape[1] == 0:
        raise EmptyInputError("training input is empty")
    if len(X) != len(y):
        raise ValueError(f"{len(X)} rows vs {len(y)} labels")
    if label_set is None:
        label_set = LabelSet(tuple(sorted(set(y))))
    y_idx = np.asarray([label_set.index(lab) for lab in y], dtype=np.int64)
    return X, y_idx, label_set


def _tree_rng(seed: int, tree_index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed % 2**64, tree_index]))
    )


def fit_tree(
    X, y: Sequence[str], config: ForestConfig | None = None, label_set: LabelSet | None = None
) -> ForestModel:
    """Fit a single deterministic tree (no bootstrap) on all rows.

    Returned as a one-tree ForestModel so predict/serialize are uniform.
    """
    config = config or ForestConfig()
    X, y_idx, label_set = _prepare(X, y, label_set)
    pat_X, pat_y, pat_w, _ = _compress(X, y_idx)
    tree = _TreeBuilder(len(label_set), config, _tree_rng(config.seed, 0)).fit(
        pat_X, pat_y, pat_w
    )
    return ForestModel(config=config, label_set=label_set, trees=[tree], n_features=X.shape[1])


def _fit_one_tree(pat_X, pat_y, pat_w, inverse, n_rows, k, config, t):
    rng = _tree_rng(config.seed, t)
    if config.bootstrap:
        draws = rng.integers(0, n_rows, size=n_rows)
        weights = np.bincount(inverse[draws], minlength=len(pat_w)).astype(np.int64)
    else:
        weights = pat_w
    return _TreeBuilder(k, config, rng).fit(pat_X, pat_y, weights)


def fit_forest(
    X, y: Sequence[str], config: ForestConfig | None = None, label_set: LabelSet | None = None
) -> ForestModel:
    """Fit a voting forest; tree t draws its RNG substream from
    (config.seed, t), so no tree depends on the trees fitted before it."""
    config = config or ForestConfig()
    X, y_idx, label_set = _prepare(X, y, label_set)
    pat_X, pat_y, pat_w, inverse = _compress(X, y_idx)
    trees = [
        _fit_one_tree(pat_X, pat_y, pat_w, inverse, len(X), len(label_set), config, t)
        for t in range(config.n_trees)
    ]
    return ForestModel(config=config, label_set=label_set, trees=trees, n_features=X.shape[1])


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


@dataclass(frozen=True)
class StratifiedBaseline:
    """Generator of label predictions drawn iid from a training
    distribution; the no-information reference every leak score is
    measured against."""

    label_probs: Mapping[str, float]
    seed: int = 0

    @classmethod
    def from_labels(cls, labels: Sequence[str], seed: int = 0) -> "StratifiedBaseline":
        counts: dict[str, int] = {}
        for lab in labels:
            counts[lab] = counts.get(lab, 0) + 1
        return cls(label_probs=_normalize(counts, "train"), seed=seed)

    def predict_for(self, ids: Sequence[str]) -> dict[str, str]:
        labels = sorted(self.label_probs)
        probs = np.array([self.label_probs[lab] for lab in labels], dtype=np.float64)
        cum = np.cumsum(probs)
        cum[-1] = 1.0
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.seed % 2**64)))
        draws = np.searchsorted(cum, rng.random(len(ids)), side="right")
        return {rid: labels[i] for rid, i in zip(ids, draws)}
