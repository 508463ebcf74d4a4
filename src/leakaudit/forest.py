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

The forest reads the id probe's pattern tables only, and nothing here
checks them: ``fit_rows`` and ``ForestModel.predict_index`` take distinct
int64 rows, the k-digit id prefixes of a table. Prefixes repeat heavily,
so ``fit_rows`` takes one or more training sets, each given as every
training row's index into the distinct rows and its label position. One
1-D unique of ``row * n_labels + label`` over all the sets collapses them
into weighted patterns, and trees grow on the patterns. Weighted CART on
multiplicities is arithmetically identical to unweighted CART on the
duplicated rows, and million-row inputs collapse to a few hundred patterns.

Tree t of every forest draws from the substream ``_tree_rng(seed, t)``:
first its bootstrap draw, then one feature order per split-candidate node
in preorder. Forests fitted together on sets of one size therefore make
the same draw and read the same orders, so ``fit_rows`` makes each draw
once and shares each order stream, and every forest equals the one fitted
on its set alone.

All trees of a fit grow in lockstep (``_LockstepGrower``), those of
several forests too, in groups of bounded size. Each feature column is
rank-coded once. A step takes the next node in preorder from every tree,
counts the (node, feature, present value, label) weights of all those
nodes with one sort and one bincount, scores every boundary together, and
partitions every split node's patterns with one stable sort. The counts
are sparse, so a step's work follows the rows times the features it
evaluates, never a column's number of distinct values. Since each tree
still visits its nodes in preorder and reads its own substream, the trees
are exactly those a node-by-node recursion grows.
"""

from __future__ import annotations

import json
import math
from array import array
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Iterator, Mapping

import numpy as np

from .data import LabelSet
from .errors import EmptyDistributionError

FORMAT_VERSION = 1


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


_BATCH_CELLS = 1 << 18  # (pattern, feature) cells one split search sorts at most
_GROUP_ENTRIES = 1 << 18  # alive (tree, pattern) entries one lockstep group holds at most
_PREDICT_CELLS = 1 << 15  # (row, tree) cells one prediction walk holds at most


class _OrderStream:
    """The feature orders of one tree substream, read by every tree that
    starts from the same generator state: each reader's j-th order is the
    j-th permutation drawn. An order is kept only while some reader still
    growing has not read it."""

    def __init__(self, rng: np.random.Generator, n_features: int, readers):
        self.rng = rng
        self.n_features = n_features
        self.read = dict.fromkeys(readers, 0)  # orders each reader has read
        self.kept: deque = deque()
        self.first = 0  # stream position of kept[0]

    def next(self, reader) -> np.ndarray:
        j = self.read[reader]
        self.read[reader] = j + 1
        if j == self.first + len(self.kept):
            # the reader furthest on draws; a lone reader keeps nothing
            order = self.rng.permutation(self.n_features)
            if len(self.read) == 1:
                self.first += 1
            else:
                self.kept.append(order)
            return order
        order = self.kept[j - self.first]
        if j == self.first:
            self._trim()
        return order

    def finish(self, reader) -> None:
        del self.read[reader]
        self._trim()

    def _trim(self) -> None:
        lowest = min(self.read.values(), default=self.first + len(self.kept))
        for _ in range(lowest - self.first):
            self.kept.popleft()
        self.first = lowest


class _LockstepGrower:
    """Grows a list of trees on the same patterns, one node per tree per step.

    Every tree's alive patterns (nonzero weight) sit in one flat array, and
    each pending node owns a contiguous range of it. A step pops the next
    node in preorder from every tree's stack, searches all their splits in
    one batch and partitions the split ranges in place, so the per-node
    Python cost of a recursive builder becomes a per-step cost shared by
    all trees. Each tree reads its feature orders from its own stream in its
    own preorder, so a tree does not depend on how many others grow beside
    it.
    """

    def __init__(self, pat_X, pat_y, n_labels, config, alive, orders):
        """alive[i] is tree i's (pattern indices, weights) over its nonzero
        weights in pattern order; orders[i] is the _OrderStream it reads."""
        self.K = n_labels
        self.config = config
        self.orders = orders
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
        self.flat_pat = np.concatenate([pat for pat, _ in alive])
        self.flat_w = np.concatenate([w for _, w in alive])
        self.root_ends = np.cumsum([len(pat) for pat, _ in alive])

    def grow(self) -> list[tuple]:
        """Grow every tree; return the ForestModel node arrays of each
        forest, tree i being tree ``i % config.n_trees`` of forest
        ``i // config.n_trees``."""
        K, config = self.K, self.config
        n_trees = len(self.orders)
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
        # memory until the last tree finishes. Class counts are kept for
        # leaves only, K per leaf.
        tables = [
            (array("q"), array("d"), array("q"), array("q"), array("q"))
            for _ in range(n_trees // config.n_trees)
        ]

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
                # one feature order per split candidate, read in its tree's preorder
                perms = (
                    np.array([self.orders[live[j]].next(live[j]) for j in cand.tolist()])
                    if self.subsample
                    else None
                )
                # batches of at most _BATCH_CELLS (pattern, feature) cells, a
                # larger node alone, bound the memory of the batch's sort
                cells = (bounds[cand, 1] - bounds[cand, 0]) * self.n_features
                for part in _chunks(cells.tolist(), _BATCH_CELLS):
                    batch = cand[part]
                    found = self._split(
                        bounds[batch, 0],
                        bounds[batch, 1],
                        label_w[batch],
                        None if perms is None else perms[part],
                    )
                    split_feat[batch], split_thr[batch], n_left[batch], left_w[batch] = found

            right_w = label_w - left_w
            split_feat = split_feat.tolist()
            for j, (t, (start, end, depth, parent, is_right, _)) in enumerate(zip(live, popped)):
                feature, threshold, left, right, leaf_counts = tables[t // config.n_trees]
                node = len(feature)
                if parent >= 0:
                    (right if is_right else left)[parent] = node
                left.append(-1)
                right.append(-1)
                feature.append(split_feat[j])
                if split_feat[j] < 0:
                    threshold.append(0.0)
                    leaf_counts.extend(label_w[j].tolist())
                    if not stacks[t]:
                        self.orders[t].finish(t)
                    continue
                threshold.append(float(split_thr[j]))
                mid = start + int(n_left[j])
                # right pushed first so the left child is popped next: each
                # tree appends its nodes in preorder
                stacks[t].append((mid, end, depth + 1, node, True, right_w[j]))
                stacks[t].append((start, mid, depth + 1, node, False, left_w[j]))

        # the first step makes every tree's root, in tree order; the rest are
        # numpy views of the typed arrays, not copies
        return [
            (
                np.arange(config.n_trees),
                np.frombuffer(feature, dtype=np.int64),
                np.frombuffer(threshold, dtype=np.float64),
                np.frombuffer(left, dtype=np.int64),
                np.frombuffer(right, dtype=np.int64),
                np.frombuffer(leaf_counts, dtype=np.int64).reshape(-1, K),
            )
            for feature, threshold, left, right, leaf_counts in tables
        ]

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


@dataclass(eq=False)
class ForestModel:
    """A trained forest: one node table for all its trees, whose votes are
    label-set positions. Tree t starts at node ``roots[t]``. An internal
    node has feature >= 0, a threshold and child nodes; a leaf has feature
    and child links -1, a row of ``leaf_counts`` (one per leaf, in node
    order) and its majority label in ``leaf_class`` (-1 elsewhere)."""

    config: ForestConfig
    label_set: LabelSet
    n_features: int
    roots: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_counts: np.ndarray
    leaf_class: np.ndarray = field(init=False)

    def __post_init__(self):
        self.leaf_class = np.full(len(self.feature), -1, dtype=np.int64)
        # argmax takes the first maximum: ties go to the lowest label index
        self.leaf_class[self.feature < 0] = np.argmax(self.leaf_counts, axis=1)

    def predict_index(self, rows: np.ndarray) -> np.ndarray:
        """The forest's vote for each row of ``rows``, distinct int64 rows
        of ``n_features`` columns, as a label-set position. Nothing is
        checked."""
        K, width, n_trees = len(self.label_set), rows.shape[1], len(self.roots)
        flat = rows.ravel()
        predicted = np.empty(len(rows), dtype=np.int64)
        step = max(1, _PREDICT_CELLS // n_trees)
        for lo in range(0, len(rows), step):
            at = np.arange(lo, min(lo + step, len(rows)))
            # cell t * len(at) + r walks row at[r] down tree t: each tree's
            # cells sit together, which keeps its nodes in cache
            node = np.repeat(self.roots, len(at))
            row_start = np.tile(at * width, n_trees)
            cells = np.arange(len(node))
            while cells.size:
                cur = node[cells]
                feat = self.feature[cur]
                inner = feat >= 0
                cells, cur, feat = cells[inner], cur[inner], feat[inner]
                go_left = flat[row_start[cells] + feat] <= self.threshold[cur]
                node[cells] = np.where(go_left, self.left[cur], self.right[cur])
            row = np.tile(at - lo, n_trees)
            votes = np.bincount(row * K + self.leaf_class[node], minlength=len(at) * K)
            # argmax takes the first maximum: vote ties go to the lowest label index
            predicted[lo : lo + len(at)] = np.argmax(votes.reshape(-1, K), axis=1)
        return predicted

    def to_json_str(self) -> str:
        """The model as canonical JSON: each tree's nodes in preorder from
        0, with class counts at leaves and null at internal nodes."""
        feature, left, right = self.feature.tolist(), self.left.tolist(), self.right.tolist()
        leaf_rows = iter(self.leaf_counts.tolist())
        columns = {
            "feature": feature,
            "threshold": self.threshold.tolist(),
            "counts": [None if f >= 0 else next(leaf_rows) for f in feature],
        }
        trees = []
        for root in self.roots.tolist():
            # a walk from the root, left child first, lists the tree in preorder
            nodes, stack = [], [root]
            while stack:
                nodes.append(stack.pop())
                if feature[nodes[-1]] >= 0:
                    stack += (right[nodes[-1]], left[nodes[-1]])
            local = {node: i for i, node in enumerate(nodes)} | {-1: -1}
            tree = {name: [column[n] for n in nodes] for name, column in columns.items()}
            tree["left"] = [local[left[n]] for n in nodes]
            tree["right"] = [local[right[n]] for n in nodes]
            trees.append(tree)
        payload = {
            "format_version": FORMAT_VERSION,
            "kind": "forest",
            "config": asdict(self.config),
            "labels": list(self.label_set),
            "n_features": self.n_features,
            "trees": trees,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _tree_rng(seed: int, tree_index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed % 2**64, tree_index]))
    )


def fit_rows(rows, sets, label_set, config: ForestConfig) -> Iterator[ForestModel]:
    """Fit one forest of ``config.n_trees`` trees per training set, all on
    the distinct rows ``rows``, and yield them in set order.

    Each set is a pair (row_of, y_idx): its training rows ``rows[row_of]``
    and their label positions. ``rows`` are distinct int64 rows in
    ``np.unique(axis=0)`` order, so the patterns sort as a 2-d unique of
    (row, label) would. Forests grow together in groups of at most
    ``_GROUP_ENTRIES`` alive (tree, pattern) entries, a forest alone when
    it is larger. Within a group, tree t of the sets of each size makes one
    bootstrap draw and reads one feature-order stream, both from
    ``_tree_rng(config.seed, t)``, so each forest equals the one fitted on
    its set alone. A group's forests are yielded once it has grown, and
    none is held after the next is asked for, so a caller that lets each
    go before taking the next holds at most one group. Nothing is checked.
    """
    K = len(label_set)
    codes = [row_of * K + y_idx for row_of, y_idx in sets]
    keys, inverse = np.unique(np.concatenate(codes), return_inverse=True)
    inverses = np.split(inverse.reshape(-1), np.cumsum([len(c) for c in codes])[:-1])
    del codes, inverse
    counts = [np.bincount(inv, minlength=len(keys)) for inv in inverses]
    pat_X, pat_y = rows[keys // K], keys % K

    entries = [config.n_trees * int(np.count_nonzero(c)) for c in counts]
    for group in _chunks(entries, _GROUP_ENTRIES):
        # the grower copies the alive entries into its flat arrays, and the
        # per-tree arrays are freed before growth starts
        tables = _LockstepGrower(
            pat_X, pat_y, K, config,
            *_tree_copies(inverses[group], counts[group], config, rows.shape[1]),
        ).grow()
        while tables:  # popped as yielded: a forest the caller lets go is freed
            yield ForestModel(config, label_set, rows.shape[1], *tables.pop(0))


def _tree_copies(inverses, counts, config, n_features):
    """Every tree of every set's forest, set-major: its alive patterns and
    weights, and the order stream it reads.

    Tree t of all sets of one size shares one substream: one bootstrap
    draw, from which each set's weights are counted and compressed at
    once, and one order stream. Without bootstrap, size plays no part."""
    n_trees = config.n_trees
    members: dict[int | None, list[int]] = {}
    for i, inverse in enumerate(inverses):
        members.setdefault(len(inverse) if config.bootstrap else None, []).append(i)
    alive = [None] * (len(inverses) * n_trees)
    orders = [None] * len(alive)
    for t in range(n_trees):
        for n, same in members.items():
            rng = _tree_rng(config.seed, t)
            draw = None if n is None else rng.integers(0, n, size=n)
            stream = _OrderStream(rng, n_features, [i * n_trees + t for i in same])
            for i in same:
                w = counts[i]
                if draw is not None:
                    w = np.bincount(inverses[i][draw], minlength=len(w))
                nonzero = np.flatnonzero(w)
                alive[i * n_trees + t] = (nonzero, w[nonzero])
                orders[i * n_trees + t] = stream
    return alive, orders


def _chunks(sizes: list[int], budget: int):
    """Cut consecutive items into slices whose sizes sum to at most
    ``budget``; a larger item forms a slice alone."""
    lo, total = 0, 0
    for i, size in enumerate(sizes):
        if i > lo and total + size > budget:
            yield slice(lo, i)
            lo, total = i, 0
        total += size
    yield slice(lo, len(sizes))


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
    single finite draw scatters around it (the tests check the limit
    against a Monte Carlo mean over simulated draws).
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
