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
evaluates, never a column's number of distinct values. The stacks, node
tables and order streams are arrays too, updated once per step for all
trees, and each stream draws its orders in doubling blocks. Since each
tree still visits its nodes in preorder and reads its own substream, the
trees are exactly those a node-by-node recursion grows.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Iterator, Mapping

import numpy as np

from ._arrays import batches, ragged_arange
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
        for name, lowest, also in (
            ("n_trees", 1, ""), ("max_depth", 1, " or None"),
            ("max_features", 1, ", 'sqrt' or 'all'"),
            ("min_samples_split", 2, ""), ("min_samples_leaf", 1, ""), ("seed", 0, ""),
        ):
            value = getattr(self, name)
            if value in {"max_depth": (None,), "max_features": ("sqrt", "all")}.get(name, ()):
                continue
            # a bool would read as 0 or 1, and a numpy integer would not serialize
            if type(value) is not int or value < lowest:
                raise ValueError(f"{name} must be an int >= {lowest}{also}, got {value!r}")
        if type(self.bootstrap) is not bool:
            raise ValueError(f"bootstrap must be a bool, got {self.bootstrap!r}")

    def resolve_max_features(self, n_features: int) -> int:
        if self.max_features == "sqrt":
            return max(1, int(math.sqrt(n_features)))
        if self.max_features == "all":
            return n_features
        return min(int(self.max_features), n_features)


_BATCH_CELLS = 1 << 18  # (pattern, feature) cells one split search sorts at most
_GROUP_ENTRIES = 1 << 18  # alive (tree, pattern) entries one lockstep group holds at most
_PREDICT_CELLS = 1 << 15  # (row, tree) cells one prediction walk holds at most
_FIRST_BLOCK = 32  # feature orders a stream draws first; each later block doubles it

# a pending node's fields: pattern range, depth, the parent's child cell its id
# goes to (-1 at a root), the pending node below it on its stack, label weights
_START, _END, _DEPTH, _LINK, _BELOW, _W = range(6)


class _LockstepGrower:
    """Grows a list of trees on the same patterns, one node per tree per step.

    Every tree's alive patterns (nonzero weight) sit in one flat array, and
    each pending node owns a contiguous range of it. All bookkeeping is
    array state, updated once per step for every tree: a tree's stack is
    its ``top`` pending node plus a below link per pending node, in a table
    whose columns are reused. A step pops every tree's top with one gather,
    searches all their splits in one batch, partitions the split ranges in
    place, numbers each forest's popped nodes on from its last into its row
    of the node tables, which are its ForestModel arrays, and pushes the
    (right, left) children of every split node at once.

    Each stream draws its feature orders in blocks that double, the next
    when a reader reaches its end; a tree's split candidates read its
    stream's orders in turn, so no tree depends on the others beside it.
    """

    def __init__(self, pat_X, pat_y, n_labels, config, flat_pat, flat_w, sizes, streams, stream_of):
        """Tree i's alive patterns, in pattern order, and their weights are
        the i-th run of ``sizes[i]`` entries of flat_pat and flat_w; it reads
        the orders of the generator streams[stream_of[i]]."""
        self.K, self.config = n_labels, config
        n_features = pat_X.shape[1]
        self.n_features = n_features
        self.max_eval = config.resolve_max_features(n_features)
        self.subsample = self.max_eval < n_features
        self.pat_y = pat_y
        # rank codes: the distinct (column, value) pairs in ascending order,
        # so column f's distinct values get consecutive codes by value
        cells = np.stack((np.tile(np.arange(n_features), len(pat_X)), pat_X.reshape(-1)), 1)
        pairs, rank = np.unique(cells, axis=0, return_inverse=True)
        self.codes, self.n_codes = rank.reshape(pat_X.shape), len(pairs)
        self.feature_of, self.value_of = pairs[:, 0], pairs[:, 1]
        self.flat_pat, self.flat_w, self.sizes = flat_pat, flat_w, sizes
        self.streams, self.stream_of = streams, stream_of
        # orders[s, j] is stream s's j-th order; read[i] counts tree i's reads
        self.orders = np.empty((len(streams), 0, n_features), dtype=np.min_scalar_type(n_features))
        self.drawn = np.zeros(len(streams), dtype=np.int64)
        self.read = np.zeros(len(sizes), dtype=np.int64)

    def grow(self) -> list[tuple]:
        """Grow every tree; return the ForestModel node arrays of each
        forest, tree i being tree ``i % config.n_trees`` of forest
        ``i // config.n_trees``."""
        K, config = self.K, self.config
        n_trees, n_forests = len(self.sizes), len(self.sizes) // config.n_trees
        ends = np.cumsum(self.sizes)
        pending = np.zeros((_W + K, n_trees), dtype=np.int64)  # one column per pending node
        pending[_START], pending[_END] = ends - self.sizes, ends
        pending[_LINK] = pending[_BELOW] = -1
        codes = np.repeat(np.arange(n_trees) * K, self.sizes) + self.pat_y[self.flat_pat]
        pending[_W:] = np.bincount(codes, self.flat_w, n_trees * K).reshape(-1, K).T
        top, live, free = np.arange(n_trees), np.arange(n_trees), np.empty(0, np.int64)
        # row f of each table holds forest f's nodes, numbered from 0 as popped
        # (its roots first, in tree order), or its leaves' counts; capacities
        # double as they fill; features and node ids fit int32
        feature, threshold = np.empty((n_forests, 0), np.int32), np.empty((n_forests, 0))
        children = np.empty((n_forests, 0, 2), np.int32)
        leaf_counts = np.empty((n_forests, 0, K), np.int64)
        n_nodes, n_leaves = np.zeros(n_forests, np.int64), np.zeros(n_forests, np.int64)

        while live.size:
            slot = top[live]
            popped = pending[:, slot]
            top[live] = popped[_BELOW]
            label_w = popped[_W:].T
            open_ = ((label_w > 0).sum(1) > 1) & (label_w.sum(1) >= config.min_samples_split)
            if config.max_depth is not None:
                open_ &= popped[_DEPTH] < config.max_depth
            split_feat, split_thr = np.full(len(live), -1, np.int64), np.zeros(len(live))
            n_left, left_w = np.zeros(len(live), np.int64), np.zeros_like(label_w)
            cand = np.flatnonzero(open_)
            if cand.size:
                perms = self._orders(live[cand]) if self.subsample else None
                # batches of at most _BATCH_CELLS (pattern, feature) cells, a
                # larger node alone, bound the memory of the batch's sort
                cells = (popped[_END, cand] - popped[_START, cand]) * self.n_features
                for lo, hi in batches(cells, _BATCH_CELLS):
                    batch = cand[lo:hi]
                    found = self._split(popped[_START, batch], popped[_END, batch], label_w[batch],
                                        None if perms is None else perms[lo:hi])
                    split_feat[batch], split_thr[batch], n_left[batch], left_w[batch] = found

            forest, leaf = live // config.n_trees, split_feat < 0
            node = _number(n_nodes, forest)
            feature, threshold, children = (
                _room(a, n_nodes.max(), n_nodes) for a in (feature, threshold, children)
            )
            feature[forest, node], threshold[forest, node] = split_feat, split_thr
            children[forest, node] = -1
            linked = np.flatnonzero(popped[_LINK] >= 0)
            children.reshape(n_forests, -1)[forest[linked], popped[_LINK, linked]] = node[linked]
            leaf_row = _number(n_leaves, forest[leaf])
            leaf_counts = _room(leaf_counts, n_leaves.max(), n_leaves)
            leaf_counts[forest[leaf], leaf_row] = label_w[leaf]

            # a split node's column becomes its right child, and a free
            # column its left child, which its tree pops next
            split = np.flatnonzero(~leaf)
            free = np.concatenate((free, slot[leaf]))
            if free.size < split.size:
                cols = pending.shape[1]
                pending = _room(pending, cols + split.size - free.size, [cols] * len(pending))
                free = np.concatenate((free, np.arange(cols, pending.shape[1])))
            right_col, left_col, free = slot[split], free[: split.size], free[split.size :]
            right = popped[:, split]
            right[_DEPTH] += 1
            left = right.copy()
            left[_END] = right[_START] = right[_START] + n_left[split]
            left[_LINK], right[_LINK] = 2 * node[split], 2 * node[split] + 1
            left[_BELOW] = right_col
            left[_W:] = left_w[split].T
            right[_W:] -= left_w[split].T
            pending[:, right_col], pending[:, left_col] = right, left
            top[live[split]] = left_col
            live = live[top[live] >= 0]

        return [
            (np.arange(config.n_trees), feature[f, :n], threshold[f, :n],
             children[f, :n, 0], children[f, :n, 1], leaf_counts[f, :n_leaf])
            for f, (n, n_leaf) in enumerate(zip(n_nodes.tolist(), n_leaves.tolist()))
        ]

    def _orders(self, readers) -> np.ndarray:
        """The next feature order of each of the distinct trees ``readers``."""
        stream, j = self.stream_of[readers], self.read[readers]
        for s in sorted(set(stream[j >= self.drawn[stream]].tolist())):
            have = int(self.drawn[s])
            more = have or _FIRST_BLOCK
            self.orders = _room(self.orders, have + more, self.drawn)
            block = _order_block(self.streams[s], self.n_features, more)
            self.orders[s, have : have + more] = block
            self.drawn[s] += more
        self.read[readers] = j + 1
        return self.orders[stream, j]

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
        K, m = self.K, len(starts)
        lengths = ends - starts
        seg = np.repeat(np.arange(m), lengths)
        seg_first = np.cumsum(lengths) - lengths
        idx = ragged_arange(starts, lengths)
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

        # sparse histogram of the evaluated (pattern, feature) cells, a pair
        # (node, feature) taking its node's rows: one row per (node, feature,
        # present value), sorted in that order, and one column per label
        pair_seg, pair_feat = np.nonzero(evaluated)
        cell = ragged_arange(seg_first[pair_seg], lengths[pair_seg])
        cell_feat = np.repeat(pair_feat, lengths[pair_seg])
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
    for lo, hi in batches(entries, _GROUP_ENTRIES):
        tables = _LockstepGrower(
            pat_X, pat_y, K, config, *_tree_copies(inverses[lo:hi], counts[lo:hi], config)
        ).grow()
        while tables:  # popped as yielded, so letting each forest go frees the group's tables
            yield ForestModel(config, label_set, rows.shape[1], *tables.pop(0))


def _tree_copies(inverses, counts, config):
    """Every tree of every set's forest, set-major: its alive patterns and
    weights as runs of two flat arrays, each run's length, and the order
    streams with the one each tree reads.

    Tree t of all sets of one size shares one substream: one bootstrap
    draw, from which one bincount counts every such set's weights, each
    set's codes offset by the pattern count, and one order stream. Without
    bootstrap, size plays no part."""
    n_trees, n_patterns = config.n_trees, len(counts[0])
    members: dict[int | None, list[int]] = {}
    for i, inverse in enumerate(inverses):
        members.setdefault(len(inverse) if config.bootstrap else None, []).append(i)
    tree, pat, w, streams = [], [], [], []
    stream_of = np.empty(len(inverses) * n_trees, dtype=np.int64)
    for n, same in members.items():
        same = np.array(same)
        weights = np.concatenate([counts[i] for i in same])  # each tree's, without bootstrap
        if n is not None:
            coded = np.stack([inverses[i] + k * n_patterns for k, i in enumerate(same)])
        for t in range(n_trees):
            rng = _tree_rng(config.seed, t)
            if n is not None:
                drawn = np.take(coded, rng.integers(0, n, size=n), axis=1).reshape(-1)
                weights = np.bincount(drawn, minlength=len(same) * n_patterns)
            alive = np.flatnonzero(weights)
            at_set, at_pat = np.divmod(alive, n_patterns)
            tree.append(same[at_set] * n_trees + t)
            pat.append(at_pat)
            w.append(weights[alive])
            stream_of[same * n_trees + t] = len(streams)
            streams.append(rng)
    tree = np.concatenate(tree)
    order = np.argsort(tree, kind="stable")
    sizes = np.bincount(tree, minlength=len(stream_of))
    return np.concatenate(pat)[order], np.concatenate(w)[order], sizes, streams, stream_of


def _order_block(rng, n_features: int, m: int) -> np.ndarray:
    """The next m feature orders of ``rng``: the permutations, and the
    generator state after, of m calls of ``rng.permutation(n_features)``."""
    ids = np.arange(n_features, dtype=np.min_scalar_type(n_features))
    return rng.permuted(np.repeat(ids[None], m, axis=0), axis=1)


def _number(counts: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Number each key's items in sorted ``keys`` on from ``counts[key]``; advance ``counts``."""
    numbers = counts[keys] + np.arange(len(keys)) - np.searchsorted(keys, keys)
    counts += np.bincount(keys, minlength=len(counts))
    return numbers


def _room(a: np.ndarray, need: int, used) -> np.ndarray:
    """``a`` if its axis 1 holds ``need``, else a copy with at least twice the room, given
    only the first ``used[i]`` cells of each row i, so room a row never uses stays untouched."""
    if need <= a.shape[1]:
        return a
    grown = np.empty((len(a), max(2 * a.shape[1], need)) + a.shape[2:], dtype=a.dtype)
    for i, n in enumerate(used):
        grown[i, : min(n, a.shape[1])] = a[i, :n]
    return grown


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
