"""Exact-arithmetic reference CART used to cross-check the fast trainer.

Pure-Python, Fraction-based, O(n^2)-ish and proud of it. It implements the
same contract as the production builder (midpoint thresholds, weighted
Gini, ties to the lowest feature index then lowest threshold, preorder
node layout with left children first) from entirely different code, so
structural equality between the two is strong evidence of correctness.
"""

from fractions import Fraction


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
