"""Exact and near duplicate detection, and cross-split contamination.

Exact duplicates are records with identical normalized text (lowercased,
URLs stripped, whitespace collapsed; punctuation kept). Near duplicates
are node pairs whose word 3-shingle sets have Jaccard >= t. Candidates
come from a prefix filter (Chaudhuri, Ganti & Kaushik, ICDE 2006;
Bayardo, Ma & Srikant, WWW 2007): with the shingles ordered globally by
(document frequency, id), two sets with Jaccard >= t share a shingle
among each set's first |x| - o(|x|) + 1, where o(n) is the least overlap
with o / n >= t. So every pair at Jaccard >= t is a candidate, and a
candidate counts only once its Jaccard is verified. o(n) is computed in
float64 exactly as the verification divides, since ceil(t * n) can
overshoot it and a prefix one shingle short would miss pairs.

Clusters are connected components over verified pairs, with exact groups
collapsed to one node first. Components chain, so a cluster can contain a
pair below threshold; each cluster records the minimum Jaccard of its
members against the representative to keep that visible.

The nodes and their words come from the dataset's text table
(``leakaudit.text``), which the keyword scan shares: each record is
normalized once there, and each distinct word has a small id. From there
every stage is a pass over arrays, and a candidate pair that cannot
change an output is never verified:

- the word ids of a shingle are combined in numpy by an
  order-sensitive, non-linear 64-bit mixer that also takes the shingle's
  length;
- the prefix rows of all nodes are cut from one sort, and a prefix
  shingle that only one node holds makes no bucket;
- the scan verifies a candidate pair only when it would join two
  components, and ``DuplicateScan.contamination`` only pairs with train
  records on one side and dev/test records on the other;
- pairs are verified in bounded batches, by binary search in one sorted
  array of (node, shingle) keys.

Word ids follow the order in which words first appear in the table, so
shingle ids and prefixes depend on the record order; the candidates
always include every pair at Jaccard >= t, so the outputs do not.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._arrays import batches, ragged_arange, sorted_unique
from .data import Dataset
from .splits import PARTITIONS, Split

SHINGLE_SIZE = 3
WORST_PAIRS = 25  # contamination pairs that are built in full


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer: a non-linear bijection of uint64."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _shingle_array(token_ids: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The hash of every shingle of some texts, and the text it belongs to.

    The texts' token ids lie end to end in token_ids, lengths[i] >= 1 of
    them for text i. A text shorter than SHINGLE_SIZE is one whole-text
    shingle. A shingle's hash starts from its length and mixes in its
    tokens in order, so "a b c" and "c b a" differ, and a two-token text
    does not systematically meet a three-token shingle.
    """
    per_text = np.maximum(lengths - (SHINGLE_SIZE - 1), 1)
    owner = np.repeat(np.arange(len(lengths)), per_text)
    first = ragged_arange(np.cumsum(lengths) - lengths, per_text)
    size = np.minimum(lengths, SHINGLE_SIZE)[owner]
    padded = np.zeros(len(token_ids) + SHINGLE_SIZE - 1, dtype=np.uint64)
    padded[: len(token_ids)] = token_ids
    hashes = _mix(size.astype(np.uint64))
    for k in range(SHINGLE_SIZE):
        hashes = np.where(size > k, _mix(hashes ^ padded[first + k]), hashes)
    return hashes, owner


@dataclass(frozen=True)
class DuplicateCluster:
    """A set of mutually duplicated records.

    kind "exact": identical normalized text. kind "near": a connected
    component of verified near-duplicate text nodes. member_ids are sorted
    numerically; the representative is the smallest id.
    min_jaccard_to_representative is 1.0 for exact clusters.
    """

    kind: str
    member_ids: tuple[str, ...]
    representative_id: str
    min_jaccard_to_representative: float

    @property
    def size(self) -> int:
        return len(self.member_ids)


@dataclass(frozen=True)
class ContaminationPair:
    """One duplicate pair that leaks across the train boundary."""

    train_id: str
    other_id: str
    partition: str  # "test" or "dev"
    jaccard: float
    kind: str  # "exact" or "near"


@dataclass(frozen=True)
class Contamination:
    """The duplicate pairs of a split with one record in train and the
    other in dev or test.

    n_pairs counts them all. worst holds the first WORST_PAIRS of them in
    order of Jaccard descending (exact pairs at 1.0), then numeric train
    id, then numeric other id.
    """

    n_pairs: int
    worst: tuple[ContaminationPair, ...]


@dataclass(frozen=True)
class _NodeRows:
    """Each node's dataset rows, in id order: node i's rows are
    order[bounds[i] : bounds[i + 1]]. Two arrays take far less memory than
    a list of rows per node."""

    order: np.ndarray
    bounds: np.ndarray

    def __len__(self) -> int:
        return len(self.bounds) - 1

    def __getitem__(self, node: int) -> np.ndarray:
        return self.order[self.bounds[node] : self.bounds[node + 1]]


@dataclass
class _NodeIndex:
    """Distinct normalized texts (nodes), their dataset rows and shingles.

    node_records gives each node's dataset rows in id order; record ids
    are read off the rows only where clusters and pairs are built.
    keys holds node * n_shingles + shingle id for each distinct shingle
    of each node, sorted, so node i's shingles are keys[starts[i] :
    starts[i + 1]] and one binary search tells whether a node has a given
    shingle; shingle ids number the distinct shingle hashes from 0.
    """

    node_records: _NodeRows
    keys: np.ndarray
    starts: np.ndarray
    n_shingles: int
    n_skipped_empty: int


def _build_nodes(dataset: Dataset) -> _NodeIndex:
    """The node index of the dataset's text table."""
    table = dataset.text_table
    n = len(table.n_words)
    has_text = np.flatnonzero(table.node >= 0)
    node_records = _NodeRows(
        has_text[np.lexsort((dataset.id_values[has_text], table.node[has_text]))],
        np.concatenate(([0], np.cumsum(np.bincount(table.node[has_text], minlength=n)))),
    )
    shingles, owner = _shingle_array(table.words, table.n_words)
    hashes, shingle_ids = np.unique(shingles, return_inverse=True)
    n_shingles = len(hashes)
    del shingles, hashes
    keys = sorted_unique(owner * n_shingles + shingle_ids)
    starts = np.searchsorted(keys, np.arange(n + 1) * n_shingles)
    return _NodeIndex(node_records, keys, starts, n_shingles, len(table.node) - len(has_text))


def _jaccard(index: _NodeIndex, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Shingle Jaccard of each node pair (a[i], b[i]): each shingle of the
    smaller node is looked up among the other node's keys."""
    sizes = np.diff(index.starts)
    size_a, size_b = sizes[a], sizes[b]
    swap = size_a > size_b
    small, large = np.where(swap, b, a), np.where(swap, a, b)
    n_small = np.minimum(size_a, size_b)
    inter = np.zeros(len(a), dtype=np.int64)
    last = len(index.keys) - 1
    for lo, hi in batches(n_small):
        count = n_small[lo:hi]
        shift = np.repeat((large[lo:hi] - small[lo:hi]) * index.n_shingles, count)
        query = index.keys[ragged_arange(index.starts[small[lo:hi]], count)] + shift
        found = index.keys[np.minimum(np.searchsorted(index.keys, query), last)] == query
        inter[lo:hi] = np.add.reduceat(found.astype(np.int64), np.cumsum(count) - count)
    return inter / (size_a + size_b - inter)


def _min_overlap(sizes: np.ndarray, threshold: float) -> np.ndarray:
    """o(n) for each set size n: the least overlap o with o / n >= threshold
    in float64. A pair that _jaccard passes overlaps in o(n) or more for
    either set's size n: its overlap over n is at least its Jaccard, and
    float division keeps that order. ceil(threshold * n) can be one off
    either way; one step down and one step up correct it."""
    overlap = np.ceil(sizes * threshold)
    overlap -= (overlap - 1) / sizes >= threshold
    overlap += overlap / sizes < threshold
    return overlap.astype(np.int64)


def _prefix_buckets(index: _NodeIndex, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """The prefix-filter buckets with two or more nodes, as rows (bucket,
    node).

    Shingles are ranked by (document frequency, shingle id), and a node's
    prefix is its first size - o(size) + 1 shingles in rank order. Two
    nodes at Jaccard >= threshold share a prefix shingle, so each shingle
    in two or more prefixes is a bucket, numbered by its rank. A bucket's
    rows are adjacent, in bucket order, and ordered by pivot priority:
    nodes that share buckets with more nodes first, so the post that a
    family of near copies was edited from leads its buckets.
    """
    n = len(index.starts) - 1
    if n < 2:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    n_shingles = index.n_shingles
    shingle = index.keys % n_shingles
    by_rank = np.argsort(np.bincount(shingle, minlength=n_shingles), kind="stable")
    rank = np.empty(n_shingles, dtype=np.int64)
    rank[by_rank] = np.arange(n_shingles)
    # node * n_shingles + rank, sorted: each node's shingles, rarest first
    ranked = np.sort(index.keys - shingle + rank[shingle])
    sizes = np.diff(index.starts)
    prefix_end = index.starts[:-1] + sizes - _min_overlap(sizes, threshold) + 1
    in_prefix = np.arange(len(ranked)) < np.repeat(prefix_end, sizes)
    node, bucket = np.divmod(ranked[in_prefix], n_shingles)
    shared = np.bincount(bucket, minlength=n_shingles)[bucket] > 1
    bucket, node = bucket[shared], node[shared]
    size = np.bincount(bucket)
    degree = np.bincount(node, weights=size[bucket] - 1, minlength=n)
    order = np.lexsort((node, -degree[node], bucket))
    return bucket[order], node[order]


def _merge(label: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Component labels after adding the edges (a[i], b[i]). Each label is
    the smallest node of its component, before and after."""
    while True:
        label_a, label_b = label[a], label[b]
        apart = label_a != label_b
        if not apart.any():
            return label
        a, b, label_a, label_b = a[apart], b[apart], label_a[apart], label_b[apart]
        np.minimum.at(label, np.maximum(label_a, label_b), np.minimum(label_a, label_b))
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


def _components(
    index: _NodeIndex, buckets: tuple[np.ndarray, np.ndarray], jaccard_threshold: float
) -> list[np.ndarray]:
    """The nodes of each component of two or more nodes in the graph of
    bucket-sharing node pairs with Jaccard >= jaccard_threshold.

    Works in rounds. In each bucket the first row, the pivot, is paired
    with the rows that sit in other components; all such pairs are
    verified in one batch and the passing ones merged. Then the pivot
    leaves its bucket, since it has no pair left to decide there, and a
    bucket whose rows all share one component closes. So a pair is
    verified only when it would join two components at the start of a
    round, and a family of near copies led by its original closes in one
    round.
    """
    bucket, member = buckets
    nodes, member = np.unique(member, return_inverse=True)
    label = np.arange(len(nodes))
    while len(member):
        starts = np.flatnonzero(np.concatenate(([True], bucket[1:] != bucket[:-1])))
        sizes = np.diff(np.append(starts, len(member)))
        pivot = np.repeat(starts, sizes)
        cross = label[member] != label[member[pivot]]
        a, b = member[pivot[cross]], member[cross]
        pairs = sorted_unique(np.minimum(a, b) * len(nodes) + np.maximum(a, b))
        a, b = np.divmod(pairs, len(nodes))
        passed = _jaccard(index, nodes[a], nodes[b]) >= jaccard_threshold
        label = _merge(label, a[passed], b[passed])
        keep = np.repeat(np.logical_or.reduceat(cross, starts), sizes)
        keep[starts] = False
        bucket, member = bucket[keep], member[keep]
    order = np.argsort(label, kind="stable")
    groups = np.split(nodes[order], np.flatnonzero(np.diff(label[order])) + 1)
    return [g for g in groups if len(g) > 1]


@dataclass(frozen=True)
class DuplicateScan:
    """Duplicate clusters plus the bookkeeping the audit report wants.

    dataset (the one scanned), index (its distinct normalized texts with
    their rows and shingles) and buckets (the prefix-filter buckets of two
    or more nodes, as (bucket, node) rows) let ``contamination`` check a
    split of that dataset without a second build. The scan keeps no list
    of verified edges: it verifies a candidate pair only when the pair
    would join two components, so most candidate pairs are never verified.
    """

    clusters: tuple[DuplicateCluster, ...]
    n_records: int
    n_skipped_empty: int
    n_exact_clusters: int
    n_near_clusters: int
    n_records_in_exact: int
    n_records_in_near: int
    jaccard_threshold: float
    dataset: Dataset = field(repr=False, compare=False)
    index: _NodeIndex = field(repr=False, compare=False)
    buckets: tuple[np.ndarray, np.ndarray] = field(repr=False, compare=False)

    def contamination(self, split: Split) -> Contamination:
        """Duplicate pairs spanning train x test or train x dev.

        Exact pairs are counted per text as |train| x |dev and test|; near
        pairs per verified node pair. Only the candidate node pairs with
        train records on one side and dev/test records on the other are
        verified, and only the pairs that can reach ``worst`` are built.

        Raises:
            ValueError: if the split was made from another dataset than the
                one scanned.
        """
        if split.dataset is not self.dataset:
            raise ValueError("the split was made from another dataset than the one scanned")
        # one partition code per dataset row: 0 train, 1 dev, 2 test, -1 none
        row_part = np.full(len(self.dataset), -1, dtype=np.int8)
        for p, positions in enumerate((split.train, split.dev, split.test)):
            row_part[positions] = p
        node_records = self.index.node_records
        n, node_of = len(node_records), self.dataset.text_table.node
        n_train = np.bincount(node_of[(node_of >= 0) & (row_part == 0)], minlength=n)
        n_other = np.bincount(node_of[(node_of >= 0) & (row_part > 0)], minlength=n)
        bucket, member = self.buckets

        # candidate node pairs (x, y), x != y, with train records in x and
        # dev/test records in y, from each train row against its bucket's
        # dev/test rows
        has_train, has_other = n_train[member] > 0, n_other[member] > 0
        train_bucket, train_node = bucket[has_train], member[has_train]
        other_bucket, other_node = bucket[has_other], member[has_other]
        first = np.searchsorted(other_bucket, train_bucket)
        count = np.searchsorted(other_bucket, train_bucket, side="right") - first
        pairs = np.empty(0, dtype=np.int64)
        for lo, hi in batches(count):
            x = np.repeat(train_node[lo:hi], count[lo:hi])
            y = other_node[ragged_arange(first[lo:hi], count[lo:hi])]
            apart = x != y
            x, y = x[apart], y[apart]
            pairs = sorted_unique(np.concatenate((pairs, np.minimum(x, y) * n + np.maximum(x, y))))
        x, y = np.divmod(pairs, n)
        jaccard = _jaccard(self.index, x, y)
        near = jaccard >= self.jaccard_threshold
        x, y, jaccard = x[near], y[near], jaccard[near]

        # sources: groups of pairs with one Jaccard, train records from one
        # node and dev/test records from another (or the same, for exact)
        exact = np.flatnonzero(n_train * n_other)
        src_train = np.concatenate((exact, x, y))
        src_other = np.concatenate((exact, y, x))
        src_jaccard = np.concatenate((np.ones(len(exact)), jaccard, jaccard))
        src_pairs = n_train[src_train] * n_other[src_other]
        live = np.flatnonzero(src_pairs)
        n_pairs = int(src_pairs.sum())

        # a source whose Jaccard is below that of the WORST_PAIRS-th pair
        # cannot reach worst; the others offer their first WORST_PAIRS
        # pairs in (train id, other id) order
        by_jaccard = live[np.argsort(-src_jaccard[live], kind="stable")]
        reach = np.cumsum(src_pairs[by_jaccard])
        cut = 1.0
        if len(live):
            nth = min(int(np.searchsorted(reach, WORST_PAIRS)), len(live) - 1)
            cut = src_jaccard[by_jaccard[nth]]
        offered = []
        id_values = self.dataset.id_values
        for s in live[src_jaccard[live] >= cut].tolist():
            t_rows = node_records[src_train[s]]
            t_rows = t_rows[row_part[t_rows] == 0]
            o_rows = node_records[src_other[s]]
            o_rows = o_rows[row_part[o_rows] > 0]
            k = np.arange(min(WORST_PAIRS, len(t_rows) * len(o_rows)))
            t, o = t_rows[k // len(o_rows)], o_rows[k % len(o_rows)]
            kind = "exact" if s < len(exact) else "near"
            offered += zip(
                [-float(src_jaccard[s])] * len(k), id_values[t].tolist(), id_values[o].tolist(),
                t.tolist(), o.tolist(), [kind] * len(k),
            )
        offered.sort()
        records = self.dataset.records
        worst = tuple(
            ContaminationPair(records[t].id, records[o].id, PARTITIONS[row_part[o]], -neg_j, kind)
            for neg_j, _, _, t, o, kind in offered[:WORST_PAIRS]
        )
        return Contamination(n_pairs, worst)


def scan_duplicates(dataset: Dataset, jaccard_threshold: float = 0.8) -> DuplicateScan:
    """Full duplicate scan: exact clusters, near clusters, and counts.

    The returned scan keeps the node index and prefix-filter buckets it
    was built from, so ``scan.contamination(split)`` checks a split
    without a second build.

    Raises:
        ValueError: if the threshold is not an int or float (a bool or
            numpy bool is refused) or lies outside (0, 1].
        IdParseError: for the first dataset id ``snowflake.parse_id``
            refuses, which only a hand-built dataset can hold.
    """
    t = jaccard_threshold
    if isinstance(t, bool) or not (isinstance(t, (int, float)) and 0.0 < t <= 1.0):
        raise ValueError(f"jaccard_threshold must be a number in (0, 1], got {jaccard_threshold}")

    index = _build_nodes(dataset)
    buckets = _prefix_buckets(index, jaccard_threshold)
    node_records, id_values = index.node_records, dataset.id_values
    # each cluster's rows in id order, so its first row is the representative
    members = [node_records[node] for node in np.flatnonzero(np.diff(node_records.bounds) > 1)]
    n_exact = len(members)
    min_jaccard = [1.0] * n_exact
    components = _components(index, buckets, jaccard_threshold)
    if components:
        near = [np.concatenate([node_records[node] for node in nodes]) for nodes in components]
        near = [rows[np.argsort(id_values[rows], kind="stable")] for rows in near]
        # each component's nodes against its representative's node, which
        # scores 1.0 against itself like the exact clusters
        sizes = np.array([len(nodes) for nodes in components])
        rep_nodes = np.repeat(dataset.text_table.node[[rows[0] for rows in near]], sizes)
        jaccard = _jaccard(index, rep_nodes, np.concatenate(components))
        min_jaccard += np.minimum.reduceat(jaccard, np.cumsum(sizes) - sizes).tolist()
        members += near
    is_near = np.arange(len(members)) >= n_exact
    clusters = []
    for i in np.lexsort((id_values[[rows[0] for rows in members]], is_near)).tolist():
        ids = tuple(dataset.records[r].id for r in members[i].tolist())
        kind = "near" if i >= n_exact else "exact"
        clusters.append(DuplicateCluster(kind, ids, ids[0], min_jaccard[i]))
    exact, near = clusters[:n_exact], clusters[n_exact:]
    return DuplicateScan(
        clusters=tuple(clusters),
        n_records=len(dataset),
        n_skipped_empty=index.n_skipped_empty,
        n_exact_clusters=len(exact),
        n_near_clusters=len(near),
        n_records_in_exact=sum(c.size for c in exact),
        n_records_in_near=sum(c.size for c in near),
        jaccard_threshold=jaccard_threshold,
        dataset=dataset,
        index=index,
        buckets=buckets,
    )
