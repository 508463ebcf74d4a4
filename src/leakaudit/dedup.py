"""Exact and near duplicate detection, and cross-split contamination.

Exact duplicates are records with identical normalized text (lowercased,
URLs stripped, whitespace collapsed; punctuation kept). Near duplicates
are found with vectorized MinHash over word 3-shingles plus banded LSH
(128 permutations in 32 bands of 4 rows), and a candidate pair counts
only once its true shingle Jaccard is verified. The band shape makes the
chance of missing a pair at Jaccard 0.85 about 6e-11, so recall is
limited by verification, not by the sketch.

Clusters are connected components over verified pairs, with exact groups
collapsed to one node first. Components chain, so a cluster can contain a
pair below threshold; each cluster records the minimum Jaccard of its
members against the representative to keep that visible.

Every stage is a pass over arrays, and a candidate pair that cannot
change an output is never verified:

- each distinct token is hashed once; the token hashes of a shingle are
  combined in numpy by an order-sensitive, non-linear 64-bit mixer that
  also takes the shingle's length;
- each band finds its multi-member buckets with one sort, so singleton
  buckets cost nothing;
- the scan verifies a candidate pair only when it would join two
  components, and ``DuplicateScan.contamination`` only pairs with train
  records on one side and dev/test records on the other;
- pairs are verified in bounded batches, by binary search in one sorted
  array of (node, shingle) keys.

Everything is deterministic: permutation constants come from a fixed
internal seed, and token hashes are 64-bit blake2b digests, which depend
neither on the process nor on the record order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .data import Dataset
from .splits import PARTITIONS, Split
from .textleak import strip_urls

NUM_PERMUTATIONS = 128
LSH_BANDS = 32
LSH_ROWS = NUM_PERMUTATIONS // LSH_BANDS
SHINGLE_SIZE = 3
WORST_PAIRS = 25  # contamination pairs that are built in full
_PERM_SEED = 0x5EEDED
_BAND_MIX = np.uint64(0x9E3779B97F4A7C15)
_BATCH = 1 << 18  # shingle lookups or pairs one verification or expansion pass holds at most


def normalize_text(text: str) -> str:
    """Lowercase, strip URLs, collapse whitespace. Empty result means the
    record has no usable text."""
    return " ".join(strip_urls(text.lower()).split())


def _token_hash(token: str) -> int:
    return int.from_bytes(hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest(), "big")


class _TokenHashes(dict):
    """token -> _token_hash(token), hashing each distinct token once."""

    def __missing__(self, token: str) -> int:
        value = self[token] = _token_hash(token)
        return value


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer: a non-linear bijection of uint64."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _ragged_arange(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenation of arange(s, s + c) over the pairs (s, c)."""
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(int(counts.sum()))


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """np.unique(values), which on large arrays is much slower than a sort."""
    values = np.sort(values)
    return np.concatenate((values[:1], values[1:][values[1:] != values[:-1]]))


def _shingle_array(token_hashes: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The hash of every shingle of some texts, and the text it belongs to.

    The texts' tokens lie end to end in token_hashes, lengths[i] >= 1 of
    them for text i. A text shorter than SHINGLE_SIZE is one whole-text
    shingle. A shingle's hash starts from its length and mixes in its
    tokens in order, so "a b c" and "c b a" differ, and a two-token text
    does not systematically meet a three-token shingle.
    """
    per_text = np.maximum(lengths - (SHINGLE_SIZE - 1), 1)
    owner = np.repeat(np.arange(len(lengths)), per_text)
    first = _ragged_arange(np.cumsum(lengths) - lengths, per_text)
    size = np.minimum(lengths, SHINGLE_SIZE)[owner]
    padded = np.concatenate((token_hashes, np.zeros(SHINGLE_SIZE - 1, dtype=np.uint64)))
    hashes = _mix(size.astype(np.uint64))
    for k in range(SHINGLE_SIZE):
        hashes = np.where(size > k, _mix(hashes ^ padded[first + k]), hashes)
    return hashes, owner


def shingle_hashes(tokens: Sequence[str]) -> list[int]:
    """Sorted distinct 64-bit hashes of the token n-gram shingles.

    Texts shorter than the shingle size degenerate to one whole-text
    shingle, so very short tweets still compare (but only exact-ish token
    matches reach Jaccard 1). Empty token lists give no shingles.
    """
    if not tokens:
        return []
    token_hashes = np.fromiter(map(_token_hash, tokens), dtype=np.uint64, count=len(tokens))
    hashes, _ = _shingle_array(token_hashes, np.array([len(tokens)]))
    return np.unique(hashes).tolist()


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


@dataclass
class _NodeIndex:
    """Distinct normalized texts (nodes), their dataset rows and shingles.

    node_records lists each node's dataset rows in dataset order; record
    ids are read off the rows only where clusters and pairs are built.
    keys holds node * len(hashes) + shingle id for each distinct shingle
    of each node, sorted, so node i's shingles are keys[starts[i] :
    starts[i + 1]] and one binary search tells whether a node has a given
    shingle. hashes maps a shingle id to its 64-bit hash.
    """

    node_records: list[list[int]]
    keys: np.ndarray
    starts: np.ndarray
    hashes: np.ndarray
    n_skipped_empty: int


def _build_nodes(dataset: Dataset) -> _NodeIndex:
    node_of_text: dict[str, int] = {}
    node_records: list[list[int]] = []
    skipped = 0
    for row, record in enumerate(dataset.records):
        normalized = normalize_text(record.text)
        if not normalized:
            skipped += 1
            continue
        node = node_of_text.get(normalized)
        if node is None:
            node = node_of_text[normalized] = len(node_records)
            node_records.append([])
        node_records[node].append(row)

    texts = list(node_of_text)
    lengths = np.fromiter((t.count(" ") + 1 for t in texts), dtype=np.int64, count=len(texts))
    token_hashes = np.fromiter(
        map(_TokenHashes().__getitem__, chain.from_iterable(map(str.split, texts))),
        dtype=np.uint64,
        count=int(lengths.sum()),
    )
    shingles, owner = _shingle_array(token_hashes, lengths)
    hashes, shingle_ids = np.unique(shingles, return_inverse=True)
    keys = _sorted_unique(owner * len(hashes) + shingle_ids)
    starts = np.searchsorted(keys, np.arange(len(texts) + 1) * len(hashes))
    return _NodeIndex(node_records, keys, starts, hashes, skipped)


def _batches(weights: np.ndarray) -> Iterable[tuple[int, int]]:
    """Cut positions into runs (lo, hi) whose weights sum to at most
    _BATCH; a single heavier position runs alone. This bounds the memory
    of one pass."""
    ends = np.cumsum(weights)
    lo = 0
    while lo < len(weights):
        base = ends[lo - 1] if lo else 0
        hi = max(int(np.searchsorted(ends, base + _BATCH, side="right")), lo + 1)
        yield lo, hi
        lo = hi


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
    for lo, hi in _batches(n_small):
        count = n_small[lo:hi]
        shift = np.repeat((large[lo:hi] - small[lo:hi]) * len(index.hashes), count)
        query = index.keys[_ragged_arange(index.starts[small[lo:hi]], count)] + shift
        found = index.keys[np.minimum(np.searchsorted(index.keys, query), last)] == query
        inter[lo:hi] = np.add.reduceat(found.astype(np.int64), np.cumsum(count) - count)
    return inter / (size_a + size_b - inter)


def _lsh_buckets(index: _NodeIndex) -> tuple[np.ndarray, np.ndarray]:
    """The LSH buckets with two or more nodes, as rows (bucket, node).

    A bucket's rows are adjacent, in bucket order, and ordered by pivot
    priority: nodes that share buckets with more nodes first, so the post
    that a family of near copies was edited from leads its buckets. Each
    band's MinHash rows are computed, keyed and sorted on their own, so the
    signature matrix is never held whole.
    """
    n = len(index.starts) - 1
    if n < 2:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(_PERM_SEED)))
    # multiply-shift family: odd multiplier, arbitrary offset, mod 2**64
    mul = rng.integers(0, 2**63, size=NUM_PERMUTATIONS, dtype=np.uint64)
    mul = (mul << np.uint64(1)) | np.uint64(1)
    add = rng.integers(0, 2**64, size=NUM_PERMUTATIONS, dtype=np.uint64)
    values = index.hashes[index.keys % len(index.hashes)]
    segments = index.starts[:-1]
    buckets, nodes, n_buckets = [], [], 0
    for band in range(LSH_BANDS):
        key = np.zeros(n, dtype=np.uint64)
        for p in range(band * LSH_ROWS, (band + 1) * LSH_ROWS):
            # uint64 wraparound is the point
            row = np.minimum.reduceat(mul[p] * values + add[p], segments)
            key = (key ^ row) * _BAND_MIX + np.uint64(band)
        ordered = np.sort(key)
        shared_keys = _sorted_unique(ordered[1:][ordered[1:] == ordered[:-1]])
        if len(shared_keys):
            bucket = np.minimum(np.searchsorted(shared_keys, key), len(shared_keys) - 1)
            shared = np.flatnonzero(shared_keys[bucket] == key)
            buckets.append(bucket[shared] + n_buckets)
            nodes.append(shared)
            n_buckets += len(shared_keys)
    if not buckets:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    bucket, node = np.concatenate(buckets), np.concatenate(nodes)
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
        pairs = _sorted_unique(np.minimum(a, b) * len(nodes) + np.maximum(a, b))
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
    their rows and shingles) and buckets (the LSH buckets of two or more
    nodes, as (bucket, node) rows) let ``contamination`` check a split of
    that dataset without a second build. The scan keeps no list of verified
    edges: it verifies a candidate pair only when the pair would join two
    components, so most candidate pairs are never verified.
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
        n = len(node_records)
        node_of = np.repeat(np.arange(n), np.fromiter(map(len, node_records), np.int64, count=n))
        rows = np.fromiter(chain.from_iterable(node_records), np.int64, count=len(node_of))
        n_train = np.bincount(node_of[row_part[rows] == 0], minlength=n)
        n_other = np.bincount(node_of[row_part[rows] > 0], minlength=n)
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
        for lo, hi in _batches(count):
            x = np.repeat(train_node[lo:hi], count[lo:hi])
            y = other_node[_ragged_arange(first[lo:hi], count[lo:hi])]
            apart = x != y
            x, y = x[apart], y[apart]
            pairs = _sorted_unique(np.concatenate((pairs, np.minimum(x, y) * n + np.maximum(x, y))))
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
        records, codes = self.dataset.records, row_part.tolist()
        for s in live[src_jaccard[live] >= cut].tolist():
            j = float(src_jaccard[s])
            kind = "exact" if s < len(exact) else "near"
            t_rows = node_records[int(src_train[s])]
            o_rows = node_records[int(src_other[s])]
            t_ids = sorted((records[r].id for r in t_rows if codes[r] == 0), key=int)
            o_ids = sorted(
                ((records[r].id, PARTITIONS[codes[r]]) for r in o_rows if codes[r] > 0),
                key=lambda p: int(p[0]),
            )
            for k in range(min(WORST_PAIRS, len(t_ids) * len(o_ids))):
                t_id, (o_id, part) = t_ids[k // len(o_ids)], o_ids[k % len(o_ids)]
                offered.append((-j, int(t_id), int(o_id), t_id, o_id, part, kind))
        offered.sort()
        worst = tuple(
            ContaminationPair(t_id, o_id, part, -neg_j, kind)
            for neg_j, _, _, t_id, o_id, part, kind in offered[:WORST_PAIRS]
        )
        return Contamination(n_pairs, worst)


def scan_duplicates(dataset: Dataset, jaccard_threshold: float = 0.8) -> DuplicateScan:
    """Full duplicate scan: exact clusters, near clusters, and counts.

    The returned scan keeps the node index and LSH buckets it was built
    from, so ``scan.contamination(split)`` checks a split without a second
    build.

    Raises:
        ValueError: if the threshold is outside (0, 1].
    """
    if not 0.0 < jaccard_threshold <= 1.0:
        raise ValueError(f"jaccard_threshold must be in (0, 1], got {jaccard_threshold}")

    index = _build_nodes(dataset)
    buckets = _lsh_buckets(index)
    records = dataset.records

    def members(nodes) -> list[tuple[str, int]]:
        """(id, node) of each record of ``nodes``, in numeric id order; the
        first is the representative."""
        owned = ((records[r].id, node) for node in nodes for r in index.node_records[node])
        return sorted(owned, key=lambda pair: int(pair[0]))

    def cluster(kind: str, owned: list[tuple[str, int]], min_jaccard: float) -> DuplicateCluster:
        return DuplicateCluster(kind, tuple(rid for rid, _ in owned), owned[0][0], min_jaccard)

    clusters = [
        cluster("exact", members([node]), 1.0)
        for node, rows in enumerate(index.node_records)
        if len(rows) > 1
    ]
    components = _components(index, buckets, jaccard_threshold)
    if components:
        near_members = [members(nodes.tolist()) for nodes in components]
        # each component's nodes against its representative's node, which
        # scores 1.0 against itself like the exact clusters
        sizes = np.array([len(nodes) for nodes in components])
        rep_nodes = np.repeat([owned[0][1] for owned in near_members], sizes)
        jaccard = _jaccard(index, rep_nodes, np.concatenate(components))
        min_jaccard = np.minimum.reduceat(jaccard, np.cumsum(sizes) - sizes).tolist()
        clusters += [cluster("near", owned, j) for owned, j in zip(near_members, min_jaccard)]
    clusters.sort(key=lambda c: (c.kind, int(c.representative_id)))
    exact = [c for c in clusters if c.kind == "exact"]
    near = [c for c in clusters if c.kind == "near"]
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
