"""Exact and near duplicate detection, and cross-split contamination.

Exact duplicates are records with identical normalized text (lowercased,
URLs stripped, whitespace collapsed; punctuation kept). Near duplicates
are found with vectorized MinHash over word 3-shingles plus banded LSH
(128 permutations in 32 bands of 4 rows), then every candidate pair is
verified against the true shingle Jaccard before it counts. The band
shape makes the chance of missing a pair at Jaccard 0.85 about 6e-11, so
recall is limited by verification, not by the sketch.

Clusters are connected components over verified pairs, with exact groups
collapsed to one node first. Components chain, so a cluster can contain a
pair below threshold; each cluster records the minimum Jaccard of its
members against the representative to keep that visible.

Everything is deterministic: permutation constants come from a fixed
internal seed, and shingle hashes are stable 64-bit blake2b digests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .data import Dataset
from .splits import Split
from .textleak import URL_RE

NUM_PERMUTATIONS = 128
LSH_BANDS = 32
LSH_ROWS = NUM_PERMUTATIONS // LSH_BANDS
SHINGLE_SIZE = 3
_PERM_SEED = 0x5EEDED


def normalize_text(text: str) -> str:
    """Lowercase, strip URLs, collapse whitespace. Empty result means the
    record has no usable text."""
    return " ".join(URL_RE.sub(" ", text.lower()).split())


def _hash_shingle(shingle: str) -> int:
    return int.from_bytes(hashlib.blake2b(shingle.encode("utf-8"), digest_size=8).digest(), "big")


def shingle_hashes(tokens: Sequence[str], _memo: dict | None = None) -> list[int]:
    """Sorted distinct 64-bit hashes of the token n-gram shingles.

    Texts shorter than the shingle size degenerate to one whole-text
    shingle, so very short tweets still compare (but only exact-ish token
    matches reach Jaccard 1). Empty token lists give no shingles.
    """
    if not tokens:
        return []
    if len(tokens) < SHINGLE_SIZE:
        grams = [" ".join(tokens)]
    else:
        grams = [
            " ".join(tokens[i : i + SHINGLE_SIZE])
            for i in range(len(tokens) - SHINGLE_SIZE + 1)
        ]
    if _memo is None:
        hashes = {_hash_shingle(g) for g in grams}
    else:
        hashes = set()
        for g in grams:
            h = _memo.get(g)
            if h is None:
                h = _memo[g] = _hash_shingle(g)
            hashes.add(h)
    return sorted(hashes)


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
class DuplicateScan:
    """Duplicate clusters plus the bookkeeping the audit report wants.

    node_records (record ids per distinct normalized text) and edges
    (node_a, node_b, jaccard) are the index the clusters came from.
    """

    clusters: tuple[DuplicateCluster, ...]
    n_records: int
    n_skipped_empty: int
    n_exact_clusters: int
    n_near_clusters: int
    n_records_in_exact: int
    n_records_in_near: int
    jaccard_threshold: float
    node_records: list[list[str]] = field(repr=False, compare=False)
    edges: list[tuple[int, int, float]] = field(repr=False, compare=False)

    def contamination(self, split: Split) -> list[ContaminationPair]:
        """Duplicate pairs spanning train x test or train x dev, sorted by
        Jaccard descending (exact pairs first at 1.0), then by ids."""
        part_of = split.partition_of()

        def sides(ids: list[str]) -> tuple[list[str], list[tuple[str, str]]]:
            train, other = [], []
            for rid in ids:
                part = part_of.get(rid)
                if part == "train":
                    train.append(rid)
                elif part in ("test", "dev"):
                    other.append((rid, part))
            return train, other

        pairs: list[ContaminationPair] = []

        def emit(train: list[str], other: list[tuple[str, str]], jaccard: float, kind: str) -> None:
            pairs.extend(
                ContaminationPair(t, o, part, jaccard, kind) for t in train for o, part in other
            )

        for records in self.node_records:
            if len(records) >= 2:
                emit(*sides(records), 1.0, "exact")
        for a, b, j in self.edges:
            train_a, other_a = sides(self.node_records[a])
            train_b, other_b = sides(self.node_records[b])
            emit(train_a, other_b, j, "near")
            emit(train_b, other_a, j, "near")
        pairs.sort(key=lambda p: (-p.jaccard, int(p.train_id), int(p.other_id)))
        return pairs


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def _sorted_ids(ids: Iterable[str]) -> tuple[str, ...]:
    return tuple(sorted(ids, key=int))


def _minhash_signatures(flat: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """(n_nodes, NUM_PERMUTATIONS) uint64 signature matrix over concatenated
    per-node shingle-hash segments."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(_PERM_SEED)))
    # multiply-shift family: odd multiplier, arbitrary offset, mod 2**64
    a = rng.integers(0, 2**63, size=NUM_PERMUTATIONS, dtype=np.uint64)
    a = (a << np.uint64(1)) | np.uint64(1)
    b = rng.integers(0, 2**64, size=NUM_PERMUTATIONS, dtype=np.uint64)
    sig = np.empty((len(starts), NUM_PERMUTATIONS), dtype=np.uint64)
    for p in range(NUM_PERMUTATIONS):
        values = a[p] * flat + b[p]  # uint64 wraparound is the point
        sig[:, p] = np.minimum.reduceat(values, starts)
    return sig


def _band_candidate_pairs(sig: np.ndarray) -> set[tuple[int, int]]:
    """Node pairs sharing at least one LSH band bucket."""
    n = sig.shape[0]
    candidates: set[tuple[int, int]] = set()
    mix_a = np.uint64(0x9E3779B97F4A7C15)
    for band in range(LSH_BANDS):
        cols = sig[:, band * LSH_ROWS : (band + 1) * LSH_ROWS]
        key = np.zeros(n, dtype=np.uint64)
        for r in range(LSH_ROWS):
            key = (key ^ cols[:, r]) * mix_a + np.uint64(band)
        order = np.argsort(key, kind="stable")
        sorted_keys = key[order]
        boundaries = np.nonzero(np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1])))[0]
        ends = np.concatenate((boundaries[1:], [n]))
        for lo, hi in zip(boundaries, ends):
            if hi - lo < 2:
                continue
            bucket = np.sort(order[lo:hi])
            for i in range(len(bucket)):
                for j in range(i + 1, len(bucket)):
                    candidates.add((int(bucket[i]), int(bucket[j])))
    return candidates


def _intersection_size(s1: np.ndarray, s2: np.ndarray) -> int:
    if len(s1) > len(s2):
        s1, s2 = s2, s1
    pos = np.searchsorted(s2, s1)
    pos[pos >= len(s2)] = len(s2) - 1
    return int((s2[pos] == s1).sum())


def _jaccard(s1: np.ndarray, s2: np.ndarray) -> float:
    if len(s1) == 0 or len(s2) == 0:
        return 0.0
    inter = _intersection_size(s1, s2)
    union = len(s1) + len(s2) - inter
    return inter / union


@dataclass
class _NodeIndex:
    """Distinct normalized texts with their record memberships and
    shingle-hash segments."""

    node_records: list[list[str]]  # record ids per node
    flat: np.ndarray  # concatenated sorted shingle hashes
    starts: np.ndarray  # segment starts for nodes with shingles
    node_with_shingles: np.ndarray  # node index per segment
    segments: dict[int, tuple[int, int]]  # node -> (start, end) into flat
    n_skipped_empty: int


def _build_nodes(dataset: Dataset) -> _NodeIndex:
    node_of_text: dict[str, int] = {}
    node_records: list[list[str]] = []
    node_tokens: list[list[str]] = []
    skipped = 0
    for record in dataset.records:
        normalized = normalize_text(record.text)
        if not normalized:
            skipped += 1
            continue
        node = node_of_text.get(normalized)
        if node is None:
            node = len(node_records)
            node_of_text[normalized] = node
            node_records.append([])
            node_tokens.append(normalized.split(" "))
        node_records[node].append(record.id)

    memo: dict[str, int] = {}
    flat_parts: list[list[int]] = []
    starts: list[int] = []
    node_with_shingles: list[int] = []
    segments: dict[int, tuple[int, int]] = {}
    cursor = 0
    for node, tokens in enumerate(node_tokens):
        hashes = shingle_hashes(tokens, memo)
        if not hashes:
            continue
        flat_parts.append(hashes)
        starts.append(cursor)
        node_with_shingles.append(node)
        segments[node] = (cursor, cursor + len(hashes))
        cursor += len(hashes)

    flat = (
        np.concatenate([np.asarray(part, dtype=np.uint64) for part in flat_parts])
        if flat_parts
        else np.empty(0, dtype=np.uint64)
    )
    return _NodeIndex(
        node_records=node_records,
        flat=flat,
        starts=np.asarray(starts, dtype=np.int64),
        node_with_shingles=np.asarray(node_with_shingles, dtype=np.int64),
        segments=segments,
        n_skipped_empty=skipped,
    )


def _verified_edges(index: _NodeIndex, jaccard_threshold: float) -> list[tuple[int, int, float]]:
    """(node_a, node_b, jaccard) for every verified near-duplicate pair."""
    if len(index.starts) < 2:
        return []
    sig = _minhash_signatures(index.flat, index.starts)
    candidates = _band_candidate_pairs(sig)
    edges: list[tuple[int, int, float]] = []
    for si, sj in sorted(candidates):
        node_i = int(index.node_with_shingles[si])
        node_j = int(index.node_with_shingles[sj])
        lo_i, hi_i = index.segments[node_i]
        lo_j, hi_j = index.segments[node_j]
        j = _jaccard(index.flat[lo_i:hi_i], index.flat[lo_j:hi_j])
        if j >= jaccard_threshold:
            edges.append((node_i, node_j, j))
    return edges


def scan_duplicates(dataset: Dataset, jaccard_threshold: float = 0.8) -> DuplicateScan:
    """Full duplicate scan: exact clusters, near clusters, and counts.

    The returned scan keeps the node index and verified edges it was built
    from, so ``scan.contamination(split)`` checks a split without a second
    build.

    Raises:
        ValueError: if the threshold is outside (0, 1].
    """
    if not 0.0 < jaccard_threshold <= 1.0:
        raise ValueError(f"jaccard_threshold must be in (0, 1], got {jaccard_threshold}")

    index = _build_nodes(dataset)
    clusters: list[DuplicateCluster] = []

    for records in index.node_records:
        if len(records) >= 2:
            members = _sorted_ids(records)
            clusters.append(
                DuplicateCluster(
                    kind="exact",
                    member_ids=members,
                    representative_id=members[0],
                    min_jaccard_to_representative=1.0,
                )
            )

    edges = _verified_edges(index, jaccard_threshold)
    uf = _UnionFind(len(index.node_records))
    for a, b, _ in edges:
        uf.union(a, b)
    components: dict[int, list[int]] = {}
    for node in range(len(index.node_records)):
        components.setdefault(uf.find(node), []).append(node)

    for nodes in components.values():
        if len(nodes) < 2:
            continue
        members = _sorted_ids(rid for node in nodes for rid in index.node_records[node])
        rep = members[0]
        rep_node = next(n for n in nodes if rep in index.node_records[n])
        rep_seg = index.segments.get(rep_node)
        min_j = 1.0
        for node in nodes:
            if node == rep_node:
                continue
            seg = index.segments.get(node)
            if rep_seg is None or seg is None:
                min_j = 0.0
                continue
            j = _jaccard(
                index.flat[rep_seg[0] : rep_seg[1]], index.flat[seg[0] : seg[1]]
            )
            min_j = min(min_j, j)
        clusters.append(
            DuplicateCluster(
                kind="near",
                member_ids=members,
                representative_id=rep,
                min_jaccard_to_representative=min_j,
            )
        )

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
        node_records=index.node_records,
        edges=edges,
    )
