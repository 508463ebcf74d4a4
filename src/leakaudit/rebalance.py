"""Time-randomization mitigation for id-borne temporal leakage.

When one class was collected in a different time window than the rest,
ids give the label away. The fix implemented here keeps one anchor class
untouched and re-draws every other record from a replacement pool so its
creation time matches the anchor class's time distribution: for each
non-anchor record, draw a target timestamp uniformly from the anchor
records, then take the nearest unused same-label pool record within a
window. Records with no pool match are kept as they are and counted as
rejects.

The report quantifies what changed: leak scores before and after, and the
total-variation distance between each label's daily timestamp histogram
and the anchor's, before and after.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, Record
from .errors import EmptyPoolError, NoAnchorRecordsError, UnknownLabelError
from .forest import ForestConfig
from .idleak import IdLeakReport, run_id_leak_test
from .snowflake import timestamp_histogram
from .splits import SplitSpec, random_split

DAY_MS = 86_400_000
DEFAULT_WINDOW_MS = 7 * DAY_MS


@dataclass(frozen=True)
class RebalanceReport:
    """What time_rebalance did and what it bought."""

    anchor_label: str
    window_ms: int
    n_records: int
    n_anchor: int
    n_replaced: int
    n_rejected: int
    replaced_per_label: dict[str, int]
    rejected_per_label: dict[str, int]
    pool_id_collisions: int
    mean_abs_delta_ms: float
    max_abs_delta_ms: int
    leak_before: IdLeakReport | None
    leak_after: IdLeakReport | None
    tv_before: dict[str, float] = field(default_factory=dict)
    tv_after: dict[str, float] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "anchor_label": self.anchor_label,
            "window_ms": self.window_ms,
            "n_records": self.n_records,
            "n_anchor": self.n_anchor,
            "n_replaced": self.n_replaced,
            "n_rejected": self.n_rejected,
            "replaced_per_label": dict(self.replaced_per_label),
            "rejected_per_label": dict(self.rejected_per_label),
            "pool_id_collisions": self.pool_id_collisions,
            "mean_abs_delta_ms": self.mean_abs_delta_ms,
            "max_abs_delta_ms": self.max_abs_delta_ms,
            "leak_before": None if self.leak_before is None else self.leak_before.to_json_dict(),
            "leak_after": None if self.leak_after is None else self.leak_after.to_json_dict(),
            "tv_before": dict(self.tv_before),
            "tv_after": dict(self.tv_after),
        }


class _AlivePool:
    """Sorted timestamps with O(1) removal and path-compressed
    nearest-alive lookup.

    For a dead slot j, every slot strictly between j and right[j] (or
    left[j]) is dead too. A removal only marks its slot dead. The lookups
    walk these pointers past dead slots and then point every slot they
    passed straight at the alive slot reached: path compression (Tarjan,
    JACM 1975), so a dead run is crossed once rather than on every lookup
    that lands in it, and many takes at one place stay near-linear.
    """

    def __init__(self, timestamps: list[int], records: list[Record]):
        order = sorted(range(len(timestamps)), key=lambda i: (timestamps[i], int(records[i].id)))
        self.ts = [timestamps[i] for i in order]
        self.records = [records[i] for i in order]
        n = len(order)
        self.left = list(range(-1, n - 1))
        self.right = list(range(1, n + 1))
        self.dead = [False] * n

    def _alive_at_or_right(self, j: int) -> int | None:
        n, dead, right = len(self.ts), self.dead, self.right
        end = j
        while end < n and dead[end]:
            end = right[end]
        while j != end:
            nxt = right[j]
            right[j] = end
            j = nxt
        return end if end < n else None

    def _alive_left(self, j: int) -> int | None:
        dead, left = self.dead, self.left
        end = j
        while end >= 0 and dead[end]:
            end = left[end]
        while j != end:
            nxt = left[j]
            left[j] = end
            j = nxt
        return end if end >= 0 else None

    def take_nearest(self, target: int, window_ms: int) -> Record | None:
        """Remove and return the alive record with timestamp nearest to
        target (ties to the earlier timestamp), or None when the nearest
        is farther than window_ms or the pool is empty."""
        if not self.ts:
            return None
        pos = bisect_left(self.ts, target)
        right = self._alive_at_or_right(pos)
        left = self._alive_left(pos - 1)
        best = None
        if left is not None and right is not None:
            d_left = target - self.ts[left]
            d_right = self.ts[right] - target
            best = left if d_left <= d_right else right
        elif left is not None:
            best = left
        elif right is not None:
            best = right
        if best is None or abs(self.ts[best] - target) > window_ms:
            return None
        self.dead[best] = True
        return self.records[best]


def _tv_distance(hist_a: dict[int, int], hist_b: dict[int, int]) -> float:
    """Total variation between two normalized bucket histograms."""
    total_a = sum(hist_a.values())
    total_b = sum(hist_b.values())
    if total_a == 0 or total_b == 0:
        return 1.0
    buckets = set(hist_a) | set(hist_b)
    tv = 0.5 * sum(
        abs(hist_a.get(b, 0) / total_a - hist_b.get(b, 0) / total_b) for b in buckets
    )
    # summing float probabilities can land a hair above the true bound of 1
    return min(tv, 1.0)


def _tv_per_label(dataset: Dataset, anchor_label: str, bucket_ms: int) -> dict[str, float]:
    hist = timestamp_histogram(dataset, bucket_ms)
    anchor = hist.label_marginal(anchor_label)
    return {
        label: _tv_distance(hist.label_marginal(label), anchor)
        for label in dataset.label_set
        if label != anchor_label
    }


def _leak_probe(dataset: Dataset, k: int, seed: int, config: ForestConfig | None) -> IdLeakReport:
    spec = SplitSpec(ratios=(0.7, 0.1, 0.2), seed=seed, stratify=True)
    return run_id_leak_test(dataset, random_split(dataset, spec), k, config)


def time_rebalance(
    dataset: Dataset,
    pool: Dataset,
    anchor_label: str,
    *,
    seed: int,
    window_ms: int = DEFAULT_WINDOW_MS,
    bucket_ms: int = DAY_MS,
    leak_k: int = 3,
    leak_config: ForestConfig | None = None,
    measure_leak: bool = True,
) -> tuple[Dataset, RebalanceReport]:
    """Replace non-anchor records with time-matched pool records.

    The returned dataset preserves record order and labels; only the
    records themselves (id, text, metadata) change where a replacement was
    found. Each pool record is used at most once. Pool records whose ids
    already occur in the dataset are dropped up front and counted.

    Raises:
        UnknownLabelError: anchor label outside the dataset's label set.
        NoAnchorRecordsError: no anchor record has a decodable timestamp.
        EmptyPoolError: no usable pool record for any non-anchor label.
    """
    if anchor_label not in dataset.label_set:
        raise UnknownLabelError(f"anchor label {anchor_label!r} not in label set")

    anchor_ts = np.array(
        [r.timestamp_ms for r in dataset.records if r.label == anchor_label and r.timestamp_ms],
        dtype=np.int64,
    )
    n_anchor = sum(1 for r in dataset.records if r.label == anchor_label)
    if len(anchor_ts) == 0:
        raise NoAnchorRecordsError(
            f"no {anchor_label!r} record carries a decodable timestamp"
        )

    dataset_ids = {r.id for r in dataset.records}
    pools: dict[str, tuple[list[int], list[Record]]] = {
        label: ([], []) for label in dataset.label_set if label != anchor_label
    }
    collisions = 0
    for r in pool.records:
        if r.label not in pools or r.timestamp_ms is None:
            continue
        if r.id in dataset_ids:
            collisions += 1
            continue
        pools[r.label][0].append(r.timestamp_ms)
        pools[r.label][1].append(r)
    if all(len(ts) == 0 for ts, _ in pools.values()):
        raise EmptyPoolError("pool has no usable records for any non-anchor label")
    alive = {label: _AlivePool(ts, recs) for label, (ts, recs) in pools.items()}

    leak_before = leak_after = None
    if measure_leak:
        leak_before = _leak_probe(dataset, leak_k, seed, leak_config)
    tv_before = _tv_per_label(dataset, anchor_label, bucket_ms)

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed % 2**64)))
    replaced_per_label = {label: 0 for label in dataset.label_set if label != anchor_label}
    rejected_per_label = {label: 0 for label in dataset.label_set if label != anchor_label}
    deltas: list[int] = []
    new_records: list[Record] = []
    for r in dataset.records:
        if r.label == anchor_label:
            new_records.append(r)
            continue
        target = int(anchor_ts[rng.integers(0, len(anchor_ts))])
        candidate = alive[r.label].take_nearest(target, window_ms)
        if candidate is None:
            rejected_per_label[r.label] += 1
            new_records.append(r)
            continue
        replaced_per_label[r.label] += 1
        deltas.append(abs(int(candidate.timestamp_ms) - target))
        new_records.append(candidate)

    rebalanced = Dataset(
        records=tuple(new_records),
        label_set=dataset.label_set,
        name=f"{dataset.name}-rebalanced" if dataset.name else "rebalanced",
        source_notes=dataset.source_notes,
    )
    if measure_leak:
        leak_after = _leak_probe(rebalanced, leak_k, seed, leak_config)
    tv_after = _tv_per_label(rebalanced, anchor_label, bucket_ms)

    report = RebalanceReport(
        anchor_label=anchor_label,
        window_ms=window_ms,
        n_records=len(dataset),
        n_anchor=n_anchor,
        n_replaced=sum(replaced_per_label.values()),
        n_rejected=sum(rejected_per_label.values()),
        replaced_per_label=replaced_per_label,
        rejected_per_label=rejected_per_label,
        pool_id_collisions=collisions,
        mean_abs_delta_ms=float(np.mean(deltas)) if deltas else 0.0,
        max_abs_delta_ms=int(max(deltas)) if deltas else 0,
        leak_before=leak_before,
        leak_after=leak_after,
        tv_before=tv_before,
        tv_after=tv_after,
    )
    return rebalanced, report
