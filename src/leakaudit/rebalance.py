"""Time-randomization mitigation for id-borne temporal leakage.

When one class was collected in a different time window than the rest,
ids give the label away. The fix implemented here keeps one anchor class
untouched and re-draws every other record from a replacement pool so its
creation time matches the anchor class's time distribution: for each
non-anchor record, draw a target timestamp uniformly from the anchor
records, then take the nearest unused same-label pool record within a
window. Records with no pool match are kept as they are and counted as
rejects. Labels match as label-set positions, and the matching tracks
dataset and pool rows; the output gathers its columns from the dataset's
and the pool's, so no id is parsed and no label encoded again.

The report quantifies what changed: leak scores before and after, and the
total-variation distance between each label's daily timestamp histogram
and the anchor's, before and after. Both leak scores come from one probe
made after matching: one split of the input serves both datasets, and one
``fit_rows`` call grows both forests.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import Dataset
from .errors import EmptyPoolError, NoAnchorRecordsError, UnknownLabelError
from .forest import ForestConfig
from .idleak import IdLeakReport, _probe_runs
from .snowflake import timestamp_histogram
from .splits import SplitSpec, _rng, make_split

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
        return asdict(self)


class _AlivePool:
    """One label's pool rows sorted by timestamp, with O(1) removal and
    path-compressed nearest-alive lookup.

    For a dead slot j, every slot strictly between j and right[j] (or
    left[j]) is dead too. A removal only marks its slot dead. The lookups
    walk these pointers past dead slots and then point every slot they
    passed straight at the alive slot reached: path compression (Tarjan,
    JACM 1975), so a dead run is crossed once rather than on every lookup
    that lands in it, and many takes at one place stay near-linear.
    """

    def __init__(self, timestamps: list[int], rows: np.ndarray):
        """``timestamps`` in ascending order, their pool rows in the same order."""
        # slots 0 and n + 1 are sentinels that never die and are never in a
        # window, so slot j holds rows[j - 1]
        self.ts = [-float("inf"), *timestamps, float("inf")]
        self.rows = rows
        self.left = list(range(-1, len(self.ts) - 1))
        self.right = list(range(1, len(self.ts) + 1))
        self.dead = [False] * len(self.ts)

    def _alive(self, step: list[int], j: int) -> int:
        """The first alive slot from j on along step (left or right)."""
        dead = self.dead
        end = j
        while dead[end]:
            end = step[end]
        while j != end:
            step[j], j = end, step[j]
        return end

    def take_nearest(self, target: int, window_ms: int) -> tuple[int, int] | None:
        """Remove the alive row with timestamp nearest to target (ties to
        the earlier timestamp) and return it with its timestamp, or None
        when the nearest is farther than window_ms or the pool is empty."""
        pos = bisect_left(self.ts, target)
        right = self._alive(self.right, pos)
        left = self._alive(self.left, pos - 1)
        best = left if target - self.ts[left] <= self.ts[right] - target else right
        if abs(self.ts[best] - target) > window_ms:
            return None
        self.dead[best] = True
        return self.rows[best - 1], self.ts[best]


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


def _tv_per_label(dataset: Dataset, anchor_label: str) -> dict[str, float]:
    hist = timestamp_histogram(dataset, DAY_MS)
    anchor = hist.label_marginal(anchor_label)
    return {
        label: _tv_distance(hist.label_marginal(label), anchor)
        for label in dataset.label_set
        if label != anchor_label
    }


def _leak_probe(dataset: Dataset, rebalanced: Dataset, seed: int) -> list[IdLeakReport]:
    """The k=3 id probe with default forest settings of the input and of its
    rebalanced copy on one 70/10/20 split of the input: rebalancing keeps
    each row's label, and a stratified split reads only labels and seed."""
    split = make_split(dataset, SplitSpec(ratios=(0.7, 0.1, 0.2), seed=seed, stratify=True))
    return _probe_runs([(dataset, split), (rebalanced, split)], (3,), ForestConfig())


def time_rebalance(
    dataset: Dataset,
    pool: Dataset,
    anchor_label: str,
    *,
    seed: int,
    window_ms: int = DEFAULT_WINDOW_MS,
    measure_leak: bool = True,
) -> tuple[Dataset, RebalanceReport]:
    """Replace non-anchor records with time-matched pool records.

    The returned dataset preserves record order and labels; only the
    records themselves (id, text, metadata) change where a replacement was
    found. Each pool record is used at most once. Pool records whose ids
    already occur in the dataset are dropped up front and counted.

    Raises:
        ValueError: seed is not an int, or window_ms is not an int >= 1
            (a bool or numpy integer is refused for either).
        UnknownLabelError: anchor or record label outside the dataset's label set.
        NoAnchorRecordsError: no anchor record has a decodable timestamp.
        EmptyPoolError: no usable pool record for any non-anchor label.
    """
    if type(seed) is not int:
        raise ValueError(f"seed must be an int, got {seed!r}")
    # a bool would read as 0 or 1, and a float would not fit the report schema
    if type(window_ms) is not int or window_ms < 1:
        raise ValueError(f"window_ms must be an int >= 1, got {window_ms!r}")
    if anchor_label not in dataset.label_set:
        raise UnknownLabelError(f"anchor label {anchor_label!r} not in label set")
    labels, label_of = dataset.label_set, dataset.label_index
    if np.any(label_of < 0):  # index raises UnknownLabelError for the first unknown label
        labels.index(dataset.records[int(np.argmax(label_of < 0))].label)

    anchor = labels.index(anchor_label)
    is_anchor = label_of == anchor
    anchor_ts = dataset.timestamps[is_anchor & (dataset.timestamps >= 0)]
    n_anchor = int(np.count_nonzero(is_anchor))
    if len(anchor_ts) == 0:
        raise NoAnchorRecordsError(
            f"no {anchor_label!r} record carries a decodable timestamp"
        )

    # each pool row's position in the dataset's label set, -1 outside it;
    # the appended -1 is where a pool label_index of -1 lands
    pool_label = np.append(labels.encode(pool.label_set), -1)[pool.label_index]
    usable = (pool_label >= 0) & (pool_label != anchor) & (pool.timestamps >= 0)
    # exact membership: an id's insertion points differ where the dataset holds it
    known, ids = np.sort(dataset.id_values), pool.id_values
    collides = np.searchsorted(known, ids, "left") < np.searchsorted(known, ids, "right")
    collisions = int(np.count_nonzero(usable & collides))
    rows = np.flatnonzero(usable & ~collides)
    # by label, then in time order, ids breaking ties, so each label's pool comes out sorted
    rows = rows[np.lexsort((pool.id_values[rows], pool.timestamps[rows], pool_label[rows]))]
    if len(rows) == 0:
        raise EmptyPoolError("pool has no usable records for any non-anchor label")
    ends = np.cumsum(np.bincount(pool_label[rows], minlength=len(labels)))[:-1]
    alive = [_AlivePool(pool.timestamps[part].tolist(), part) for part in np.split(rows, ends)]

    tv_before = _tv_per_label(dataset, anchor_label)

    rng = _rng(seed)
    # one draw per non-anchor record, in record order: the same stream as
    # drawing them one at a time
    targets = anchor_ts[rng.integers(0, len(anchor_ts), size=len(dataset) - n_anchor)].tolist()
    non_anchor = np.flatnonzero(~is_anchor)
    # the pool row that replaced each dataset row, -1 for none
    replacement = np.full(len(dataset), -1, dtype=np.int64)
    deltas: list[int] = []
    for i, label, target in zip(non_anchor.tolist(), label_of[non_anchor].tolist(), targets):
        taken = alive[label].take_nearest(target, window_ms)
        if taken is not None:
            replacement[i], ts = taken
            deltas.append(abs(ts - target))
    del targets  # free the targets before the probe
    replaced = replacement >= 0
    n_replaced = np.bincount(label_of[replaced], minlength=len(labels)).tolist()
    n_rejected = np.bincount(label_of[~replaced & ~is_anchor], minlength=len(labels)).tolist()
    replaced_per_label = {label: n_replaced[i] for i, label in enumerate(labels) if i != anchor}
    rejected_per_label = {label: n_rejected[i] for i, label in enumerate(labels) if i != anchor}
    rebalanced = dataset.with_rows_from(
        pool, replacement, pool_label,
        f"{dataset.name}-rebalanced" if dataset.name else "rebalanced",
    )
    leak_before = leak_after = None
    if measure_leak:
        leak_before, leak_after = _leak_probe(dataset, rebalanced, seed)
    tv_after = _tv_per_label(rebalanced, anchor_label)

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
