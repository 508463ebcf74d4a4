"""The ID-digit leak probe.

Trains a forest to predict a record's label from nothing but the first k
decimal digits of its id. Ids encode mint time in their high bits, so any
accuracy above the stratified-random baseline means the label is readable
off the clock: classes were collected in different time windows and a
model can exploit that instead of content.

A run works on dataset rows and label positions: one dict maps the split's
ids to rows, one ``digit_features`` call parses them, and the forest fits
and predicts once per distinct digit pattern.

The probe's score is normalized headroom above chance,
``(macro - baseline) / (1 - baseline)``, clamped at 0, so 0.0 reads as
"no temporal signal" and 1.0 as "labels fully recoverable from id alone".
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import AllIdsTooShortError, EmptySplitError, UnknownLabelError
from .forest import ForestConfig, baseline_expected_macro_f1, fit_rows
from .metrics import ConfusionMatrix, result_from_matrix
from .splits import Split, SplitSpec, random_split


# leak-score cutpoints of the human-readable verdict
NONE_BELOW = 0.05
MILD_BELOW = 0.15
MODERATE_BELOW = 0.40


def verdict(score: float) -> str:
    """Grade a leak score: none, mild, moderate or severe."""
    if score < NONE_BELOW:
        return "none"
    if score < MILD_BELOW:
        return "mild"
    if score < MODERATE_BELOW:
        return "moderate"
    return "severe"


@dataclass(frozen=True)
class IdLeakReport:
    """Outcome of one probe run (one split, one prefix length)."""

    k: int
    per_class_f1: dict[str, float]
    macro_f1: float
    baseline_macro_f1: float
    leakage_score: float
    verdict: str
    n_train: int
    n_test: int
    excluded_short_ids: int
    split_name: str = ""
    config: ForestConfig = field(default_factory=ForestConfig)

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "per_class_f1": dict(self.per_class_f1),
            "macro_f1": self.macro_f1,
            "baseline_macro_f1": self.baseline_macro_f1,
            "leakage_score": self.leakage_score,
            "verdict": self.verdict,
            "n_train": self.n_train,
            "n_test": self.n_test,
            "excluded_short_ids": self.excluded_short_ids,
            "split_name": self.split_name,
            "config": self.config.to_json_dict(),
        }


def digit_features(ids, k: int):
    """The first k digits of each id as one int64 feature row, and the list
    of positions kept. Ids shorter than k digits are excluded.

    This is the one digit rule: each id's ASCII bytes minus ``ord('0')``.

    Raises:
        ValueError: if k < 1 or an id is not a string of ASCII digits.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ids = list(ids)
    lengths = np.fromiter(map(len, ids), dtype=np.int64, count=len(ids))
    width = max(k, int(lengths.max(initial=0)))
    # a non-ASCII id fails here with UnicodeEncodeError, a ValueError
    raw = np.array(ids, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
    digits = raw - np.uint8(ord("0"))  # bytes below '0' wrap above 9
    if np.any((digits > 9) & (np.arange(width) < lengths[:, None])):
        raise ValueError("ids must be strings of ASCII digits")
    kept = np.flatnonzero(lengths >= k)
    return digits[kept, :k].astype(np.int64), kept.tolist()


def leakage_score(macro_f1: float, baseline_macro_f1: float) -> float:
    """Normalized headroom above the chance baseline, clamped to [0, 1]."""
    if baseline_macro_f1 >= 1.0:
        return 0.0
    return max(0.0, (macro_f1 - baseline_macro_f1) / (1.0 - baseline_macro_f1))


def run_id_leak_test(
    dataset: Dataset,
    split: Split,
    k: int,
    config: ForestConfig | None = None,
) -> IdLeakReport:
    """Run the probe on one split at one prefix length.

    Trains on the split's train partition, scores on its test partition;
    the dev partition plays no part. The baseline is computed from the
    same post-exclusion label counts the forest saw.

    Raises:
        EmptySplitError: if train or test has no records.
        AllIdsTooShortError: if a partition loses every id to the k-digit
            requirement.
        UnknownLabelError: if a kept record's label is outside the label set.
    """
    config = config or ForestConfig()
    label_set = dataset.label_set
    row_of_id = {r.id: row for row, r in enumerate(dataset.records)}
    train = [row_of_id[i] for i in split.train_ids if i in row_of_id]
    test = [row_of_id[i] for i in split.test_ids if i in row_of_id]
    if not train or not test:
        raise EmptySplitError(f"need non-empty train and test (got {len(train)}/{len(test)})")

    rows = np.array(train + test)
    digits, kept = digit_features([dataset.records[row].id for row in rows.tolist()], k)
    n_train = bisect_left(kept, len(train))  # kept ascends, so train comes first
    if n_train == 0 or n_train == len(kept):
        raise AllIdsTooShortError(f"every id in a partition is shorter than {k} digits")
    rows = rows[kept]
    labels = dataset.label_index[rows]
    if np.any(labels < 0):
        bad = dataset.records[rows[np.argmax(labels < 0)]].label
        raise UnknownLabelError(f"label {bad!r} not in {label_set.labels}")

    patterns, pattern_of = np.unique(digits, axis=0, return_inverse=True)
    pattern_of = pattern_of.reshape(-1)
    y, gold = labels[:n_train], labels[n_train:]
    model = fit_rows(
        patterns, pattern_of[:n_train], y, label_set, config, config.n_trees, config.bootstrap
    )
    predicted = model.predict_index(patterns)[pattern_of[n_train:]]
    result = result_from_matrix(ConfusionMatrix.from_positions(gold, predicted, label_set))

    # Counter keeps first-occurrence order, which fixes the order the
    # baseline's mean sums in, down to the last bit.
    names = label_set.labels
    baseline = baseline_expected_macro_f1(
        Counter(names[i] for i in y.tolist()), Counter(names[i] for i in gold.tolist())
    )

    score = leakage_score(result.macro_f1, baseline)
    return IdLeakReport(
        k=k,
        per_class_f1=result.per_class_f1(),
        macro_f1=result.macro_f1,
        baseline_macro_f1=baseline,
        leakage_score=score,
        verdict=verdict(score),
        n_train=n_train,
        n_test=len(kept) - n_train,
        excluded_short_ids=len(train) + len(test) - len(kept),
        split_name=split.name(),
        config=config,
    )


def _derived_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed % 2**64, index]).generate_state(1, np.uint64)[0])


def run_id_leak_suite(
    dataset: Dataset,
    k_values=(2, 3),
    split: Split | None = None,
    n_splits: int = 5,
    seed: int = 0,
    config: ForestConfig | None = None,
) -> list[IdLeakReport]:
    """Probe at several prefix lengths.

    With a canonical split given, one report per k on that split. Without
    one, generates n_splits fresh stratified 70/10/20 splits (seeded
    substreams of ``seed``) and reports every (split, k) pair, so
    downstream summaries can quote mean and spread instead of one
    arbitrary partition's luck.
    """
    reports: list[IdLeakReport] = []
    if split is not None:
        for k in k_values:
            reports.append(run_id_leak_test(dataset, split, k, config))
        return reports
    for i in range(n_splits):
        spec = SplitSpec(
            ratios=(0.7, 0.1, 0.2),
            seed=_derived_seed(seed, i),
            stratify=True,
            name=f"probe-split-{i}",
        )
        generated = random_split(dataset, spec)
        for k in k_values:
            reports.append(run_id_leak_test(dataset, generated, k, config))
    return reports


def summarize_id_leak_suite(reports) -> dict[int, dict]:
    """Per-k mean/std of macro-F1 and leak score across a suite's runs.

    Std is the sample standard deviation (ddof=1), 0.0 for a single run.
    The summary verdict grades the mean leak score.
    """
    by_k: dict[int, list[IdLeakReport]] = {}
    for report in reports:
        by_k.setdefault(report.k, []).append(report)
    out: dict[int, dict] = {}
    for k in sorted(by_k):
        macros = np.array([r.macro_f1 for r in by_k[k]])
        scores = np.array([r.leakage_score for r in by_k[k]])
        baselines = np.array([r.baseline_macro_f1 for r in by_k[k]])
        ddof = 1 if len(macros) > 1 else 0
        mean_score = float(scores.mean())
        out[k] = {
            "n_runs": len(macros),
            "macro_f1_mean": float(macros.mean()),
            "macro_f1_std": float(macros.std(ddof=ddof)),
            "baseline_mean": float(baselines.mean()),
            "leakage_mean": mean_score,
            "leakage_std": float(scores.std(ddof=ddof)),
            "verdict": verdict(mean_score),
        }
    return out
