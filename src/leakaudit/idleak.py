"""The ID-digit leak probe.

Trains a forest to predict a record's label from nothing but the first k
decimal digits of its id. Ids encode mint time in their high bits, so any
accuracy above the stratified-random baseline means the label is readable
off the clock: classes were collected in different time windows and a
model can exploit that instead of content.

The caller owns the splits: ``probe_splits`` makes the audit's generated
ones, and ``run_id_leak_suite`` scores the splits it is given, so every
other check can run on the same partitions. The suite reads each split's
train and test dataset positions directly, and for each distinct k parses
every dataset id once into a pattern table: the distinct k-digit prefixes
and each row's pattern (-1 for an id shorter than k). Every run is checked
before any forest grows, so errors come in report order. Then, for each
k, one ``fit_rows`` call fits the forests of all splits together on the
table's train patterns (stratified splits share their size, so they share
each tree's bootstrap draw and feature orders), and each (split, k) run
predicts each table pattern once with its forest.

The probe's score is normalized headroom above chance,
``(macro - baseline) / (1 - baseline)``, clamped at 0, so 0.0 reads as
"no temporal signal" and 1.0 as "labels fully recoverable from id alone".
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .data import Dataset
from .errors import AllIdsTooShortError, EmptySplitError, UnknownLabelError
from .forest import ForestConfig, baseline_expected_macro_f1, fit_rows
from .metrics import ConfusionMatrix, result_from_matrix
from .splits import Split, SplitSpec, make_split


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
        return asdict(self)


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
        ValueError: for a split of another dataset, k < 1, or a dataset id,
            in the split or not, that is not a string of ASCII digits.
    """
    if split.dataset is not dataset:
        raise ValueError("the split was made from another dataset")
    return run_id_leak_suite([split], (k,), config)[0]


def _kept(dataset, rows, n_listed, k, pattern_of):
    """The patterns and label positions of a run's rows with a k-digit
    prefix, and how many of them are train. ``rows`` are the split's train
    then test dataset rows, the first ``n_listed`` of them train."""
    kept = pattern_of[rows] >= 0
    n_train = int(np.count_nonzero(kept[:n_listed]))
    kept_rows = rows[kept]
    if n_train == 0 or n_train == len(kept_rows):
        raise AllIdsTooShortError(f"every id in a partition is shorter than {k} digits")
    labels = dataset.label_index[kept_rows]
    if np.any(labels < 0):
        bad = dataset.records[kept_rows[np.argmax(labels < 0)]].label
        raise UnknownLabelError(f"label {bad!r} not in {dataset.label_set.labels}")
    return pattern_of[kept_rows], labels, n_train


def _label_counts(positions: np.ndarray, names) -> dict[str, int]:
    """Count of each label present, keyed by name in first-occurrence order.
    That order fixes the order the baseline's mean sums in, down to the
    last bit."""
    present, first = np.unique(positions, return_index=True)
    counts = np.bincount(positions, minlength=len(names))
    return {names[i]: int(counts[i]) for i in present[np.argsort(first)].tolist()}


def _report(name, k, model, table, patterns, labels, n_train, n_listed, label_set, config):
    """Score one (split, k) run's model on its test rows."""
    y, gold = labels[:n_train], labels[n_train:]
    predicted = model.predict_index(table)[patterns[n_train:]]
    result = result_from_matrix(ConfusionMatrix.from_positions(gold, predicted, label_set))
    baseline = baseline_expected_macro_f1(
        _label_counts(y, label_set.labels), _label_counts(gold, label_set.labels)
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
        n_test=len(labels) - n_train,
        excluded_short_ids=n_listed - len(labels),
        split_name=name,
        config=config,
    )


def _pattern_table(ids: list[str], k: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct k-digit prefixes of ``ids`` in ``np.unique(axis=0)``
    order, and each id's row in that table (-1 for an id shorter than k)."""
    digits, kept = digit_features(ids, k)
    table, inverse = np.unique(digits, axis=0, return_inverse=True)
    pattern_of = np.full(len(ids), -1, dtype=np.int64)
    pattern_of[kept] = inverse.reshape(-1)
    return table, pattern_of


def _derived_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed % 2**64, index]).generate_state(1, np.uint64)[0])


def probe_splits(dataset: Dataset, n_splits: int = 5, seed: int = 0) -> list[Split]:
    """The audit's generated splits: ``n_splits`` stratified 70/10/20
    splits named ``probe-split-{i}``, each seeded by its own substream of
    ``seed``, so summaries can quote mean and spread instead of one
    arbitrary partition's luck."""
    return [
        make_split(dataset, SplitSpec(ratios=(0.7, 0.1, 0.2), seed=_derived_seed(seed, i),
                                      stratify=True, name=f"probe-split-{i}"))
        for i in range(n_splits)
    ]


def run_id_leak_suite(
    splits: list[Split],
    k_values=(2, 3),
    config: ForestConfig | None = None,
) -> list[IdLeakReport]:
    """Probe each split at several prefix lengths: one report per (split,
    k) pair, split first.

    Raises:
        ValueError: if there is no split, the splits come from different
            datasets, or a k repeats.
        The errors of ``run_id_leak_test``: its ValueErrors first, then
        those of the first run that fails.
    """
    if not splits:
        raise ValueError("no splits to probe")
    dataset = splits[0].dataset
    if any(each.dataset is not dataset for each in splits):
        raise ValueError("the splits were made from different datasets")
    if len(set(k_values)) < len(k_values):
        raise ValueError(f"k values repeat: {list(k_values)}")
    config = config or ForestConfig()
    ids = [r.id for r in dataset.records]
    tables = {k: _pattern_table(ids, k) for k in k_values}
    # every run is checked, in report order, before any forest is fitted
    runs = []
    kept = {k: [] for k in k_values}
    for each in splits:
        n_train, n_test = len(each.train), len(each.test)
        if not n_train or not n_test:
            raise EmptySplitError(f"need non-empty train and test (got {n_train}/{n_test})")
        rows = np.concatenate((each.train, each.test))
        for k in k_values:
            kept[k].append(_kept(dataset, rows, n_train, k, tables[k][1]))
        runs.append((each.name(), len(rows)))

    by_k = {k: _probe_k(dataset, runs, kept.pop(k), k, tables[k][0], config) for k in k_values}
    return [by_k[k][i] for i in range(len(runs)) for k in k_values]


def _probe_k(dataset, runs, kept, k, table, config) -> list[IdLeakReport]:
    """Every run at one k, given each run's ``_kept`` result: one
    ``fit_rows`` call grows the forests of all runs together, and each is
    scored on its run's test rows and let go before the next is taken."""
    models = fit_rows(
        table, [(patterns[:n], labels[:n]) for patterns, labels, n in kept],
        dataset.label_set, config,
    )
    return [
        _report(name, k, next(models), table, *run, n_listed, dataset.label_set, config)
        for (name, n_listed), run in zip(runs, kept)
    ]


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
