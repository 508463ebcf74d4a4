"""The ID-digit leak probe.

Trains a forest to predict a record's label from nothing but the first k
decimal digits of its id. Ids encode mint time in their high bits, so any
accuracy above the stratified-random baseline means the label is readable
off the clock: classes were collected in different time windows and a
model can exploit that instead of content.

The caller owns the splits: ``probe_splits`` makes the audit's generated
ones, and ``run_id_leak_suite`` scores the splits it is given, so every
other check can run on the same partitions. The suite reads each split's
train and test dataset positions directly. It reads the dataset's parsed
id column, ``Dataset.id_values``, and gives each k a pattern table from
it: the distinct k-digit prefixes, sorted, and each row's pattern (-1 for
an id shorter than k). Every run is checked before any forest grows, so
errors come in report order. Then, for each k, one ``fit_rows`` call fits
the forests of all splits together on the table's train patterns
(stratified splits share their size, so they share each tree's bootstrap
draw and feature orders), and each (split, k) run predicts each table
pattern once with its forest. ``time_rebalance`` probes its input and its
output on one split through the suite's core, so one ``fit_rows`` per k
grows both probes' forests too.

The probe's score is normalized headroom above chance,
``(macro - baseline) / (1 - baseline)``, clamped at 0, so 0.0 reads as
"no temporal signal" and 1.0 as "labels fully recoverable from id alone".
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .data import Dataset
from .errors import AllIdsTooShortError, EmptySplitError
from .forest import ForestConfig, baseline_expected_macro_f1, fit_rows
from .metrics import ConfusionMatrix, result_from_matrix
from .splits import Split, SplitSpec, make_split


# leak-score cutpoints of the human-readable verdict
NONE_BELOW = 0.05
MILD_BELOW = 0.15
MODERATE_BELOW = 0.40

# 10**0 .. 10**18 in uint64: a canonical id has at most 19 digits, and
# uint64 mixed with int64 would promote to float64 and lose digits
_POWERS = 10 ** np.arange(19, dtype=np.uint64)


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
        ValueError: for a split of another dataset, or k < 1.
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
    return pattern_of[kept_rows], dataset.label_index[kept_rows], n_train


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


def _pattern_tables(values: np.ndarray, k_values) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Each k's pattern table: the distinct k-digit prefixes of the parsed
    ids ``values`` as int64 digit rows in ascending order, and each id's
    row in that table (-1 for an id shorter than k).

    An id of d digits has the k-digit prefix ``value // 10**(d - k)``. A
    prefix has no leading zero, so prefixes sort by value as their digit
    rows do.
    """
    n_digits = np.searchsorted(_POWERS, values, side="right")
    tables = {}
    for k in k_values:
        kept = np.flatnonzero(n_digits >= k)  # none when k > 19
        prefixes = values[kept] // _POWERS[n_digits[kept] - k]
        prefixes, inverse = np.unique(prefixes, return_inverse=True)
        table = np.empty((len(prefixes), k), dtype=np.int64)
        for place in range(k - 1, -1, -1):  # the last digit first
            prefixes, table[:, place] = np.divmod(prefixes, np.uint64(10))
        pattern_of = np.full(len(values), -1, dtype=np.int64)
        pattern_of[kept] = inverse
        tables[k] = table, pattern_of
    return tables


def _derived_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed % 2**64, index]).generate_state(1, np.uint64)[0])


def probe_splits(dataset: Dataset, n_splits: int = 5, seed: int = 0) -> list[Split]:
    """The audit's generated splits: ``n_splits`` stratified 70/10/20
    splits named ``probe-split-{i}``, each seeded by its own substream of
    ``seed``, so summaries can quote mean and spread instead of one
    arbitrary partition's luck.

    Raises:
        ValueError: if n_splits or seed is not an int (a bool or numpy
            integer is refused).
    """
    if type(n_splits) is not int:
        raise ValueError(f"n_splits must be an int, got {n_splits!r}")
    if type(seed) is not int:
        raise ValueError(f"seed must be an int, got {seed!r}")
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
        ValueError: before any run is checked, in this order: there is no
            split; the splits come from different datasets; there is no
            k; a k is not an int (a bool or numpy integer is refused); a k
            is below 1; a k repeats.
        The errors of the first run that fails: EmptySplitError or
        AllIdsTooShortError.
    """
    if not splits:
        raise ValueError("no splits to probe")
    dataset = splits[0].dataset
    if any(each.dataset is not dataset for each in splits):
        raise ValueError("the splits were made from different datasets")
    config = config or ForestConfig()
    if not k_values:
        raise ValueError("no k values to probe")
    for k in k_values:
        if type(k) is not int:
            raise ValueError(f"k must be an int, got {k!r}")
    for k in k_values:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
    if len(set(k_values)) < len(k_values):
        raise ValueError(f"k values repeat: {list(k_values)}")
    return _probe_runs([(dataset, each) for each in splits], k_values, config)


def _probe_runs(runs, k_values, config: ForestConfig) -> list[IdLeakReport]:
    """The suite's core: one report per (run, k) pair, run first, for
    (dataset, split) runs of datasets sharing one label set. Each k has one
    pattern table over the datasets' ids joined, which keeps each dataset's
    patterns in order, so every forest equals the one fitted on its own."""
    datasets = {id(dataset): dataset for dataset, _ in runs}
    values = [dataset.id_values for dataset in datasets.values()]
    tables = _pattern_tables(np.concatenate(values), k_values)
    ends = np.cumsum([len(v) for v in values])[:-1]
    # each k's pattern of every row, split back into datasets, keyed by id()
    pattern_of = {k: dict(zip(datasets, np.split(tables[k][1], ends))) for k in k_values}
    # every run is checked, in report order, before any forest is fitted
    listed = []
    kept = {k: [] for k in k_values}
    for dataset, each in runs:
        n_train, n_test = len(each.train), len(each.test)
        if not n_train or not n_test:
            raise EmptySplitError(f"need non-empty train and test (got {n_train}/{n_test})")
        rows = np.concatenate((each.train, each.test))
        for k in k_values:
            kept[k].append(_kept(dataset, rows, n_train, k, pattern_of[k][id(dataset)]))
        listed.append((each.name(), len(rows)))

    label_set = runs[0][0].label_set
    by_k = {k: _probe_k(label_set, listed, kept.pop(k), k, tables[k][0], config) for k in k_values}
    return [by_k[k][i] for i in range(len(runs)) for k in k_values]


def _probe_k(label_set, runs, kept, k, table, config) -> list[IdLeakReport]:
    """Every run at one k, given each run's ``_kept`` result: one
    ``fit_rows`` call grows the forests of all runs together, and each is
    scored on its run's test rows and let go before the next is taken."""
    models = fit_rows(
        table, [(patterns[:n], labels[:n]) for patterns, labels, n in kept], label_set, config,
    )
    return [
        _report(name, k, next(models), table, *run, n_listed, label_set, config)
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
