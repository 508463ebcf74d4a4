"""Classification metrics over a fixed label set.

Conventions, fixed once here and used by every report in the package:
  * the confusion matrix is indexed [gold, predicted] in label-set order;
  * F1 is 0 whenever precision + recall is 0;
  * macro-F1 averages over the labels actually present in gold (support
    >= 1), while per-class tables always cover the full label set;
  * records without a prediction are scored as wrong by default (they keep
    their gold support but credit no prediction), or dropped when
    missing="exclude".
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .data import Dataset, LabelSet, csv_rows
from .errors import EmptyInputError, PredictionFileError, UnknownLabelError

MISSING_MODES = ("wrong", "exclude")


@dataclass(frozen=True)
class ConfusionMatrix:
    """Square gold-by-predicted counts over a label set.

    ``counts[i, j]`` is the number of scored records with gold label i and
    predicted label j (label-set order). Records without predictions are
    tracked outside the matrix in ``missing_per_label``.
    """

    label_set: LabelSet
    counts: np.ndarray
    missing_per_label: tuple[int, ...] = ()

    def __post_init__(self):
        k = len(self.label_set)
        if self.counts.shape != (k, k):
            raise ValueError(f"counts shape {self.counts.shape} != ({k}, {k})")
        if not self.missing_per_label:
            object.__setattr__(self, "missing_per_label", tuple([0] * k))

    @classmethod
    def from_pairs(
        cls,
        gold: Sequence[str],
        predicted: Sequence[str],
        label_set: LabelSet,
        missing_gold: Sequence[str] = (),
    ) -> "ConfusionMatrix":
        if len(gold) != len(predicted):
            raise ValueError(f"{len(gold)} gold labels vs {len(predicted)} predictions")
        labels = [*gold, *predicted, *missing_gold]
        codes = label_set.encode(labels)
        if np.any(codes < 0):  # index raises UnknownLabelError for the first unknown label
            label_set.index(labels[int(np.argmax(codes < 0))])
        n = len(gold)
        return cls.from_positions(codes[:n], codes[n : 2 * n], label_set, codes[2 * n :])

    @classmethod
    def from_positions(
        cls, gold: np.ndarray, predicted: np.ndarray, label_set: LabelSet, missing_gold=()
    ) -> "ConfusionMatrix":
        """from_pairs on label-set positions: int arrays without -1."""
        k = len(label_set)
        counts = np.bincount(gold * k + predicted, minlength=k * k).reshape(k, k)
        missing = np.bincount(np.asarray(missing_gold, dtype=np.int64), minlength=k)
        return cls(label_set=label_set, counts=counts, missing_per_label=tuple(missing.tolist()))

    @property
    def total(self) -> int:
        """Number of scored (gold, predicted) pairs in the matrix."""
        return int(self.counts.sum())


@dataclass(frozen=True)
class ClassMetrics:
    label: str
    precision: float
    recall: float
    f1: float
    support: int
    predicted: int


@dataclass(frozen=True)
class EvalResult:
    """Metrics derived from one confusion matrix."""

    matrix: ConfusionMatrix
    per_class: tuple[ClassMetrics, ...]
    macro_f1: float
    micro_f1: float
    accuracy: float
    n_scored: int
    n_missing: int
    missing_mode: str

    def per_class_f1(self) -> dict[str, float]:
        return {m.label: m.f1 for m in self.per_class}

    def to_json_dict(self) -> dict:
        return {
            "labels": list(self.matrix.label_set),
            "confusion": self.matrix.counts.tolist(),
            "per_class": [asdict(m) for m in self.per_class],
            "macro_f1": self.macro_f1,
            "micro_f1": self.micro_f1,
            "accuracy": self.accuracy,
            "n_scored": self.n_scored,
            "n_missing": self.n_missing,
            "missing_mode": self.missing_mode,
        }


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def result_from_matrix(matrix: ConfusionMatrix, missing_mode: str = "wrong") -> EvalResult:
    """Compute per-class and aggregate metrics from a confusion matrix.

    With missing_mode="wrong", unanswered records inflate their class
    support (hurting recall) but never the predicted counts.
    """
    counts = matrix.counts
    k = len(matrix.label_set)
    missing = np.array(matrix.missing_per_label, dtype=np.int64)
    if missing_mode == "exclude":
        missing = np.zeros(k, dtype=np.int64)

    gold_totals = counts.sum(axis=1) + missing
    pred_totals = counts.sum(axis=0)
    tp = np.diag(counts)

    per_class = []
    f1_present = []
    for i, label in enumerate(matrix.label_set):
        precision = float(tp[i] / pred_totals[i]) if pred_totals[i] else 0.0
        recall = float(tp[i] / gold_totals[i]) if gold_totals[i] else 0.0
        f1 = _f1(precision, recall)
        per_class.append(
            ClassMetrics(
                label=label,
                precision=precision,
                recall=recall,
                f1=f1,
                support=int(gold_totals[i]),
                predicted=int(pred_totals[i]),
            )
        )
        if gold_totals[i] > 0:
            f1_present.append(f1)

    if not f1_present:
        raise EmptyInputError("no gold labels to evaluate")

    n_effective = int(gold_totals.sum())
    correct = int(tp.sum())
    micro = float(correct / n_effective) if n_effective else 0.0
    return EvalResult(
        matrix=matrix,
        per_class=tuple(per_class),
        macro_f1=float(np.mean(f1_present)),
        micro_f1=micro,
        accuracy=micro,
        n_scored=matrix.total,
        n_missing=int(sum(matrix.missing_per_label)),
        missing_mode=missing_mode,
    )


def evaluate(
    gold: Mapping[str, str],
    predicted: Mapping[str, str],
    label_set: LabelSet,
    missing: str = "wrong",
) -> EvalResult:
    """Score predictions against gold labels keyed by record id.

    Predictions for ids outside gold are ignored. Gold ids without a
    prediction are handled per ``missing`` ("wrong" or "exclude").

    Raises:
        EmptyInputError: if gold is empty.
        UnknownLabelError: if any label is outside the label set.
        ValueError: for an unknown missing mode.
    """
    if missing not in MISSING_MODES:
        raise ValueError(f"missing mode {missing!r} not in {MISSING_MODES}")
    if not gold:
        raise EmptyInputError("no gold labels to evaluate")
    pairs_gold: list[str] = []
    pairs_pred: list[str] = []
    missing_gold: list[str] = []
    for rid, g in gold.items():
        if rid in predicted:
            pairs_gold.append(g)
            pairs_pred.append(predicted[rid])
        else:
            missing_gold.append(g)
    matrix = ConfusionMatrix.from_pairs(pairs_gold, pairs_pred, label_set, missing_gold)
    return result_from_matrix(matrix, missing_mode=missing)


def read_prediction_file(path: str | Path) -> dict[str, str]:
    """Read id -> label predictions from .csv (header: id,label) or .jsonl,
    whose ids are strings or integers (read as decimal strings) and labels
    strings.

    Raises:
        PredictionFileError: on malformed content, with the line number.
    """
    path = Path(path)
    preds: dict[str, str] = {}
    if path.suffix.lower() == ".csv":
        with open(path, encoding="utf-8-sig", newline="") as fh:
            rows = csv_rows(fh)
            _, header = next(rows, (0, []))
            if not {"id", "label"} <= set(header):
                raise PredictionFileError(f"{path}: header must contain id,label columns")
            for line_no, row in rows:
                raw = dict(zip(header, row))
                rid, label = raw.get("id"), raw.get("label")
                if not rid or label is None:
                    raise PredictionFileError("row missing id or label", line_no)
                if rid in preds:
                    raise PredictionFileError(f"duplicate prediction for id {rid}", line_no)
                preds[rid] = label
    else:
        with open(path, encoding="utf-8-sig") as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    raw = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise PredictionFileError(f"invalid JSON: {exc}", line_no) from None
                if not isinstance(raw, dict) or "id" not in raw or "label" not in raw:
                    raise PredictionFileError("object must have id and label", line_no)
                rid, label = raw["id"], raw["label"]
                if isinstance(rid, bool) or not isinstance(rid, (str, int)):
                    raise PredictionFileError(f"id {rid!r} is not a string or integer", line_no)
                if not isinstance(label, str):
                    raise PredictionFileError(f"label {label!r} is not a string", line_no)
                rid = str(rid)
                if rid in preds:
                    raise PredictionFileError(f"duplicate prediction for id {rid}", line_no)
                preds[rid] = label
    return preds


def evaluate_prediction_file(
    dataset: Dataset,
    test: np.ndarray,
    path: str | Path,
    missing: str = "wrong",
) -> EvalResult:
    """Score a prediction file against the records at dataset positions
    ``test``, a split's test partition.

    Raises:
        UnknownLabelError: if the file predicts a label outside the
            dataset's label set.
        EmptyInputError: if ``test`` is empty.
    """
    ids, labels = dataset.ids, dataset.label_set.labels
    gold = {ids[i]: labels[label]
            for i, label in zip(test.tolist(), dataset.label_index[test].tolist())}
    preds = read_prediction_file(path)
    for rid, label in preds.items():
        if label not in dataset.label_set:
            raise UnknownLabelError(
                f"prediction for id {rid} uses unknown label {label!r}"
            )
    return evaluate(gold, preds, dataset.label_set, missing=missing)


def aggregate_article_votes(
    tweet_predictions: Mapping[str, str],
    article_of: Mapping[str, str],
    label_set: LabelSet,
    min_tweets: int = 3,
) -> dict[str, str]:
    """Majority-vote tweet predictions up to article level.

    Articles with fewer than ``min_tweets`` voting tweets are omitted.
    Vote ties resolve to the tied label earliest in label-set order.
    """
    votes: dict[str, list[int]] = {}
    for tweet_id, label in tweet_predictions.items():
        article = article_of.get(tweet_id)
        if article is None:
            continue
        tally = votes.setdefault(article, [0] * len(label_set))
        tally[label_set.index(label)] += 1
    out: dict[str, str] = {}
    for article, tally in votes.items():
        n = sum(tally)
        if n < min_tweets:
            continue
        best = max(range(len(tally)), key=lambda i: (tally[i], -i))
        out[article] = label_set.labels[best]
    return out
