"""Reproducible dataset splits: random/stratified, group-aware, and
event-holdout partitioning, plus quota subsampling and a registry of named
presets for the common benchmark protocols.

Everything here is a pure function of (dataset, spec): the same seed gives
byte-identical exported split files. A spec's filters narrow one list of
dataset positions; one allocator then partitions that list. Stratified
allocation uses the largest-remainder method, so every per-label partition
size is within one record of the exact proportion.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .data import Dataset
from .errors import (
    EmptyInputError,
    InsufficientRecordsError,
    MissingGroupFieldError,
    RatioError,
    SplitFileError,
    UnknownEventError,
    UnknownLabelError,
    UnknownPresetError,
)

SPLIT_FORMAT_VERSION = 1
PARTITIONS = ("train", "dev", "test")
GROUP_FIELDS = ("article_id", "event")


@dataclass(frozen=True)
class SplitSpec:
    """Declarative description of how to carve a dataset.

    ratios are (train, dev, test) fractions summing to 1. Optional stages
    compose in a fixed order: event_filter -> label_filter ->
    quota subsample -> partitioning (holdout, group, or random). group_by
    names one of GROUP_FIELDS; quotas map labels to non-negative record
    counts, at least one of them positive.
    """

    ratios: tuple[float, float, float] = (0.7, 0.1, 0.2)
    seed: int | None = None
    stratify: bool = True
    group_by: str | None = None
    holdout_event: str | None = None
    label_filter: tuple[str, ...] | None = None
    event_filter: tuple[str, ...] | None = None
    quotas: Mapping[str, int] | None = None
    min_reply_count: int | None = None
    exclude_conflicting_groups: bool = False
    name: str = ""

    def validated(self) -> "SplitSpec":
        if len(self.ratios) != 3:
            raise RatioError(f"need (train, dev, test) ratios, got {self.ratios}")
        if any(isinstance(r, bool) or not isinstance(r, numbers.Real) for r in self.ratios):
            raise RatioError(f"ratios: need three numbers, got {self.ratios!r}")
        if any(r < 0 for r in self.ratios):
            raise RatioError(f"negative ratio in {self.ratios}")
        if not math.isclose(sum(self.ratios), 1.0, abs_tol=1e-9):
            raise RatioError(f"ratios sum to {sum(self.ratios)}, expected 1")
        if self.holdout_event is not None and self.ratios[2] != 0.0:
            raise RatioError(
                "holdout specs put all test mass in the held-out event; test ratio must be 0"
            )
        if self.holdout_event is not None and self.group_by is not None:
            raise RatioError("holdout_event and group_by cannot be combined")
        if self.group_by is not None and self.group_by not in GROUP_FIELDS:
            raise RatioError(
                f"group_by must be one of {', '.join(GROUP_FIELDS)}, got {self.group_by!r}"
            )
        count = self.min_reply_count
        if count is not None and (
            isinstance(count, bool) or not isinstance(count, int) or count < 0
        ):
            raise RatioError(f"min_reply_count: needs a non-negative integer, got {count!r}")
        if self.label_filter is not None and not self.label_filter:
            raise RatioError("label_filter must keep at least one label")
        if self.quotas is not None:
            for label, quota in self.quotas.items():
                if isinstance(quota, bool) or not isinstance(quota, int) or quota < 0:
                    raise RatioError(
                        f"quotas: {label!r} needs a non-negative integer count, got {quota!r}"
                    )
            if not any(self.quotas.values()):
                raise RatioError("quotas: at least one label needs a positive count")
        return self

    def to_json_dict(self) -> dict:
        raw = asdict(self)
        raw["ratios"] = list(self.ratios)
        if self.label_filter is not None:
            raw["label_filter"] = list(self.label_filter)
        if self.event_filter is not None:
            raw["event_filter"] = list(self.event_filter)
        if self.quotas is not None:
            raw["quotas"] = dict(self.quotas)
        return raw

    @classmethod
    def from_json_dict(cls, raw: Mapping) -> "SplitSpec":
        kwargs = dict(raw)
        for key in ("ratios", "label_filter", "event_filter", "quotas"):
            kind = dict if key == "quotas" else (list, tuple)
            if kwargs.get(key) is not None and not isinstance(kwargs[key], kind):
                raise SplitFileError(f"spec field {key!r} has the wrong type: {kwargs[key]!r}")
        kwargs["ratios"] = tuple(kwargs.get("ratios", (0.7, 0.1, 0.2)))
        for key in ("label_filter", "event_filter"):
            if kwargs.get(key) is not None:
                kwargs[key] = tuple(kwargs[key])
        if kwargs.get("quotas") is not None:
            kwargs["quotas"] = dict(kwargs["quotas"])
        unknown = set(kwargs) - {f.name for f in fields(cls)}
        if unknown:
            raise SplitFileError(f"unknown spec fields: {sorted(unknown)}")
        return cls(**kwargs)


@dataclass(frozen=True)
class Split:
    """Three disjoint id tuples plus how they came to be."""

    train_ids: tuple[str, ...]
    dev_ids: tuple[str, ...]
    test_ids: tuple[str, ...]
    spec: SplitSpec | None = None
    provenance: dict = field(default_factory=dict)

    def name(self) -> str:
        if self.spec is not None and self.spec.name:
            return self.spec.name
        return str(self.provenance.get("generator", ""))

    def sizes(self) -> tuple[int, int, int]:
        return (len(self.train_ids), len(self.dev_ids), len(self.test_ids))

    def partition_of(self) -> dict[str, str]:
        out: dict[str, str] = {}
        for part, ids in zip(PARTITIONS, (self.train_ids, self.dev_ids, self.test_ids)):
            for rid in ids:
                out[rid] = part
        return out

    def all_ids(self) -> set[str]:
        return set(self.train_ids) | set(self.dev_ids) | set(self.test_ids)


def _rng(seed: int | None) -> np.random.Generator:
    if seed is None:
        raise RatioError("a seed is required for randomized splitting")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed % 2**64)))


def largest_remainder(n: int, ratios: Sequence[float]) -> list[int]:
    """Integer allocation of n items to len(ratios) bins, each within one
    of n*ratio. Remainders go to the largest fractional parts; ties to the
    earliest bin."""
    exact = [n * r for r in ratios]
    base = [int(math.floor(e)) for e in exact]
    short = n - sum(base)
    order = sorted(range(len(ratios)), key=lambda i: (-(exact[i] - base[i]), i))
    for i in order[:short]:
        base[i] += 1
    return base


def _partition_indices(
    labels: np.ndarray,
    n_labels: int,
    ratios: Sequence[float],
    rng: np.random.Generator,
    stratify: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Allocate positions of ``labels`` (label-set positions, -1 outside the
    set) to (train, dev, test) in shuffled order. Stratified, each label is
    allocated on its own and records outside the label set are dropped.

    This is the one allocator. The permutation is drawn before grouping, so
    a label with no records changes nothing: the full label set gives the
    same split as one narrowed to the labels present."""
    perm = rng.permutation(len(labels))
    groups = [perm[labels[perm] == i] for i in range(n_labels)] if stratify else [perm]
    chunks: tuple[list[np.ndarray], ...] = ([], [], [])
    for members in groups:
        start = 0
        for p, take in enumerate(largest_remainder(len(members), ratios)):
            chunks[p].append(members[start : start + take])
            start += take
    return tuple(np.concatenate(chunk) for chunk in chunks)  # type: ignore[return-value]


def _split(
    dataset: Dataset, parts: Sequence[np.ndarray], spec: SplitSpec, provenance: dict
) -> Split:
    """A Split of three arrays of dataset positions."""
    records = dataset.records
    train, dev, test = (tuple(records[i].id for i in part.tolist()) for part in parts)
    return Split(train_ids=train, dev_ids=dev, test_ids=test, spec=spec, provenance=provenance)


def _shuffled_parts(dataset: Dataset, rows: np.ndarray, spec: SplitSpec) -> list[np.ndarray]:
    """(train, dev, test) positions of ``rows`` under the spec's ratios."""
    labels = dataset.label_index[rows]
    rng = _rng(spec.seed)
    parts = _partition_indices(labels, len(dataset.label_set), spec.ratios, rng, spec.stratify)
    return [rows[part] for part in parts]


def random_split(dataset: Dataset, spec: SplitSpec) -> Split:
    """Seeded (optionally stratified) partition of every record by the
    spec's ratios; the spec's filters, holdout and grouping are not applied
    here (``make_split`` applies them).

    Raises:
        EmptyInputError: on an empty dataset.
        RatioError: on malformed ratios or a missing seed.
    """
    return _random(dataset, np.arange(len(dataset)), spec.validated())


def _random(dataset: Dataset, rows: np.ndarray, spec: SplitSpec) -> Split:
    if len(rows) == 0:
        raise EmptyInputError("cannot split an empty dataset")
    provenance = {
        "generator": "random_split",
        "dataset": dataset.name,
        "n_records": len(rows),
        "stratified": spec.stratify,
    }
    return _split(dataset, _shuffled_parts(dataset, rows, spec), spec, provenance)


def _holdout(dataset: Dataset, rows: np.ndarray, spec: SplitSpec) -> Split:
    """The held-out event's rows are the test set; the rest split train/dev."""
    records = dataset.records
    held = np.array([records[i].event == spec.holdout_event for i in rows.tolist()], dtype=bool)
    if not held.any():
        raise UnknownEventError(f"no record has event {spec.holdout_event!r}")
    train, dev, _ = _shuffled_parts(dataset, rows[~held], spec)
    provenance = {
        "generator": "event_holdout_split",
        "dataset": dataset.name,
        "holdout_event": spec.holdout_event,
        "n_holdout_records": int(held.sum()),
    }
    return _split(dataset, (train, dev, rows[held]), spec, provenance)


def _group(dataset: Dataset, rows: np.ndarray, spec: SplitSpec) -> Split:
    """Whole groups to one partition each; ratios apply to group counts.

    Rows lacking the group field are excluded and counted in provenance;
    with exclude_conflicting_groups, groups with mixed labels are dropped
    too (their keys are recorded). The output keeps dataset order.
    """
    rng = _rng(spec.seed)
    records = dataset.records
    key_of = [getattr(records[i], spec.group_by) for i in rows.tolist()]
    labels_of: dict[str, set[str]] = {}
    for i, key in zip(rows.tolist(), key_of):
        if key is not None:
            labels_of.setdefault(key, set()).add(records[i].label)
    if not labels_of:
        raise MissingGroupFieldError(f"no record has a {spec.group_by!r} value")

    conflicting: list[str] = []
    if spec.exclude_conflicting_groups:
        conflicting = sorted(k for k, labels in labels_of.items() if len(labels) > 1)
        for k in conflicting:
            del labels_of[k]
        if not labels_of:
            raise MissingGroupFieldError("every group was excluded as conflicting")

    keys = sorted(labels_of)
    key_parts = _partition_indices(
        np.zeros(len(keys), dtype=np.int64), 1, spec.ratios, rng, stratify=False
    )
    part_of_key = {keys[k]: p for p, part in enumerate(key_parts) for k in part.tolist()}
    part_of_row = np.array([part_of_key.get(key, -1) for key in key_of])
    provenance = {
        "generator": "group_split",
        "dataset": dataset.name,
        "group_by": spec.group_by,
        "n_groups": len(keys),
        "excluded_ungrouped_records": key_of.count(None),
        "excluded_conflicting_groups": conflicting,
    }
    if len(keys) < 3:
        provenance["warning"] = (
            f"only {len(keys)} group(s): some partitions are necessarily empty"
        )
    return _split(dataset, [rows[part_of_row == p] for p in range(3)], spec, provenance)


def _filter_rows(dataset: Dataset, spec: SplitSpec) -> tuple[np.ndarray, dict[str, object]]:
    """Dataset positions the spec's event, label and quota filters keep, in
    dataset order, plus each stage's record for the provenance."""
    records = dataset.records
    label_set = dataset.label_set
    rows = np.arange(len(records))
    stages: dict[str, object] = {}

    if spec.event_filter is not None:
        events = {r.event for r in records}
        missing = [e for e in spec.event_filter if e not in events]
        if missing:
            raise UnknownEventError(f"events not in dataset: {missing}")
        keep = set(spec.event_filter)
        rows = rows[[r.event in keep for r in records]]
        stages["event_filter"] = {"events": list(spec.event_filter), "n_after": len(rows)}

    # labels a quota may name: the label set, narrowed by the label filter
    labels = label_set.labels
    if spec.label_filter is not None:
        for label in spec.label_filter:
            if label not in label_set:
                raise UnknownLabelError(f"label {label!r} not in label set")
        labels = tuple(lab for lab in labels if lab in spec.label_filter)
        rows = rows[np.isin(dataset.label_index[rows], label_set.encode(labels))]
        stages["label_filter"] = {"labels": list(spec.label_filter), "n_after": len(rows)}

    if spec.quotas is not None:
        rows = _quota_rows(dataset, rows, labels, spec)
        stages["quota_subsample"] = {
            "quotas": dict(spec.quotas),
            "min_reply_count": spec.min_reply_count,
            "n_after": len(rows),
        }
    return rows, stages


def _quota_rows(
    dataset: Dataset, rows: np.ndarray, labels: Sequence[str], spec: SplitSpec
) -> np.ndarray:
    """Random per-label subsample of ``rows`` to exact quota sizes, in
    dataset order. Only rows meeting min_reply_count (when set) are
    eligible; a missing reply_count counts as 0 replies.

    Raises:
        UnknownLabelError: for a quota on a label outside ``labels``.
        InsufficientRecordsError: naming each label whose eligible pool is
            smaller than its quota.
    """
    quotas = spec.quotas
    for label in quotas:
        if label not in labels:
            raise UnknownLabelError(f"quota label {label!r} not in label set")
    rng = _rng(spec.seed)

    records = dataset.records
    if spec.min_reply_count is not None:
        replies = [records[i].reply_count or 0 for i in rows.tolist()]
        rows = rows[[n >= spec.min_reply_count for n in replies]]
    label_of = dataset.label_index[rows]
    pools = {label: rows[label_of == dataset.label_set.index(label)] for label in quotas}
    detail = ", ".join(
        f"{label}: need {quotas[label]}, have {len(pools[label])}"
        for label in sorted(pools)
        if len(pools[label]) < quotas[label]
    )
    if detail:
        raise InsufficientRecordsError(f"quota cannot be met ({detail})")

    # label-set order fixes the rng consumption order
    chosen = [
        pools[label][rng.permutation(len(pools[label]))[: quotas[label]]]
        for label in dataset.label_set
        if quotas.get(label, 0) > 0
    ]
    return np.sort(np.concatenate(chosen))


def make_split(dataset: Dataset, spec: SplitSpec) -> Split:
    """Run a spec end to end: filters, quotas, then the partitioning stage.

    This is the entry point presets go through; every stage is recorded in
    the returned provenance.
    """
    spec = spec.validated()
    rows, stages = _filter_rows(dataset, spec)
    if spec.holdout_event is not None:
        split = _holdout(dataset, rows, spec)
    elif spec.group_by is not None:
        split = _group(dataset, rows, spec)
    else:
        split = _random(dataset, rows, spec)
    if stages:
        split.provenance["stages"] = stages
    return split


# --- split files -----------------------------------------------------------


def export_split(split: Split, path: str | Path) -> None:
    """Write a split file; same split object -> byte-identical file."""
    payload = {
        "format_version": SPLIT_FORMAT_VERSION,
        "train_ids": list(split.train_ids),
        "dev_ids": list(split.dev_ids),
        "test_ids": list(split.test_ids),
        "spec": None if split.spec is None else split.spec.to_json_dict(),
        "provenance": split.provenance,
    }
    text = json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


def import_split(path: str | Path, dataset: Dataset | None = None) -> Split:
    """Read a split file; ids absent from the dataset are dropped and
    counted in provenance["missing_ids"].

    Raises:
        SplitFileError: malformed file or overlapping partitions.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SplitFileError(f"cannot read split file {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise SplitFileError(f"{path}: split file must be a JSON object")
    for key in ("train_ids", "dev_ids", "test_ids"):
        if not isinstance(raw.get(key), list):
            raise SplitFileError(f"{path}: missing or non-list {key}")

    parts = [[str(x) for x in raw[key]] for key in ("train_ids", "dev_ids", "test_ids")]
    seen: set[str] = set()
    for ids in parts:
        for rid in ids:
            if rid in seen:
                raise SplitFileError(f"{path}: id {rid} appears in more than one partition")
            seen.add(rid)

    provenance = dict(raw.get("provenance", {}))
    provenance.setdefault("generator", "import_split")
    missing = 0
    if dataset is not None:
        known = {r.id for r in dataset.records}
        kept = [[rid for rid in ids if rid in known] for ids in parts]
        missing = sum(len(ids) for ids in parts) - sum(len(ids) for ids in kept)
        parts = kept
    provenance["missing_ids"] = missing

    spec = None
    if raw.get("spec") is not None:
        spec = SplitSpec.from_json_dict(raw["spec"])
    return Split(
        train_ids=tuple(parts[0]),
        dev_ids=tuple(parts[1]),
        test_ids=tuple(parts[2]),
        spec=spec,
        provenance=provenance,
    )


# --- preset registry --------------------------------------------------------

CONFIG_DIR_ENV = "LEAKAUDIT_CONFIG_DIR"
_PRESETS_FILE = Path(__file__).parent / "presets.json"


def load_presets() -> dict[str, dict]:
    """Registered presets: name -> {"description", "spec": SplitSpec}.

    A presets.json in $LEAKAUDIT_CONFIG_DIR is merged over the shipped
    registry, so local protocols can be added without touching the package.
    """
    registry: dict[str, dict] = {}
    sources = [_PRESETS_FILE]
    config_dir = os.environ.get(CONFIG_DIR_ENV)
    if config_dir:
        candidate = Path(config_dir) / "presets.json"
        if candidate.exists():
            sources.append(candidate)
    for source in sources:
        for name, entry in _read_presets(source).items():
            try:
                spec = SplitSpec.from_json_dict({**entry["spec"], "name": name})
            except SplitFileError as exc:
                raise SplitFileError(f"{source}: preset {name!r}: {exc}") from exc
            registry[name] = {
                "description": entry.get("description", ""),
                "expects": entry.get("expects", ""),
                "spec": spec,
            }
    return registry


def _read_presets(source: Path) -> dict[str, dict]:
    """The name -> entry map of one presets file, each entry holding a
    "spec" object."""
    try:
        raw = json.loads(source.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SplitFileError(f"{source}: not valid JSON: {exc}") from exc
    presets = raw.get("presets", {}) if isinstance(raw, dict) else None
    if not isinstance(presets, dict) or not all(
        isinstance(entry, dict) and isinstance(entry.get("spec"), dict)
        for entry in presets.values()
    ):
        raise SplitFileError(f'{source}: expected {{"presets": {{name: {{"spec": {{...}}}}}}}}')
    return presets


def get_preset(name: str) -> SplitSpec:
    registry = load_presets()
    if name not in registry:
        raise UnknownPresetError(
            f"unknown preset {name!r}; known: {', '.join(sorted(registry))}"
        )
    return registry[name]["spec"]


def preset_split(dataset: Dataset, name: str, seed: int | None = None) -> Split:
    """Apply a named preset; ``seed`` fills a spec that ships without one."""
    spec = get_preset(name)
    if seed is not None:
        spec = replace(spec, seed=seed)
    return make_split(dataset, spec)
