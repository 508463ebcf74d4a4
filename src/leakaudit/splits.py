"""Reproducible dataset splits: random/stratified, group-aware, and
event-holdout partitioning, plus quota subsampling and a registry of named
presets for the common benchmark protocols.

Everything here is a pure function of (dataset, spec): the same seed gives
byte-identical exported split files. A spec's filters narrow one list of
dataset positions; one allocator then partitions that list. Stratified
allocation uses the largest-remainder method, so every per-label partition
size is within one record of the exact proportion.

A ``Split`` belongs to the dataset it was made from and holds positions in
it; ids are read off them only to write a split file, and mapped back to
positions once when one is read.
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

from .data import Dataset, write_json
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
        if self.seed is not None and type(self.seed) is not int:
            raise RatioError(f"seed: needs an integer or None, got {self.seed!r}")
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


@dataclass(frozen=True, eq=False)
class Split:
    """Three disjoint read-only int64 arrays of positions in ``dataset``,
    plus how they came to be. Each is in split order (the allocator's
    shuffled order, or file order when imported), which the forest's
    bootstrap draw reads. A split has no value equality."""

    dataset: Dataset = field(repr=False)
    train: np.ndarray
    dev: np.ndarray
    test: np.ndarray
    spec: SplitSpec | None = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        for part in PARTITIONS:
            rows = np.array(getattr(self, part), dtype=np.int64)
            rows.flags.writeable = False
            object.__setattr__(self, part, rows)

    def _ids(self, rows: np.ndarray) -> tuple[str, ...]:
        ids = self.dataset.ids
        return tuple(ids[i] for i in rows.tolist())

    # the ids at each partition's positions, in split order
    train_ids = property(lambda self: self._ids(self.train))
    dev_ids = property(lambda self: self._ids(self.dev))
    test_ids = property(lambda self: self._ids(self.test))

    def name(self) -> str:
        if self.spec is not None and self.spec.name:
            return self.spec.name
        return str(self.provenance.get("generator", ""))

    def sizes(self) -> tuple[int, int, int]:
        return (len(self.train), len(self.dev), len(self.test))


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
    """Allocate positions of ``labels`` (label-set positions) to (train,
    dev, test) in shuffled order. Stratified, each label is allocated on
    its own.

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


def _shuffled_parts(dataset: Dataset, rows: np.ndarray, spec: SplitSpec) -> list[np.ndarray]:
    """(train, dev, test) positions of ``rows`` under the spec's ratios."""
    labels = dataset.label_index[rows]
    rng = _rng(spec.seed)
    parts = _partition_indices(labels, len(dataset.label_set), spec.ratios, rng, spec.stratify)
    return [rows[part] for part in parts]


def _random(dataset: Dataset, rows: np.ndarray, spec: SplitSpec) -> Split:
    if len(rows) == 0:
        raise EmptyInputError("cannot split an empty dataset")
    provenance = {
        "generator": "random_split",
        "dataset": dataset.name,
        "n_records": len(rows),
        "stratified": spec.stratify,
    }
    return Split(dataset, *_shuffled_parts(dataset, rows, spec), spec, provenance)


def _holdout(dataset: Dataset, rows: np.ndarray, spec: SplitSpec) -> Split:
    """The held-out event's rows are the test set; the rest split train/dev."""
    events = dataset.events
    held = np.array([events[i] == spec.holdout_event for i in rows.tolist()], dtype=bool)
    if not held.any():
        raise UnknownEventError(f"no record has event {spec.holdout_event!r}")
    train, dev, _ = _shuffled_parts(dataset, rows[~held], spec)
    provenance = {
        "generator": "event_holdout_split",
        "dataset": dataset.name,
        "holdout_event": spec.holdout_event,
        "n_holdout_records": int(held.sum()),
    }
    return Split(dataset, train, dev, rows[held], spec, provenance)


def _group(dataset: Dataset, rows: np.ndarray, spec: SplitSpec) -> Split:
    """Whole groups to one partition each; ratios apply to group counts.

    Rows lacking the group field are excluded and counted in provenance;
    with exclude_conflicting_groups, groups with mixed labels are dropped
    too (their keys are recorded). The output keeps dataset order.
    """
    rng = _rng(spec.seed)
    column = getattr(dataset, f"{spec.group_by}s")  # article_ids or events
    key_of = [column[i] for i in rows.tolist()]
    labels_of: dict[str, set[int]] = {}
    for key, label in zip(key_of, dataset.label_index[rows].tolist()):
        if key is not None:
            labels_of.setdefault(key, set()).add(label)
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
    return Split(dataset, *(rows[part_of_row == p] for p in range(3)), spec, provenance)


def _filter_rows(dataset: Dataset, spec: SplitSpec) -> tuple[np.ndarray, dict[str, object]]:
    """Dataset positions the spec's event, label and quota filters keep, in
    dataset order, plus each stage's record for the provenance."""
    label_set = dataset.label_set
    rows = np.arange(len(dataset))
    stages: dict[str, object] = {}

    if spec.event_filter is not None:
        events = dataset.events
        present = set(events)
        missing = [e for e in spec.event_filter if e not in present]
        if missing:
            raise UnknownEventError(f"events not in dataset: {missing}")
        keep = set(spec.event_filter)
        rows = rows[[event in keep for event in events]]
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

    if spec.min_reply_count is not None:
        replies = dataset.reply_counts
        rows = rows[[(replies[i] or 0) >= spec.min_reply_count for i in rows.tolist()]]
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
    write_json(payload, path)


def import_split(path: str | Path, dataset: Dataset) -> Split:
    """Read a split file as positions in ``dataset``, each partition in file
    order; ids absent from the dataset are dropped and counted in
    provenance["missing_ids"], which is set only when some were dropped, so
    a re-exported file matches the one read.

    Raises:
        SplitFileError: malformed file (an id that is not a string or an
            int, a spec that is not an object or null or that fails
            ``SplitSpec.from_json_dict`` or ``validated``, a provenance that
            is not an object) or an id listed twice, in one partition or in
            two, which it names; the message starts with the path.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SplitFileError(f"cannot read split file {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise SplitFileError(f"{path}: split file must be a JSON object")
    keys = ("train_ids", "dev_ids", "test_ids")
    for key in keys:
        if not isinstance(raw.get(key), list):
            raise SplitFileError(f"{path}: missing or non-list {key}")
        for rid in raw[key]:
            if isinstance(rid, bool) or not isinstance(rid, (str, int)):
                raise SplitFileError(f"{path}: {key} holds {rid!r}, not a string or integer id")
    if raw.get("spec") is not None and not isinstance(raw["spec"], dict):
        raise SplitFileError(f"{path}: spec must be an object or null")
    if not isinstance(raw.get("provenance", {}), dict):
        raise SplitFileError(f"{path}: provenance must be an object")

    parts = [[str(x) for x in raw[key]] for key in keys]
    seen: dict[str, str] = {}  # id -> the partition that lists it
    for key, ids in zip(keys, parts):
        for rid in ids:
            if rid in seen:
                first = seen[rid]
                where = f"more than once in {key}" if first == key else f"in both {first} and {key}"
                raise SplitFileError(f"{path}: id {rid} appears {where}")
            seen[rid] = key

    row_of = {rid: row for row, rid in enumerate(dataset.ids)}
    rows = [[row_of[rid] for rid in ids if rid in row_of] for ids in parts]
    provenance = dict(raw.get("provenance", {}))
    provenance.setdefault("generator", "import_split")
    missing = len(seen) - sum(map(len, rows))
    if missing:
        provenance["missing_ids"] = missing

    spec = None
    if raw.get("spec") is not None:
        try:
            spec = SplitSpec.from_json_dict(raw["spec"]).validated()
        except (SplitFileError, RatioError) as exc:
            raise SplitFileError(f"{path}: {exc}") from exc
    return Split(dataset, *rows, spec=spec, provenance=provenance)


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
        raw = json.loads(source.read_text(encoding="utf-8-sig"))
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
