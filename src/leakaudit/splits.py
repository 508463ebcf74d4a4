"""Reproducible dataset splits: random/stratified, group-aware, and
event-holdout partitioning, plus quota subsampling and a registry of named
presets for the common benchmark protocols.

Everything here is a pure function of (dataset, spec): the same seed gives
byte-identical exported split files. Stratified allocation uses the
largest-remainder method, so every per-label partition size is within one
record of the exact proportion.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .data import Dataset, LabelSet, Record
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


@dataclass(frozen=True)
class SplitSpec:
    """Declarative description of how to carve a dataset.

    ratios are (train, dev, test) fractions summing to 1. Optional stages
    compose in a fixed order: event_filter -> label_filter ->
    quota subsample -> partitioning (holdout, group, or random).
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
        kwargs["ratios"] = tuple(kwargs.get("ratios", (0.7, 0.1, 0.2)))
        for key in ("label_filter", "event_filter"):
            if kwargs.get(key) is not None:
                kwargs[key] = tuple(kwargs[key])
        if kwargs.get("quotas") is not None:
            kwargs["quotas"] = dict(kwargs["quotas"])
        unknown = set(kwargs) - {f.name for f in __import__("dataclasses").fields(cls)}
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
) -> tuple[list[int], list[int], list[int]]:
    """Allocate positions of ``labels`` (label-set positions, -1 outside the
    set) to (train, dev, test) in shuffled order. Stratified, each label is
    allocated on its own and records outside the label set are dropped."""
    perm = rng.permutation(len(labels))
    groups = [perm[labels[perm] == i] for i in range(n_labels)] if stratify else [perm]
    parts: tuple[list[int], list[int], list[int]] = ([], [], [])
    for members in groups:
        start = 0
        for p, take in enumerate(largest_remainder(len(members), ratios)):
            parts[p].extend(members[start : start + take].tolist())
            start += take
    return parts


def random_split(dataset: Dataset, spec: SplitSpec) -> Split:
    """Seeded (optionally stratified) partition by the spec's ratios.

    Raises:
        EmptyInputError: on an empty dataset.
        RatioError: on malformed ratios or a missing seed.
    """
    spec = spec.validated()
    if len(dataset) == 0:
        raise EmptyInputError("cannot split an empty dataset")
    rng = _rng(spec.seed)
    parts = _partition_indices(
        dataset.label_index, len(dataset.label_set), spec.ratios, rng, spec.stratify
    )
    ids = [tuple(dataset.records[i].id for i in part) for part in parts]
    return Split(
        train_ids=ids[0],
        dev_ids=ids[1],
        test_ids=ids[2],
        spec=spec,
        provenance={
            "generator": "random_split",
            "dataset": dataset.name,
            "n_records": len(dataset),
            "stratified": spec.stratify,
        },
    )


def find_conflicting_groups(dataset: Dataset, group_by: str = "article_id") -> list[str]:
    """Group keys whose records carry more than one distinct label."""
    labels_of: dict[str, set[str]] = {}
    for r in dataset.records:
        key = getattr(r, group_by, None)
        if key is not None:
            labels_of.setdefault(key, set()).add(r.label)
    return sorted(k for k, labs in labels_of.items() if len(labs) > 1)


def group_split(dataset: Dataset, spec: SplitSpec) -> Split:
    """Partition whole groups (e.g. all tweets of one article together).

    Ratios apply to group counts. Records lacking the group field are
    excluded and counted in provenance; with exclude_conflicting_groups,
    groups with mixed labels are dropped too (their keys are recorded).

    Raises:
        MissingGroupFieldError: if no record carries the group field.
    """
    spec = spec.validated()
    if spec.group_by is None:
        raise RatioError("group_split needs spec.group_by")
    rng = _rng(spec.seed)

    grouped: dict[str, list[Record]] = {}
    ungrouped = 0
    for r in dataset.records:
        key = getattr(r, spec.group_by, None)
        if key is None:
            ungrouped += 1
        else:
            grouped.setdefault(key, []).append(r)
    if not grouped:
        raise MissingGroupFieldError(f"no record has a {spec.group_by!r} value")

    conflicting: list[str] = []
    if spec.exclude_conflicting_groups:
        conflicting = [k for k in find_conflicting_groups(dataset, spec.group_by) if k in grouped]
        for k in conflicting:
            del grouped[k]
        if not grouped:
            raise MissingGroupFieldError("every group was excluded as conflicting")

    keys = sorted(grouped)
    perm = rng.permutation(len(keys))
    alloc = largest_remainder(len(keys), spec.ratios)
    part_of_key: dict[str, int] = {}
    start = 0
    for p, take in enumerate(alloc):
        for i in perm[start : start + take]:
            part_of_key[keys[int(i)]] = p
        start += take

    ids: tuple[list[str], ...] = ([], [], [])
    for r in dataset.records:
        key = getattr(r, spec.group_by, None)
        if key in part_of_key:
            ids[part_of_key[key]].append(r.id)

    provenance = {
        "generator": "group_split",
        "dataset": dataset.name,
        "group_by": spec.group_by,
        "n_groups": len(keys),
        "excluded_ungrouped_records": ungrouped,
        "excluded_conflicting_groups": conflicting,
    }
    if len(keys) < 3:
        provenance["warning"] = (
            f"only {len(keys)} group(s): some partitions are necessarily empty"
        )
    return Split(
        train_ids=tuple(ids[0]),
        dev_ids=tuple(ids[1]),
        test_ids=tuple(ids[2]),
        spec=spec,
        provenance=provenance,
    )


def event_holdout_split(
    dataset: Dataset,
    holdout_event: str,
    dev_ratio: float = 0.1,
    seed: int | None = None,
    stratify: bool = True,
) -> Split:
    """Hold one event out as the whole test set; split the rest train/dev.

    Raises:
        UnknownEventError: if no record belongs to the event.
    """
    if not 0.0 <= dev_ratio < 1.0:
        raise RatioError(f"dev_ratio must be in [0, 1), got {dev_ratio}")
    spec = SplitSpec(
        ratios=(1.0 - dev_ratio, dev_ratio, 0.0),
        seed=seed,
        stratify=stratify,
        holdout_event=holdout_event,
    ).validated()
    return _holdout(dataset, spec)


def _holdout(dataset: Dataset, spec: SplitSpec) -> Split:
    test_ids = [r.id for r in dataset.records if r.event == spec.holdout_event]
    if not test_ids:
        raise UnknownEventError(f"no record has event {spec.holdout_event!r}")
    rest = [i for i, r in enumerate(dataset.records) if r.event != spec.holdout_event]
    rng = _rng(spec.seed)
    parts = _partition_indices(
        dataset.label_index[rest], len(dataset.label_set), spec.ratios, rng, spec.stratify
    )
    return Split(
        train_ids=tuple(dataset.records[rest[i]].id for i in parts[0]),
        dev_ids=tuple(dataset.records[rest[i]].id for i in parts[1]),
        test_ids=tuple(test_ids),
        spec=spec,
        provenance={
            "generator": "event_holdout_split",
            "dataset": dataset.name,
            "holdout_event": spec.holdout_event,
            "n_holdout_records": len(test_ids),
        },
    )


def quota_subsample(
    dataset: Dataset,
    quotas: Mapping[str, int],
    min_reply_count: int | None = None,
    seed: int | None = None,
) -> Dataset:
    """Random per-label subsample to exact quota sizes.

    Only records meeting min_reply_count (when set) are eligible; records
    without a reply_count count as 0 replies. The result keeps dataset
    order and narrows the label set to the quota labels.

    Raises:
        UnknownLabelError: for a quota on a label outside the label set.
        InsufficientRecordsError: naming each label whose eligible pool is
            smaller than its quota.
    """
    for label in quotas:
        if label not in dataset.label_set:
            raise UnknownLabelError(f"quota label {label!r} not in label set")
    rng = _rng(seed)

    eligible: dict[str, list[int]] = {label: [] for label in quotas}
    for i, r in enumerate(dataset.records):
        if r.label not in eligible:
            continue
        if min_reply_count is not None and (r.reply_count or 0) < min_reply_count:
            continue
        eligible[r.label].append(i)

    shortfalls = {
        label: (quotas[label], len(eligible[label]))
        for label in quotas
        if len(eligible[label]) < quotas[label]
    }
    if shortfalls:
        detail = ", ".join(
            f"{label}: need {need}, have {have}" for label, (need, have) in sorted(shortfalls.items())
        )
        raise InsufficientRecordsError(f"quota cannot be met ({detail})")

    chosen: set[int] = set()
    # label-set order fixes the rng consumption order
    for label in dataset.label_set:
        if label not in quotas or quotas[label] == 0:
            continue
        pool = eligible[label]
        take = rng.permutation(len(pool))[: quotas[label]]
        chosen.update(pool[int(i)] for i in take)

    records = tuple(r for i, r in enumerate(dataset.records) if i in chosen)
    kept_labels = tuple(lab for lab in dataset.label_set if lab in quotas and quotas[lab] > 0)
    return Dataset(
        records=records,
        label_set=LabelSet(kept_labels),
        name=dataset.name,
        source_notes=dataset.source_notes,
    )


def label_filter(dataset: Dataset, labels: Iterable[str]) -> Dataset:
    """Keep only the given labels; label-set order is preserved from the
    original. Filtering to the full label set is the identity."""
    wanted = set(labels)
    for label in wanted:
        if label not in dataset.label_set:
            raise UnknownLabelError(f"label {label!r} not in label set")
    kept = tuple(lab for lab in dataset.label_set if lab in wanted)
    return Dataset(
        records=tuple(r for r in dataset.records if r.label in wanted),
        label_set=LabelSet(kept),
        name=dataset.name,
        source_notes=dataset.source_notes,
    )


def make_split(dataset: Dataset, spec: SplitSpec) -> Split:
    """Run a spec end to end: filters, quotas, then the partitioning stage.

    This is the entry point presets go through; every stage is recorded in
    the returned provenance.
    """
    spec = spec.validated()
    working = dataset
    stages: dict[str, object] = {}

    if spec.event_filter is not None:
        events = {r.event for r in working.records}
        missing = [e for e in spec.event_filter if e not in events]
        if missing:
            raise UnknownEventError(f"events not in dataset: {missing}")
        keep = set(spec.event_filter)
        working = Dataset(
            records=tuple(r for r in working.records if r.event in keep),
            label_set=working.label_set,
            name=working.name,
            source_notes=working.source_notes,
        )
        stages["event_filter"] = {"events": list(spec.event_filter), "n_after": len(working)}

    if spec.label_filter is not None:
        working = label_filter(working, spec.label_filter)
        stages["label_filter"] = {"labels": list(spec.label_filter), "n_after": len(working)}

    if spec.quotas is not None:
        working = quota_subsample(working, spec.quotas, spec.min_reply_count, spec.seed)
        stages["quota_subsample"] = {
            "quotas": dict(spec.quotas),
            "min_reply_count": spec.min_reply_count,
            "n_after": len(working),
        }

    if spec.holdout_event is not None:
        split = _holdout(working, spec)
    elif spec.group_by is not None:
        split = group_split(working, spec)
    else:
        split = random_split(working, spec)

    if stages:
        provenance = dict(split.provenance)
        provenance["stages"] = stages
        split = Split(
            train_ids=split.train_ids,
            dev_ids=split.dev_ids,
            test_ids=split.test_ids,
            spec=spec,
            provenance=provenance,
        )
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
        raw = json.loads(source.read_text(encoding="utf-8"))
        for name, entry in raw.get("presets", {}).items():
            registry[name] = {
                "description": entry.get("description", ""),
                "expects": entry.get("expects", ""),
                "spec": SplitSpec.from_json_dict({**entry["spec"], "name": name}),
            }
    return registry


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
        spec = SplitSpec.from_json_dict({**spec.to_json_dict(), "seed": seed})
    return make_split(dataset, spec)
