"""Core data model: records, label sets, datasets, and file loaders.

A Dataset is an ordered, immutable collection of labeled records with unique
ids. The loaders are the one record checker: malformed input raises, with
the offending line number, so every loaded dataset keeps the record rules.

Every loader builds its records in one pass: the manifest is resolved once
per file (``_record_builder``), each JSONL line is decoded once, and each id
is parsed once, its timestamp coming from the parsed value. Duplicate ids
are checked after the whole file is built, so a bad line anywhere is
reported before a duplicate.

File formats:
  JSONL - one object per line: {"id", "text", "label"} required,
          {"event", "article_id", "reply_count"} optional.
  CSV   - RFC 4180 with a header row; the manifest maps canonical field
          names onto source columns.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    DuplicateIdError,
    IdParseError,
    RecordParseError,
    SchemaError,
    UnknownLabelError,
)
from .snowflake import parse_id, timestamp_of

CANONICAL_FIELDS = ("id", "text", "label", "event", "article_id", "reply_count")
REQUIRED_FIELDS = ("id", "text", "label")


@dataclass(frozen=True)
class LabelSet:
    """Ordered set of distinct label strings.

    Order is significant: it fixes tie-breaking everywhere downstream
    (forest votes, article-vote ties, report columns), so two label sets
    with the same members in different orders are different label sets.
    """

    labels: tuple[str, ...]

    def __post_init__(self):
        if not self.labels:
            raise ValueError("label set is empty")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate labels in {self.labels}")
        if any(not isinstance(lab, str) or lab == "" for lab in self.labels):
            raise ValueError("labels must be non-empty strings")

    @classmethod
    def of(cls, *labels: str) -> "LabelSet":
        return cls(tuple(labels))

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownLabelError(f"label {label!r} not in {self.labels}") from None

    def encode(self, labels: Iterable[str]) -> np.ndarray:
        """Label-set position of each label as int64, -1 for a label
        outside the set. This is the one label-to-position map."""
        position = {label: i for i, label in enumerate(self.labels)}
        return np.fromiter((position.get(label, -1) for label in labels), dtype=np.int64)

    def __contains__(self, label: str) -> bool:
        return label in self.labels

    def __iter__(self):
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class Record:
    """One labeled social-media item.

    ``timestamp_ms`` is derived from the id at load time (None when the id
    carries no snowflake timestamp); it is never read from the input file.
    ``extra`` holds source columns outside the canonical schema so loaders
    round-trip without loss.
    """

    id: str
    text: str
    label: str
    event: str | None = None
    article_id: str | None = None
    reply_count: int | None = None
    timestamp_ms: int | None = None
    extra: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class Dataset:
    """Immutable ordered collection of records plus its label vocabulary.

    Construction checks nothing; the loaders below and ``build_dataset``
    enforce id syntax and uniqueness, label membership, text type and
    reply_count strictly and raise on the first violation.
    """

    records: tuple[Record, ...]
    label_set: LabelSet
    name: str = ""

    def __len__(self) -> int:
        return len(self.records)

    @cached_property
    def label_index(self) -> np.ndarray:
        """Each record's label-set position (-1 outside the set), read-only.

        Built on first use, not at load, so loading does not pay for it.
        """
        index = self.label_set.encode(r.label for r in self.records)
        index.flags.writeable = False
        return index


@dataclass(frozen=True)
class Manifest:
    """Describes how to read a source file: label vocabulary + field map.

    ``fields`` maps canonical field names to source column/key names.
    Unmapped canonical fields default to their own name; optional fields
    whose default column is absent simply load as None.
    """

    labels: tuple[str, ...]
    fields: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        unknown = set(self.fields) - set(CANONICAL_FIELDS)
        if unknown:
            raise SchemaError(f"manifest maps unknown fields: {sorted(unknown)}")

    @classmethod
    def from_json_file(cls, path: str | Path) -> "Manifest":
        """Read a manifest file: a JSON object with a non-empty ``labels``
        list of strings and an optional ``fields`` object of strings. Any
        other key is ignored.

        Raises:
            SchemaError: naming the file, if it is not such an object.
        """
        with open(path, encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"manifest {path} is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise SchemaError(f"manifest {path} must be a JSON object")
        labels, fields = raw.get("labels"), raw.get("fields", {})
        if not isinstance(labels, list) or not labels or not all(isinstance(x, str) for x in labels):
            raise SchemaError(f"manifest {path}: labels must be a non-empty list of strings")
        if not isinstance(fields, dict) or not all(isinstance(v, str) for v in fields.values()):
            raise SchemaError(f"manifest {path}: fields must be an object of strings")
        return cls(labels=tuple(labels), fields=dict(fields))

    def label_set(self) -> LabelSet:
        return LabelSet(self.labels)

    def source_key(self, canonical: str) -> str:
        return self.fields.get(canonical, canonical)


def _check_id(id_value: object, line: int) -> tuple[str, int]:
    """The id as a canonical string, and its parsed value."""
    # JSON writers commonly emit big ids as numbers; accept ints losslessly.
    if isinstance(id_value, int) and not isinstance(id_value, bool):
        id_value = str(id_value)
    try:
        return id_value, parse_id(id_value)
    except IdParseError as exc:
        raise RecordParseError(str(exc), line) from None


def _parse_reply_count(value: object, line: int) -> int | None:
    if value is None or value == "":
        return None
    try:
        count = int(value)
    except (TypeError, ValueError):
        raise RecordParseError(f"reply_count is not an integer: {value!r}", line) from None
    if count < 0:
        raise RecordParseError(f"reply_count is negative: {count}", line)
    return count


def _record_builder(manifest: Manifest) -> Callable[[Mapping[str, object], int], Record]:
    """One file's record builder. The manifest's source keys, mapped-key set
    and labels are resolved here, once per file.

    A record is checked in a fixed order, and the first broken rule raises:
    missing id, text, label; id syntax; text type; label membership;
    reply_count. Duplicate ids are left to ``_assemble``.
    """
    keys = tuple(manifest.source_key(canonical) for canonical in CANONICAL_FIELDS)
    id_key, text_key, label_key, event_key, article_key, reply_key = keys
    mapped_keys = frozenset(keys)
    labels = manifest.labels

    def build(raw: Mapping[str, object], line: int) -> Record:
        id_value = raw.get(id_key)
        if id_value is None:
            raise RecordParseError(f"missing required field {id_key!r}", line)
        text = raw.get(text_key)
        if text is None:
            raise RecordParseError(f"missing required field {text_key!r}", line)
        label = raw.get(label_key)
        if label is None:
            raise RecordParseError(f"missing required field {label_key!r}", line)
        id_str, id_int = _check_id(id_value, line)
        if not isinstance(text, str):
            raise RecordParseError(f"text is not a string: {text!r}", line)
        if label not in labels:
            raise UnknownLabelError(
                f"line {line}: label {label!r} not in manifest labels {list(labels)}"
            )
        extra = {k: v for k, v in raw.items() if k not in mapped_keys}
        event = raw.get(event_key)
        article_id = raw.get(article_key)
        return Record(
            id=id_str,
            text=text,
            label=str(label),
            event=str(event) if event not in (None, "") else None,
            article_id=str(article_id) if article_id not in (None, "") else None,
            reply_count=_parse_reply_count(raw.get(reply_key), line),
            timestamp_ms=timestamp_of(id_int),
            extra=extra,
        )

    return build


def _assemble(records: list[Record], manifest: Manifest, lines: list[int], name: str) -> Dataset:
    seen: dict[str, int] = {}
    for record, line in zip(records, lines):
        if record.id in seen:
            raise DuplicateIdError(
                f"id {record.id} already seen on line {seen[record.id]}", line
            )
        seen[record.id] = line
    return Dataset(records=tuple(records), label_set=manifest.label_set(), name=name)


# json.loads(line) runs a JSONDecoder's scanner between two regex skips of
# blanks. A line that is exactly one JSON value and its newline needs no
# skip, so the loader calls the scanner directly and leaves every other line
# (blank, padded, trailing data, not JSON) to json.loads and its errors.
_scan_once = json.JSONDecoder().scan_once


def load_jsonl(path: str | Path, manifest: Manifest, name: str = "") -> Dataset:
    """Load a JSONL dataset strictly; line numbers are 1-based in errors."""
    build = _record_builder(manifest)
    records: list[Record] = []
    lines: list[int] = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                raw, end = _scan_once(line, 0)
            except (StopIteration, json.JSONDecodeError):
                end = -1
            n = len(line)
            if end != n and (end != n - 1 or line[end] != "\n"):
                # blanks around the value, trailing data, or no value at all
                if not line.strip():
                    continue
                try:
                    raw = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise RecordParseError(f"invalid JSON: {exc}", line_no) from None
            if not isinstance(raw, dict):
                raise RecordParseError("line is not a JSON object", line_no)
            records.append(build(raw, line_no))
            lines.append(line_no)
    return _assemble(records, manifest, lines, name or Path(path).stem)


def csv_rows(fh) -> Iterator[tuple[int, list[str]]]:
    """Each non-blank row of an open CSV file, header included, and the
    1-based line it starts on (a quoted field may span lines)."""
    reader = csv.reader(fh)
    start = 1
    for row in reader:
        if row:
            yield start, row
        start = reader.line_num + 1


def load_csv(path: str | Path, manifest: Manifest, name: str = "") -> Dataset:
    """Load an RFC 4180 CSV dataset with a header row; errors give the line
    a row starts on, 1-based."""
    records: list[Record] = []
    lines: list[int] = []
    with open(path, encoding="utf-8", newline="") as fh:
        rows = csv_rows(fh)
        _, header = next(rows, (0, None))
        if header is None:
            raise SchemaError(f"{path}: empty file, no header row")
        for canonical in REQUIRED_FIELDS:
            if manifest.source_key(canonical) not in header:
                raise SchemaError(
                    f"{path}: missing required column {manifest.source_key(canonical)!r}"
                )
        for canonical in CANONICAL_FIELDS:
            if canonical in manifest.fields and manifest.fields[canonical] not in header:
                raise SchemaError(
                    f"{path}: manifest maps {canonical!r} to missing column "
                    f"{manifest.fields[canonical]!r}"
                )
        build = _record_builder(manifest)
        for line, row in rows:
            if len(row) != len(header):
                raise RecordParseError("row width does not match header", line)
            records.append(build(dict(zip(header, row)), line))
            lines.append(line)
    return _assemble(records, manifest, lines, name or Path(path).stem)


def save_jsonl(dataset: Dataset, path: str | Path) -> None:
    """Write canonical JSONL (stable key order, extras preserved)."""
    encode = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode
    with open(path, "w", encoding="utf-8") as fh:
        for r in dataset.records:
            row: dict[str, object] = {"id": r.id, "text": r.text, "label": r.label}
            if r.event is not None:
                row["event"] = r.event
            if r.article_id is not None:
                row["article_id"] = r.article_id
            if r.reply_count is not None:
                row["reply_count"] = r.reply_count
            row.update(r.extra)
            fh.write(encode(row) + "\n")


def label_distribution(dataset: Dataset) -> dict[str, int]:
    """Counts per label, in label-set order, zeros included."""
    index = dataset.label_index
    counts = np.bincount(index[index >= 0], minlength=len(dataset.label_set))
    return dict(zip(dataset.label_set, counts.tolist()))


def build_dataset(
    rows: Sequence[Mapping[str, object]],
    labels: Sequence[str],
    name: str = "",
) -> Dataset:
    """Assemble a dataset from in-memory dicts with loader-grade strictness.

    Convenience for tests and synthetic corpora; equivalent to writing the
    rows out as JSONL and loading them back.
    """
    manifest = Manifest(labels=tuple(labels))
    build = _record_builder(manifest)
    records = [build(row, line) for line, row in enumerate(rows, start=1)]
    return _assemble(records, manifest, list(range(1, len(records) + 1)), name)
