"""Core data model: records, label sets, datasets, and file loaders.

A Dataset is an ordered, immutable collection of labeled records with unique
ids; its parsed ids and their creation times are columns built on first use
(``id_values``, ``timestamps``). A Record is an immutable named tuple of its
source row; a record without extra source columns shares one empty
read-only ``extra`` mapping. The loaders are the one record checker:
malformed input raises, with the offending line number, so every loaded
dataset keeps the record rules.

Every loader builds its records a chunk of at most ``CHUNK_SIZE`` rows at a
time (``_chunk_builder``): the manifest is resolved once per file, each
JSONL line is decoded once, and column checks over the chunk pick out the
plain rows, which are built without a per-row check. Every other row goes
through ``_record_builder``, the one place each record rule and its error
message live. An unreadable line is reported after the rows before it are
built, and duplicate ids are checked after the whole file is built, so the
first bad line is the one reported.

File formats (UTF-8; a leading byte order mark is skipped):
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
from operator import itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    DuplicateIdError,
    IdParseError,
    RecordParseError,
    SchemaError,
    UnknownLabelError,
)
from .snowflake import parse_id, parse_ids, timestamps_of
from .text import TextTable, build_text_table

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


# the ``extra`` of every record without extra source columns
_NO_EXTRA: Mapping[str, object] = MappingProxyType({})


class Record(NamedTuple):
    """One labeled social-media item, an immutable named tuple.

    ``extra`` holds source columns outside the canonical schema so loaders
    round-trip without loss: a dict of the record's own, or the default,
    one shared, empty, read-only mapping. The own dict is not wrapped
    read-only: a wrapper is one more object per record for the cyclic
    garbage collector to scan.
    """

    id: str
    text: str
    label: str
    event: str | None = None
    article_id: str | None = None
    reply_count: int | None = None
    extra: Mapping[str, object] = _NO_EXTRA


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
    def id_values(self) -> np.ndarray:
        """Each id as parsed by ``snowflake.parse_id``, uint64, read-only.
        Raises ``parse_id``'s IdParseError for the first id it refuses."""
        accepted, values = parse_ids([r.id if isinstance(r.id, str) else "" for r in self.records])
        if not accepted.all():  # parse_id raises for the first refused id
            parse_id(self.records[int(np.argmin(accepted))].id)
        values.flags.writeable = False
        return values

    @cached_property
    def timestamps(self) -> np.ndarray:
        """Each id's creation time, int64 unix ms (-1 for none), read-only."""
        stamps = timestamps_of(self.id_values)
        stamps.flags.writeable = False
        return stamps

    @cached_property
    def label_index(self) -> np.ndarray:
        """Each record's label-set position (-1 outside the set), read-only.

        Built on first use, not at load, so loading does not pay for it.
        """
        index = self.label_set.encode(r.label for r in self.records)
        index.flags.writeable = False
        return index

    @cached_property
    def text_table(self) -> TextTable:
        """The records' distinct normalized texts and words, which the
        keyword and duplicate scans share. Built on first use, like
        ``label_index``."""
        return build_text_table([r.text for r in self.records])


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
        with open(path, encoding="utf-8-sig") as fh:
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


def _check_id(id_value: object, line: int) -> str:
    """The id as a canonical string."""
    # JSON writers commonly emit big ids as numbers; accept ints losslessly.
    if isinstance(id_value, int) and not isinstance(id_value, bool):
        id_value = str(id_value)
    try:
        parse_id(id_value)
    except IdParseError as exc:
        raise RecordParseError(str(exc), line) from None
    return id_value


def _parse_reply_count(value: object, line: int) -> int | None:
    if value is None or value == "":
        return None
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise RecordParseError(f"reply_count is not an integer: {value!r}", line)
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
    reply_count. Duplicate ids are left to ``_build``.
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
        id_str = _check_id(id_value, line)
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
            extra=extra if extra else _NO_EXTRA,
        )

    return build


# A chunk's raw rows are alive together, so a bigger chunk raises peak
# memory for no speed: 4096 rows added 1.2 MB to an 8,000-record audit.
CHUNK_SIZE = 1024
# a raw row and the 1-based line it starts on
_Row = tuple[int, Mapping[str, object]]


def _chunk_builder(manifest: Manifest) -> Callable[[list[_Row]], list[Record]]:
    """One file's chunk builder: the records of a list of (line, raw row)
    pairs, the same records and the same first error as ``_record_builder``
    gives row by row.

    Column checks over the chunk mark its plain rows: a dict with exactly
    the required keys, a ``str`` text, a ``str`` label in the manifest, and
    a ``str`` id that ``parse_ids`` accepts. A plain row is built with one
    ``tuple.__new__``. Every other row goes through the record builder,
    which raises on the first broken rule; plain rows never raise, so the
    first bad line of the chunk is the one reported.
    """
    build = _record_builder(manifest)
    keys = tuple(manifest.source_key(canonical) for canonical in CANONICAL_FIELDS)
    required = frozenset(keys[:3])
    # an optional field read from a required key would not be None
    fast = required.isdisjoint(keys[3:])
    columns = itemgetter(*keys[:3])
    labels = frozenset(manifest.labels)
    new = tuple.__new__

    def build_chunk(chunk: list[_Row]) -> list[Record]:
        keyed = [
            (i, *columns(raw)) for i, (_, raw) in enumerate(chunk)
            if type(raw) is dict and raw.keys() == required
        ] if fast else []
        rows = [
            row for row in keyed
            if type(row[1]) is str and type(row[2]) is str and type(row[3]) is str
            and row[3] in labels
        ]
        records: list[Record | None] = [None] * len(chunk)
        if rows:
            plain, _ = parse_ids([row[1] for row in rows])
            for (i, id_str, text, label), is_plain in zip(rows, plain.tolist()):
                if is_plain:
                    records[i] = new(Record, (id_str, text, label, None, None, None, _NO_EXTRA))
        for i, record in enumerate(records):
            if record is None:
                records[i] = build(chunk[i][1], chunk[i][0])
        return records

    return build_chunk


def _chunks(rows: Iterable[_Row]) -> Iterator[list[_Row]]:
    """``rows`` in lists of at most ``CHUNK_SIZE``. When reading a row
    raises (an unreadable line), the rows read before it are yielded first,
    so their errors are the ones reported, as when each row was built as it
    was read."""
    chunk: list[_Row] = []
    try:
        for row in rows:
            chunk.append(row)
            if len(chunk) == CHUNK_SIZE:
                yield chunk
                chunk = []
    except Exception:
        yield chunk
        raise
    if chunk:
        yield chunk


def _build(rows: Iterable[_Row], manifest: Manifest, name: str) -> Dataset:
    """The dataset of (line, raw row) pairs, built a chunk at a time.
    Duplicate ids are checked once every row is built."""
    build_chunk = _chunk_builder(manifest)
    records: list[Record] = []
    lines: list[int] = []
    for chunk in _chunks(rows):
        records += build_chunk(chunk)
        lines += [line for line, _ in chunk]
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


def _jsonl_rows(fh) -> Iterator[_Row]:
    """Each JSON object line of an open JSONL file and its 1-based line
    number; blank lines are skipped, and any other line raises."""
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
        yield line_no, raw


def load_jsonl(path: str | Path, manifest: Manifest, name: str = "") -> Dataset:
    """Load a JSONL dataset strictly; line numbers are 1-based in errors."""
    with open(path, encoding="utf-8-sig") as fh:
        return _build(_jsonl_rows(fh), manifest, name or Path(path).stem)


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
    with open(path, encoding="utf-8-sig", newline="") as fh:
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

        def raw_rows() -> Iterator[_Row]:
            for line, row in rows:
                if len(row) != len(header):
                    raise RecordParseError("row width does not match header", line)
                yield line, dict(zip(header, row))

        return _build(raw_rows(), manifest, name or Path(path).stem)


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
            if r.extra:  # updating from a read-only mapping is slow even when empty
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
    return _build(enumerate(rows, start=1), Manifest(labels=tuple(labels)), name)
