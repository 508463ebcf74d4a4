"""Core data model: records, label sets, datasets, and file loaders.

A Dataset is an ordered, immutable collection of labeled records with unique
ids, stored as columns: the id strings, the texts, each label's label-set
position and each parsed id (``ids``, ``texts``, ``label_index``,
``id_values``), with the creation times (``timestamps``) derived on first
use. A Record is an immutable named tuple of its source row; a record
without extra source columns shares one empty read-only ``extra`` mapping.
A loaded dataset keeps a full Record only for a row that is not plain (an
optional field, an extra column, an id given as a number), and builds its
``records`` tuple on first access. The
loaders are the one record checker: malformed input raises, with the
offending line number, so every loaded dataset keeps the record rules.

Every loader fills the columns a chunk of at most ``CHUNK_SIZE`` rows at a
time (``_chunk_builder``): the manifest is resolved once, when made, a
JSONL chunk of one JSON object per line is decoded in one pass, and type
and key checks pick out the plain rows, which go into the columns without
the record builder, each id parsed once. Every other row (and every line
of a chunk with a blank, padded or unreadable line) goes through the
per-line rules and ``_record_builder``, the one place each record rule and
its error message live. An unreadable line or byte is reported after the
rows before it are built, and duplicate ids are found with one stable sort of
the id values after the whole file is built, so the first bad line is the
one reported.

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
from itertools import compress, islice
from json.encoder import encode_basestring as escape
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


# what a plain record holds past its id, text and label
_PLAIN_TAIL = (None, None, None, _NO_EXTRA)


class Dataset:
    """Immutable ordered collection of records plus its label vocabulary.

    The columns are ``ids`` and ``texts`` (tuples of str), ``label_index``
    (int64 label-set positions, -1 outside the set) and ``id_values``
    (uint64, each id as ``snowflake.parse_id`` reads it), with
    ``timestamps`` and ``text_table`` derived from them on first use. A
    loaded dataset holds its columns from the start, and a full ``Record``
    only for a row that is not plain (an optional field, an extra column,
    an id given as a number); its ``records`` tuple is built on first
    access. A
    dataset made as ``Dataset(records, label_set, name)`` holds its
    records, and derives each column from them on first use.

    Construction checks nothing; the loaders below and ``build_dataset``
    enforce id syntax and uniqueness, label membership, text type and
    reply_count strictly and raise on the first violation.
    """

    def __init__(self, records: Sequence[Record], label_set: LabelSet, name: str = ""):
        vars(self).update(records=records, label_set=label_set, name=name)

    @classmethod
    def _of_columns(cls, label_set: LabelSet, name: str, ids: tuple[str, ...],
                    texts: tuple[str, ...], label_index: np.ndarray, id_values: np.ndarray,
                    full_records: tuple[Record | None, ...]) -> "Dataset":
        """The dataset of checked columns, and each row's full record (None
        for a plain row, which the columns hold whole)."""
        dataset = cls.__new__(cls)
        label_index.flags.writeable = id_values.flags.writeable = False
        vars(dataset).update(label_set=label_set, name=name, ids=ids, texts=texts,
                             label_index=label_index, id_values=id_values,
                             _full_records=full_records)
        return dataset

    def with_rows_from(self, pool: "Dataset", replacement: np.ndarray,
                       pool_label: np.ndarray, name: str) -> "Dataset":
        """This dataset, named ``name``, with each row that has a
        replacement (>= 0) taken from that pool row, gathered column by
        column, so no id is parsed again; ``pool_label`` gives each pool
        row's position in this dataset's label set."""
        taken = replacement.tolist()
        replaced = replacement >= 0

        def gathered(own: tuple, pooled: tuple) -> tuple:
            return tuple(value if j < 0 else pooled[j] for value, j in zip(own, taken))

        return Dataset._of_columns(
            self.label_set, name,
            gathered(self.ids, pool.ids),
            gathered(self.texts, pool.texts),
            np.where(replaced, pool_label[replacement], self.label_index),
            np.where(replaced, pool.id_values[replacement], self.id_values),
            gathered(self._full_records, pool._full_records),
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: a Dataset is immutable")

    # equal and hashed by records, label set and name, as a frozen dataclass
    def _key(self) -> tuple:
        return self.records, self.label_set, self.name

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is Dataset else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __len__(self) -> int:
        return len(self.ids)

    @cached_property
    def records(self) -> tuple[Record, ...]:
        """Each row as a ``Record``, equal to the one its source row gave."""
        labels, new = self.label_set.labels, tuple.__new__
        return tuple(
            new(Record, (id_str, text, labels[label], *_PLAIN_TAIL)) if full is None else full
            for id_str, text, label, full in zip(
                self.ids, self.texts, self.label_index.tolist(), self._full_records
            )
        )

    @cached_property
    def ids(self) -> tuple[str, ...]:
        return tuple(r.id for r in self.records)

    @cached_property
    def texts(self) -> tuple[str, ...]:
        return tuple(r.text for r in self.records)

    @cached_property
    def _full_records(self) -> tuple[Record | None, ...]:
        """Each row's record, or None for a plain row: a ``str`` id, text and
        label in the set, and ``_PLAIN_TAIL``. Writers and readers of the
        optional fields read these, and the columns for the plain rows."""
        return tuple(
            None if label >= 0 and r[3:] == _PLAIN_TAIL
            and {type(r.id), type(r.text), type(r.label)} == {str} else r
            for r, label in zip(self.records, self.label_index.tolist())
        )

    @cached_property
    def id_values(self) -> np.ndarray:
        """Each id as parsed by ``snowflake.parse_id``, uint64, read-only.
        Raises ``parse_id``'s IdParseError for the first id it refuses."""
        ids = self.ids
        accepted, values = parse_ids([i if isinstance(i, str) else "" for i in ids])
        if not accepted.all():  # parse_id raises for the first refused id
            parse_id(ids[int(np.argmin(accepted))])
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
        """Each record's label-set position (-1 outside the set), read-only."""
        index = self.label_set.encode(r.label for r in self.records)
        index.flags.writeable = False
        return index

    @cached_property
    def text_table(self) -> TextTable:
        """The records' distinct normalized texts and words, which the
        keyword and duplicate scans share. Built on first use."""
        return build_text_table(self.texts)


@dataclass(frozen=True)
class Manifest:
    """Describes how to read a source file: label vocabulary + field map.

    ``fields`` maps canonical field names to source column/key names.
    Unmapped canonical fields default to their own name; optional fields
    whose default column is absent simply load as None.
    Its label set and source keys are resolved when it is made, so a bad
    label set is refused before any file is read; they are not fields, so
    equality and repr stay those of the labels and field map.
    """

    labels: tuple[str, ...]
    fields: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        unknown = set(self.fields) - set(CANONICAL_FIELDS)
        if unknown:
            raise SchemaError(f"field map names unknown fields: {sorted(unknown)}")
        object.__setattr__(self, "_label_set", LabelSet(self.labels))
        object.__setattr__(self, "_keys", tuple(self.fields.get(c, c) for c in CANONICAL_FIELDS))

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
        try:
            return cls(labels=tuple(labels), fields=dict(fields))
        except (ValueError, SchemaError) as exc:  # the label set's or field map's refusal
            raise SchemaError(f"manifest {path}: {exc}") from None

    def label_set(self) -> LabelSet:
        return self._label_set

    def source_key(self, canonical: str) -> str:
        return self._keys[CANONICAL_FIELDS.index(canonical)]


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
    """One file's record builder, reading the keys the manifest resolved.

    A record is checked in a fixed order, and the first broken rule raises:
    missing id, text, label; id syntax; text type; label membership;
    reply_count. Duplicate ids are left to ``_build``.
    """
    id_key, text_key, label_key, event_key, article_key, reply_key = manifest._keys
    mapped_keys = frozenset(manifest._keys)
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
# a chunk's 1-based lines and raw rows
_Chunk = tuple[Sequence[int], list[Mapping[str, object]]]
# a chunk's columns: ids, texts, label positions, id values, and each row's
# full record (None for a plain row)
_Columns = tuple[list[str], list[str], list[int], np.ndarray, list[Record | None]]


def _chunk_builder(manifest: Manifest) -> Callable[[Sequence[int], list], _Columns]:
    """One file's chunk builder: the columns of a chunk's lines and raw
    rows, the same values and the same first error as ``_record_builder``
    gives row by row.

    Checks row by row mark the plain rows: a dict of exactly the required
    keys, each a ``str``, with a label in the manifest and an id
    ``parse_ids`` accepts. They go straight into the columns, and every
    other row goes through the record builder, which raises on the first
    broken rule; plain rows never raise, so the first bad line of the
    chunk is the one reported; such a row keeps its record. A plain row's
    id is parsed in the chunk's first ``parse_ids`` call, another row's,
    once its record is built, in the second.
    """
    build = _record_builder(manifest)
    keys = manifest._keys
    required = frozenset(keys[:3])
    # an optional field read from a required key would not be None
    fast = required.isdisjoint(keys[3:])
    columns = itemgetter(*keys[:3])
    position = {label: i for i, label in enumerate(manifest.labels)}

    def build_chunk(lines: Sequence[int], raws: list) -> _Columns:
        # a plain row's (id, text, label), every other row's record
        rows = [
            columns(raw) if type(raw) is dict and raw.keys() == required else None
            for raw in raws
        ] if fast else [None] * len(raws)
        candidate = [
            row is not None and type(row[0]) is str and type(row[1]) is str
            and type(row[2]) is str and row[2] in position
            for row in rows
        ]
        accepted, values = parse_ids([row[0] for row in compress(rows, candidate)])
        plain = np.zeros(len(raws), dtype=bool)
        plain[np.flatnonzero(candidate)] = accepted
        rebuilt = np.flatnonzero(~plain).tolist()
        full: list[Record | None] = [None] * len(raws)
        for i in rebuilt:
            rows[i] = full[i] = build(raws[i], lines[i])
        ids, texts, labels = (list(map(itemgetter(k), rows)) for k in range(3))
        chunk_values = np.zeros(len(raws), dtype=np.uint64)
        chunk_values[plain] = values[accepted]
        chunk_values[rebuilt] = parse_ids([ids[i] for i in rebuilt])[1]
        return ids, texts, list(map(position.__getitem__, labels)), chunk_values, full

    return build_chunk


def _chunks(rows: Iterable[_Row]) -> Iterator[_Chunk]:
    """``rows`` as (lines, raw rows) chunks of at most ``CHUNK_SIZE``. When
    reading a row raises (an unreadable line), the rows read before it are
    yielded first, so their errors are the ones reported, as when each row
    was built as it was read."""
    lines: list[int] = []
    raws: list[Mapping[str, object]] = []
    try:
        for line, raw in rows:
            lines.append(line)
            raws.append(raw)
            if len(raws) == CHUNK_SIZE:
                yield lines, raws
                lines, raws = [], []
    except Exception:
        yield lines, raws
        raise
    if raws:
        yield lines, raws


def _build(chunks: Iterable[_Chunk], manifest: Manifest, name: str) -> Dataset:
    """The dataset of (lines, raw rows) chunks, its columns filled a chunk
    at a time. Duplicate ids are checked once every row is built."""
    build_chunk = _chunk_builder(manifest)
    ids: list[str] = []
    texts: list[str] = []
    codes: list[int] = []
    values: list[np.ndarray] = []
    lines: list[np.ndarray] = []
    full: list[Record | None] = []
    for chunk_lines, raws in chunks:
        new_ids, new_texts, new_codes, new_values, new_full = build_chunk(chunk_lines, raws)
        ids += new_ids
        texts += new_texts
        codes += new_codes
        values.append(new_values)
        full += new_full
        lines.append(np.asarray(chunk_lines, dtype=np.int64))
    id_values = np.concatenate(values) if values else np.zeros(0, dtype=np.uint64)
    # a canonical id's value and string are one-to-one, so equal values are
    # equal ids; the first row whose id came before is the one reported
    order = np.argsort(id_values, kind="stable")
    repeats = id_values[order[1:]] == id_values[order[:-1]]
    if repeats.any():
        later, earlier = order[1:][repeats], order[:-1][repeats]
        at = int(np.argmin(later))
        line_of = np.concatenate(lines)
        raise DuplicateIdError(
            f"id {ids[later[at]]} already seen on line {line_of[earlier[at]]}",
            int(line_of[later[at]]),
        )
    return Dataset._of_columns(
        manifest.label_set(), name, tuple(ids), tuple(texts),
        np.array(codes, dtype=np.int64), id_values, tuple(full),
    )


# json.loads(line) runs a JSONDecoder's scanner between two regex skips of
# blanks. A line that is exactly one JSON value and its newline needs no
# skip, so the loader calls the scanner directly and leaves every other line
# (blank, padded, trailing data, not JSON) to json.loads and its errors.
_scan_once = json.JSONDecoder().scan_once
# what may follow a line's one JSON value: its newline, or nothing on a last
# line without one
_LINE_ENDS = ("\n", "")


def _jsonl_rows(lines: Iterable[str], start: int) -> Iterator[_Row]:
    """Each JSON object line of ``lines``, the first on line ``start``, and
    its 1-based line number; blank lines are skipped, and any other line
    raises."""
    for line_no, line in enumerate(lines, start=start):
        try:
            raw, end = _scan_once(line, 0)
        except (StopIteration, json.JSONDecodeError):
            end = -1
        if end < 0 or line[end:] not in _LINE_ENDS:
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


def _jsonl_chunks(fh) -> Iterator[_Chunk]:
    """The chunks of an open JSONL file. A chunk of ``CHUNK_SIZE`` lines is
    decoded in one pass when each line is one JSON object and its newline;
    a chunk holding any other line goes through ``_jsonl_rows``, as do the
    lines read before a read error, which is raised after their rows."""
    start = 1
    while True:
        lines: list[str] = []
        try:
            lines.extend(islice(fh, CHUNK_SIZE))  # keeps the lines read before an error
        except Exception:  # an unreadable byte: the rows before it come first
            yield from _chunks(_jsonl_rows(lines, start))
            raise
        if not lines:
            return
        try:
            decoded = [_scan_once(line, 0) for line in lines]
        except Exception:  # _jsonl_rows decodes line by line and raises at the line
            decoded = None
        if decoded is not None and all(
            type(raw) is dict and line[end:] in _LINE_ENDS
            for (raw, end), line in zip(decoded, lines)
        ):
            yield range(start, start + len(lines)), [raw for raw, _ in decoded]
        else:
            yield from _chunks(_jsonl_rows(lines, start))
        start += len(lines)


def load_jsonl(path: str | Path, manifest: Manifest, name: str = "") -> Dataset:
    """Load a JSONL dataset strictly; line numbers are 1-based in errors."""
    with open(path, encoding="utf-8-sig") as fh:
        return _build(_jsonl_chunks(fh), manifest, name or Path(path).stem)


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
        for canonical, key in zip(CANONICAL_FIELDS, manifest._keys):
            if key not in header and canonical in REQUIRED_FIELDS:
                raise SchemaError(f"{path}: missing required column {key!r}")
            if key not in header and canonical in manifest.fields:
                raise SchemaError(f"{path}: manifest maps {canonical!r} to missing column {key!r}")

        def raw_rows() -> Iterator[_Row]:
            for line, row in rows:
                if len(row) != len(header):
                    raise RecordParseError("row width does not match header", line)
                yield line, dict(zip(header, row))

        return _build(_chunks(raw_rows()), manifest, name or Path(path).stem)


def write_json(payload: object, path: str | Path) -> None:
    """Write the one JSON file format: sorted keys, indent 2, raw UTF-8."""
    text = json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


def save_jsonl(dataset: Dataset, path: str | Path) -> None:
    """Write canonical JSONL (stable key order, extras preserved). A row the
    columns hold whole is written from them without the encoder, its
    strings escaped as the encoder does; a full record goes through it."""
    encode = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode
    labels = dataset.label_set.labels
    with open(path, "w", encoding="utf-8") as fh:
        for id_str, text, label, r in zip(
            dataset.ids, dataset.texts, dataset.label_index.tolist(), dataset._full_records
        ):
            if r is None:
                fh.write(f'{{"id": {escape(id_str)}, "label": {escape(labels[label])}, '
                         f'"text": {escape(text)}}}\n')
                continue
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
    return _build(_chunks(enumerate(rows, start=1)), Manifest(labels=tuple(labels)), name)
