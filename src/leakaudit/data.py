"""Core data model: records, label sets, datasets, and file loaders.

A Dataset is an ordered, immutable collection of labeled records with unique
ids, stored as one column per record field: the id strings, the texts, each
label's label-set position and each parsed id (``ids``, ``texts``,
``label_index``, ``id_values``), and the optional fields (``events``,
``article_ids``, ``reply_counts``, ``extras``), with the creation times
(``timestamps``) derived on first use. A Record is an immutable named tuple
of its source row; a record without extra source columns shares one empty
read-only ``extra`` mapping. A dataset's ``records`` are a view of its
columns, built on first access. The loaders' record builder is the one
record checker, for files, ``build_dataset`` and ``Dataset(records, ...)``
alike: malformed input raises, with the offending line or position, so
every dataset keeps the record rules.

Every loader fills the columns a chunk of at most ``CHUNK_SIZE`` rows at a
time (``_chunk_builder``): the manifest is resolved once, when made, a
JSONL chunk of one JSON object per line is decoded in one pass, and type
and key checks pick out the plain rows, which go into the columns without
the record builder, each id parsed once, and share one tail of unset
optional fields. Every other row (and every line of a chunk with a blank,
padded or unreadable line) goes through the per-line rules and
``_record_builder``, the one place each record rule and its error message
live. An unreadable line or byte is reported after the
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
# a dataset's tuple columns, in Record field order, the label aside
_TUPLE_COLUMNS = ("ids", "texts", "events", "article_ids", "reply_counts", "extras")


class Dataset:
    """Immutable ordered collection of records plus its label vocabulary.

    The columns are ``ids`` and ``texts`` (tuples of str), ``label_index``
    (int64 label-set positions), ``id_values`` (uint64, each id as
    ``snowflake.parse_id`` reads it), and ``events``, ``article_ids``,
    ``reply_counts`` and ``extras`` (tuples holding None, or ``_NO_EXTRA``
    for ``extras``, at a row without the field), with ``timestamps`` and
    ``text_table`` derived from them on first use. Every dataset holds its
    columns from the start; its ``records`` tuple is built from them on
    first access.

    ``Dataset(records, label_set, name)`` equals ``build_dataset`` of the
    rows ``save_jsonl`` writes for those records: it enforces id syntax and
    uniqueness, label membership, text type and reply_count as the loaders
    do, and raises their error for the first violation, at the record's
    1-based position. As from a file, an int id reads back as its string,
    and an empty ``event`` or ``article_id`` as None.
    """

    def __init__(self, records: Iterable[Record], label_set: LabelSet, name: str = ""):
        rows = enumerate(map(_row, records), start=1)
        built = _build(_chunks(rows), Manifest(labels=label_set.labels), name)
        vars(self).update(vars(built), label_set=label_set)

    @classmethod
    def _of_columns(cls, label_set: LabelSet, name: str, label_index: np.ndarray,
                    id_values: np.ndarray, tuples: Sequence[tuple]) -> "Dataset":
        """The dataset of checked columns; ``tuples`` are its ``_TUPLE_COLUMNS``."""
        dataset = cls.__new__(cls)
        label_index.flags.writeable = id_values.flags.writeable = False
        vars(dataset).update(zip(_TUPLE_COLUMNS, tuples), label_set=label_set, name=name,
                             label_index=label_index, id_values=id_values)
        return dataset

    def with_rows_from(self, pool: "Dataset", replacement: np.ndarray,
                       pool_label: np.ndarray, name: str) -> "Dataset":
        """This dataset, named ``name``, with each row that has a
        replacement (>= 0) taken from that pool row, gathered column by
        column, so no id is parsed again; ``pool_label`` gives each pool
        row's position in this dataset's label set."""
        # each row's position in a column of this dataset joined to the pool's
        taken = np.where(replacement >= 0, replacement + len(self), np.arange(len(self)))
        rows = taken.tolist()
        return Dataset._of_columns(
            self.label_set, name,
            np.concatenate((self.label_index, pool_label))[taken],
            np.concatenate((self.id_values, pool.id_values))[taken],
            [tuple(map((getattr(self, column) + getattr(pool, column)).__getitem__, rows))
             for column in _TUPLE_COLUMNS],
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: a Dataset is immutable")

    # equal as their records, label sets and names are, as a frozen dataclass
    def _key(self) -> tuple:
        return (self.label_set, self.name, self.label_index.tolist(),
                *(getattr(self, column) for column in _TUPLE_COLUMNS))

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is Dataset else NotImplemented

    def __hash__(self) -> int:
        # a part of the key that is always hashable: an extra may hold a dict
        return hash((self.ids, self.label_set, self.name))

    def __len__(self) -> int:
        return len(self.ids)

    @cached_property
    def records(self) -> tuple[Record, ...]:
        """Each row as a ``Record``, equal to the one its source row gave."""
        labels = map(self.label_set.labels.__getitem__, self.label_index.tolist())
        return tuple(map(Record, self.ids, self.texts, labels, self.events, self.article_ids,
                         self.reply_counts, self.extras))

    @cached_property
    def timestamps(self) -> np.ndarray:
        """Each id's creation time, int64 unix ms (-1 for none), read-only."""
        stamps = timestamps_of(self.id_values)
        stamps.flags.writeable = False
        return stamps

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


def _chunk_builder(manifest: Manifest) -> Callable[[Sequence[int], list], tuple]:
    """One file's chunk builder: the columns of a chunk's lines and raw
    rows (label positions, id values, then the ``_TUPLE_COLUMNS`` as
    lists), the same values and the same first error as ``_record_builder``
    gives row by row.

    Checks row by row mark the plain rows: a dict of exactly the required
    keys, each a ``str``, with a label in the manifest and an id
    ``parse_ids`` accepts. They go straight into the columns, sharing
    ``_PLAIN_TAIL`` for the optional fields, and every other row goes
    through the record builder, which raises on the first broken rule;
    plain rows never raise, so the first bad line of the chunk is the one
    reported. A plain row's id is parsed in the chunk's first
    ``parse_ids`` call, another row's, once its record is built, in the
    second.
    """
    build = _record_builder(manifest)
    keys = manifest._keys
    required = frozenset(keys[:3])
    # an optional field read from a required key would not be None
    fast = required.isdisjoint(keys[3:])
    columns = itemgetter(*keys[:3])
    position = {label: i for i, label in enumerate(manifest.labels)}

    def build_chunk(lines: Sequence[int], raws: list) -> tuple:
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
        tails = [_PLAIN_TAIL] * len(raws)
        for i in rebuilt:
            rows[i] = record = build(raws[i], lines[i])
            tails[i] = record[3:]
        ids, texts, labels = (list(map(itemgetter(k), rows)) for k in range(3))
        chunk_values = np.zeros(len(raws), dtype=np.uint64)
        chunk_values[plain] = values[accepted]
        chunk_values[rebuilt] = parse_ids([ids[i] for i in rebuilt])[1]
        optional = (list(map(itemgetter(k), tails)) for k in range(4))
        return list(map(position.__getitem__, labels)), chunk_values, ids, texts, *optional

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
    codes: list[int] = []
    values: list[np.ndarray] = []
    lines: list[np.ndarray] = []
    columns: list[list] = [[] for _ in _TUPLE_COLUMNS]
    for chunk_lines, raws in chunks:
        chunk_codes, chunk_values, *chunk_columns = build_chunk(chunk_lines, raws)
        codes += chunk_codes
        values.append(chunk_values)
        lines.append(np.asarray(chunk_lines, dtype=np.int64))
        for column, chunk_column in zip(columns, chunk_columns):
            column += chunk_column
    label_index = np.array(codes, dtype=np.int64)
    id_values = np.concatenate(values) if values else np.zeros(0, dtype=np.uint64)
    tuples = list(map(tuple, columns))
    ids = tuples[0]
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
    return Dataset._of_columns(manifest.label_set(), name, label_index, id_values, tuples)


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


def _row(record: Sequence) -> dict[str, object]:
    """The JSONL row of a record, or of its seven fields in a tuple: its
    required fields, each optional field that is set, and its extra
    columns."""
    id_str, text, label, event, article_id, reply_count, extra = record
    row: dict[str, object] = {"id": id_str, "text": text, "label": label}
    if event is not None:
        row["event"] = event
    if article_id is not None:
        row["article_id"] = article_id
    if reply_count is not None:
        row["reply_count"] = reply_count
    if extra:  # updating from a read-only mapping is slow even when empty
        row.update(extra)
    return row


def save_jsonl(dataset: Dataset, path: str | Path) -> None:
    """Write canonical JSONL (stable key order, extras preserved). A plain
    row, whose optional fields are all unset, is written without the
    encoder, its strings escaped as the encoder does; another row's
    ``_row`` goes through it."""
    encode = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode
    labels = map(dataset.label_set.labels.__getitem__, dataset.label_index.tolist())
    tails = zip(dataset.events, dataset.article_ids, dataset.reply_counts, dataset.extras)
    with open(path, "w", encoding="utf-8") as fh:
        for id_str, text, label, tail in zip(dataset.ids, dataset.texts, labels, tails):
            if tail == _PLAIN_TAIL:
                fh.write(f'{{"id": {escape(id_str)}, "label": {escape(label)}, '
                         f'"text": {escape(text)}}}\n')
            else:
                fh.write(encode(_row((id_str, text, label, *tail))) + "\n")


def label_distribution(dataset: Dataset) -> dict[str, int]:
    """Counts per label, in label-set order, zeros included."""
    counts = np.bincount(dataset.label_index, minlength=len(dataset.label_set))
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
