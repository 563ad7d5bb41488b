"""Canonical data model and loaders for annotation audit datasets.

One :class:`AnnotationRecord` is a single observed response: an annotator, an
item (a prompt or prompt-response instance), the measurement condition it was
collected under (session, framing variant, presentation position), and the
score. Repeats of the same (annotator, item) tuple are data, not errors; the
audit diagnostics live off exactly those repeats.

The canonical wire format is JSONL with one record per line and field names
equal to the dataclass fields. CSV is accepted with the identical header
contract. Scores are stored raw on their native scale; conversion to the
common 0-100 scale happens only inside consumers that need it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import marshal
import math
import os
import re
import stat
import sys
import tempfile
from collections import Counter
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, make_dataclass
from functools import cache, cached_property, partial
from itertools import chain, repeat
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, TextIO, Union, get_args, get_origin, get_type_hints

import numpy as np

from .errors import DataFormatError

SCALE_CONTINUOUS = "continuous_0_100"
SCALE_LIKERT = "likert_5"
SCALE_BINARY = "binary_pair"
SCALE_KINDS = (SCALE_CONTINUOUS, SCALE_LIKERT, SCALE_BINARY)

CONTENT_TYPES = ("A1_generic", "A2_factual", "A3_subjective", "A4_value_laden", "A5_task_based")
RESPONSE_QUALITIES = ("B1_good", "B2_bad", "B3_mixed", "B4_subjective")
EVAL_COMPLEXITIES = ("D1_uni", "D2_multi_aligned", "D3_multi_conflicting")
PLAUSIBLE_PREFS = ("E1_implausible", "E2_moderate", "E3_plausible")

# Presentation-order markers for binary comparisons, carried in condition_tag.
ORDER_TAG_AB = "order:AB"
ORDER_TAG_BA = "order:BA"

Score = Union[float, str]


@dataclass(frozen=True, slots=True)
class AnnotationRecord:
    """One (annotator, item, condition, score) observation.

    ``weight`` is the reliability weight a weighted export carries, so such an
    export can be audited again.
    """

    record_id: str
    annotator_id: str
    item_id: str
    prompt_text: str
    score: Score
    scale_kind: str
    response_text: Optional[str] = None
    model_id: Optional[str] = None
    session_id: Optional[str] = None
    timestamp: Optional[int] = None
    position_index: Optional[int] = None
    framing_id: Optional[str] = None
    condition_tag: Optional[str] = None
    weight: Optional[float] = None

    def __post_init__(self):
        if self.scale_kind not in SCALE_KINDS:
            raise DataFormatError(f"unknown scale_kind {self.scale_kind!r}")
        _check_score(self.score, self.scale_kind)
        if self.position_index is not None and self.position_index < 0:
            raise DataFormatError(f"position_index must be >= 0, got {self.position_index}")
        if self.weight is not None and not 0.0 <= self.weight < math.inf:
            raise DataFormatError(f"weight must be finite and >= 0, got {self.weight!r}")


# ``AnnotationRecord``'s fields, defaults and slot layout, not frozen: the frozen
# ``__init__`` sets each field through ``object.__setattr__``, several times the
# cost of this class's plain slot assignments, and a load builds every record.
_RecordTwin = make_dataclass(
    "_RecordTwin",
    [(f.name, f.type) if f.default is MISSING else (f.name, f.type, f.default) for f in fields(AnnotationRecord)],
    slots=True,
)


def _new_record(*args, **kwargs) -> AnnotationRecord:
    """``AnnotationRecord(*args, **kwargs)``, built as ``_RecordTwin`` and then made an
    ``AnnotationRecord``, with the same checks. The ``__class__`` assignment raises
    TypeError should the two classes' slot layouts ever differ."""
    record = _RecordTwin(*args, **kwargs)
    record.__class__ = AnnotationRecord
    record.__post_init__()
    return record


def _check_score(score: Score, scale_kind: str) -> None:
    if scale_kind == SCALE_BINARY:
        if score not in ("A", "B"):
            raise DataFormatError(f"binary_pair score must be 'A' or 'B', got {score!r}")
        return
    if isinstance(score, str):
        raise DataFormatError(f"{scale_kind} score must be numeric, got {score!r}")
    if not math.isfinite(score):
        raise DataFormatError(f"score must be finite, got {score!r}")
    lo, hi = (0.0, 100.0) if scale_kind == SCALE_CONTINUOUS else (1.0, 5.0)
    if not lo <= float(score) <= hi:
        raise DataFormatError(f"score {score} outside [{lo:g}, {hi:g}] for {scale_kind}")


def score_value(record: AnnotationRecord) -> float:
    """Numeric view of a score: binary choices map to A=0, B=1."""
    if record.scale_kind == SCALE_BINARY:
        return 0.0 if record.score == "A" else 1.0
    return float(record.score)


def common_scale_score(record: AnnotationRecord) -> float:
    """Score mapped onto the common 0-100 scale.

    Likert 1-5 maps linearly via (s - 1) * 25. Binary choices have no
    position on a magnitude scale and raise.
    """
    if record.scale_kind == SCALE_CONTINUOUS:
        return float(record.score)
    if record.scale_kind == SCALE_LIKERT:
        return (float(record.score) - 1.0) * 25.0
    raise DataFormatError("binary_pair scores have no common-scale magnitude")


def default_tau(scale_kind: str) -> float:
    """Scale-relative default consistency tolerance: 15 / 1 / exact."""
    return {SCALE_CONTINUOUS: 15.0, SCALE_LIKERT: 1.0, SCALE_BINARY: 0.0}[scale_kind]


@dataclass
class EmbeddingTable:
    """item_id -> dense vector, uniform dimension, all finite, none all zero."""

    dimension: int
    entries: dict[str, np.ndarray]

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[str, Iterable[float]]]) -> "EmbeddingTable":
        table = cls(dimension=0, entries={})
        for item_id, vector in rows:
            table.add(item_id, vector)
        if not table.entries:
            raise DataFormatError("no embedding rows")
        return table

    def add(self, item_id: str, vector: Iterable[float]) -> None:
        """Add one vector once it is nonempty, finite, not all zero (its cosine
        similarity is undefined) and of the table's dimension."""
        vec = np.asarray(list(vector), dtype=float)
        if vec.ndim != 1 or vec.size == 0:
            raise DataFormatError(f"embedding for {item_id!r} must be a nonempty vector")
        if not np.all(np.isfinite(vec)):
            raise DataFormatError(f"embedding for {item_id!r} contains a non-finite entry")
        if not vec.any():
            raise DataFormatError(f"embedding for {item_id!r} is a zero vector")
        if self.entries and vec.size != self.dimension:
            raise DataFormatError(f"dimension mismatch: {item_id!r} has {vec.size}, expected {self.dimension}")
        self.dimension = vec.size
        self.entries[item_id] = vec

    def __contains__(self, item_id: str) -> bool:
        return item_id in self.entries

    def __getitem__(self, item_id: str) -> np.ndarray:
        return self.entries[item_id]


@dataclass(frozen=True)
class ItemMetadata:
    """Analyst- or model-assigned codes for one item."""

    item_id: str
    content_type: Optional[str] = None
    response_quality: Optional[str] = None
    eval_complexity: Optional[str] = None
    plausible_pref: Optional[str] = None
    theme_labels: frozenset[str] = frozenset()
    value_dimension: Optional[str] = None

    def __post_init__(self):
        for value, allowed, name in (
            (self.content_type, CONTENT_TYPES, "content_type"),
            (self.response_quality, RESPONSE_QUALITIES, "response_quality"),
            (self.eval_complexity, EVAL_COMPLEXITIES, "eval_complexity"),
            (self.plausible_pref, PLAUSIBLE_PREFS, "plausible_pref"),
        ):
            if value is not None and value not in allowed:
                raise DataFormatError(f"unknown {name} code {value!r}")
        object.__setattr__(self, "theme_labels", frozenset(self.theme_labels))


@dataclass(frozen=True)
class RejectedRow:
    line_no: int
    reason: str
    raw: str


RepeatKey = tuple[str, str, Optional[str]]


@dataclass(eq=False)
class Dataset:
    """Immutable-by-convention bundle of records, embeddings, and metadata.

    Indexes are computed lazily and cached; do not mutate ``records`` or
    ``metadata`` after construction.
    """

    records: list[AnnotationRecord]
    scale_kind: str
    embeddings: Optional[EmbeddingTable] = None
    metadata: dict[str, ItemMetadata] = field(default_factory=dict)
    rejected: list[RejectedRow] = field(default_factory=list, repr=False)

    @cached_property
    def by_annotator(self) -> dict[str, list[AnnotationRecord]]:
        out: dict[str, list[AnnotationRecord]] = {}
        for rec in self.records:
            out.setdefault(rec.annotator_id, []).append(rec)
        return out

    @cached_property
    def by_item(self) -> dict[str, list[AnnotationRecord]]:
        out: dict[str, list[AnnotationRecord]] = {}
        for rec in self.records:
            out.setdefault(rec.item_id, []).append(rec)
        return out

    @property
    def annotator_ids(self) -> list[str]:
        return sorted(self.by_annotator)

    @property
    def item_ids(self) -> list[str]:
        return sorted(self.by_item)

    @cached_property
    def by_annotator_item(self) -> dict[str, dict[str, list[AnnotationRecord]]]:
        """annotator -> item -> that annotator's ratings of the item, in record order."""
        out: dict[str, dict[str, list[AnnotationRecord]]] = {}
        for rec in self.records:
            out.setdefault(rec.annotator_id, {}).setdefault(rec.item_id, []).append(rec)
        return out

    @cached_property
    def by_item_annotator(self) -> dict[str, dict[str, list[AnnotationRecord]]]:
        """item -> annotator -> that annotator's ratings of the item, in record order."""
        out: dict[str, dict[str, list[AnnotationRecord]]] = {}
        for rec in self.records:
            out.setdefault(rec.item_id, {}).setdefault(rec.annotator_id, []).append(rec)
        return out

    @cached_property
    def repeat_groups(self) -> dict[RepeatKey, list[AnnotationRecord]]:
        """(annotator, item, framing) groups holding two or more ratings."""
        groups: dict[RepeatKey, list[AnnotationRecord]] = {}
        for rec in self.records:
            groups.setdefault((rec.annotator_id, rec.item_id, rec.framing_id), []).append(rec)
        return {key: recs for key, recs in groups.items() if len(recs) >= 2}

    @cached_property
    def repeat_groups_by_item(self) -> dict[str, dict[RepeatKey, list[AnnotationRecord]]]:
        """``repeat_groups`` split by item, each in ``repeat_groups`` order."""
        out: dict[str, dict[RepeatKey, list[AnnotationRecord]]] = {}
        for key, recs in self.repeat_groups.items():
            out.setdefault(key[1], {})[key] = recs
        return out

    @cached_property
    def items_by_theme(self) -> dict[str, frozenset[str]]:
        """Theme label -> ids of the items whose metadata carries it."""
        out: dict[str, set[str]] = {}
        for item_id, meta in self.metadata.items():
            for theme in meta.theme_labels:
                out.setdefault(theme, set()).add(item_id)
        return {theme: frozenset(items) for theme, items in out.items()}

    @cached_property
    def items_by_value_dimension(self) -> dict[str, frozenset[str]]:
        """Value dimension -> ids of the items whose metadata names it."""
        out: dict[str, set[str]] = {}
        for item_id, meta in self.metadata.items():
            if meta.value_dimension is not None:
                out.setdefault(meta.value_dimension, set()).add(item_id)
        return {dim: frozenset(items) for dim, items in out.items()}

    def item_text(self, item_id: str, attr: str) -> Optional[str]:
        recs = self.by_item.get(item_id)
        if not recs:
            return None
        return getattr(recs[0], attr)


_RECORD_FIELDS = [f.name for f in fields(AnnotationRecord)]

CONFIG_PREFIX = "# config: "  # the first line of every CSV file and report the CLI writes


@cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def to_row(obj) -> dict:
    """A dataclass instance's fields by name, in field order, values as they are:
    the writer twin of ``from_row``. Each call returns a new dict."""
    return {name: getattr(obj, name) for name in _field_names(type(obj))}


def _encode_default(value):
    """What ``to_json`` writes for a value JSON has no form for: a dataclass
    instance as its ``to_row``, a set as its sorted list."""
    if is_dataclass(value) and not isinstance(value, type):
        return to_row(value)
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# One encoder for every row: json.dumps builds a new encoder on each call.
to_json = json.JSONEncoder(sort_keys=True, default=_encode_default).encode


# How a value whose type its field does not admit is reported, by the field's first type.
_MISTYPED = {
    str: "{} must be a string, got {!r}",
    int: "{} must be an integer, got {!r}",
    float: "non-numeric {} {!r}",
    bool: "{} must be a boolean, got {!r}",
    frozenset[str]: "{} must be a list of strings, got {!r}",
    list[float]: "{} must be a list of numbers, got {!r}",
}


_Container = tuple[type, tuple]  # (frozenset, (str,)) for frozenset[str]


@cache
def _row_schema(cls: type) -> tuple[dict[str, tuple], tuple[str, ...], dict[str, Optional[_Container]]]:
    """The types each field of ``cls`` admits in a row, the fields a row must give,
    and the container type (``frozenset[X]``, ``list[X]``) each field admits, if any.
    This is the one place a field annotation becomes row types: ``X`` admits
    ``X``, ``Optional[X]`` adds None, and ``Union[X, Y]`` admits either."""
    hints = get_type_hints(cls)
    admitted = {name: get_args(h) if get_origin(h) is Union else (h,) for name, h in hints.items()}
    required = tuple(f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING)
    containers = {
        name: next(((get_origin(t), get_args(t)) for t in types if get_origin(t)), None)
        for name, types in admitted.items()
    }
    return admitted, required, containers


def _cast(name: str, value, admitted: tuple, container: Optional[_Container] = None):
    """``value``, whose own type ``admitted`` lacks, as a type it holds: an int as
    a float, an integral float as an int, a list as ``container`` (a ``frozenset[X]``
    or ``list[X]``) whose entries read as ``X``. A bool or a string is never a number."""
    kind = type(value)
    try:
        if kind is int and float in admitted:
            return float(value)
        if kind is float and int in admitted and value.is_integer():
            return int(value)
        if kind is list and container is not None:
            make, inner = container
            return make(v if type(v) in inner else _cast(name, v, inner) for v in value)
    except (DataFormatError, OverflowError):  # float() of an int past 1e308 overflows
        pass
    raise DataFormatError(_MISTYPED[admitted[0]].format(name, value))


def from_row(cls: type, row: dict, make: Optional[Callable[..., object]] = None):
    """``cls(**row)`` (or ``make(**row)``) once each value's type is one its field admits:
    matched exactly, cast only on a miss. An unknown field, a missing or null required
    field and a value that cannot be cast raise DataFormatError; ``row`` is left as given."""
    admitted, required, containers = _row_schema(cls)
    if not row.keys() <= admitted.keys():
        raise DataFormatError(f"unknown fields: {sorted(row.keys() - admitted.keys())}")
    for name in required:
        if row.get(name) is None:
            raise DataFormatError(f"missing required field {name!r}")
    cast = {}
    for key, value in row.items():  # a plain loop: cheaper than a comprehension, per row read
        if type(value) not in admitted[key]:
            cast[key] = _cast(key, value, admitted[key], containers[key])
    make = make or cls
    return make(**{**row, **cast}) if cast else make(**row)


def record_to_obj(record: AnnotationRecord) -> dict:
    """Record as a plain dict; absent optionals are omitted, never sentinels."""
    out = {}
    for name in _RECORD_FIELDS:
        value = getattr(record, name)
        if value is not None:
            out[name] = value
    return out


def _record_from_obj(obj: dict, scale_kind: Optional[str]) -> AnnotationRecord:
    """Validate one decoded row and build its record; ``obj`` is left as given."""
    if not obj.get("scale_kind"):
        if scale_kind is None:
            raise DataFormatError("record carries no scale_kind and no dataset-level default given")
        obj = {**obj, "scale_kind": scale_kind}
    return from_row(AnnotationRecord, obj, _new_record)


def records_from_rows(
    rows: Iterable[tuple[int, dict]],
    scale_kind: Optional[str] = None,
    strict: bool = False,
) -> tuple[list[AnnotationRecord], list[RejectedRow], str]:
    """Build records from (line_no, raw dict) pairs.

    Lenient mode collects malformed rows; strict mode raises on the first.
    The dataset scale is ``scale_kind`` if given, else the first valid row's.
    Rows on a different scale than the dataset's are malformed.
    """
    rejects: list[RejectedRow] = []
    records, effective_scale = _build_records(rows, scale_kind, strict, rejects)
    return records, rejects, effective_scale


def _build_records(
    rows: Iterable[tuple[int, dict]], scale_kind: Optional[str], strict: bool, rejects: list[RejectedRow]
) -> tuple[list[AnnotationRecord], str]:
    """``records_from_rows``, appending to ``rejects``, which may already hold the reader's."""
    records: list[AnnotationRecord] = []
    effective_scale = scale_kind
    for line_no, obj in rows:
        try:
            rec = _record_from_obj(obj, effective_scale)
            if effective_scale is None:
                effective_scale = rec.scale_kind
            elif rec.scale_kind != effective_scale:
                raise DataFormatError(
                    f"scale_kind {rec.scale_kind!r} differs from dataset scale {effective_scale!r}"
                )
            records.append(rec)
        except DataFormatError as exc:
            if strict:
                raise DataFormatError(f"line {line_no}: {exc}") from exc
            rejects.append(RejectedRow(line_no, str(exc), to_json(obj)))
    if not records:
        common = Counter(r.reason for r in rejects).most_common(1)
        why = f"; {common[0][1]} of {len(rejects)} rejected rows: {common[0][0]}" if common else ""
        raise DataFormatError(f"zero valid rows{why}")
    return records, effective_scale or SCALE_CONTINUOUS


class _Hashed(io.RawIOBase):
    """``file``, whose every block read is fed to ``digest``, a hashlib object. The
    file is opened by the caller, so one that cannot be opened leaves no half-made
    ``_Hashed`` for the garbage collector to close."""

    def __init__(self, file: io.FileIO, digest):
        self._file = file
        self._digest = digest

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self._file.readinto(buffer)
        self._digest.update(memoryview(buffer)[:n])
        return n

    def close(self) -> None:
        self._file.close()
        super().close()


def _open_text(path: str | Path, newline: Optional[str] = None, digest=None) -> io.TextIOBase:
    """``path`` opened as UTF-8 text, a leading byte-order mark skipped; a byte that
    is not UTF-8 reads as a lone surrogate (see ``_undecodable``). ``digest``, when
    given, is fed every byte read."""
    if digest is None:
        return Path(path).open(encoding="utf-8-sig", errors="surrogateescape", newline=newline)
    raw = io.BufferedReader(_Hashed(io.FileIO(path), digest), 1 << 16)
    return io.TextIOWrapper(raw, encoding="utf-8-sig", errors="surrogateescape", newline=newline)


_SURROGATE = re.compile("[\udc80-\udcff]")


def _undecodable(text: str) -> Optional[str]:
    """Why ``text``, read by ``_open_text``, was not UTF-8; None when it was."""
    found = None if text.isascii() else _SURROGATE.search(text)
    return None if found is None else f"invalid UTF-8: byte {ord(found.group()) - 0xDC00:#04x}"


def read_text(path: str | Path) -> str:
    """The whole of ``path``, read as ``_open_text`` reads it; a byte that is not
    UTF-8 raises DataFormatError naming the file and the line."""
    with _open_text(path) as fh:
        text = fh.read()
    found = None if text.isascii() else _SURROGATE.search(text)
    if found is not None:
        line_no = text.count("\n", 0, found.start()) + 1
        raise DataFormatError(f"{path}: line {line_no}: {_undecodable(found.group())}")
    return text


def iter_jsonl(
    path: str | Path, rejects: Optional[list[RejectedRow]] = None, digest=None
) -> Iterator[tuple[int, dict]]:
    """Yield ``(line_no, obj)`` for each non-blank line of a JSONL file.

    A ``{"#config": ...}`` header line, as the CLI writes one, is skipped. A
    line that is not UTF-8, not JSON or not an object raises DataFormatError
    naming the line, or, when ``rejects`` is given, is appended there instead.
    Equal string values of the file's rows are one shared object. ``digest``
    is fed the bytes read, as in ``_open_text``.
    """
    strings: dict[str, str] = {}
    with _open_text(path, digest=digest) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            reason = _undecodable(line)
            if reason is not None:
                line = line.encode("utf-8", "surrogateescape").decode("utf-8", "backslashreplace")
            else:
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    reason = f"invalid JSON: {exc}"
                else:
                    if isinstance(obj, dict):
                        if obj.keys() != {"#config"}:
                            yield line_no, _shared(obj, strings)
                        continue
                    reason = "row is not an object"
            if rejects is None:
                raise DataFormatError(f"line {line_no}: {reason}")
            rejects.append(RejectedRow(line_no, reason, line))


def _shared(row: dict, strings: dict[str, str]) -> dict:
    """``row`` with each string value replaced by the first equal one in ``strings``."""
    for key, value in row.items():
        if type(value) is str:
            row[key] = strings.setdefault(value, value)
    return row


def _from_cell(cell: str, admitted: tuple):
    """The JSON value a CSV cell stands for, given its field's types; ``from_row`` checks it."""
    if bool in admitted and cell in ("True", "False"):
        return cell == "True"
    if int in admitted or float in admitted:
        for parse in (int, float):
            try:
                return parse(cell)
            except ValueError:
                pass
    return cell


def _iter_csv(
    path: str | Path, cls: type, rejects: Optional[list[RejectedRow]] = None, digest=None
) -> Iterator[tuple[int, dict]]:
    """``iter_jsonl`` for CSV: an optional ``CONFIG_PREFIX`` line, a header row,
    then one row per line. Cells are read as ``cls``'s field types; an empty
    cell is an absent field. Equal string values are shared, and a row that is
    not UTF-8 is rejected, as there."""
    admitted = _row_schema(cls)[0]
    strings: dict[str, str] = {}
    with _open_text(path, newline="", digest=digest) as fh:
        first = fh.readline()
        skipped = first.startswith(CONFIG_PREFIX)
        reader = csv.DictReader(fh if skipped else chain([first], fh))  # no seek: ``digest`` sees each byte once
        if reader.fieldnames is None:
            raise DataFormatError("empty CSV file")
        reason = _undecodable("".join(reader.fieldnames))
        if reason is not None:
            raise DataFormatError(f"line {reader.line_num + skipped}: header {reason}")
        for row in reader:
            line_no = reader.line_num + skipped
            if None in row:  # DictReader files surplus cells under the key None
                reason = f"row has {len(row[None])} more cells than the header"
            else:
                reason = next(filter(None, map(_undecodable, filter(None, row.values()))), None)
                if reason is None:
                    row = {k: _from_cell(v, admitted.get(k, (str,))) for k, v in row.items() if v}
                    yield line_no, _shared(row, strings)
                    continue
            if rejects is None:
                raise DataFormatError(f"line {line_no}: {reason}")
            rejects.append(RejectedRow(line_no, reason, json.dumps(row)))


def read_rows(path: str | Path, cls: type, build: Optional[Callable[[dict], object]] = None) -> list:
    """``build`` (by default ``from_row`` for ``cls``) of each row of a JSONL file, or
    of a CSV file whose first line starts with ``CONFIG_PREFIX`` as the CLI's CSV
    outputs do. A bad row raises one DataFormatError naming the file and the line."""
    build = build or partial(from_row, cls)
    with _open_text(path) as fh:
        is_csv = fh.readline().startswith(CONFIG_PREFIX)
    out = []
    try:
        for line_no, row in _iter_csv(path, cls) if is_csv else iter_jsonl(path):
            try:
                out.append(build(row))
            except DataFormatError as exc:
                raise DataFormatError(f"line {line_no}: {exc}") from None
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
    return out


@contextmanager
def open_output(path: str | Path, newline: Optional[str] = None) -> Iterator[TextIO]:
    """Standard output for ``-``, else the file ``path``, opened for writing."""
    if path == "-":
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8", newline=newline) as fh:
        yield fh


def write_csv(fh, header: list[str], rows: Iterable[dict]) -> None:
    """A header row, then each row's values under it; an absent or None value is an empty cell."""
    writer = csv.DictWriter(fh, fieldnames=header, extrasaction="ignore")
    writer.writeheader()
    writer.writerows(rows)


def load_records(
    path: str | Path,
    fmt: str = "jsonl",
    scale_kind: Optional[str] = None,
    strict: bool = False,
    embeddings: Optional[EmbeddingTable] = None,
    metadata: Optional[dict[str, ItemMetadata]] = None,
) -> Dataset:
    """Load a dataset from a JSONL or CSV export.

    A regular file's load is kept in a sidecar next to it (see ``_read_sidecar``),
    which a later load of the same bytes with the same ``fmt`` and ``scale_kind``
    reads instead of parsing the file again. Under ``strict``, a bad row raises
    naming the file and the line.
    """
    path = Path(path)
    if fmt not in ("jsonl", "csv"):
        raise ValueError(f"format must be 'jsonl' or 'csv', got {fmt!r}")
    key = (fmt, scale_kind)  # a strict and a lenient load of a clean file build the same records
    cacheable = path.is_file()  # hashing a pipe would consume what the parse must read
    loaded = _read_sidecar(path, key, strict) if cacheable else None
    if loaded is None:
        digest = hashlib.sha256()
        # the reader's rejects and the record builder's land in one list, in line order
        rejects: list[RejectedRow] = []
        lenient = None if strict else rejects
        if fmt == "jsonl":
            rows = iter_jsonl(path, lenient, digest)
        else:
            rows = _iter_csv(path, AnnotationRecord, lenient, digest)
        try:
            records, effective_scale = _build_records(rows, scale_kind, strict, rejects)
        except DataFormatError as exc:
            if strict:
                raise DataFormatError(f"{path}: {exc}") from None
            raise
        if cacheable:
            _write_sidecar(path, key, digest.digest(), records, rejects, effective_scale)
    else:
        records, rejects, effective_scale = loaded
    if strict:
        _check_timestamp_order(records, raise_on_violation=True)
    dataset = Dataset(
        records=records,
        scale_kind=effective_scale,
        embeddings=embeddings,
        metadata=metadata or {},
        rejected=rejects,
    )
    _check_embedding_references(dataset)
    return dataset


# The load sidecar: a cache of one load of one file, never a second source of truth.
_RECORD_GETTERS = [attrgetter(name) for name in _RECORD_FIELDS]


def _sidecar_path(path: Path) -> Path:
    return path.with_name(f".{path.name}.prefaudit")


@cache
def _source_digest() -> bytes:
    """This module's source: a change to how rows become records retires every sidecar."""
    return hashlib.sha256(Path(__file__).read_bytes()).digest()


def _sidecar_header(key: tuple, digest: bytes) -> bytes:
    """What a sidecar must match to be used: the interpreter and marshal format,
    this module's source, ``load_records``' arguments ``(fmt, scale_kind)`` and
    the SHA-256 of the input's bytes. Marshal format 2 writes no
    back-references, so equal headers are equal bytes."""
    return marshal.dumps((sys.implementation.cache_tag, marshal.version, _source_digest(), key, digest), 2)


def _write_sidecar(
    path: Path, key: tuple, digest: bytes, records: list[AnnotationRecord], rejects: list[RejectedRow], scale: str
) -> None:
    """Keep a load of the bytes ``digest`` names in ``path``'s sidecar: the header,
    then one marshal blob of one tuple per record field (None for a field no
    record sets), the rejects as ``(line_no, reason, raw)`` and the effective
    scale. Marshal keeps the records' shared strings shared. A sidecar that
    cannot be written is skipped."""
    columns = tuple(tuple(map(get, records)) for get in _RECORD_GETTERS)
    columns = tuple(None if col[0] is None and col.count(None) == len(col) else col for col in columns)
    body = marshal.dumps((columns, tuple((r.line_no, r.reason, r.raw) for r in rejects), scale))
    sidecar = _sidecar_path(path)
    try:
        header = _sidecar_header(key, digest)
        fd, tmp = tempfile.mkstemp(prefix=sidecar.name, suffix=".tmp", dir=sidecar.parent)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(header)
                fh.write(body)
            os.replace(tmp, sidecar)  # readers see the old sidecar or the whole new one
        except OSError:
            os.unlink(tmp)
            raise
    except OSError:
        pass


def _read_sidecar(
    path: Path, key: tuple, strict: bool
) -> Optional[tuple[list[AnnotationRecord], list[RejectedRow], str]]:
    """The load ``path``'s sidecar keeps for its current bytes and ``key``, checked
    as a parse checks each row: the field types, the required fields, one scale,
    and ``AnnotationRecord.__post_init__``. None, for a full parse, when the
    sidecar is missing, unreadable, not the user's own (see ``_read_own_file``),
    stale or fails a check, and when ``strict`` meets a reject, which a strict
    parse raises on."""
    try:
        blob = _read_own_file(_sidecar_path(path))
        if blob is None:
            return None
        header = _sidecar_header(key, _file_sha256(path))
        if not blob.startswith(header):
            return None
        columns, rejected, scale = marshal.loads(memoryview(blob)[len(header):])
        records = _records_from_columns(columns, scale, key[1])
        rejects = [RejectedRow(*r) for r in rejected if tuple(map(type, r)) == (int, str, str)]
    except Exception:  # a cache: whatever goes wrong reading it, the file is parsed instead
        return None
    if records is None or len(rejects) != len(rejected) or (rejects and strict):
        return None
    return records, rejects, scale


def _read_own_file(path: Path) -> Optional[bytes]:
    """``path``'s bytes when it is a regular file that this process's user owns and
    no one else may write; None when it is not. The checks and the read use one
    descriptor, so a file put in its place between them is not read; a symbolic
    link or a FIFO is not followed or waited on."""
    fd = os.open(path, os.O_RDONLY | getattr(os, "O_NOFOLLOW", 0) | getattr(os, "O_NONBLOCK", 0))
    with open(fd, "rb") as fh:
        st = os.fstat(fd)
        if not stat.S_ISREG(st.st_mode) or st.st_uid != os.geteuid() or st.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
            return None
        return fh.read()


def _file_sha256(path: Path) -> bytes:
    digest = hashlib.sha256()
    with path.open("rb", buffering=0) as fh:
        for block in iter(partial(fh.read, 1 << 16), b""):
            digest.update(block)
    return digest.digest()


def _records_from_columns(
    columns: tuple, scale: str, scale_kind: Optional[str]
) -> Optional[list[AnnotationRecord]]:
    """The records whose fields ``columns`` holds, once every value has a type its
    field admits and every record is on ``scale``; None when one does not."""
    admitted, required, _ = _row_schema(AnnotationRecord)
    if type(columns) is not tuple or len(columns) != len(_RECORD_FIELDS) or scale_kind not in (None, scale):
        return None
    n = len(columns[0])
    args = []
    for name, col in zip(_RECORD_FIELDS, columns):
        if col is None and name not in required:
            col = repeat(None, n)
        elif type(col) is not tuple or len(col) != n or not set(map(type, col)) <= set(admitted[name]):
            return None
        args.append(col)
    if n == 0 or columns[_RECORD_FIELDS.index("scale_kind")].count(scale) != n:
        return None
    return list(map(_new_record, *args))


def _check_embedding_references(dataset: Dataset) -> None:
    if dataset.embeddings is None:
        return
    missing = [iid for iid in dataset.by_item if iid not in dataset.embeddings]
    if missing:
        raise DataFormatError(f"items without embeddings: {sorted(missing)[:5]} (total {len(missing)})")


def _check_timestamp_order(records: list[AnnotationRecord], raise_on_violation: bool) -> list[str]:
    last: dict[tuple[str, Optional[str]], int] = {}
    violations = []
    for rec in records:
        if rec.timestamp is None or rec.session_id is None:
            continue
        key = (rec.annotator_id, rec.session_id)
        if key in last and rec.timestamp < last[key]:
            msg = (
                f"timestamp decreases within session {rec.session_id!r} "
                f"for annotator {rec.annotator_id!r} (record {rec.record_id!r})"
            )
            if raise_on_violation:
                raise DataFormatError(msg)
            violations.append(msg)
        last[key] = rec.timestamp
    return violations


def save_records(dataset: Dataset, path: str | Path, fmt: str = "jsonl") -> int:
    """Write records back out in the canonical schema. Returns the row count."""
    if fmt not in ("jsonl", "csv"):
        raise ValueError(f"format must be 'jsonl' or 'csv', got {fmt!r}")
    with Path(path).open("w", newline="" if fmt == "csv" else None, encoding="utf-8") as fh:
        if fmt == "csv":
            write_csv(fh, _RECORD_FIELDS, map(record_to_obj, dataset.records))
        else:
            for rec in dataset.records:
                fh.write(to_json(record_to_obj(rec)) + "\n")
    return len(dataset.records)


@dataclass(frozen=True)
class _EmbeddingRow:
    item_id: str
    vector: list[float]


def load_embeddings(path: str | Path) -> EmbeddingTable:
    """Load a JSONL embedding table: one {"item_id": ..., "vector": [...]} per line.
    A vector ``EmbeddingTable.add`` rejects raises naming the file and the line."""
    table = EmbeddingTable(dimension=0, entries={})
    read_rows(path, _EmbeddingRow, partial(from_row, _EmbeddingRow, make=table.add))
    if not table.entries:
        raise DataFormatError(f"{path}: no embedding rows")
    return table


def load_metadata(path: str | Path) -> dict[str, ItemMetadata]:
    """Load item metadata codes from JSONL keyed by item_id."""
    return {meta.item_id: meta for meta in read_rows(path, ItemMetadata)}


@dataclass
class ValidationReport:
    """Report-only summary of what diagnostics the dataset can support, and of
    the rows a lenient load rejected, counted by reason."""

    n_records: int
    n_rejected: int
    n_annotators: int
    n_items: int
    n_repeat_groups: int
    n_framing_pairs: int
    n_sessions: int
    framing_coverage_pct: float
    warnings: list[str]
    rejected_by_reason: dict[str, int]


def validate(dataset: Dataset) -> ValidationReport:
    """Pure, side-effect-free audit of dataset structure.

    Flags records lacking the fields each downstream diagnostic needs; never
    raises on content (structural problems were already handled at load).
    """
    warnings: list[str] = []
    n_records = len(dataset.records)
    n_items = len(dataset.by_item)
    n_repeat_groups = len(dataset.repeat_groups)
    sessions = {r.session_id for r in dataset.records if r.session_id is not None}

    variants: dict[str, set[str]] = {}
    for rec in dataset.records:
        if rec.framing_id is not None:
            variants.setdefault(rec.item_id, set()).add(rec.framing_id)
    n_framing_pairs = sum(1 for ids in variants.values() if len(ids) >= 2)
    coverage = 100.0 * len(variants) / n_items if n_items else 0.0

    if n_records == 0:
        warnings.append("empty dataset")
    if n_repeat_groups == 0 and n_records:
        warnings.append("temporal diagnostics unavailable: no repeated (annotator, item, framing) groups")
    elif n_repeat_groups and not sessions and not any(r.timestamp is not None for r in dataset.records):
        warnings.append("repeats present but no session or timestamp info; temporal pairing cannot qualify them")
    if n_framing_pairs == 0 and n_records:
        warnings.append("framing diagnostics unavailable: no item carries two framing variants")
    if dataset.scale_kind == SCALE_BINARY and n_records:
        order_tags = {r.condition_tag for r in dataset.records if r.condition_tag in (ORDER_TAG_AB, ORDER_TAG_BA)}
        if len(order_tags) < 2:
            warnings.append("order diagnostics unavailable: no items presented under both orders")
    themed = sum(1 for m in dataset.metadata.values() if m.theme_labels)
    if n_records and themed == 0:
        warnings.append("inconsistency-ratio diagnostics unavailable: no theme labels in metadata")
    warnings.extend(_check_timestamp_order(dataset.records, raise_on_violation=False))

    return ValidationReport(
        n_records=n_records,
        n_rejected=len(dataset.rejected),
        n_annotators=len(dataset.by_annotator),
        n_items=n_items,
        n_repeat_groups=n_repeat_groups,
        n_framing_pairs=n_framing_pairs,
        n_sessions=len(sessions),
        framing_coverage_pct=coverage,
        warnings=warnings,
        rejected_by_reason=dict(Counter(r.reason for r in dataset.rejected).most_common()),
    )
