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

import codecs
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
from contextlib import contextmanager, nullcontext
from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields, is_dataclass
from functools import cache, cached_property, partial
from itertools import chain, islice, product, repeat, starmap
from json.encoder import encode_basestring_ascii
from json.scanner import make_scanner
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Annotated, Callable, Iterable, Iterator, NamedTuple, Optional, TextIO, Union
from typing import get_args, get_origin, get_type_hints

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


class Domain(NamedTuple):
    """The values a field admits beyond its type, declared once on its annotation as
    ``Annotated[T, domain]`` (see ``field_domains``): ``ok(value)`` holds for each
    of them, and ``why``, formatted with the field's ``name`` and ``value``, is the
    reject text of any other. None is not checked where the field's type admits it."""

    ok: Callable[[object], bool]
    why: str


def codes(values: tuple[str, ...], why: str = "unknown {name} code {value!r}") -> Domain:
    """The domain of a field holding one of ``values``."""
    return Domain(values.__contains__, why)


# NaN fails every comparison, so it falls outside each range below.
FINITE = Domain(math.isfinite, "{name} must be finite, got {value!r}")
NONNEGATIVE = Domain(lambda v: 0.0 <= v < math.inf, "{name} must be finite and >= 0, got {value!r}")
COUNT = Domain(lambda v: v >= 0, "{name} must be >= 0, got {value}")
UNIT = Domain(lambda v: 0.0 <= v <= 1.0, "{name} must be a finite number in [0, 1], got {value!r}")
COSINE = Domain(lambda v: -1.0 <= v <= 1.0, "{name} must be a finite number in [-1, 1], got {value!r}")


def _frozen_setattr(self, name: str, value) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def frozen_row(cls: type) -> type:
    """``cls`` as a frozen slotted dataclass, the form of every immutable row type.
    Setting or deleting any attribute raises FrozenInstanceError: the methods that
    ``dataclass`` generates name the class that ``slots=True`` replaces, so for a name
    that is not a field they raised TypeError instead."""
    cls = dataclass(frozen=True, slots=True)(cls)
    cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr
    return cls


# The score's domain, which depends on the scale: ``AnnotationRecord``'s rule.
BINARY_SCORES = ("A", "B")
SCORE_RANGES = {SCALE_CONTINUOUS: (0.0, 100.0), SCALE_LIKERT: (1.0, 5.0)}


def _score_fault(score: Score, scale_kind: str) -> Optional[str]:
    """Why ``score`` is outside ``scale_kind``'s domain, or None when it is inside."""
    if scale_kind == SCALE_BINARY:
        return None if score in BINARY_SCORES else f"binary_pair score must be 'A' or 'B', got {score!r}"
    if isinstance(score, str):
        return f"{scale_kind} score must be numeric, got {score!r}"
    lo, hi = SCORE_RANGES[scale_kind]
    if lo <= score <= hi:  # NaN and inf fall outside
        return None
    if not math.isfinite(score):
        return f"score must be finite, got {score!r}"
    return f"score {score} outside [{lo:g}, {hi:g}] for {scale_kind}"


@cache
def field_domains(cls: type) -> dict[str, Domain]:
    """Each field of ``cls`` whose annotation declares a ``Domain`` -> that domain, in
    the order ``check_domains`` checks them: the string fields (the codes) first, so
    an unknown code is named before a number out of range, then the rest, each in
    field order."""
    hints = get_type_hints(cls, include_extras=True)
    declared = [f.name for f in fields(cls) if get_origin(hints[f.name]) is Annotated]
    declared.sort(key=lambda name: str not in _row_schema(cls)[0][name])
    return {name: hints[name].__metadata__[0] for name in declared}


def _domain_fault(name: str, domain: Domain, optional: bool) -> Callable[[object], Optional[str]]:
    """``domain``'s check of field ``name`` as a fault; None passes where ``optional``."""
    ok, why = domain

    def fault(value) -> Optional[str]:
        return None if (value is None and optional) or ok(value) else why.format(name=name, value=value)

    return fault


@cache
def row_checks(cls: type) -> tuple[tuple[tuple[str, ...], Callable[..., Optional[str]], attrgetter, Callable], ...]:
    """The checks a ``cls`` object must pass, in order, as ``(field names, fault, their
    attrgetter, ok)``: ``fault(*values)`` is None when they pass, else the reject text.
    Each declared domain (``field_domains``) checks its field, and a value other than None
    that its ``ok`` passes needs no ``fault``; each rule declared as ``_rules``, ``((field
    names, fault), ...)``, has no ``ok`` and runs right after the last domain among its fields."""
    admitted = _row_schema(cls)[0]
    order = {name: at for at, name in enumerate(field_domains(cls))}
    checks = [((at, 0), (name,), _domain_fault(name, domain, type(None) in admitted[name]), domain.ok)
              for at, (name, domain) in enumerate(field_domains(cls).items())]
    checks += [((max(map(order.get, names, repeat(-1))), 1), names, fault, None)  # after its fields' last domain
               for names, fault in getattr(cls, "_rules", ())]
    return tuple((names, fault, attrgetter(*names), ok) for _, names, fault, ok in sorted(checks, key=itemgetter(0)))


def check_domains(obj) -> None:
    """Raise DataFormatError with the reject text of the first of ``row_checks`` that
    ``obj`` fails. Each row type that the CLI reads runs this as, or from, its
    ``__post_init__``."""
    for names, fault, get, ok in row_checks(type(obj)):
        value = get(obj)
        if ok is None or value is None or not ok(value):
            why = fault(*value) if len(names) > 1 else fault(value)
            if why is not None:
                raise DataFormatError(why)


@frozen_row
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
    scale_kind: Annotated[str, codes(SCALE_KINDS, "unknown {name} {value!r}")]
    response_text: Optional[str] = None
    model_id: Optional[str] = None
    session_id: Optional[str] = None
    timestamp: Optional[int] = None
    position_index: Annotated[Optional[int], COUNT] = None
    framing_id: Optional[str] = None
    condition_tag: Optional[str] = None
    weight: Annotated[Optional[float], NONNEGATIVE] = None

    _rules = ((("score", "scale_kind"), _score_fault),)  # the score's domain is its scale's
    __post_init__ = check_domains


@cache
def _twin(cls: type) -> type:
    """A class with ``cls``'s slot layout, not frozen, whose ``__init__`` sets each
    field, in field order, as a plain slot assignment: the frozen ``__init__`` sets
    each through ``object.__setattr__``, several times the cost. An object built as
    the twin is made a ``cls`` by assigning its ``__class__``, which raises TypeError
    should the two slot layouts ever differ. ``_rows_from_columns`` builds every object
    of a parsed chunk or a sidecar this way, so each row type a parse builds is slotted;
    a ``cls`` without slots of its own raises TypeError naming it."""
    slots = cls.__dict__.get("__slots__")
    if slots is None:
        raise TypeError(f"a parse builds slotted dataclasses only, and {cls.__qualname__} has no __slots__")
    names = _field_names(cls)
    scope: dict = {}
    exec(f"def __init__(self, {', '.join(names)}):\n" + "".join(f"    self.{n} = {n}\n" for n in names), scope)
    return type(f"_{cls.__name__}Twin", (), {"__slots__": slots, "__init__": scope["__init__"]})


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


@frozen_row
class ItemMetadata:
    """Analyst- or model-assigned codes for one item."""

    item_id: str
    content_type: Annotated[Optional[str], codes(CONTENT_TYPES)] = None
    response_quality: Annotated[Optional[str], codes(RESPONSE_QUALITIES)] = None
    eval_complexity: Annotated[Optional[str], codes(EVAL_COMPLEXITIES)] = None
    plausible_pref: Annotated[Optional[str], codes(PLAUSIBLE_PREFS)] = None
    theme_labels: frozenset[str] = frozenset()
    value_dimension: Optional[str] = None

    def __post_init__(self):
        check_domains(self)
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


# One JSONEncoder, where json.dumps with these options builds one per call. Its
# encode still builds a new C encoder per call; a writer of many rows encodes
# them a column at a time through ``write_jsonl`` instead, to the same text.
_ENCODER = json.JSONEncoder(sort_keys=True, default=_encode_default)
to_json = _ENCODER.encode


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


def from_row(cls: type, row: dict):
    """``cls(**row)`` once each value's type is one its field admits: matched exactly,
    cast only on a miss. An unknown field, a missing or null required field and a
    value that cannot be cast raise DataFormatError; ``row`` is left as given. This
    is the one home of the casts and of every reject text: a parse builds its rows
    a chunk at a time (see ``_build_rows``) and runs this on a chunk it refuses. A row
    type's read rule, a staticmethod ``_read_row(row)`` that returns the row to build
    from (``PromptPair``'s fills in a missing ``pair_id``), runs first, as in ``_chunk_columns``."""
    read = cls.__dict__.get("_read_row")  # a staticmethod, callable; a getattr miss would cost an AttributeError
    if read is not None:
        row = read(row)
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
    return cls(**{**row, **cast}) if cast else cls(**row)


def record_to_obj(record: AnnotationRecord) -> dict:
    """Record as a plain dict; absent optionals are omitted, never sentinels."""
    out = {}
    for name in _RECORD_FIELDS:
        value = getattr(record, name)
        if value is not None:
            out[name] = value
    return out


def records_from_rows(
    rows: Iterable[tuple[int, dict]],
    scale_kind: Optional[str] = None,
    strict: bool = False,
    rejects: Optional[list[RejectedRow]] = None,
) -> tuple[list[AnnotationRecord], list[RejectedRow], str]:
    """Build records from (line_no, raw dict) pairs.

    Lenient mode collects malformed rows, appended to ``rejects`` (which may
    already hold the reader's) when given; strict mode raises on the first.
    The dataset scale is ``scale_kind`` if given, else the first valid row's.
    Rows on a different scale than the dataset's are malformed.
    """
    rejects = [] if rejects is None else rejects
    scale = scale_kind

    def build(obj: dict) -> AnnotationRecord:
        nonlocal scale
        if not obj.get("scale_kind"):
            if scale is None:
                raise DataFormatError("record carries no scale_kind and no dataset-level default given")
            obj = {**obj, "scale_kind": scale}
        rec = from_row(AnnotationRecord, obj)
        if scale is None:
            scale = rec.scale_kind
        elif rec.scale_kind != scale:
            raise DataFormatError(f"scale_kind {rec.scale_kind!r} differs from dataset scale {scale!r}")
        return rec

    def build_chunk(chunk: tuple[dict, ...]) -> Optional[list[AnnotationRecord]]:
        # every row names the dataset's scale, or the first row's while there is none,
        # which is kept once the chunk passes; any other row goes to ``build``
        nonlocal scale
        guess = scale or chunk[0].get("scale_kind")
        built = _records_from_columns(_chunk_columns(AnnotationRecord, chunk), guess, scale)
        if built is not None:
            scale = guess
        return built

    records = _build_rows(rows, build, None, None if strict else rejects, build_chunk)
    if not records:
        common = Counter(r.reason for r in rejects).most_common(1)
        why = f"; {common[0][1]} of {len(rejects)} rejected rows: {common[0][0]}" if common else ""
        raise DataFormatError(f"zero valid rows{why}")
    return records, rejects, scale or SCALE_CONTINUOUS


def _reject(rejects: Optional[list[RejectedRow]], line_no: int, reason: str, raw: str) -> None:
    """A bad line: appended to a lenient reader's ``rejects``, else raised naming the line."""
    if rejects is None:
        raise DataFormatError(f"line {line_no}: {reason}") from None
    rejects.append(RejectedRow(line_no, reason, raw))


class _Hashed(io.RawIOBase):
    """``file``, whose every block read or written is fed to ``digest``, a hashlib
    object. The file is opened by the caller, so one that cannot be opened leaves
    no half-made ``_Hashed`` for the garbage collector to close."""

    def __init__(self, file: io.FileIO, digest):
        self._file = file
        self._digest = digest

    def readable(self) -> bool:
        return self._file.readable()

    def writable(self) -> bool:
        return self._file.writable()

    def readinto(self, buffer) -> int:
        n = self._file.readinto(buffer)
        self._digest.update(memoryview(buffer)[:n])
        return n

    def write(self, data) -> int:
        n = self._file.write(data)
        self._digest.update(memoryview(data)[:n])
        return n

    def close(self) -> None:
        self._file.close()
        super().close()


def _open_text(path: str | Path | io.TextIOBase, raw: Callable = io.FileIO):
    """``path`` opened as UTF-8 text, its bytes read through ``raw(path)`` (``_cached_load``
    hashes them), a leading byte-order mark skipped; a byte that is not UTF-8 reads
    as a lone surrogate (see ``_undecodable``). A text stream that is already open is
    read on from where it stands, and left open for its opener to close."""
    if isinstance(path, io.TextIOBase):
        return nullcontext(path)
    return io.TextIOWrapper(io.BufferedReader(raw(os.fspath(path)), 1 << 16), "utf-8-sig", "surrogateescape")


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
    path: str | Path | io.TextIOBase, rejects: Optional[list[RejectedRow]] = None
) -> Iterator[tuple[int, dict]]:
    """Yield ``(line_no, obj)`` for each non-blank line of a JSONL file.

    A ``{"#config": ...}`` header line, as the CLI writes one, is skipped. A
    line that is not UTF-8, not JSON or not an object raises DataFormatError
    naming the line, or, when ``rejects`` is given, is appended there instead.
    Equal string values of the file's rows are one shared object.

    Each stripped line goes straight to the C scanner that ``json.loads`` runs,
    which skips the checks ``json.loads`` makes on every call. A row is kept
    when the scan takes the whole line; any other line goes to ``json.loads``,
    which fails on it with the reject text it always gave.
    """
    strings: dict[str, str] = {}
    with _open_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            reason = _undecodable(line)
            if reason is not None:
                line = line.encode("utf-8", "surrogateescape").decode("utf-8", "backslashreplace")
            else:
                try:
                    obj, end = _scan_json(line, 0)
                except (StopIteration, ValueError, RecursionError):  # no value, or a bad one
                    end = None  # json.loads fails the same way, in its own words
                try:
                    if end != len(line):
                        obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    reason = f"invalid JSON: {exc}"
                else:
                    if isinstance(obj, dict):
                        if len(obj) != 1 or "#config" not in obj:
                            yield line_no, _shared(obj, strings)
                        continue
                    reason = "row is not an object"
            _reject(rejects, line_no, reason, line)


# ``json.loads``' own scanner: a default JSONDecoder's, built once.
_scan_json = make_scanner(json.JSONDecoder())


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
    path: str | Path | io.TextIOBase, cls: type, rejects: Optional[list[RejectedRow]] = None
) -> Iterator[tuple[int, dict]]:
    """``iter_jsonl`` for CSV: an optional ``CONFIG_PREFIX`` line, a header row,
    then one row per line. Cells are read as ``cls``'s field types; an empty
    cell is an absent field. Equal string values are shared, and a row that is
    not UTF-8 is rejected, as there."""
    admitted = _cell_types(cls)
    strings: dict[str, str] = {}
    with _open_text(path) as fh:
        fh.reconfigure(newline="")  # as ``csv`` reads: each line end kept as it is, and none translated
        first = fh.readline()
        skipped = first.startswith(CONFIG_PREFIX)
        reader = csv.DictReader(fh if skipped else chain([first], fh))  # no seek: a hash sees each byte once
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
            _reject(rejects, line_no, reason, json.dumps(row))


def read_rows(path: str | Path, cls: type, unique: Optional[str] = None) -> list:
    """The ``cls`` objects of a row file the CLI writes: JSONL, or CSV whose first line
    starts with ``CONFIG_PREFIX`` as the CLI's CSV outputs do. Each row is read as
    ``from_row`` reads it, read rule included; a row of a type with a field that
    holds a row object gives that object's fields in its place (see ``_nested_reader``).
    A bad row, and a row whose string field ``unique`` repeats an earlier row's,
    raise one DataFormatError naming the file and the line (and the earlier one).

    A regular file's objects are kept in its sidecar (see ``_cached_load``) as
    columns (see ``_row_columns``), under a key naming ``cls`` (see ``_rows_key``);
    a later read of the same bytes builds them from the columns that
    ``_rows_from_columns`` passes, ``unique`` included, instead of parsing.
    """
    path = Path(path)
    return _cached_load(path, _rows_key(cls), partial(_rows_from_columns, cls, unique=unique),
                        partial(_parse_rows, path, cls, unique), partial(_row_columns, cls))


def _parse_rows(path: Path, cls: type, unique: Optional[str], fh: TextIO, build: Optional[Callable] = None) -> list:
    """``read_rows`` by a parse of ``fh``, the open file ``path``. ``build``, when given,
    builds each row instead (``load_embeddings``' checks a vector against the rows before)."""
    try:
        # one stream, peeked and then parsed, so a pipe loses no line to the peek
        head = fh.buffer.peek(len(_CSV_MARK) + len(codecs.BOM_UTF8))
        rows = _iter_csv(fh, cls) if head.removeprefix(codecs.BOM_UTF8).startswith(_CSV_MARK) else iter_jsonl(fh)
        if build is None and _nested_rows(cls):
            build = _nested_reader(cls)
        chunked = None if build else lambda chunk: _rows_from_columns(cls, _chunk_columns(cls, chunk), unique)
        return _build_rows(rows, build or partial(from_row, cls), unique, None, chunked)
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


_CSV_MARK = CONFIG_PREFIX.encode()


# Rows a parse reads before it builds them, at once: enough that a chunk's checks
# cost little per row, few enough that its columns add little to the peak memory.
_CHUNK_ROWS = 1024


def _build_rows(rows: Iterable[tuple[int, dict]], build: Callable[[dict], object], unique: Optional[str],
                rejects: Optional[list[RejectedRow]] = None,
                build_chunk: Optional[Callable[[tuple[dict, ...]], Optional[list]]] = None) -> list:
    """``build`` of each ``(line_no, row)``, whose string field ``unique``, when given,
    must not repeat an earlier row's. A row that ``build`` or the ``unique`` check
    refuses is rejected as a reader rejects a bad line (see ``_reject``).

    The rows are read ``_CHUNK_ROWS`` at a time. ``build_chunk``, when given, builds
    a chunk's rows at once, or returns None for a chunk it does not pass, which
    ``build`` then builds a row at a time. Either way the rejects keep line order:
    the rejects a lenient reader adds while a chunk is read are merged with the
    chunk's by line, and a reader that raises does so once the rows it gave
    before are built, which may raise first."""
    out = []
    first_line: dict[str, int] = {}  # a value of ``unique`` -> the line that gave it
    rows = iter(rows)
    while True:
        start = len(rejects or ())
        chunk: list[tuple[int, dict]] = []
        fault = None
        try:
            chunk.extend(islice(rows, _CHUNK_ROWS))  # keeps the rows read before a raise
        except DataFormatError as exc:  # a strict reader's bad line: raised once the rows before it are built
            fault = exc
        read = len(rejects or ())  # a lenient reader's rejects, from ``start`` on
        built = None
        if chunk and build_chunk is not None:
            line_nos, chunk_rows = zip(*chunk)
            built = build_chunk(chunk_rows)
            if built is not None and unique is not None:
                values = [row[unique] for row in chunk_rows]
                if first_line.keys().isdisjoint(values):
                    first_line.update(zip(values, line_nos))
                else:
                    built = None
        if built is not None:
            out += built
        else:
            for line_no, row in chunk:
                try:
                    obj = build(row)
                    if unique is not None:  # checked once ``build`` has made the value a string
                        first = first_line.setdefault(row[unique], line_no)
                        if first != line_no:
                            raise DataFormatError(f"{unique} {row[unique]!r} repeats line {first}")
                    out.append(obj)
                except DataFormatError as exc:
                    _reject(rejects, line_no, str(exc), to_json(row))
            if rejects and start < read < len(rejects):
                rejects[start:] = sorted(rejects[start:], key=attrgetter("line_no"))
        if fault is not None:
            raise fault
        if len(chunk) < _CHUNK_ROWS:
            return out


@contextmanager
def open_output(path: str | Path, newline: Optional[str] = None, digest=None) -> Iterator[TextIO]:
    """Standard output for ``-``, else the file ``path``, opened for writing as UTF-8;
    ``digest``, when given, is fed every byte written to the file."""
    if path == "-":
        yield sys.stdout
        return
    if digest is None:
        fh = open(path, "w", encoding="utf-8", newline=newline)
    else:
        fh = io.TextIOWrapper(io.BufferedWriter(_Hashed(io.FileIO(path, "w"), digest), 1 << 16),
                              encoding="utf-8", newline=newline)
    with fh:
        yield fh


def write_jsonl(
    path: str | Path,
    rows: Iterable,
    cls: Optional[type] = None,
    *,
    columns: Optional[dict[str, Optional[Callable[[object], object]]]] = None,
    header: Optional[dict] = None,
    nulls: bool = True,
    kept: bool = False,
) -> None:
    """Each of ``rows`` as one JSON object on a line of its own, its keys sorted, to the
    file ``path`` or, for ``-``, to standard output; ``header``, when given, is the first
    line. Each line is ``to_json`` of the row as a dict (see ``_chunk_lines``).

    A row's keys are the fields of ``cls``, read from it as attributes, a field that
    holds a row object (``InconsistencyFlag.pair``) giving that object's fields in its
    place; then ``columns``: ``columns[key](row)`` adds the column ``key`` or replaces
    the field of that name, and a None drops it. A None value is written ``null``,
    or, with ``nulls`` False, its key is left out, as ``record_to_obj`` leaves it. The
    rows are encoded ``_CHUNK_ROWS`` at a time, a column at a time.

    ``kept`` leaves a file the sidecar that ``read_rows(path, cls)`` keeps, so its
    next read builds no row: the columns (see ``_row_columns``) of ``rows``, which are
    then ``cls`` objects, under the SHA-256 of the bytes as they are written. Each row
    must read back as the object it was written from. Standard output or another
    path that is not a regular file, a write that raises, and a value that a parse
    refuses leave no sidecar. With neither ``cls`` nor ``columns`` a row has no keys,
    and TypeError is raised before the file is opened."""
    if cls is None and not columns:
        raise TypeError("write_jsonl needs a row type or columns to lay each row out")
    layout = _row_layout(cls, columns or {})
    key = _rows_key(cls) if kept and path != "-" else None
    digest = None if key is None else hashlib.sha256()
    if key is not None:
        rows = list(rows)  # read twice: written, then kept
    unread = iter(rows)
    chunks = iter(lambda: list(islice(unread, _CHUNK_ROWS)), [])
    with open_output(path, digest=digest) as fh:
        if header is not None:
            fh.write(to_json(header) + "\n")
        for chunk in chunks:
            _write_lines(fh, _chunk_lines(chunk, layout, "null" if nulls else None))
            del chunk  # let this chunk's rows go before the next is read
    if digest is not None and Path(path).is_file():
        try:
            kept_columns = _row_columns(cls, rows, _written_key)
        except DataFormatError:  # a value a parse refuses: the read parses the file and says so
            return
        _write_sidecar(Path(path), key, digest.digest(), kept_columns)


def _row_layout(cls: Optional[type], columns: dict) -> list[tuple[Callable, Union[str, tuple[str, ...]]]]:
    """A ``write_jsonl`` row as segments, in sorted key order: ``(get, key)`` for the
    column ``key`` that ``get`` reads from a row, and ``(get, names)`` for a run of keys
    that are the fields ``names`` of the row object ``get`` reads (see ``_nested_rows``)."""
    sources: dict[str, tuple[Callable, Optional[str]]] = {}  # a key -> (get, field of the nested object)
    if cls is not None:
        nested = _nested_rows(cls)
        for name in _field_names(cls):
            if name in nested:
                get = attrgetter(name)
                sources.update((inner, (get, inner)) for inner in _field_names(nested[name]))
            else:
                sources[name] = (attrgetter(name), None)
    for name, get in columns.items():
        if get is None:
            sources.pop(name, None)
        else:
            sources[name] = (get, None)
    layout: list = []
    for name in sorted(sources):
        get, inner = sources[name]
        if inner is None:
            layout.append((get, name))
        elif layout and layout[-1][0] is get:  # the next field of the object the segment before reads
            layout[-1] = (get, (*layout[-1][1], inner))
        else:
            layout.append((get, (inner,)))
    return layout


# Lines a writer joins into one text to write: enough that a join costs little per line,
# few enough that the text, and the bytes it is encoded to, add little to the peak memory.
_WRITE_LINES = 128


def _write_lines(fh: TextIO, lines: Iterator[tuple[str, ...]]) -> None:
    """Each of ``lines`` (see ``_chunk_lines``) to ``fh``, ``_WRITE_LINES`` at a time. The
    chunk's texts are let go on return, before the next chunk is encoded."""
    for block in iter(lambda: list(islice(lines, _WRITE_LINES)), []):
        fh.write("".join(chain.from_iterable(block)))


def _chunk_lines(rows: list, layout: list, null: Optional[str]) -> Iterator[tuple[str, ...]]:
    """``rows``, laid out by ``_row_layout``, as lines of JSON text, each a tuple of texts
    whose join is the line: ``to_json`` of the row as a dict, where a None value is
    ``null``, or leaves its key out when ``null`` is None.

    Each column's values are encoded in one pass (``_value_texts``). A run of fields of a
    nested row object is encoded once per distinct object, as one piece, and indexed
    (see ``_distinct``). A line is then each key every row gives, as a text repeated on
    every line, and the columns' texts; a key that some rows leave out is in its value's
    text instead."""
    n = len(rows)
    parts: list = []  # a line's texts, in order: each a repeat of one text, or a column's
    found: dict = {}  # a segment's ``get`` of a nested object -> the objects' places and the distinct objects
    ragged = False  # whether some line's first text is empty, so that the lines cannot share one separator
    for get, keys in layout:
        sep = ", " if parts else ""  # no separator before a line's first key
        if type(keys) is str:
            col, sparse = _value_texts(list(map(get, rows)), null)
            label = encode_basestring_ascii(keys) + ": "
            if null is None and sparse:  # some value is None, whose key is left out
                parts.append(_keyed(", " + label, col))
                ragged = ragged or not sep
            else:
                parts += (repeat(sep + label, n), col)
            continue
        if get not in found:
            found[get] = _distinct(map(get, rows))
        index, objects = found[get]
        labels = [", " + encode_basestring_ascii(name) + ": " for name in keys]
        fields_texts = zip(*(_value_texts(list(map(attrgetter(name), objects)), null)[0] for name in keys))
        pieces = ["".join(label + text for label, text in zip(labels, object_texts) if text is not None)
                  for object_texts in fields_texts]
        if not sep and all(pieces):
            pieces = [piece[2:] for piece in pieces]
        else:
            ragged = ragged or not sep
        parts.append(map(pieces.__getitem__, index))
    if not parts:
        return repeat(("{}\n",), n)
    if ragged:  # each text but a key every row gives starts with a separator; a line drops its first
        return (("{", "".join(line)[2:], "}\n") for line in zip(*parts))
    return zip(repeat("{", n), *parts, repeat("}\n", n))


def _keyed(label: str, texts: Iterator[Optional[str]]) -> Iterator[str]:
    """Each of ``texts`` after ``label``, and a None, a value whose key is left out, as ``""``."""
    return ("" if text is None else label + text for text in texts)


def _encode_strings(value: Union[str, tuple]) -> str:
    """``to_json`` of a string, or of a tuple of strings."""
    if type(value) is str:
        return encode_basestring_ascii(value)
    return "[" + ", ".join(map(encode_basestring_ascii, value)) + "]"


def _value_texts(values: list, null: Optional[str]) -> tuple[Iterator[Optional[str]], bool]:
    """``to_json`` of each of ``values``, a column, as an iterator that encodes each value
    as it is read, so that a writer holds only the texts of the lines it joins, with
    ``null`` for a None; and whether some value is None. A value's exact type
    picks its way: a column of strings, or of strings and tuples of strings, encodes
    each distinct value once; a column of finite floats takes ``float.__repr__`` and
    one of ints ``int.__repr__``, as the C encoder does, and no number is memoised
    (``1 == 1.0 == True``, ``0.0 == -0.0``); any other column (bools, numpy floats,
    subclasses, lists, sets, dataclasses, NaN or an infinity) goes to ``to_json``, the
    one definition of the text."""
    kinds = set(map(type, values))
    if type(None) in kinds:  # the other values are encoded apart, then put back in their places
        if len(kinds) == 1:
            return repeat(null, len(values)), True
        texts = _value_texts([value for value in values if value is not None], null)[0]
        return (null if value is None else next(texts) for value in values), True
    # a float sum past the float range sends a finite column to ``to_json``, which writes the same text
    if kinds == {int} or kinds == {float} and math.isfinite(sum(values)):
        return map(kinds.pop().__repr__, values), False
    if kinds == {str}:
        encode = encode_basestring_ascii
    elif kinds <= {str, tuple} and set(map(type, chain.from_iterable(v for v in values if type(v) is tuple))) <= {str}:
        encode = _encode_strings
    else:
        return map(to_json, values), False
    distinct = set(values)
    if len(distinct) == len(values):
        return map(encode, values), False
    memo = dict(zip(distinct, map(encode, distinct)))
    return map(memo.__getitem__, values), False


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

    A regular file's load is kept in a sidecar next to it (see ``_cached_load``),
    which a later load of the same bytes with the same ``fmt`` and ``scale_kind``
    reads instead of parsing the file again: the record fields as columns, the
    rejects as ``(line_no, reason, raw)`` and the effective scale. Under ``strict``,
    a bad row raises naming the file and the line.
    """
    path = Path(path)
    if fmt not in ("jsonl", "csv"):
        raise ValueError(f"format must be 'jsonl' or 'csv', got {fmt!r}")

    def parse(fh: TextIO) -> tuple[list[AnnotationRecord], list[RejectedRow], str]:
        # the reader's rejects and the record builder's land in one list, in line order
        rejects: list[RejectedRow] = []
        lenient = None if strict else rejects
        rows = iter_jsonl(fh, lenient) if fmt == "jsonl" else _iter_csv(fh, AnnotationRecord, lenient)
        try:
            return records_from_rows(rows, scale_kind, strict, rejects)
        except DataFormatError as exc:
            if strict:
                raise DataFormatError(f"{path}: {exc}") from None
            raise

    def keep(loaded) -> tuple:
        records, rejects, scale = loaded
        return _row_columns(AnnotationRecord, records), tuple((r.line_no, r.reason, r.raw) for r in rejects), scale

    def decode(payload) -> Optional[tuple[list[AnnotationRecord], list[RejectedRow], str]]:
        # checked as a parse checks each row (see ``_records_from_columns``); a strict parse raises on a reject
        columns, rejected, scale = payload
        records = _records_from_columns(columns, scale, scale_kind)
        rejects = [RejectedRow(*r) for r in rejected if tuple(map(type, r)) == (int, str, str)]
        if records is None or len(rejects) != len(rejected) or (rejects and strict):
            return None
        return records, rejects, scale

    # a strict and a lenient load of a clean file build the same records
    records, rejects, effective_scale = _cached_load(path, (fmt, scale_kind), decode, parse, keep)
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


def _sidecar_path(path: Path) -> Path:
    return path.with_name(f".{path.name}.prefaudit")


@cache
def _source_digest() -> Optional[bytes]:
    """The SHA-256 of the source of every module of this package, read once per
    process. None, for no sidecar, when this module's source is not among them, as
    in an install without source, and when one cannot be read."""
    here = Path(__file__)
    files = sorted(here.parent.glob("*.py"))
    if here not in files:
        return None
    digest = hashlib.sha256()
    try:
        for source in files:
            digest.update(source.read_bytes())
    except OSError:
        return None
    return digest.digest()


def _sidecar_header(key: tuple, digest: bytes) -> bytes:
    """What a sidecar must match to be used: the interpreter and marshal format,
    the source of this package (``_source_digest``: a change to any module retires
    every sidecar), the reader's ``key`` (``load_records``' ``(fmt, scale_kind)``, or
    ``_rows_key``) and the SHA-256 of the input's bytes. Marshal format 2 writes no
    back-references, so equal headers are equal bytes."""
    return marshal.dumps((sys.implementation.cache_tag, marshal.version, _source_digest(), key, digest), 2)


def _rows_key(cls: type) -> Optional[tuple]:
    """``read_rows(path, cls)``'s sidecar key: ``cls`` by name. None, for no sidecar,
    for a class defined outside this package, whose source alone the header digests."""
    row_type = f"{cls.__module__}.{cls.__qualname__}"
    return ("read_rows", row_type) if row_type.startswith(f"{__package__}.") else None


def _cached_load(path: Path, key: Optional[tuple], decode: Callable, parse: Callable, keep: Callable):
    """``decode`` of the payload ``path``'s sidecar (a cache, never a second source of truth)
    keeps under ``key`` for the file's bytes (see ``_sidecar_header``); when the sidecar is
    missing, stale, unreadable or not the user's own (``_read_own_file``), or ``decode``
    returns None or raises, ``parse(fh)`` of the one stream ``_open_text`` opens on
    ``path``, and ``keep`` of it kept in the sidecar under the SHA-256 of the bytes read.
    A ``key`` of None, an install without source and a path that is not a regular file
    (hashing a pipe would consume what the parse must read) keep no sidecar."""
    kept = key is not None and _source_digest() is not None and path.is_file()
    try:
        blob = _read_own_file(_sidecar_path(path)) if kept else None
        if blob is not None:
            header = _sidecar_header(key, _file_sha256(path))
            if blob.startswith(header):
                loaded = decode(marshal.loads(memoryview(blob)[len(header):]))
                if loaded is not None:
                    return loaded
    except Exception:  # a cache: whatever goes wrong reading it, the file is parsed instead
        pass
    digest = hashlib.sha256()
    with _open_text(path, (lambda name: _Hashed(io.FileIO(name), digest)) if kept else io.FileIO) as fh:
        loaded = parse(fh)
    if kept:
        _write_sidecar(path, key, digest.digest(), keep(loaded))
    return loaded


def _write_sidecar(path: Path, key: tuple, digest: bytes, payload) -> None:
    """Keep a load of the bytes ``digest`` names in ``path``'s sidecar: the header,
    then ``payload`` as one marshal blob, which keeps its shared strings shared.
    A sidecar that cannot be written, or of an install without source, is skipped."""
    if _source_digest() is None:
        return
    sidecar = _sidecar_path(path)
    try:
        body = marshal.dumps(payload)
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
    except (OSError, ValueError):  # ValueError: a value marshal cannot write
        pass


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


@cache
def _nested_rows(cls: type) -> dict[str, type]:
    """Each field of ``cls`` that holds a row object (``InconsistencyFlag.pair``) -> its
    row type. A row of ``cls`` gives that object's fields in its place."""
    return {name: types[0] for name, types in _row_schema(cls)[0].items() if is_dataclass(types[0])}


@cache
def _cell_types(cls: type) -> dict[str, tuple]:
    """The types each cell of a row of ``cls`` may read as: those of ``cls``'s fields,
    a field that holds a row object giving way to the fields of its type."""
    admitted = dict(_row_schema(cls)[0])
    for name, nested in _nested_rows(cls).items():
        del admitted[name]
        admitted.update(_row_schema(nested)[0])
    return admitted


@cache
def _column_types(cls: type) -> dict[str, frozenset]:
    """Each field of ``cls`` -> the exact types its values may have: those its row
    admits, a container type (``frozenset[str]``) as the container itself."""
    return {name: frozenset(get_origin(t) or t for t in types) for name, types in _row_schema(cls)[0].items()}


def _written_key(obj) -> tuple:
    """The reprs of ``obj``'s fields: two objects a writer wrote with one key read back as
    one, as ``_nested_reader`` shares the object of rows whose nested cells' reprs match."""
    return tuple(map(repr, map(getattr, repeat(obj), _field_names(type(obj)))))


def _nested_reader(cls: type) -> Callable[[dict], object]:
    """The builder of one file's ``cls`` objects, a row at a time, for a ``cls`` whose
    field holds a row object (``_nested_rows``: a flag's pair), whose cells a row gives in
    its place. Rows whose nested cells are equal in name and order, type and value share
    one object, built and checked by ``from_row`` from the first such row: ``true`` is
    not ``1.0``, and ``-0.0`` is not ``0.0``. Each row looks it up by the repr of those
    cells, which tells their names and order and, for a value read from JSON or CSV,
    its type and value; a miss builds it."""
    (name, nested), = _nested_rows(cls).items()
    own = [field_name for field_name in _field_names(cls) if field_name != name]
    built: dict[str, object] = {}

    def build(row: dict):
        # the row's own fields leave it first, so the nested object sees only its own
        cells = {key: row.pop(key) for key in own if key in row}
        key = repr(row)
        obj = built.get(key)
        if obj is None:
            obj = built[key] = from_row(nested, row)
        cells[name] = obj
        return from_row(cls, cells)

    return build


def _row_columns(cls: type, objects: list, key: Callable = id) -> tuple:
    """One entry per field of ``cls`` over ``objects``, each a ``cls``: the values as a
    tuple, or None when every value is None. A value whose type its field does not
    admit is cast as a parse of its JSON form casts it (see ``_cast``), which raises
    DataFormatError for one a parse refuses; so these are a sidecar's columns, never
    a writer's text, which encodes each value as it is (an int in a float field is
    ``1`` in the file and ``1.0`` here). A field holding row objects is
    ``(index, columns)``: ``columns`` those of its distinct objects in order of first
    use, where two objects that ``key`` maps to one value are one, and ``index`` the
    place of each value among them."""
    admitted, _, containers = _row_schema(cls)
    exact, nested = _column_types(cls), _nested_rows(cls)
    out = []
    for name in _field_names(cls):
        col = tuple(map(attrgetter(name), objects))
        if name in nested:
            index, firsts = _distinct(col, key)
            out.append((tuple(index), _row_columns(nested[name], firsts, key)))
            continue
        col = _cast_column(name, col, exact[name], admitted[name], containers[name])
        out.append(None if col and col[0] is None and col.count(None) == len(col) else col)
    return tuple(out)


def _distinct(objects: Iterable, key: Callable = id) -> tuple[list[int], list]:
    """The place of each of ``objects`` among the distinct ones, and those in order of
    first use, where two objects that ``key`` maps to one value are one. A run of one
    object looks its place up once."""
    places: dict = {}  # an object's id -> its place
    distinct: dict = {}  # a ``key`` -> the place of the first object it maps to
    firsts, index, last = [], [], None
    for obj in objects:
        if obj is not last:
            last = obj
            place = places.get(id(obj))
            if place is None:
                place = places[id(obj)] = distinct.setdefault(key(obj), len(distinct))
                if place == len(firsts):
                    firsts.append(obj)
        index.append(place)
    return index, firsts


def _cast_column(name: str, col: tuple, kept: frozenset, admitted: tuple, container: Optional[_Container]) -> tuple:
    """``col`` with each value whose type ``kept`` lacks cast as a parse casts it (see
    ``_cast``), which raises DataFormatError for one it cannot cast. A column of lists
    whose every entry has a type the ``container`` admits is cast in one step."""
    types = set(map(type, col))
    if types <= kept:
        return col
    if container is not None and types == {list} and set(map(type, chain.from_iterable(col))) <= set(container[1]):
        return tuple(map(container[0], col))
    return tuple(v if type(v) in kept else _cast(name, v, admitted, container) for v in col)


@cache
def _row_fields(cls: type) -> tuple[tuple[str, object, frozenset], ...]:
    """Each field of ``cls`` as ``_chunk_columns`` reads it: its name, what a row that
    leaves it out gives, and the types a row's value keeps uncast. A required field
    left out gives None, which its types lack; any other its default, whose type it
    keeps. A default factory's field gives ``MISSING``, which ``_rows_from_columns``
    refuses, so such a chunk is built a row at a time."""
    admitted, required, _ = _row_schema(cls)
    return tuple(
        (f.name, None, frozenset(admitted[f.name]) - {type(None)}) if f.name in required
        else (f.name, f.default, frozenset(admitted[f.name]) | {type(f.default)})
        for f in fields(cls)
    )


def _chunk_columns(cls: type, rows: tuple[dict, ...]) -> Optional[tuple]:
    """The columns (see ``_row_columns``) of the ``cls`` objects ``from_row`` would build
    from ``rows``, read rule included: new tuples, each value cast as ``from_row``
    casts it and each field a row leaves out its default. None when a row names an
    unknown field or leaves out a required one, or a value cannot be cast;
    ``_rows_from_columns`` checks the rest, as it checks a sidecar's."""
    read = cls.__dict__.get("_read_row")
    if read is not None:
        rows = tuple(map(read, rows))
    admitted, _, containers = _row_schema(cls)
    named = set().union(*rows)
    if not named <= admitted.keys():
        return None
    columns = []
    try:
        for name, absent, kept in _row_fields(cls):
            if name in named:
                col = tuple(map(dict.get, rows, repeat(name), repeat(absent)))
                col = _cast_column(name, col, kept, admitted[name], containers[name])
            elif type(absent) not in kept:  # a required field that no row gives
                return None
            else:
                col = None if absent is None else (absent,) * len(rows)
            columns.append(col)
    except DataFormatError:
        return None
    return tuple(columns)


def _rows_from_columns(cls: type, columns, unique: Optional[str] = None) -> Optional[list]:
    """The ``cls`` objects whose fields ``columns`` holds (see ``_row_columns``), checked
    as a parse checks each row: every value of a type its field admits, container
    entries included, and a None column only where None is admitted; every column of
    one length and every index into a nested table an int in range; each check of
    ``row_checks`` (``_columns_in_domain``); ``unique`` distinct. None when a check
    fails. Each object is built as ``_twin(cls)`` and given the class, running no
    ``__post_init__``: a parse's columns come through the type's read rule and a
    sidecar's from built objects, so each object is as its constructor would leave it.
    A ``cls`` without slots raises TypeError."""
    twin, names = _twin(cls), _field_names(cls)
    if type(columns) is not tuple or len(columns) != len(names):
        return None
    admitted, _, containers = _row_schema(cls)
    exact, nested = _column_types(cls), _nested_rows(cls)
    values: dict[str, Optional[tuple]] = {}
    for name, col in zip(names, columns):
        if name in nested:
            if type(col) is not tuple or len(col) != 2 or type(col[0]) is not tuple:
                return None
            index, table = col
            objects = _rows_from_columns(nested[name], table)
            if objects is None or not set(map(type, index)) <= {int} or not set(index) <= set(range(len(objects))):
                return None
            col = tuple(map(objects.__getitem__, index))
        elif col is None:
            if type(None) not in admitted[name]:
                return None
        elif type(col) is not tuple or not set(map(type, col)) <= exact[name]:
            return None
        elif containers[name] is not None:
            if not set(map(type, chain.from_iterable(filter(None, col)))) <= set(containers[name][1]):
                return None
        values[name] = col
    lengths = {len(col) for col in values.values() if col is not None}
    if len(lengths) > 1:
        return None
    n = lengths.pop() if lengths else 0
    if not _columns_in_domain(cls, values, n) or (unique is not None and len(set(values[unique])) != n):
        return None
    objects = list(map(twin, *(repeat(None, n) if col is None else col for col in values.values())))
    for obj in objects:
        obj.__class__ = cls
    return objects


def _columns_in_domain(cls: type, columns: dict[str, Optional[tuple]], n: int) -> bool:
    """Whether each of the ``n`` objects of ``columns`` (field name -> values, None for a
    field no object sets), all of whose values have admitted types, passes each of
    ``row_checks(cls)``, in order: over the distinct values of the fields it reads, or
    over their distinct combinations."""
    checks = row_checks(cls)
    read = {name for names, *_ in checks for name in names}
    distinct = {name: {None} if columns[name] is None else set(columns[name]) for name in read}
    for names, fault, *_ in checks:
        # the combinations of distinct values, unless two fields vary, whose rows are fewer
        if sum(len(distinct[name]) > 1 for name in names) > 1:
            combinations = set(zip(*((None,) * n if columns[name] is None else columns[name] for name in names)))
        else:
            combinations = product(*(distinct[name] for name in names))
        if any(starmap(fault, combinations)):
            return False
    return True


_SCALE_AT = _RECORD_FIELDS.index("scale_kind")


def _records_from_columns(
    columns: tuple, scale: str, scale_kind: Optional[str]
) -> Optional[list[AnnotationRecord]]:
    """The records whose fields ``columns`` holds, once ``_rows_from_columns`` passes
    them, there is one at least and every one is on ``scale``, which is
    ``scale_kind`` when that is given; None when one does not."""
    records = _rows_from_columns(AnnotationRecord, columns) if scale_kind in (None, scale) else None
    if not records or columns[_SCALE_AT].count(scale) != len(records):
        return None
    return records


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
    if fmt == "csv":
        with Path(path).open("w", newline="", encoding="utf-8") as fh:
            write_csv(fh, _RECORD_FIELDS, map(record_to_obj, dataset.records))
    else:
        write_jsonl(Path(path), dataset.records, AnnotationRecord, nulls=False)  # a Path: ``-`` names a file here
    return len(dataset.records)


@frozen_row
class _EmbeddingRow:
    item_id: str
    vector: list[float]


def load_embeddings(path: str | Path) -> EmbeddingTable:
    """Load a JSONL embedding table: one {"item_id": ..., "vector": [...]} per line,
    one line per item. A vector ``EmbeddingTable.add`` rejects raises naming the
    file and the line."""
    file = Path(path)
    table = EmbeddingTable(dimension=0, entries={})

    def add(row: dict) -> _EmbeddingRow:
        entry = from_row(_EmbeddingRow, row)
        table.add(entry.item_id, entry.vector)
        return entry

    def decode(columns) -> Optional[tuple[list[_EmbeddingRow], EmbeddingTable]]:
        entries = _rows_from_columns(_EmbeddingRow, columns, "item_id") or ()
        try:  # no entries, or a vector the table refuses, gives a parse, which names the line
            return entries, EmbeddingTable.from_rows(map(attrgetter("item_id", "vector"), entries))
        except DataFormatError:
            return None

    _, table = _cached_load(
        file, _rows_key(_EmbeddingRow), decode,
        lambda fh: (_parse_rows(file, _EmbeddingRow, "item_id", fh, add), table),
        lambda loaded: _row_columns(_EmbeddingRow, loaded[0]),
    )
    if not table.entries:
        raise DataFormatError(f"{path}: no embedding rows")
    return table


def load_metadata(path: str | Path) -> dict[str, ItemMetadata]:
    """Load item metadata codes from JSONL keyed by item_id, one row per item."""
    return {meta.item_id: meta for meta in read_rows(path, ItemMetadata, unique="item_id")}


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
