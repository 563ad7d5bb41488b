"""The chunk build path (``records._build_rows``): a parse of a file, JSONL or CSV,
transposes each chunk of rows into columns (``records._chunk_columns``) and builds
it as a sidecar's columns are built. For each row type it builds the objects
``from_row`` builds one row at a time, equal, of the same type with the same field
types and hash, or raises, or rejects, what that row loop raises or rejects, in
the same line order."""

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Optional, get_origin

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefaudit import records
from prefaudit.diagnostics import ConsistencyProfile
from prefaudit.errors import DataFormatError
from prefaudit.pairing import PAIR_KINDS, InconsistencyFlag, PromptPair
from prefaudit.ratio import RatioRecord
from prefaudit.records import (
    CONFIG_PREFIX, AnnotationRecord, ItemMetadata, RejectedRow, field_domains, from_row, load_records, read_rows,
    records_from_rows, to_json,
)
from prefaudit.cli import run
from prefaudit.themes import EndpointConfig

PAIR = PromptPair("i1|i2", "i1", "i2", 0.5, "equivalent")
CODES = (
    *records.SCALE_KINDS, *records.CONTENT_TYPES, *records.RESPONSE_QUALITIES, *records.EVAL_COMPLEXITIES,
    *records.PLAUSIBLE_PREFS, *PAIR_KINDS, "equal", "a_more", "b_more", "A", "B",
)

# Values of each type a field may admit, in and out of the usual ranges.
EXACT = {
    str: st.sampled_from(["a1", "", "bogus", *CODES]),
    int: st.integers(-2, 5) | st.just(10**20),
    float: st.floats(-2.0, 120.0) | st.sampled_from([-0.0, 1.0, 150.0, math.nan, math.inf, -math.inf]),
    bool: st.booleans(),
    type(None): st.none(),
    PromptPair: st.just(PAIR),
}
# Values of another type that ``_cast`` reads as this one, or tries to.
CASTABLE = {
    float: st.integers(-2, 120) | st.just(10**400),
    int: st.sampled_from([0.0, 3.0, 2.5, 1e300, math.nan, math.inf]),
}
CONTAINERS = {
    frozenset: st.lists(EXACT[str], max_size=3) | st.lists(st.sampled_from(["t", 1, None]), max_size=2),
    list: st.lists(EXACT[float] | CASTABLE[float], max_size=3),
}
JUNK = st.sampled_from(["x", True, 1.5, 7, None, [], {}, ["a", 1], [1.5, "x"], [["a"]], (1.0,)])
# Values tried against each declared domain; those of a type the field admits and
# outside its domain are drawn.
PROBES = (math.nan, math.inf, -math.inf, -1, -1.5, 1.5, 101.0, 7, "bogus", "A9_bogus")
DROP = object()  # a field the row leaves out



@dataclass(frozen=True, slots=True)
class Probe:
    """What no row type the CLI reads has: a required field that admits None, and a
    default factory."""

    name: Optional[str]
    tags: frozenset[str] = field(default_factory=frozenset)


ROW_TYPES = [
    AnnotationRecord, ItemMetadata, PromptPair, InconsistencyFlag, ConsistencyProfile, RatioRecord,
    records._EmbeddingRow, Probe,
]


def _outside(domain, value) -> bool:
    try:
        return not domain.ok(value)
    except TypeError:
        return False


def _values(cls, name):
    """Any value of a field: of a type it admits or can be cast to, in or out of
    its domain, junk, or left out."""
    types = records._row_schema(cls)[0][name]
    domain = field_domains(cls).get(name)
    options = [CONTAINERS[get_origin(t)] if get_origin(t) else EXACT[t] for t in types]
    options += [CASTABLE[t] for t in types if t in CASTABLE]
    if domain is not None:
        options.append(st.sampled_from([v for v in PROBES if type(v) in types and _outside(domain, v)] or [None]))
    return st.one_of(*options, JUNK, st.just(DROP))


# Values each of which passes on its own, for a field of a type and with no domain
# or one of those declared; code fields draw their codes instead.
VALID = {
    str: st.sampled_from(["a1", "x", "A", "B", "equal", "a_more"]),
    int: st.integers(0, 5) | st.sampled_from([0.0, 3.0]),
    float: st.floats(0.0, 1.0) | st.integers(0, 1),
    bool: st.booleans(),
    PromptPair: st.just(PAIR),
    frozenset: st.lists(st.sampled_from(["harm", "bias"]), max_size=3),
    list: st.lists(st.floats(-2.0, 2.0) | st.integers(-2, 2), max_size=3),
}


def _valid_values(cls, name):
    """A field's values that each pass on their own: an admitted type, or one cast to
    it, inside the field's domain, and null or left out only where the field has a default."""
    admitted, required, _ = records._row_schema(cls)
    domain = field_domains(cls).get(name)
    options = []
    for t in admitted[name]:
        if t is str and domain is not None:
            options.append(st.sampled_from([v for v in CODES if not _outside(domain, v)]))
        elif t is float and domain is None:
            options.append(st.floats(-2.0, 120.0))  # a score: in range on the continuous scale
        elif t is not type(None):
            options.append(VALID[get_origin(t) or t])
    if name not in required:
        options.append(st.sampled_from([None, DROP]))
    return st.one_of(*options)


@st.composite
def rows(draw, cls):
    """A row of which at most two fields, or an unknown one, are drawn from any value."""
    names = list(records._row_schema(cls)[0])
    faulty = draw(st.sets(st.sampled_from([*names, "bogus"]), max_size=2))
    row = {name: draw(_values(cls, name) if name in faulty else _valid_values(cls, name)) for name in names}
    if "bogus" in faulty:
        row["bogus"] = draw(JUNK)
    items = [(k, v) for k, v in row.items() if v is not DROP]
    return dict(draw(st.permutations(items)))


def _fields(obj) -> list:
    """Each field's type and value, a frozenset sorted and NaN equal to NaN."""
    out = []
    for name, value in records.to_row(obj).items():
        shown = sorted(value) if isinstance(value, frozenset) else value
        out.append((name, type(value), repr(shown)))
    return out


def _shown(obj) -> tuple:
    try:
        digest = hash(obj)
    except TypeError:  # a list field
        digest = None
    return type(obj), _fields(obj), digest


# Lines a reader refuses: not JSON, not an object; blank lines it skips.
READER_FAULTS = st.sampled_from(["{", "[1]", '"text"', ""])
# Each row type read through ``read_rows`` with no ``build`` of its own, and the field
# its loader keeps unique. Flags are read by ``read_rows``' nested reader, a row at a time,
# and are left out: ``rows`` draws a flag's pair as a ``PromptPair`` object, not its cells.
READ_ROWS = {cls: "item_id" if cls in (ItemMetadata, records._EmbeddingRow) else None
             for cls in ROW_TYPES if cls is not InconsistencyFlag}


@st.composite
def lines(draw, cls):
    """A file's rows: most of them valid, some drawn from any value, and a few
    lines the reader refuses."""
    valid = st.fixed_dictionaries({name: _valid_values(cls, name) for name in records._row_schema(cls)[0]})
    drawn = draw(st.lists(st.one_of(valid, valid, rows(cls), READER_FAULTS), max_size=12))
    return [row if isinstance(row, str) else {k: v for k, v in row.items() if v is not DROP} for row in drawn]


def _write(path, cls, items, as_csv) -> None:
    """``items`` as a JSONL file, or as a CSV file under the CLI's config line, whose
    refused lines have more cells than the header."""
    if not as_csv:
        path.write_text("".join(f"{item if isinstance(item, str) else to_json(item)}\n" for item in items))
        return
    header = [*records._cell_types(cls), "bogus"]
    out = io.StringIO()
    out.write(CONFIG_PREFIX + "{}\r\n")
    writer = csv.writer(out)
    writer.writerow(header)
    for item in items:
        cells = [item] * (len(header) + 1) if isinstance(item, str) else [item.get(name, "") for name in header]
        writer.writerow(["" if cell is None else cell for cell in cells])
    path.write_text(out.getvalue(), encoding="utf-8")


def _reader(path, cls, as_csv, rejects=None):
    return records._iter_csv(path, cls, rejects) if as_csv else records.iter_jsonl(path, rejects)


def _read_outcome(read):
    try:
        return "read", [_shown(obj) for obj in read()]
    except DataFormatError as exc:
        return "raised", str(exc)


def _reference_read_rows(path, cls, as_csv, unique):
    """``read_rows`` as a row loop of its own, each row through ``from_row``."""
    out, first = [], {}
    try:
        for line_no, row in _reader(path, cls, as_csv):
            try:
                obj = from_row(cls, row)
                if unique is not None and first.setdefault(row[unique], line_no) != line_no:
                    raise DataFormatError(f"{unique} {row[unique]!r} repeats line {first[row[unique]]}")
            except DataFormatError as exc:
                raise DataFormatError(f"line {line_no}: {exc}") from None
            out.append(obj)
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
    return out


def _reference_records(rows, scale_kind, strict, rejects):
    """``records_from_rows`` as a row loop of its own, each row through ``from_row``."""
    out, scale = [], scale_kind
    for line_no, row in rows:
        try:
            obj = row if row.get("scale_kind") else {**row, "scale_kind": scale}
            if not obj["scale_kind"]:
                raise DataFormatError("record carries no scale_kind and no dataset-level default given")
            rec = from_row(AnnotationRecord, obj)
            if scale is not None and rec.scale_kind != scale:
                raise DataFormatError(f"scale_kind {rec.scale_kind!r} differs from dataset scale {scale!r}")
            scale = rec.scale_kind
            out.append(rec)
        except DataFormatError as exc:
            if strict:
                raise DataFormatError(f"line {line_no}: {exc}") from None
            rejects.append(RejectedRow(line_no, str(exc), to_json(row)))
    if not out:
        common = Counter(r.reason for r in rejects).most_common(1)
        why = "".join(f"; {n} of {len(rejects)} rejected rows: {reason}" for reason, n in common)
        raise DataFormatError(f"zero valid rows{why}")
    return out, rejects, scale


def _records_outcome(build, path, as_csv, strict):
    """What ``build`` (a ``records_from_rows``) of a file's rows returns, rejects and raises,
    as a load runs it: a lenient reader's rejects and the builder's share one list."""
    rejects = []
    try:
        out, kept, scale = build(_reader(path, AnnotationRecord, as_csv, None if strict else rejects),
                                 None, strict, rejects)
    except DataFormatError as exc:
        return repr(rejects), str(exc)
    assert kept is rejects
    return [_shown(rec) for rec in out], [(r.line_no, r.reason, r.raw) for r in rejects], scale


@pytest.mark.parametrize("cls", READ_ROWS, ids=lambda cls: cls.__name__)
@settings(deadline=None, max_examples=100)
@given(data=st.data())
def test_a_parse_builds_rejects_and_raises_as_from_row_a_row_at_a_time(tmp_path_factory, cls, data):
    """Over chunks of three rows, so that a file of a few rows spans several."""
    items, as_csv = data.draw(lines(cls)), data.draw(st.booleans())
    path = tmp_path_factory.mktemp("rows") / "rows.jsonl"
    _write(path, cls, items, as_csv)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(records, "_CHUNK_ROWS", 3)
        unique = READ_ROWS[cls]
        expected = _read_outcome(lambda: _reference_read_rows(path, cls, as_csv, unique))
        assert _read_outcome(lambda: read_rows(path, cls, unique=unique)) == expected
        assert _read_outcome(lambda: read_rows(path, cls, unique=unique)) == expected  # its sidecar, if kept
        if cls is AnnotationRecord:
            for strict in (False, True):
                expected = _records_outcome(_reference_records, path, as_csv, strict)
                assert _records_outcome(records_from_rows, path, as_csv, strict) == expected


def _file_row(data, cls, item):
    """A drawn row as a file gives it: a flag's pair as the cells of a drawn pair row."""
    if cls is not InconsistencyFlag or isinstance(item, str):
        return item
    names = records._row_schema(PromptPair)[0]
    valid = st.fixed_dictionaries({name: _valid_values(PromptPair, name) for name in names})
    cells = data.draw(valid | rows(PromptPair))
    return {**{k: v for k, v in item.items() if k != "pair"}, **{k: v for k, v in cells.items() if v is not DROP}}


@pytest.mark.parametrize("cls", ROW_TYPES, ids=lambda cls: cls.__name__)
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_every_object_a_column_build_gives_is_a_fixed_point_of_its_constructor(tmp_path_factory, cls, data):
    """``_rows_from_columns`` runs no ``__post_init__``, so each object it builds from a
    parsed chunk or a sidecar must be one its constructor leaves as it is."""
    items = [_file_row(data, cls, item) for item in data.draw(lines(cls))]
    path = tmp_path_factory.mktemp("rows") / "rows.jsonl"
    _write(path, cls, items, data.draw(st.booleans()))
    built, build = [], records._rows_from_columns

    def spy(*args, **kwargs):
        objects = build(*args, **kwargs)
        built.extend(objects or ())
        return objects

    loads = [partial(read_rows, path, cls, unique=READ_ROWS.get(cls))]
    if cls is AnnotationRecord:
        loads.append(partial(load_records, path))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(records, "_CHUNK_ROWS", 3)
        patch.setattr(records, "_rows_from_columns", spy)
        for load in loads:
            for _ in range(2):  # a parse, then its sidecar, if kept
                try:
                    load()
                except DataFormatError:
                    pass
    for obj in built:
        assert obj == replace(obj)


# A row per type whose every value the chunk path takes without a cast, or with one
# of its casts: an int for a float, an integral float for an int, a list for a
# frozenset or a list of floats.
CLEAN = {
    AnnotationRecord: {"record_id": "r1", "annotator_id": "a1", "item_id": "i1", "prompt_text": "p",
                       "score": 50, "scale_kind": "continuous_0_100", "position_index": 2.0, "weight": 1},
    ItemMetadata: {"theme_labels": ["harm", "bias"], "item_id": "i1", "content_type": "A1_generic"},
    PromptPair: {"pair_id": "p1", "item_a": "i1", "item_b": "i2", "similarity": 1, "kind": "identical"},
    InconsistencyFlag: {"annotator_id": "a1", "pair": PAIR, "score_a": 10, "score_b": 40.0, "delta": 30.0,
                        "threshold_used": 15},
    ConsistencyProfile: {"annotator_id": "a1", "temp": 0.5, "n_temp_pairs": 3.0, "reliability": None},
    RatioRecord: {"annotator_id": "a1", "theme": "harm", "n_items": 5, "var_within": 1.0, "baseline": 2,
                  "ratio": 0.5, "resamples_used": 1000, "seed": 7, "degenerate": True},
    records._EmbeddingRow: {"item_id": "i1", "vector": [0.5, -1.0]},
    Probe: {"name": "x"},
    EndpointConfig: {"endpoint_id": "ep1", "base_url": "http://localhost/1"},
}


def _refuse(*args):
    raise AssertionError("a row was built by from_row")


@pytest.mark.parametrize("cls", [cls for cls in READ_ROWS if cls is not Probe],  # a default factory: a row at a time
                         ids=lambda cls: cls.__name__)
def test_a_clean_files_cold_parse_calls_no_per_row_from_row(tmp_path, monkeypatch, cls):
    rows = [{**CLEAN[cls], **({"item_id": f"i{i}"} if "item_id" in CLEAN[cls] else {})} for i in range(5)]
    expected = [_shown(from_row(cls, row)) for row in rows]
    path = tmp_path / "rows.jsonl"
    _write(path, cls, rows, False)
    monkeypatch.setattr(records, "from_row", _refuse)
    read = load_records(path).records if cls is AnnotationRecord else read_rows(path, cls)
    assert [_shown(obj) for obj in read] == expected
    for obj in read:
        assert type(obj) is cls and not hasattr(obj, "__dict__")
        if cls.__dataclass_params__.frozen:
            with pytest.raises(AttributeError):
                setattr(obj, records._field_names(cls)[0], None)


@pytest.mark.parametrize("cls", [*ROW_TYPES, EndpointConfig], ids=lambda cls: cls.__name__)
def test_a_record_is_built_frozen_and_slotted(cls):
    obj = from_row(cls, CLEAN[cls])
    assert type(obj) is cls and not hasattr(obj, "__dict__")
    name = next(iter(CLEAN[cls]))
    if cls.__dataclass_params__.frozen:
        with pytest.raises(AttributeError):
            setattr(obj, name, CLEAN[cls][name])


def test_a_class_without_slots_is_refused_naming_it(tmp_path):
    @dataclass(frozen=True)
    class Unslotted:
        name: str

    path = tmp_path / "rows.jsonl"
    path.write_text('{"name": "x"}\n')
    with pytest.raises(TypeError, match="Unslotted has no __slots__"):
        read_rows(path, Unslotted)


@pytest.mark.parametrize("row", [{}, {"name": None}], ids=["left-out", "null"])
def test_a_required_field_that_admits_null_is_still_required(tmp_path, row):
    path = tmp_path / "probes.jsonl"  # each row gives ``tags``, whose default factory a chunk does not build
    _write(path, Probe, [{"name": "x", "tags": []}, {**row, "tags": []}, {"name": "y", "tags": []}], False)
    with pytest.raises(DataFormatError, match="line 2: missing required field 'name'$"):
        read_rows(path, Probe)


def test_a_pair_still_runs_its_cross_field_rules(tmp_path):
    row = {"pair_id": "p1", "item_a": "i1", "item_b": "i2", "similarity": 0.5, "kind": "equivalent"}
    path = tmp_path / "pairs.jsonl"
    _write(path, PromptPair, [row, row], False)
    assert [pair.expected_direction for pair in read_rows(path, PromptPair)] == ["equal", "equal"]
    _write(path, PromptPair, [row, {**row, "kind": "identical"}], False)
    with pytest.raises(DataFormatError, match="line 2: identical pairs must have similarity 1"):
        read_rows(path, PromptPair)


# ------------------------------------------------------------- chunk boundaries

def _meta_rows(n):
    return [{"item_id": f"i{i}", "theme_labels": ["harm"]} for i in range(n)]


def _record_rows(n):
    return [{**CLEAN[AnnotationRecord], "record_id": f"r{i}"} for i in range(n)]


@pytest.mark.parametrize("bad", [records._CHUNK_ROWS, records._CHUNK_ROWS + 1], ids=["last", "next-first"])
def test_a_bad_row_at_a_chunk_boundary_is_named_by_its_line(tmp_path, bad):
    """Line ``_CHUNK_ROWS`` ends the first chunk and the line after it starts the next."""
    rows = _meta_rows(2 * records._CHUNK_ROWS + 7)
    rows[bad - 1] = {"item_id": "bad", "content_type": "A9_bogus"}
    path = tmp_path / "meta.jsonl"
    _write(path, ItemMetadata, rows, False)
    with pytest.raises(DataFormatError, match=f"meta.jsonl: line {bad}: unknown content_type code 'A9_bogus'$"):
        read_rows(path, ItemMetadata, unique="item_id")
    records_file = tmp_path / "records.jsonl"
    rows = _record_rows(2 * records._CHUNK_ROWS + 7)
    boundary = (records._CHUNK_ROWS, records._CHUNK_ROWS + 1)
    for line in boundary:
        rows[line - 1] = {**rows[line - 1], "score": 150}
    _write(records_file, AnnotationRecord, rows, False)
    loaded = load_records(records_file)
    assert [(r.line_no, r.reason) for r in loaded.rejected] == [
        (line, "score 150.0 outside [0, 100] for continuous_0_100") for line in boundary
    ]
    assert len(loaded.records) == len(rows) - 2
    with pytest.raises(DataFormatError, match=f"line {records._CHUNK_ROWS}: score 150.0 outside"):
        load_records(records_file, strict=True)


def test_a_set_of_lists_is_refused_naming_its_line(tmp_path):
    """A list entry cannot be a set member: the chunk goes a row at a time, which says so."""
    rows = _meta_rows(3)
    rows[1] = {"item_id": "i1", "theme_labels": [["harm"]]}
    path = tmp_path / "meta.jsonl"
    _write(path, ItemMetadata, rows, False)
    with pytest.raises(DataFormatError, match=r"line 2: theme_labels must be a list of strings, got \[\['harm'\]\]$"):
        read_rows(path, ItemMetadata, unique="item_id")


def test_a_unique_value_repeated_in_a_later_chunk_names_both_lines(tmp_path):
    rows = _meta_rows(records._CHUNK_ROWS + 10)
    rows[records._CHUNK_ROWS + 4] = {"item_id": "i3"}
    path = tmp_path / "meta.jsonl"
    _write(path, ItemMetadata, rows, False)
    with pytest.raises(DataFormatError, match=f"line {records._CHUNK_ROWS + 5}: item_id 'i3' repeats line 4$"):
        read_rows(path, ItemMetadata, unique="item_id")


def test_a_reader_fault_mid_chunk_under_strict_follows_the_rows_before_it(tmp_path):
    """The rows a strict reader gave before its raise are built first, and may raise first;
    a lenient read keeps the reader's and the builder's rejects in line order."""
    rows = _record_rows(20)
    rows[9] = "{"
    path = tmp_path / "records.jsonl"
    _write(path, AnnotationRecord, rows, False)
    with pytest.raises(DataFormatError, match="records.jsonl: line 10: invalid JSON"):
        load_records(path, strict=True)
    rows[4] = {**rows[4], "weight": -1}
    rows[14] = {**rows[14], "weight": -1}
    _write(path, AnnotationRecord, rows, False)
    rejects = []
    with pytest.raises(DataFormatError, match="^line 5: weight must be finite and >= 0, got -1.0$"):
        records_from_rows(records.iter_jsonl(path), strict=True, rejects=rejects)
    assert rejects == []
    assert [r.line_no for r in load_records(path).rejected] == [5, 10, 15]
    assert run(["validate", "--strict", "--input", str(path)]) == 2
