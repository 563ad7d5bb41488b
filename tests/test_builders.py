"""Generated row builders (``records._builder``): for each row type the CLI reads,
``from_row`` returns what the generic path (``records._generic_from_row``) returns,
an equal object of the same type with the same field types and hash, or raises
what it raises."""

import copy
import math
from dataclasses import dataclass, field
from typing import Optional, get_origin

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefaudit import records
from prefaudit.diagnostics import ConsistencyProfile
from prefaudit.errors import DataFormatError
from prefaudit.pairing import PAIR_KINDS, InconsistencyFlag, PromptPair
from prefaudit.ratio import RatioRecord
from prefaudit.records import AnnotationRecord, ItemMetadata, field_domains, from_row
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
JUNK = st.sampled_from(["x", True, 1.5, 7, None, [], {}, ["a", 1], [1.5, "x"], (1.0,)])
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


def _outcome(build, cls, row):
    try:
        obj = build(cls, row)
    except Exception as exc:  # noqa: BLE001 - both paths must raise alike, whatever they raise
        return "raised", type(exc), str(exc)
    try:
        digest = hash(obj)
    except TypeError:  # a class that is not frozen, or a list field
        digest = None
    return "built", type(obj), _fields(obj), digest


@pytest.mark.parametrize("cls", ROW_TYPES, ids=lambda cls: cls.__name__)
@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_a_generated_builder_builds_or_refuses_as_the_generic_path(cls, data):
    row = data.draw(rows(cls))
    given_row = copy.deepcopy(row)
    built = _outcome(from_row, cls, row)
    assert built == _outcome(records._generic_from_row, cls, row)
    assert repr(row) == repr(given_row)  # the row is left as given


# A row per type whose every value the generated builder takes itself, the casts
# it inlines among them: an int for a float, an integral float for an int, a list
# for a frozenset or a list of floats.
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


@pytest.mark.parametrize("cls", ROW_TYPES, ids=lambda cls: cls.__name__)
def test_a_clean_row_never_reaches_the_generic_path(monkeypatch, cls):
    expected = _outcome(records._generic_from_row, cls, CLEAN[cls])
    assert expected[0] == "built"

    def refuse(*args):
        raise AssertionError("the generic path was taken")

    monkeypatch.setattr(records, "_generic_from_row", refuse)
    assert _outcome(from_row, cls, CLEAN[cls]) == expected


@pytest.mark.parametrize("cls", [*ROW_TYPES, EndpointConfig], ids=lambda cls: cls.__name__)
def test_a_record_is_built_frozen_and_slotted(cls):
    obj = from_row(cls, CLEAN[cls])
    assert type(obj) is cls and not hasattr(obj, "__dict__")
    name = next(iter(CLEAN[cls]))
    if cls.__dataclass_params__.frozen:
        with pytest.raises(AttributeError):
            setattr(obj, name, CLEAN[cls][name])


def test_a_class_without_slots_is_refused_naming_it():
    @dataclass(frozen=True)
    class Unslotted:
        name: str

    with pytest.raises(TypeError, match="Unslotted has no __slots__"):
        from_row(Unslotted, {"name": "x"})


def test_a_pair_still_runs_its_cross_field_rules():
    row = {"pair_id": "p1", "item_a": "i1", "item_b": "i2", "similarity": 0.5, "kind": "identical"}
    with pytest.raises(DataFormatError, match="identical pairs must have similarity 1"):
        from_row(PromptPair, row)
    assert from_row(PromptPair, {**row, "kind": "equivalent"}).expected_direction == "equal"
