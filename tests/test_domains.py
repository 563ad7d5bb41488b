"""Declared field domains (``records.field_domains``): each file the CLI reads
refuses a value outside its field's domain, naming the file, the line and the
field, and every number field of a row type the CLI reads declares a domain,
unless it is listed below as having none on purpose."""

import math

import pytest

from conftest import flag_row
from prefaudit import records
from prefaudit.cli import run
from prefaudit.diagnostics import ConsistencyProfile
from prefaudit.errors import DataFormatError
from prefaudit.pairing import InconsistencyFlag, PromptPair
from prefaudit.ratio import RatioRecord
from prefaudit.records import AnnotationRecord, ItemMetadata, field_domains, record_to_obj, to_json, to_row

RECORD = AnnotationRecord("r1", "a1", "i1", "p", 50.0, "continuous_0_100", position_index=0, weight=1.0)
PAIR = PromptPair("i1|i2", "i1", "i2", 0.5, "equivalent")

# Each row type the CLI reads: one valid row, and the command that reads a file of
# such rows, ``{path}``, beside the valid records file ``{input}``.
FILES = {
    AnnotationRecord: (record_to_obj(RECORD), ["validate", "--strict", "--input", "{path}"]),
    ItemMetadata: (
        to_row(ItemMetadata("i1", "A1_generic", "B1_good", "D1_uni", "E1_implausible", frozenset({"harm"}))),
        ["validate", "--input", "{input}", "--metadata", "{path}"],
    ),
    PromptPair: (to_row(PAIR), ["diagnose", "--input", "{input}", "--pairs", "{path}"]),
    InconsistencyFlag: (
        flag_row(InconsistencyFlag("a1", PAIR, 10.0, 40.0, 30.0, 15.0)),
        ["classify", "--input", "{input}", "--flags", "{path}"],
    ),
    ConsistencyProfile: (
        to_row(ConsistencyProfile("a1", 0.5, 0.5, 0.5, 0.5, 1, 1, 1, 1, 0.5, 15.0)),
        ["weights", "--input", "{input}", "--profiles", "{path}", "--output", "{out}"],
    ),
    RatioRecord: (
        to_row(RatioRecord("a1", "harm", 5, 1.0, 1.0, 1.0, 0, 0)),
        ["simulate", "--input", "{input}", "--ratios", "{path}"],
    ),
}

# Values tried against each declared domain, by the field's type: NaN, the
# infinities, a value below and one above a range, and an unknown code. Those
# the domain admits are left out.
PROBES = {float: (math.nan, math.inf, -math.inf, -1.5, 1.5), int: (-1,), str: ("bogus",)}


def _out_of_domain(cls, name, domain):
    admitted = records._row_schema(cls)[0][name]
    kind = next(t for t in (float, int, str) if t in admitted)
    return [value for value in PROBES[kind] if not domain.ok(value)]


CASES = [
    pytest.param(cls, name, value, id=f"{cls.__name__}.{name}={value}")
    for cls in FILES
    for name, domain in field_domains(cls).items()
    for value in _out_of_domain(cls, name, domain)
]


def test_every_declared_domain_has_a_probe_outside_it():
    for cls in FILES:
        for name, domain in field_domains(cls).items():
            assert _out_of_domain(cls, name, domain), (cls.__name__, name)


@pytest.mark.parametrize("cls, name, value", CASES)
def test_a_value_outside_its_declared_domain_exits_2_naming_the_file_line_and_field(
    tmp_path, capsys, cls, name, value
):
    row, argv = FILES[cls]
    given = tmp_path / "records.jsonl"
    given.write_text(to_json(record_to_obj(RECORD)) + "\n", encoding="utf-8")
    path = tmp_path / "rows.jsonl"
    path.write_text(to_json(row) + "\n" + to_json({**row, name: value}) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run([arg.format(path=path, input=given, out=out) for arg in argv]) == 2
    why = field_domains(cls)[name].why.format(name=name, value=value)
    assert name in why
    assert capsys.readouterr().err.splitlines() == [f"data error: {path}: line 2: {why}"]
    assert not out.exists()


# The number fields of the row types the CLI reads that declare no domain, on purpose.
UNDECLARED = {
    # any integer clock reading, whatever its epoch; only its order within a session is checked
    (AnnotationRecord, "timestamp"),
    # its domain depends on scale_kind, so it is ``AnnotationRecord``'s declared rule ``records._score_fault``
    (AnnotationRecord, "score"),
    # echoed configuration: the exact baseline draws nothing, and any integer is a seed
    (RatioRecord, "resamples_used"),
    (RatioRecord, "seed"),
}


def test_every_number_field_of_a_row_type_the_cli_reads_declares_a_domain():
    undeclared = {
        (cls, name)
        for cls in FILES
        for name, admitted in records._row_schema(cls)[0].items()
        if {int, float} & set(admitted) and name not in field_domains(cls)
    }
    assert undeclared == UNDECLARED


@pytest.mark.parametrize("build, why", [
    (lambda: PromptPair("p", "a", "b", 2.0, "bogus"), "unknown pair kind 'bogus'"),
    (lambda: AnnotationRecord("r", "a", "i", "p", 101.0, "continuous_0_100", position_index=-1),
     "score 101.0 outside [0, 100] for continuous_0_100"),
    (lambda: AnnotationRecord("r", "a", "i", "p", "x", "bogus", weight=-1.0), "unknown scale_kind 'bogus'"),
    (lambda: AnnotationRecord("r", "a", "i", "p", 1.0, "likert_5", position_index=-1, weight=-4.0),
     "position_index must be >= 0, got -1"),
], ids=["pair kind before similarity", "score before position", "scale before score", "position before weight"])
def test_a_row_with_two_faults_reports_the_one_checked_first(build, why):
    with pytest.raises(DataFormatError) as raised:
        build()
    assert str(raised.value) == why


def test_none_passes_a_domain_only_where_the_field_type_admits_it():
    assert ConsistencyProfile("a1", temp=None).temp is None
    assert AnnotationRecord("r", "a", "i", "p", 1.0, "likert_5", position_index=None, weight=None).weight is None
    with pytest.raises(TypeError):
        RatioRecord("a1", "harm", 5, None, 1.0, 1.0, 0, 0)
    with pytest.raises(DataFormatError, match="unknown pair kind None"):
        PromptPair("p", "a", "b", 0.5, None)
