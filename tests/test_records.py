"""The value records: their repr, equality, hash and immutability, and an
import of the package that loads neither ``dataclasses`` nor ``inspect``."""

import copy
import dataclasses
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from compass import dsl, field_ops, fuzz, tracedoc
from compass.geom import Coincident, NoIntersection, Point, ResolvedCircle, Tangent, TwoPoints
from compass.oracle import Parallel
from compass.program import (
    OP_CIRCLE,
    OP_LEFT,
    OP_RIGHT,
    AuditReport,
    Builder,
    Program,
    Resolved,
    Trace,
)

SRC = Path(__file__).resolve().parent.parent / "src"

P = Point(1.0, 2.0)
PROGRAM = Builder((Point(0.0, 0.0), Point(1.0, 0.0))).finish((1,))[0]
PROGRAM_REPR = "Program(seed_count=2, ops=(0, 0), first=(0, 1), second=(-1, -1), outputs=(1,))"
TRACE = Trace(PROGRAM, (Point(0.0, 0.0), Point(1.0, 0.0)))
TRACE_REPR = (f"Trace(program={PROGRAM_REPR}, "
              "resolved=(Point(x=0.0, y=0.0), Point(x=1.0, y=0.0)))")
CALL = dsl.CallExpr("circle", ("A", "B"))
CALL_REPR = "CallExpr(op='circle', args=('A', 'B'))"

# record: the repr it has had since these classes were frozen dataclasses
NAMED_TUPLES = [
    (P, "Point(x=1.0, y=2.0)"),
    (ResolvedCircle(P, 0.5), "ResolvedCircle(center=Point(x=1.0, y=2.0), radius=0.5)"),
    (TwoPoints(P, Point(3.0, -4.0)),
     "TwoPoints(left=Point(x=1.0, y=2.0), right=Point(x=3.0, y=-4.0))"),
    (Tangent(P), "Tangent(point=Point(x=1.0, y=2.0))"),
    (AuditReport(seeds=2, circles=1, picks=0), "AuditReport(seeds=2, circles=1, picks=0)"),
    (dsl.Token("Ident", "A", 1, 7), "Token(kind='Ident', lexeme='A', line=1, column=7)"),
    (CALL, CALL_REPR),
    (dsl.Given("A", 0.0, 1.0, 3), "Given(name='A', x=0.0, y=1.0, line=3)"),
    (dsl.Let(("c",), CALL, 4), f"Let(names=('c',), call={CALL_REPR}, line=4)"),
    (dsl.Emit("svg", "out.svg", 5), "Emit(target='svg', path='out.svg', line=5)"),
    (tracedoc.TraceDocument(TRACE, ("A", None), ("out0",)),
     f"TraceDocument(trace={TRACE_REPR}, seed_names=('A', None), output_names=('out0',))"),
    (field_ops.ConstructibleValue(TRACE), f"ConstructibleValue(trace={TRACE_REPR})"),
]

# record, its repr, and the fields its == and hash read
RECORDS = [
    (NoIntersection(), "NoIntersection()", ()),
    (Coincident(), "Coincident()", ()),
    (PROGRAM, PROGRAM_REPR, (2, (0, 0), (0, 1), (-1, -1), (1,))),
    (TRACE, TRACE_REPR, (PROGRAM, TRACE.resolved)),
    # a Record that prints as the tuple of its values
    (TRACE.resolved, "(Point(x=0.0, y=0.0), Point(x=1.0, y=0.0))",
     ((0.0, 1.0), (0.0, 0.0), (None, None))),
]


def _ids(cases):
    return [type(case[0]).__name__ for case in cases]


@pytest.mark.parametrize("record, text", NAMED_TUPLES, ids=_ids(NAMED_TUPLES))
def test_named_tuple_records(record, text):
    assert repr(record) == text
    fields = tuple(record)
    assert record == fields and hash(record) == hash(fields)
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)


@pytest.mark.parametrize("record, text, key", RECORDS, ids=_ids(RECORDS))
def test_frozen_records(record, text, key):
    assert repr(record) == text
    assert hash(record) == hash(key)
    assert record != key  # equal only to a record of its own class
    assert copy.copy(record) == pickle.loads(pickle.dumps(record)) == record
    for name in (*record._fields, "anything"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)


@pytest.mark.parametrize("record, text, key", RECORDS, ids=_ids(RECORDS))
def test_records_take_dataclasses_replace(record, text, key):
    """``dataclasses.replace`` works on a record as it did on the frozen
    dataclass, keyword by keyword, ``line`` included."""
    assert dataclasses.is_dataclass(record)
    assert [f.name for f in dataclasses.fields(record)] == list(record._fields)
    again = dataclasses.replace(record)
    assert type(again) is type(record) and repr(again) == text
    if record._fields and type(record) is not Trace:  # Trace: the test below
        name = record._fields[-1]  # a Program's outputs, checked as it is built
        changed = dataclasses.replace(record, **{name: (0,)})
        assert getattr(changed, name) == (0,)


def test_replaced_trace_values_are_encoded():
    """The form the benchmark's self-test uses to tamper with a trace."""
    tampered = dataclasses.replace(TRACE, resolved=TRACE.resolved[:1] + (Point(123.0, 0.0),))
    assert type(tampered.resolved) is Resolved and tampered.resolved[1] == Point(123.0, 0.0)
    assert tampered.program is PROGRAM and tampered != TRACE


def test_statement_line_by_position_or_keyword():
    given = dsl.Given("A", 0.0, 1.0, line=3)
    assert repr(dsl.Given("A", 0.0, 1.0, 3)) == repr(given)
    assert repr(dsl.Given(name="A", x=0.0, y=1.0, line=3)) == repr(given)
    for bad in (lambda: dsl.Given("A", 0.0, 1.0, 3, 4), lambda: dsl.Given("A", 0.0, line=3),
                lambda: dsl.Given("A", 0.0, 1.0, name="B"), lambda: dsl.Emit("svg", "-", depth=1)):
        with pytest.raises(TypeError):
            bad()


def test_records_take_their_fields_by_position_only():
    named = dict(trace=TRACE, seed_names=(), named_points=(), named_circles=(), emits=())
    for bad in (lambda: NoIntersection(None), lambda: dsl.ScriptResult(**named),
                lambda: dsl.ScriptResult(TRACE, (), (), ())):
        with pytest.raises(TypeError):
            bad()


def test_outcomes_without_fields_differ_by_kind():
    assert NoIntersection() == NoIntersection() != Coincident()
    assert Parallel() == Parallel() != NoIntersection()
    assert hash(Parallel()) == hash(()) and repr(Parallel()) == "Parallel()"
    assert pickle.loads(pickle.dumps(Parallel())) == Parallel()


def test_point_is_its_coordinate_pair():
    x, y = P
    assert (x, y) == P == (1.0, 2.0)


def test_program_and_trace_compare_field_by_field():
    again = Program(2, (0, 0), (0, 1), (-1, -1), (1,))
    assert again == PROGRAM
    # valid variants of a program with a pick: each differs in one column
    # (a seed count cannot change alone, as the seeds open the columns)
    fields = [3, (0, 0, 0, OP_CIRCLE, OP_CIRCLE, OP_LEFT), (0, 1, 2, 0, 1, 3),
              (-1, -1, -1, 1, 0, 4), (5,)]
    base = Program(*fields)
    for k, value in ((1, (0, 0, 0, OP_CIRCLE, OP_CIRCLE, OP_RIGHT)), (2, (0, 1, 2, 2, 1, 3)),
                     (3, (-1, -1, -1, 2, 0, 4)), (4, (0,))):
        assert Program(*fields[:k], value, *fields[k + 1:]) != base
    assert Program(*fields) == base
    assert Trace(again, (Point(0.0, 0.0), Point(1.0, 0.0))) == TRACE
    assert Trace(PROGRAM, (Point(0.0, 0.0), Point(1.0, -0.5))) != TRACE
    assert Trace(Builder(TRACE.seed_values).finish((0,))[0], TRACE.resolved) != TRACE


def test_trace_encodes_a_tuple_of_values():
    circle = ResolvedCircle(Point(0.0, 0.0), 1.0)
    program = Program(2, (0, 0, OP_CIRCLE), (0, 1, 0), (-1, -1, 1), ())
    trace = Trace(program, (Point(0.0, 0.0), Point(1.0, 0.0), circle))
    assert type(trace.resolved) is Resolved
    assert (trace.resolved.xs, trace.resolved.ys, trace.resolved.rs) == (
        (0.0, 1.0, 0.0), (0.0, 0.0, 0.0), (None, None, 1.0))
    assert trace.resolved[2] == circle


def test_statements_compare_with_line():
    assert dsl.Given("A", 0.0, 1.0, 3) == dsl.Given("A", 0.0, 1.0, 3)
    assert dsl.Let(("c",), CALL, 4) != dsl.Let(("c",), CALL, 9)
    assert dsl.Emit("points", "-", 5) != dsl.Emit("svg", "-", 5)
    with pytest.raises(TypeError):
        dsl.Given("A", 0.0, 1.0)  # a statement always has its line


def test_result_records_stay_mutable():
    report = fuzz.OpReport("apex", 3)
    assert repr(report) == ("OpReport(name='apex', cases=3, failures=0, max_err=0.0, "
                            "audited=0, details=())")
    assert pickle.loads(pickle.dumps(report)) == report
    assert dataclasses.replace(report, failures=2) == fuzz.OpReport("apex", 3, failures=2)
    report.fail("case 1")
    assert (report.failures, report.details) == (1, ("case 1",))
    result = dsl.run_source('given A = (0, 0)\ngiven B = (1, 0)\nemit points "-"\n')
    assert repr(result).startswith("ScriptResult(trace=Trace(program=Program(")
    result.emits = ()
    assert result.emits == ()
    for record in (report, result):
        with pytest.raises(TypeError):
            hash(record)


# the compass modules ``import compass.constructions`` loads: all that the
# benchmark's setup_s imports and compiles (CI checks the same list)
SETUP_MODULES = ["compass", "compass.constructions", "compass.errors", "compass.geom",
                 "compass.program", "compass.record"]


def test_cold_import_loads_neither_dataclasses_nor_inspect():
    """``import dataclasses`` brings ``inspect``, ``ast`` and ``tokenize``
    with it, which would be most of the engine's start-up; and importing
    ``compass.constructions`` loads no compass module past the setup set."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import compass.constructions; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'compass')); "
            "import compass.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    # -I also drops PYTHONDONTWRITEBYTECODE; -B keeps .pyc files out of src
    out = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code, str(SRC)],
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.splitlines() == [repr(SETUP_MODULES), "[]"], out.stdout
