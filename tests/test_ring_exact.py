"""The ring operations' fuzz cases against exact values.

``fuzz``'s ring oracle compares each case with the operation applied to
its operands' float values, so a route that tracks the exact value more
closely can read worse there. Here each mul, add and conj case of
``fuzz.run_op(op, 200, 42)`` is composed from the atoms' exact values
instead, in 60-digit ``decimal``: 1, -1, 2, alpha = (3 + i sqrt(15)) / 4
and the apex (1 + i sqrt(3)) / 2 of 0 and 1. Each ring operation ``fuzz``
calls carries its value's exact twin, and each audited case is measured
from its own. The worst exact error of each op is gated.
"""

import decimal
import math
from decimal import Decimal

import pytest

from compass import field_ops, fuzz

CONTEXT = decimal.Context(prec=60)


def _exact_atoms():
    """The exact (re, im) of ``fuzz._atoms()``, in their order."""
    with decimal.localcontext(CONTEXT):
        return ((Decimal(1), Decimal(0)), (Decimal(-1), Decimal(0)), (Decimal(2), Decimal(0)),
                (Decimal(3) / 4, Decimal(15).sqrt() / 4), (Decimal(1) / 2, Decimal(3).sqrt() / 2))


def _add(a, b):
    return a[0] + b[0], a[1] + b[1]


def _mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


EXACT = {"add": _add, "mul": _mul, "conj": lambda a: (a[0], -a[1]),
         "neg": lambda a: (-a[0], -a[1])}


def exact_errors(op, cases, seed, monkeypatch):
    """Each audited case of ``fuzz.run_op(op, cases, seed)``'s distance
    from its exact value, in order, with the fuzz report. ``exact`` maps a
    value's id to the value, kept so that its id is not reused, and its
    exact twin."""
    exact = {id(v): (v, z) for v, z in zip(fuzz._atoms(), _exact_atoms())}
    with decimal.localcontext(CONTEXT):
        for (k, *ids), value in fuzz._layer().items():
            exact[id(value)] = value, EXACT[fuzz._RING_OPS[k]](*(exact[i][1] for i in ids))
    last = []  # the value and exact twin of the latest operation, the case under test

    def exactly(name, f):
        def call(*operands):
            value = f(*operands)
            with decimal.localcontext(CONTEXT):
                twin = EXACT[name](*(exact[id(o)][1] for o in operands))
            exact[id(value)] = last[:] = value, twin
            return value
        return call

    errors = []

    def audit(trace):
        value, (re, im) = last
        assert trace is value.trace
        (p,) = trace.output_points()
        with decimal.localcontext(CONTEXT):
            errors.append(float(((Decimal(p.x) - re) ** 2 + (Decimal(p.y) - im) ** 2).sqrt()))

    for name in fuzz._RING_OPS:
        monkeypatch.setattr(field_ops, name, exactly(name, getattr(field_ops, name)))
    monkeypatch.setattr(fuzz, "purity_audit", audit)
    report = fuzz.run_op(op, cases, seed)
    return errors, report


# op: bound on the worst exact error over ``fuzz.run_op(op, 200, 42)``. With
# a point reflected twice through one center taken as that point, the worst
# cases read 1.72e-14, 8.46e-15 and 3.18e-15; before, add read 1.58e-14 and
# conj 3.23e-15, and mul the same
EXACT_MAX_ERR = {"mul": 2e-14, "add": 1e-14, "conj": 4e-15}


@pytest.mark.parametrize("op", sorted(EXACT_MAX_ERR))
def test_ring_cases_against_exact_values(op, monkeypatch):
    errors, report = exact_errors(op, 200, 42, monkeypatch)
    assert report.failures == 0 and len(errors) == report.audited == 200
    assert all(map(math.isfinite, errors))
    assert max(errors) <= EXACT_MAX_ERR[op]


def test_the_exact_reference_is_exact():
    """The twins are the values the operations stand for, to 58 digits:
    1 + (-1) is 0, alpha times its conjugate 3/2, and the apex cubed -1."""
    one, minus_one, _, alpha, apex = _exact_atoms()
    near = Decimal("1e-58")
    with decimal.localcontext(CONTEXT):
        assert _add(one, minus_one) == (0, 0)
        for (re, im), want in ((_mul(alpha, EXACT["conj"](alpha)), Decimal("1.5")),
                               (_mul(apex, _mul(apex, apex)), Decimal(-1))):
            assert abs(re - want) < near and abs(im) < near
