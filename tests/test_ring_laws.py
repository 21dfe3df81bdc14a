"""The ring laws over values drawn from a ``fuzz._ValuePool``.

A law needs no oracle: each side is built by the ring operations and the
two are compared, within a bound relative to the largest magnitude the law
computes (operands, partial results and both sides). Each law's
node-identity rate, how often its two sides are one witness, is printed
and may only rise. The pool starts from the per-process ``fuzz._atoms``
and ``fuzz._layer``, so the draws and rates do not depend on what ran
before. Run alone with ``python -m pytest -s tests/test_ring_laws.py`` to
see the rates.
"""

import math

import pytest

from compass import field_ops, fuzz
from compass.field_ops import add, conj, mul, neg
from compass.geom import EPS

SEEDS = (20141011, 1410)
TRIPLES = 100  # per seed
# the worst relative gap of any law reads 8.1e-15 over these triples
LAW_TOL = 1e-13


def _cx(v):
    return complex(*v.value)


def _laws(a, b, c):
    """{law: (left side, right side, the other values the law computes)}."""
    ab, ac, bc = mul(a, b), mul(a, c), mul(b, c)
    a_b, b_c, minus_a = add(a, b), add(b, c), neg(a)
    return {
        "a*b = b*a": (ab, mul(b, a), ()),
        "a+b = b+a": (a_b, add(b, a), ()),
        "(a+b)+c = a+(b+c)": (add(a_b, c), add(a, b_c), (a_b, b_c)),
        "(ab)c = a(bc)": (mul(ab, c), mul(a, bc), (ab, bc)),
        "a(b+c) = ab+ac": (mul(a, b_c), add(ab, ac), (b_c, ab, ac)),
        "conj(ab) = conj(a)conj(b)": (conj(ab), mul(conj(a), conj(b)), (ab,)),
        "a+(-a) = 0": (add(a, minus_a), field_ops.zero(), (minus_a,)),
    }


# law: the least number of the 200 triples (both seeds) whose two sides are
# one witness; a rule that finds a step already drawn may raise these
IDENTITY_FLOOR = {
    "a*b = b*a": 57,
    "a+b = b+a": 200,
    "(a+b)+c = a+(b+c)": 46,
    "(ab)c = a(bc)": 198,
    "a(b+c) = ab+ac": 54,
    "conj(ab) = conj(a)conj(b)": 65,
    "a+(-a) = 0": 46,
}


def test_ring_laws_hold_within_a_relative_bound(capsys):
    held = dict.fromkeys(IDENTITY_FLOOR, 0)
    worst = dict.fromkeys(IDENTITY_FLOOR, 0.0)
    drawn = 0
    for seed in SEEDS:
        pool, rng = fuzz._ValuePool(), fuzz.SplitMix64(seed)
        for _ in range(TRIPLES):
            a, b, c = (pool.draw(rng, 2) for _ in range(3))
            drawn += 1
            for law, (lhs, rhs, between) in _laws(a, b, c).items():
                scale = max(1.0, *(abs(_cx(v)) for v in (a, b, c, lhs, rhs, *between)))
                gap = abs(_cx(lhs) - _cx(rhs)) / scale
                assert gap <= LAW_TOL, f"{law} at seed {seed}: relative gap {gap:.3g}"
                worst[law] = max(worst[law], gap)
                held[law] += lhs == rhs
    with capsys.disabled():
        print()
        for law, n in held.items():
            print(f"{law:<28} node identity {n}/{drawn}, worst relative gap {worst[law]:.2g}")
    assert drawn == len(SEEDS) * TRIPLES
    for law, floor in IDENTITY_FLOOR.items():
        assert held[law] >= floor, law


@pytest.mark.parametrize("seed", SEEDS)
def test_add_is_one_witness_either_way_and_a_real_is_its_own_conjugate(seed):
    """add grows the same operand whichever comes first, and conj hands a
    value on line 01 back, drawing nothing."""
    pool, rng = fuzz._ValuePool(), fuzz.SplitMix64(seed)
    reals = 0
    for _ in range(TRIPLES):
        a, b = pool.draw(rng, 2), pool.draw(rng, 2)
        assert add(a, b) == add(b, a)
        for v in (a, b):
            if abs(v.value.y) <= EPS:
                reals += 1
                assert conj(v) is v
            else:
                assert math.isclose(conj(v).value.y, -v.value.y, rel_tol=1e-12, abs_tol=1e-13)
    assert reals
