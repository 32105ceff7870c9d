import math
import random
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shortintervals.exact import (
    BoundaryPoint,
    float_down,
    float_up,
    sqrt_fraction,
    squarefree_decompose,
)

mpmath.mp.dps = 50


def mp_value(b: BoundaryPoint) -> mpmath.mpf:
    return (
        mpmath.mpf(b.p.numerator) / b.p.denominator
        + mpmath.mpf(b.q.numerator) / b.q.denominator * mpmath.sqrt(b.r)
    )


def surd(p, q, r) -> BoundaryPoint:
    return BoundaryPoint(F(*p), F(*q), r)


S42121 = surd((539, 460), (-1, 460), 42121)   # ~0.72557
S60001 = surd((5831, 8240), (1, 8240), 60001)  # ~0.73737
S128689 = surd((1273, 1184), (-1, 1184), 128689)  # ~0.77215


def test_compare_rational_vs_surd():
    # 19/25 = 0.76 lies above (539 - sqrt(42121))/460 = 0.7255...
    assert BoundaryPoint(F(19, 25))._compare(S42121) == 1
    assert S42121._compare(BoundaryPoint(F(19, 25))) == -1
    assert S42121 < F(19, 25) and F(19, 25) > S42121


def test_compare_equal_rationals():
    assert BoundaryPoint(F(1, 2))._compare(BoundaryPoint(F(1, 2))) == 0
    assert BoundaryPoint(F(1, 2)) == F(1, 2)


def test_compare_table_ordering():
    # range "(5831 + sqrt(60001))/8240 <= sigma <= 42/55" forces this ordering
    assert S60001._compare(BoundaryPoint(F(42, 55))) == -1


def test_compare_distinct_surds():
    assert S42121 < S60001 < S128689
    assert S128689 > S42121
    # same value written two ways: sqrt(8) = 2*sqrt(2)
    assert BoundaryPoint(0, 1, 8) == BoundaryPoint(0, 2, 2)
    assert BoundaryPoint(1, 1, 2) == BoundaryPoint(1, 1, 2)


def test_compare_randomized_against_mpmath():
    rng = random.Random(7)
    rads = [0, 2, 3, 5, 42121, 60001, 128689, 999999937]
    pts = []
    for _ in range(120):
        p = F(rng.randint(-50, 50), rng.randint(1, 40))
        q = F(rng.randint(-20, 20), rng.randint(1, 30))
        pts.append(BoundaryPoint(p, q, rng.choice(rads)))
    for _ in range(600):
        a, b = rng.choice(pts), rng.choice(pts)
        got = a._compare(b)
        diff = mp_value(a) - mp_value(b)
        want = 0 if abs(diff) < mpmath.mpf("1e-40") else (1 if diff > 0 else -1)
        assert got == want, (a, b)


def test_comparison_trichotomy_and_transitivity():
    rng = random.Random(11)
    pts = [
        BoundaryPoint(F(rng.randint(-9, 9), rng.randint(1, 9)),
                      F(rng.randint(-9, 9), rng.randint(1, 9)),
                      rng.choice([0, 2, 3, 7]))
        for _ in range(40)
    ]
    for a in pts:
        for b in pts:
            assert (a < b) + (a == b) + (a > b) == 1
    one = sorted(pts, key=mp_value)
    for a, b, c in zip(one, one[1:], one[2:]):
        if a < b and b < c:
            assert a < c


@given(
    p=st.fractions(min_value=-100, max_value=100),
    q=st.fractions(min_value=-100, max_value=100),
    r=st.integers(min_value=0, max_value=10**6),
    prec=st.integers(min_value=1, max_value=80),
)
@settings(max_examples=150, deadline=None)
def test_enclose_boundary_width_contract(p, q, r, prec):
    b = BoundaryPoint(p, q, r)
    lo, hi = b.enclose_fraction(prec)
    assert lo <= hi
    bound = F(1, 2**prec) * max(F(1), abs(lo), abs(hi))
    assert hi - lo <= bound
    # the true value lies inside (checked at 50 digits)
    v = mp_value(b)
    assert mpmath.mpf(lo.numerator) / lo.denominator <= v + mpmath.mpf("1e-45")
    assert v <= mpmath.mpf(hi.numerator) / hi.denominator + mpmath.mpf("1e-45")


def test_enclose_boundary_examples():
    assert BoundaryPoint(F(7, 10)).enclose_fraction() == (F(7, 10), F(7, 10))

    lo, hi = S42121.enclose_fraction()
    assert hi - lo <= F(1, 10**9)
    assert lo <= S42121 <= hi
    assert float_down(lo) <= float(mp_value(S42121)) <= float_up(hi)
    assert abs(float((lo + hi) / 2) - 0.7255782331) < 1e-9

    lo, hi = S128689.enclose_fraction()
    assert lo <= S128689 <= hi
    assert float_down(lo) <= float(mp_value(S128689)) <= float_up(hi)
    assert abs(float((lo + hi) / 2) - 0.7721853962314836) < 1e-9


def test_enclose_boundary_covers_all_table_breakpoints():
    from shortintervals.tables import HypothesisMode, a_table, astar_table

    for table in (a_table(HypothesisMode.UNCONDITIONAL),
                  astar_table(HypothesisMode.UNCONDITIONAL)):
        for b in table.breakpoints():
            lo, hi = b.enclose_fraction(53)
            assert hi - lo <= F(1, 2**53) * max(F(1), abs(hi))
            assert lo <= hi


def test_field_arithmetic_matches_mpmath():
    a = surd((3, 7), (2, 5), 6)
    b = surd((-1, 2), (1, 3), 6)
    for op in ("add", "sub", "mul", "div"):
        got = {
            "add": a + b, "sub": a - b, "mul": a * b, "div": a / b,
        }[op]
        want = {
            "add": mp_value(a) + mp_value(b),
            "sub": mp_value(a) - mp_value(b),
            "mul": mp_value(a) * mp_value(b),
            "div": mp_value(a) / mp_value(b),
        }[op]
        assert abs(mp_value(got) - want) < mpmath.mpf("1e-40")
    with pytest.raises(ValueError):
        _ = a + surd((0, 1), (1, 1), 5)  # distinct surds never needed


def test_float_directed_rounding():
    x = F(1, 3)
    lo, hi = float_down(x), float_up(x)
    assert F(lo) <= x <= F(hi)
    assert hi == math.nextafter(lo, math.inf)
    exact = F(1, 4)
    assert float_down(exact) == float_up(exact) == 0.25


def test_squarefree_decompose():
    assert squarefree_decompose(0) == (1, 0)
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(4) == (2, 1)
    assert squarefree_decompose(8) == (2, 2)
    assert squarefree_decompose(42121) == (1, 42121)  # 73 * 577, square-free
    assert squarefree_decompose(3600) == (60, 1)
    s, m = squarefree_decompose(2**10 * 3**5 * 7)
    assert s * s * m == 2**10 * 3**5 * 7


def test_sqrt_fraction():
    c, r = sqrt_fraction(F(9, 4))
    assert (c, r) == (F(3, 2), 1)
    c, r = sqrt_fraction(F(8))
    assert c * c * r == 8 and r == 2


def test_interval_outward_soundness():
    # [float_down(x), float_up(x)] is the float bracket every certified
    # bound is reported in: it must contain x and be at most one ulp wide
    rng = random.Random(3)
    for _ in range(400):
        a = F(rng.randint(-999, 999), rng.randint(1, 999))
        lo, hi = float_down(a), float_up(a)
        assert F(lo) <= a <= F(hi)
        assert hi == lo or hi == math.nextafter(lo, math.inf)
