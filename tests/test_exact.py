import math
import random
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shortintervals.errors import MixedSurds, ShortIntervalsError
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


def test_distinct_surd_arithmetic_is_a_package_error():
    # Q(sqrt 30603) = Q(sqrt 3) and Q(sqrt 5) are distinct fields
    a = BoundaryPoint(0, 1, 3 * 101**2 * 2**30)
    for b in (BoundaryPoint(0, 2**15 * 101, 5), BoundaryPoint(1, 1, 2)):
        for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a / b):
            with pytest.raises(MixedSurds) as info:
                op()
            assert isinstance(info.value, ShortIntervalsError)


def test_one_field_under_two_radicands():
    # the cheap square-free pass above 10^8 keeps a = 32768*sqrt(30603),
    # while b = 3309568*sqrt(3) has the same value; 30603 * 3 = 303^2, so
    # both lie in one field and combine
    a = BoundaryPoint(0, 1, 3 * 101**2 * 2**30)
    b = BoundaryPoint(0, 2**15 * 101, 3)
    assert (a.r, b.r) == (30603, 3) and a == b
    assert a + b == 2 * a and b + a == 2 * a
    assert a - b == 0 and b - a == 0
    assert a * b == 3 * 2**30 * 101**2 and a / b == 1
    c = BoundaryPoint(F(1, 7), F(-2, 5), 3)
    for got, want in ((a + c, mp_value(a) + mp_value(c)), (c - a, mp_value(c) - mp_value(a)),
                      (a * c, mp_value(a) * mp_value(c)), (c / a, mp_value(c) / mp_value(a))):
        assert abs(mp_value(got) - want) < mpmath.mpf("1e-40") * abs(want)


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


# ----- near-ties: the float filter must hand every close call to the exact path


def mp_sign(a, b) -> int:
    """Sign of a - b at 200 digits; a and b are BoundaryPoints, ints or Fractions."""
    with mpmath.workdps(200):
        va, vb = (mp_value(BoundaryPoint(x)) if not isinstance(x, BoundaryPoint)
                  else mp_value(x) for x in (a, b))
        diff = va - vb
        scale = max(abs(va), abs(vb))
        if abs(diff) <= scale * mpmath.mpf(10) ** -150:
            return 0
        return 1 if diff > 0 else -1


def check_order(a, b) -> None:
    """Every comparison operator between a and b, both ways, agrees with mpmath."""
    want = mp_sign(a, b)
    assert (a < b, a <= b, a == b, a >= b, a > b) == (
        want < 0, want <= 0, want == 0, want >= 0, want > 0), (a, b, want)
    assert (b < a, b <= a, b == a, b >= a, b > a) == (
        want > 0, want >= 0, want == 0, want <= 0, want < 0), (a, b, want)
    for x, y, s in ((a, b, want), (b, a, -want)):
        if isinstance(x, BoundaryPoint):
            assert x._compare(y) == s, (x, y, s)


def filter_undecided(a, b) -> bool:
    """True when the float enclosures of a and b overlap, so the exact path decides."""
    fa, ea = BoundaryPoint(a)._enclosure() if not isinstance(a, BoundaryPoint) else a._enclosure()
    fb, eb = BoundaryPoint(b)._enclosure() if not isinstance(b, BoundaryPoint) else b._enclosure()
    return not abs(fa - fb) > 2 * (ea + eb)


def sqrt_convergents(n: int, count: int) -> list[F]:
    """The first continued-fraction convergents of sqrt(n), n not a square."""
    a0 = math.isqrt(n)
    m, d, a = 0, 1, a0
    h0, h1, k0, k1 = 1, a0, 0, 1
    out = [F(h1, k1)]
    while len(out) < count:
        m = d * a - m
        d = (n - m * m) // d
        a = (a0 + m) // d
        h0, h1, k0, k1 = h1, a * h1 + h0, k1, a * k1 + k0
        out.append(F(h1, k1))
    return out


@pytest.mark.parametrize("n", [2, 42121, 60001])
def test_sqrt_convergents_against_the_surd(n):
    root = BoundaryPoint(0, 1, n)
    undecided = 0
    for c in sqrt_convergents(n, 60):
        for x in (c, BoundaryPoint(c)):
            check_order(root, x)
        # the same convergent inside a table-shaped surd: (539 - sqrt(n))/460
        check_order(BoundaryPoint(F(539, 460), F(-1, 460), n), BoundaryPoint((539 - c) / 460))
        undecided += filter_undecided(root, c)
    # convergents end within float resolution of the surd: the exact path ran
    assert undecided >= 20


def test_distinct_surds_near_ties():
    root2 = BoundaryPoint(0, 1, 2)
    undecided = 0
    # c ~ sqrt(6) makes (c/3)*sqrt(3) ~ sqrt(2), a point of another field
    for c in sqrt_convergents(6, 40):
        near = BoundaryPoint(0, c / 3, 3)
        check_order(root2, near)
        check_order(root2, near + F(1, 10**40))
        undecided += filter_undecided(root2, near)
        # c itself, written as the surd of a perfect square, against sqrt(6)
        check_order(BoundaryPoint(0, 1, 6), BoundaryPoint(0, F(1, c.denominator), c.numerator**2))
    assert undecided >= 10
    check_order(S42121, S42121 + F(1, 2**60))
    check_order(S60001 - F(1, 2**70), S60001)


def test_same_value_in_two_surd_forms():
    a = BoundaryPoint(0, 1, 3 * 101**2 * 2**30)
    b = BoundaryPoint(0, 2**15 * 101, 3)
    assert (a.q, a.r) != (b.q, b.r)
    assert filter_undecided(a, b)
    check_order(a, b)
    assert a._compare(b) == 0
    tiny = F(1, 2**80)
    check_order(a, b + tiny)
    check_order(a + tiny, b)


@pytest.mark.parametrize("base", [F(1, 3), F(0), F(-7, 5), F(10**5), F(2**60 + 1)])
def test_rationals_two_to_the_minus_60_apart(base):
    lo, hi = base, base + F(1, 2**60)
    # near 0 the floats resolve 2^-60; elsewhere only the exact path can
    assert filter_undecided(lo, hi) == (base != 0)
    for x, y in ((lo, hi), (hi, lo), (lo, lo)):
        check_order(BoundaryPoint(x), BoundaryPoint(y))
        check_order(BoundaryPoint(x), y)
        check_order(x, BoundaryPoint(y))
    if base.denominator == 1:
        check_order(BoundaryPoint(hi), int(base))
        check_order(int(base), BoundaryPoint(lo))


def test_fraction_and_int_operands_on_either_side():
    half = BoundaryPoint(F(1, 2))
    assert half == F(1, 2) and F(1, 2) == half
    assert 0 < half < 1 and 1 > half > 0
    assert F(1, 2) <= half <= F(1, 2) and not (F(1, 2) < half)
    root = BoundaryPoint(0, 1, 2)
    assert 1 < root < 2 and F(140, 99) < root < F(99, 70)
    for x in (1, 2, F(99, 70), F(577, 408), F(665857, 470832), -3, 0):
        check_order(root, x)
        check_order(x, root)
    assert BoundaryPoint(5) == 5 and 5 == BoundaryPoint(5)
    assert BoundaryPoint(F(-1, 3))._compare(0) == -1


@pytest.mark.parametrize("exp", [400, -400])
def test_magnitudes_beyond_float_range(exp):
    big = F(10) ** exp
    one_more = big + big / 10**30
    assert filter_undecided(big, one_more)
    check_order(BoundaryPoint(big), BoundaryPoint(one_more))
    check_order(BoundaryPoint(big), one_more)
    check_order(big, BoundaryPoint(one_more))
    # surds of the same magnitude, a near-tie and far apart
    s = BoundaryPoint(0, big, 2)
    for c in sqrt_convergents(2, 30)[-3:]:
        check_order(s, big * c)
    check_order(s, BoundaryPoint(0, big, 3))
    check_order(s, 0)
    check_order(-s, 1)
    check_order(BoundaryPoint(big), 1)
    check_order(BoundaryPoint(-big), -1)


def test_enclosure_covers_underflow_magnified_by_the_surd():
    # q underflows to 0.0 as a float, but q*sqrt(r) is about 2^-599.5: the
    # enclosure must not claim that the point lies below 2^-700
    tiny_q = BoundaryPoint(0, F(1, 2**1100), 2**1001 + 1)
    f, e = tiny_q._enclosure()
    assert f == 0.0 and e > 2.0**-599
    check_order(tiny_q, F(1, 2**700))
    check_order(tiny_q, F(1, 2**599))
    check_order(tiny_q, BoundaryPoint(F(1, 2**700)))


@pytest.mark.parametrize("r", [2**53 + 1, 2**61 - 1, 10**30 + 57, 3 * 2**200 + 1])
def test_radicands_beyond_two_to_the_53(r):
    root = BoundaryPoint(0, 1, r)
    for k in (0, 20, 60, 120):
        m = math.isqrt(r << (2 * k))
        for c in (F(m, 2**k), F(m + 1, 2**k)):
            check_order(root, c)
            check_order(BoundaryPoint(-c, 1, r), 0)
    check_order(root, BoundaryPoint(0, 1, r + 2))
    check_order(root, BoundaryPoint(1, 1, r))


@given(
    q=st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6).filter(bool),
    r=st.integers(min_value=2, max_value=10**15),
    k=st.integers(min_value=50, max_value=150),
    j=st.integers(min_value=-2, max_value=2),
)
@settings(max_examples=200, deadline=None)
def test_p_within_two_to_the_minus_50_of_the_surd(q, r, k, j):
    """p lies within 2^-50 of -q*sqrt(r), so p + q*sqrt(r) is a near-zero."""
    # m / 2^k <= |q|*sqrt(r) < (m + 1) / 2^k
    m = math.isqrt((q.numerator**2 * r << (2 * k)) // q.denominator**2)
    sgn = 1 if q > 0 else -1
    p = F(-sgn * m + j, 2**k)
    x = BoundaryPoint(p, q, r)
    check_order(x, 0)
    check_order(x, F(0))
    check_order(BoundaryPoint(p), BoundaryPoint(0, -q, r))
    check_order(BoundaryPoint(0, -q, r), p)
    assert x._compare(0) == x.sign()


@given(
    p=st.fractions(max_denominator=10**12),
    q=st.fractions(max_denominator=10**12),
    r=st.integers(min_value=0, max_value=2**70),
    shift=st.integers(min_value=-1200, max_value=1200),
)
@settings(max_examples=300, deadline=None)
def test_enclosure_contains_the_value(p, q, r, shift):
    scale = F(2) ** shift
    x = BoundaryPoint(p * scale, q * scale, r)
    f, e = x._enclosure()
    if e == math.inf:
        return
    with mpmath.workdps(200):
        assert abs(mpmath.mpf(f) - mp_value(x)) <= mpmath.mpf(e)


def test_filter_decides_clear_cases_without_exact_arithmetic(monkeypatch):
    from shortintervals import exact

    def forbidden(*args):
        raise AssertionError("exact path taken for a clear case")

    monkeypatch.setattr(exact, "_surd_sign", forbidden)
    monkeypatch.setattr(exact, "as_boundary", forbidden)
    assert S42121 < S60001 < S128689 < F(4, 5) < BoundaryPoint(1)
    assert S42121 != F(3, 4) and not S60001 == S128689
    assert BoundaryPoint(F(1, 3)) < 1 and 0 < BoundaryPoint(F(1, 3))


@given(
    p=st.fractions(max_denominator=10**12),
    q=st.fractions(max_denominator=10**12),
    r=st.integers(min_value=0, max_value=2**70),
    shift=st.integers(min_value=-1200, max_value=1200),
)
@settings(max_examples=300, deadline=None)
def test_float_bounds_and_float_operands(p, q, r, shift):
    # float_bounds encloses the value, and a float operand compares as the
    # exact rational it is (an infinity as itself), on either side
    scale = F(2) ** shift
    x = BoundaryPoint(p * scale, q * scale, r)
    lo, hi = x.float_bounds()
    assert lo == -math.inf or F(lo) <= x
    assert hi == math.inf or x <= F(hi)
    assert x < math.inf and x > -math.inf and math.inf > x and -math.inf < x
    f = x._enclosure()[0]
    for g in {lo, hi, f, math.nextafter(f, 0.0), 0.0} - {-math.inf, math.inf}:
        assert ((x < g), (x > g), (x <= g), (x >= g)) == ((x < F(g)), (x > F(g)), (x <= F(g)), (x >= F(g)))
        assert (g < x, g > x) == (F(g) < x, F(g) > x)


def test_float_bounds_of_a_rational_and_a_surd():
    for x in (BoundaryPoint(F(7, 10)), S42121, BoundaryPoint(0), BoundaryPoint(F(1, 2**1100))):
        lo, hi = x.float_bounds()
        assert F(lo) <= x <= F(hi) and lo < hi
