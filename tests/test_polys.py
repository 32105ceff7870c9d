from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from shortintervals.errors import ShortIntervalsError
from shortintervals.exact import BoundaryPoint
from shortintervals.polys import (
    BracketedRoot,
    ExactRoot,
    _quadratic_roots,
    cut_at_roots,
    int_form,
    pdegree,
    pderiv,
    pdivmod,
    peval,
    pgcd,
    pmul,
    pscale,
    rational_between,
    roots_in_closed_interval,
    sign_at,
    squarefree_part,
    sturm_chain,
    count_roots_open,
)
from shortintervals.polys import DEFAULT_BRACKET_WIDTH


def P(*coeffs):
    return tuple(F(c) for c in coeffs)


def test_divmod_and_gcd():
    a = pmul(P(-1, 1), P(-2, 1))  # (s-1)(s-2) = s^2 - 3s + 2
    q, r = pdivmod(a, P(-1, 1))
    assert q == P(-2, 1) and r == ()
    g = pgcd(a, P(-1, 1))
    assert g == P(1, -1) or g == P(-1, 1)  # monic: s - 1
    assert peval(a, F(3)) == 2


def test_squarefree_part_drops_multiplicity():
    a = pmul(pmul(P(-1, 3), P(-1, 3)), P(1, 1))  # (3s-1)^2 (s+1)
    sf = squarefree_part(a)
    roots = roots_in_closed_interval(sf, F(-2), F(2))
    vals = sorted(float(r.point) for r in roots)
    assert vals == pytest.approx([-1.0, 1 / 3])


small = st.fractions(min_value=-3, max_value=3, max_denominator=12)
positive = st.fractions(min_value=F(1, 144), max_value=4, max_denominator=144)


@st.composite
def degree_at_most_two_on_interval(draw):
    """(p, lo, hi): a constant, a linear, a quadratic with two roots
    (rational or surd) or none, or a perfect square, and a closed interval
    with rational or surd ends, often wide enough to hold the roots, and
    sometimes a single point at a rational root."""
    c, b = draw(small.filter(bool)), draw(small)
    kind = draw(st.sampled_from(["constant", "linear", "two roots", "no roots", "square"]))
    roots = []
    if kind == "constant":
        p = (c,)
    elif kind == "linear":
        p, roots = (-c * b, c), [b]
    elif kind == "square":
        p, roots = pmul((c,), pmul((-b, F(1)), (-b, F(1)))), [b]
    else:
        # c (s^2 + b s + b^2/4 - e): roots -b/2 +- sqrt(e) for e > 0, none for e < 0
        k = draw(st.one_of(st.none(), small.filter(bool)))
        e = draw(positive) if k is None else k * k
        if kind == "no roots":
            e = -e
        elif k is not None:
            roots = [-b / 2 - k, -b / 2 + k]
        p = (c * (b * b / 4 - e), c * b, c)
    if roots and draw(st.booleans()):
        lo = BoundaryPoint(draw(st.sampled_from(roots)))
        return p, lo, lo
    twelfths = st.integers(min_value=-48, max_value=12).map(lambda n: F(n, 12))
    lo = draw(st.one_of(twelfths.map(BoundaryPoint),
                        st.builds(BoundaryPoint, twelfths, small.filter(bool),
                                  st.sampled_from([2, 3, 5, 7]))))
    return p, lo, lo + F(draw(st.integers(min_value=0, max_value=96)), 12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=degree_at_most_two_on_interval())
@example(case=(P(3, -8, 4), BoundaryPoint(0), BoundaryPoint(2)))  # roots 1/2, 3/2
@example(case=(P(-2, 0, 1), BoundaryPoint(-2), BoundaryPoint(0, 1, 2)))  # -sqrt 2, sqrt 2
@example(case=(P(9, -6, 1), BoundaryPoint(0, 1, 2), BoundaryPoint(3)))  # (s - 3)^2
def test_quadratic_roots_skip_squarefree_part(case):
    # without the gcd, degree <= 2 gives the roots the square-free part gives
    p, lo, hi = case
    sf = squarefree_part(p)
    want = [b for b in (_quadratic_roots(*int_form(sf)) if pdegree(sf) > 0 else []) if lo <= b <= hi]
    got = roots_in_closed_interval(p, lo, hi)
    assert all(isinstance(root, ExactRoot) for root in got)
    assert [(r.point.p, r.point.q, r.point.r) for r in got] == [(b.p, b.q, b.r) for b in want]


@st.composite
def quadratic_with_ends_at_its_roots(draw):
    """(p, lo, hi): c((s - b)^2 - k^2 r) or a linear factor of it, with ends
    drawn from its own roots (surd, rational or double), its vertex, and
    other points of its field or of Q(sqrt 7), so roots often sit on an end."""
    b, c, k = draw(small), draw(small.filter(bool)), draw(st.sampled_from([F(1), F(1, 2), F(2, 3)]))
    r = draw(st.sampled_from([2, 3, 5, 1, 0, -1]))  # 1: rational roots, 0: double, -1: none
    p = (c * (b * b - k * k * r), -2 * c * b, c)
    roots = [] if r < 0 else [BoundaryPoint(b, -k, r), BoundaryPoint(b, k, r)]
    if draw(st.booleans()):
        p, roots = (-c * b, c), [BoundaryPoint(b)]
    field = st.builds(BoundaryPoint, small, small, st.sampled_from([max(r, 0), 7]))
    ends = st.one_of(st.sampled_from(roots + [BoundaryPoint(b)]), field)
    lo, hi = sorted([draw(ends), draw(ends)])
    return p, lo, hi


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=quadratic_with_ends_at_its_roots())
def test_roots_in_interval_from_signs_match_exact_comparisons(case):
    # which roots lie in [lo, hi] is read off integer signs at lo and hi;
    # exact comparisons of every root with lo and hi must agree
    p, lo, hi = case
    want = [x for x in _quadratic_roots(*int_form(p)) if lo <= x <= hi]
    got = [root.point for root in roots_in_closed_interval(p, lo, hi)]
    assert [(x.p, x.q, x.r) for x in got] == [(x.p, x.q, x.r) for x in want]


def test_quadratic_exact_rational_roots():
    a = pmul(P(-1, 2), P(-3, 4))  # roots 1/2, 3/4
    roots = roots_in_closed_interval(a, F(0), F(1))
    assert all(isinstance(r, ExactRoot) and r.point.is_rational for r in roots)
    assert [r.point.as_fraction() for r in roots] == [F(1, 2), F(3, 4)]


def test_quadratic_surd_roots_match_table_breakpoint():
    # 230 s^2 - 539 s + 270 vanishes at (539 +- sqrt(42121))/460
    a = P(270, -539, 230)
    roots = roots_in_closed_interval(a, F(0), F(2))
    assert len(roots) == 2
    lo = roots[0].point
    assert lo == BoundaryPoint(F(539, 460), F(-1, 460), 42121)
    assert abs(float(lo) - 0.7255782330963864) < 1e-12


def test_roots_at_interval_endpoints_included():
    a = pmul(P(-1, 2), P(-3, 4))
    roots = roots_in_closed_interval(a, F(1, 2), F(3, 4))
    assert [r.point.as_fraction() for r in roots] == [F(1, 2), F(3, 4)]
    roots = roots_in_closed_interval(a, F(1, 2), F(5, 8))
    assert [r.point.as_fraction() for r in roots] == [F(1, 2)]


def test_cubic_root_bracketed():
    a = P(-2, 0, 0, 1)  # s^3 = 2
    roots = roots_in_closed_interval(a, F(0), F(2))
    assert len(roots) == 1
    (r,) = roots
    assert isinstance(r, BracketedRoot)
    assert r.hi - r.lo <= F(1, 10**12)
    true = 2 ** (1 / 3)
    assert float(r.lo) <= true <= float(r.hi)


def test_cubic_with_multiple_roots_in_window():
    # (s^2 - 2)(s - 3) has roots +-sqrt(2), 3
    a = pmul(P(-2, 0, 1), P(-3, 1))
    roots = roots_in_closed_interval(a, F(-2), F(4))
    assert len(roots) == 3
    approx = [0.5 * (float(r.lo) + float(r.hi)) if isinstance(r, BracketedRoot)
              else float(r.point) for r in roots]
    assert approx == pytest.approx([-(2**0.5), 2**0.5, 3.0], abs=1e-9)


def test_sturm_count_with_surd_endpoints():
    a = P(-2, 0, 1)  # roots +-sqrt(2)
    chain = sturm_chain(a)
    s2 = BoundaryPoint(0, 1, 2)
    assert count_roots_open(chain, F(0), F(2)) == 1
    assert count_roots_open(chain, F(0), s2) == 0  # open interval excludes sqrt(2)
    assert sign_at(a, s2) == 0
    assert sign_at(a, F(1)) == -1


def test_rational_between_surds():
    a = BoundaryPoint(0, 1, 2)
    b = BoundaryPoint(F(141422, 100000))  # just above sqrt(2)
    m = rational_between(a, b)
    assert a < m < b


def test_rational_between_empty_interval_raises():
    with pytest.raises(ShortIntervalsError):
        rational_between(F(1, 2), F(1, 2))
    with pytest.raises(ShortIntervalsError):
        rational_between(BoundaryPoint(0, 1, 2), F(1))


@st.composite
def polys_on_interval(draw):
    """(ps, lo, hi): one to three polynomials, each a constant times one or
    two factors (a rational linear, a quadratic with surd roots, or an
    irreducible cubic (s - b)^3 - a), on an interval with rational or surd
    ends, sometimes a single point, often at a rational root."""
    def factor():
        kind = draw(st.sampled_from(["linear", "surd", "cubic"]))
        b = draw(small)
        if kind == "linear":
            return P(-b, 1)
        if kind == "surd":
            # (s - b)^2 - e: roots b +- sqrt(e)
            e = draw(st.sampled_from([2, 3, 5, 7])) * draw(st.sampled_from([F(1), F(1, 4), F(1, 9)]))
            return P(b * b - e, -2 * b, 1)
        a = draw(st.sampled_from([2, 3, 5, F(1, 2), F(-3, 4), F(7, 3)]))
        cube = pmul(pmul(P(-b, 1), P(-b, 1)), P(-b, 1))
        return (cube[0] - a,) + cube[1:]

    ps = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        p = (draw(small.filter(bool)),)
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            p = pmul(p, factor())
        ps.append(p)
    if draw(st.booleans()):
        lo = BoundaryPoint(draw(small)) if draw(st.booleans()) else None
        if lo is None:  # a rational root of one of the polynomials, if any
            rational = [r.point for p in ps for r in roots_in_closed_interval(p, F(-9), F(9))
                        if isinstance(r, ExactRoot) and r.point.is_rational]
            lo = draw(st.sampled_from(rational)) if rational else BoundaryPoint(0)
        return ps, lo, lo
    twelfths = st.integers(min_value=-48, max_value=12).map(lambda n: F(n, 12))
    lo = draw(st.one_of(twelfths.map(BoundaryPoint),
                        st.builds(BoundaryPoint, twelfths, small.filter(bool),
                                  st.sampled_from([2, 3, 5, 7]))))
    return ps, lo, lo + F(draw(st.integers(min_value=1, max_value=96)), 12)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=polys_on_interval(),
       width=st.sampled_from([DEFAULT_BRACKET_WIDTH, F(1, 1000)]))
@example(case=([P(-2, 0, 0, 1), P(-1, 1)], BoundaryPoint(0), BoundaryPoint(2)),
         width=DEFAULT_BRACKET_WIDTH)  # cube root of 2 bracketed, 1 exact
@example(case=([P(-2, 0, 1), P(-2, 0, 1)], BoundaryPoint(-2), BoundaryPoint(0, 1, 2)),
         width=DEFAULT_BRACKET_WIDTH)  # the same surd roots twice
def test_cut_at_roots_contract(case, width):
    ps, lo, hi = case
    cuts, bracketed, exact = cut_at_roots([(p, 1) for p in ps], lo, hi, width)
    assert cuts[0] == lo and cuts[-1] == hi
    assert all(x < y for x, y in zip(cuts, cuts[1:]))
    assert len(bracketed) == len(cuts) - 1

    def at(x):
        return next(k for k, c in enumerate(cuts) if c == x)

    n_exact = 0
    for p in ps:
        for root in roots_in_closed_interval(p, lo, hi, width):
            if isinstance(root, ExactRoot):
                n_exact += 1
                assert any(root.point == x for x in exact)
                at(root.point)
            else:
                i, j = at(root.lo), at(root.hi)
                assert i < j and all(bracketed[i:j])
    assert len(exact) == n_exact
    chains = [sturm_chain(squarefree_part(p)) for p in ps]
    for x, y, hidden in zip(cuts, cuts[1:], bracketed):
        if hidden:
            assert y <= x + width
        else:
            # an independent reference: no root of any p inside the stretch
            assert all(count_roots_open(chain, x, y) == 0 for chain in chains)


@st.composite
def squarefree_cubic_on_interval(draw):
    """(p, lo, hi): a square-free cubic with Fraction coefficients, either
    drawn coefficient by coefficient or as a product with three real roots
    (rational, or one rational and a surd pair), and a rational interval,
    often [-B, B] with B beyond every root."""
    kind = draw(st.sampled_from(["coefficients", "three rational", "rational and surds"]))
    if kind == "coefficients":
        p = tuple(draw(small) for _ in range(3)) + (draw(small.filter(bool)),)
    elif kind == "three rational":
        roots = draw(st.lists(small, min_size=3, max_size=3, unique=True))
        p = pscale(pmul(pmul(P(-roots[0], 1), P(-roots[1], 1)), P(-roots[2], 1)),
                   draw(small.filter(bool)))
    else:
        b, c = draw(small), draw(small)
        e = draw(st.sampled_from([2, 3, 5, 7])) * draw(st.sampled_from([F(1), F(1, 4), F(1, 9)]))
        p = pscale(pmul(P(-b, 1), P(c * c - e, -2 * c, 1)), draw(small.filter(bool)))
    assume(pdegree(pgcd(p, pderiv(p))) == 0)  # square-free
    bound = 1 + max(abs(x / p[-1]) for x in p[:-1])
    if draw(st.booleans()):
        return p, -bound, bound
    ends = st.integers(min_value=-48, max_value=48).map(lambda n: F(n, 12))
    lo, hi = sorted([draw(ends), draw(ends)])
    return p, lo, hi


def _shape(roots):
    return [("exact", r.point.p, r.point.q, r.point.r) if isinstance(r, ExactRoot)
            else ("bracket", r.lo, r.hi) for r in roots]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=squarefree_cubic_on_interval(),
       k=st.fractions(min_value=F(1, 1000), max_value=1000, max_denominator=1000))
@example(case=(P(-2, 0, 0, 1), F(0), F(2)), k=F(3, 7))  # the cube root of 2
# the first midpoint, 0, is a root and ends the isolating interval of sqrt 2
@example(case=(P(0, -2, 0, 1), F(-3), F(3)), k=F(1))
def test_cubic_isolation_ignores_positive_scale(case, k):
    # p, k*p and p's integer form isolate the same brackets, and each
    # bracket or exact root holds exactly one real root, found by mpmath
    p, lo, hi = case
    got = roots_in_closed_interval(p, lo, hi)
    assert _shape(roots_in_closed_interval(pscale(p, k), lo, hi)) == _shape(got)
    assert _shape(roots_in_closed_interval(int_form(p)[0], lo, hi)) == _shape(got)
    def mp(x):
        return mpmath.mpf(x.numerator) / x.denominator

    with mpmath.workdps(60):
        tiny = mpmath.mpf(10) ** -40
        real = [z.real for z in mpmath.polyroots([mp(x) for x in reversed(p)],
                                                 maxsteps=200, extraprec=200)
                if abs(z.imag) < tiny]
        inside = [z for z in real if mp(lo) - tiny <= z <= mp(hi) + tiny]
        assert len(got) == len(inside)
        for root in got:
            if isinstance(root, ExactRoot):
                x = root.point
                value = mp(x.p) + mp(x.q) * mpmath.sqrt(x.r)
                assert sum(abs(z - value) <= tiny for z in real) == 1
            else:
                assert root.hi - root.lo <= DEFAULT_BRACKET_WIDTH
                assert sum(mp(root.lo) < z < mp(root.hi) for z in real) == 1
