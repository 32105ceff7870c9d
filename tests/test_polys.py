import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shortintervals.errors import OutOfDomain, ShortIntervalsError
from shortintervals.exact import BoundaryPoint
from shortintervals.optimize import SupCell, certified_sup
from shortintervals.piecewise import (
    Piece,
    PiecewiseBound,
    RationalFunction,
    feasible_region,
    pointwise_min,
)
from shortintervals.polys import (
    ExactRoot,
    _quadratic_roots,
    cut_at_roots,
    int_form,
    pderiv,
    pdivmod,
    peval,
    pgcd,
    pmul,
    rational_between,
    roots_in_closed_interval,
    sign_at,
)
from shortintervals.tables import _piece_positive


def P(*coeffs):
    return tuple(F(c) for c in coeffs)


def test_divmod_and_gcd():
    a = pmul(P(-1, 1), P(-2, 1))  # (s-1)(s-2) = s^2 - 3s + 2
    q, r = pdivmod(a, P(-1, 1))
    assert q == P(-2, 1) and r == ()
    g = pgcd(a, P(-1, 1))
    assert g == P(1, -1) or g == P(-1, 1)  # monic: s - 1
    assert peval(a, F(3)) == 2


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
    # without the gcd, degree <= 2 gives the roots the square-free part
    # p / gcd(p, p') gives
    p, lo, hi = case
    sf = pdivmod(p, pgcd(p, pderiv(p)))[0]
    want = [b for b in (_quadratic_roots(*int_form(sf)) if len(sf) > 1 else []) if lo <= b <= hi]
    got = roots_in_closed_interval(p, lo, hi)
    assert all(isinstance(root, ExactRoot) for root in got)
    assert [(r.point.p, r.point.q, r.point.r) for r in got] == [(b.p, b.q, b.r) for b in want]


@st.composite
def quadratic_with_ends_at_its_roots(draw):
    """(p, lo, hi): c((s - b)^2 - k^2 r), a linear factor of it, or the
    constant c, with ends drawn from its own roots (surd, rational or
    double), its vertex, and other points of its field or of Q(sqrt 7), so
    roots often sit on an end."""
    b, c, k = draw(small), draw(small.filter(bool)), draw(st.sampled_from([F(1), F(1, 2), F(2, 3)]))
    r = draw(st.sampled_from([2, 3, 5, 1, 0, -1]))  # 1: rational roots, 0: double, -1: none
    p = (c * (b * b - k * k * r), -2 * c * b, c)
    roots = [] if r < 0 else [BoundaryPoint(b, -k, r), BoundaryPoint(b, k, r)]
    kind = draw(st.sampled_from(["quadratic", "linear", "constant"]))
    if kind == "linear":
        p, roots = (-c * b, c), [BoundaryPoint(b)]
    elif kind == "constant":
        p, roots = (c,), []
    field = st.builds(BoundaryPoint, small, small, st.sampled_from([max(r, 0), 7]))
    ends = st.one_of(st.sampled_from(roots + [BoundaryPoint(b)]), field)
    lo, hi = sorted([draw(ends), draw(ends)])
    return p, lo, hi


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=quadratic_with_ends_at_its_roots())
@example(case=(P(3, -8, 4), BoundaryPoint(0), BoundaryPoint(2)))  # roots 1/2, 3/2
@example(case=(P(-2, 0, 1), BoundaryPoint(-2), BoundaryPoint(0, 1, 2)))  # -sqrt 2, sqrt 2
@example(case=(P(-2, 0, 1), BoundaryPoint(0), BoundaryPoint(0, 1, 2)))  # sqrt 2 on an end
@example(case=(P(9, -6, 1), BoundaryPoint(0, 1, 2), BoundaryPoint(3)))  # (s - 3)^2: once
@example(case=(P(5), BoundaryPoint(-1), BoundaryPoint(1)))  # a constant: none
def test_roots_in_interval_from_signs_match_exact_comparisons(case):
    # which roots lie in [lo, hi] is read off integer signs at lo and hi;
    # exact comparisons of every root with lo and hi must agree, and each
    # root comes back once and is one
    p, lo, hi = case
    want = [x for x in (_quadratic_roots(*int_form(p)) if len(p) > 1 else []) if lo <= x <= hi]
    got = [root.point for root in roots_in_closed_interval(p, lo, hi)]
    assert [(x.p, x.q, x.r) for x in got] == [(x.p, x.q, x.r) for x in want]
    assert all(sign_at(p, x) == 0 for x in got)


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


def test_sturm_count_with_surd_endpoints():
    a = P(-2, 0, 1)  # roots +-sqrt(2)
    s2 = BoundaryPoint(0, 1, 2)

    def count_open(lo, hi):
        return sum(1 for r in roots_in_closed_interval(a, lo, hi) if lo < r.point < hi)

    assert count_open(BoundaryPoint(0), BoundaryPoint(2)) == 1
    assert count_open(BoundaryPoint(0), s2) == 0  # open interval excludes sqrt(2)
    assert [r.point for r in roots_in_closed_interval(a, F(0), s2)] == [s2]
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
    """(ps, lo, hi): one to three polynomials, each a constant times a
    quadratic with surd roots, or one or two rational linear factors (a
    double root when they agree), on an interval with rational or surd ends,
    sometimes a single point, often at a rational root."""
    def linear():
        return P(-draw(small), 1)

    ps = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        kind = draw(st.sampled_from(["surd", "linear", "two linear"]))
        if kind == "surd":
            # (s - b)^2 - e: roots b +- sqrt(e)
            b = draw(small)
            e = draw(st.sampled_from([2, 3, 5, 7])) * draw(st.sampled_from([F(1), F(1, 4), F(1, 9)]))
            p = P(b * b - e, -2 * b, 1)
        else:
            p = linear() if kind == "linear" else pmul(linear(), linear())
        ps.append(pmul((draw(small.filter(bool)),), p))
    if draw(st.booleans()):
        lo = BoundaryPoint(draw(small)) if draw(st.booleans()) else None
        if lo is None:  # a rational root of one of the polynomials, if any
            rational = [r.point for p in ps for r in roots_in_closed_interval(p, F(-9), F(9))
                        if r.point.is_rational]
            lo = draw(st.sampled_from(rational)) if rational else BoundaryPoint(0)
        return ps, lo, lo
    twelfths = st.integers(min_value=-48, max_value=12).map(lambda n: F(n, 12))
    lo = draw(st.one_of(twelfths.map(BoundaryPoint),
                        st.builds(BoundaryPoint, twelfths, small.filter(bool),
                                  st.sampled_from([2, 3, 5, 7]))))
    return ps, lo, lo + F(draw(st.integers(min_value=1, max_value=96)), 12)


def _mp(x):
    """x, a Fraction or a BoundaryPoint, as an mpmath number."""
    x = BoundaryPoint(x) if isinstance(x, F) else x
    return mpmath.mpf(x.p.numerator) / x.p.denominator + (
        mpmath.mpf(x.q.numerator) / x.q.denominator * mpmath.sqrt(x.r) if x.q else 0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=polys_on_interval())
@example(case=([P(-2, 0, 1), P(-1, 1)], BoundaryPoint(0), BoundaryPoint(2)))  # sqrt 2, 1
@example(case=([P(-2, 0, 1), P(-2, 0, 1)], BoundaryPoint(-2), BoundaryPoint(0, 1, 2)))  # twice
@example(case=([P(1, -2, 1)], BoundaryPoint(0), BoundaryPoint(2)))  # (s - 1)^2: once
def test_cut_at_roots_contract(case):
    ps, lo, hi = case
    cuts, exact = cut_at_roots([(p, 1) for p in ps], lo, hi)
    assert cuts[0] == lo and cuts[-1] == hi
    assert all(x < y for x, y in zip(cuts, cuts[1:]))
    n_exact = 0
    for p in ps:
        for root in roots_in_closed_interval(p, lo, hi):
            n_exact += 1
            assert any(root.point == x for x in exact)
            assert any(root.point == x for x in cuts)
    assert len(exact) == n_exact
    # an independent reference: every real root of every p in [lo, hi], as
    # mpmath finds it, is a cut, so none lies inside a stretch
    with mpmath.workdps(60):
        tiny = mpmath.mpf(10) ** -20  # a double root is found to about 1e-30
        points = [_mp(x) for x in cuts]
        for p in ps:
            for z in mpmath.polyroots([_mp(x) for x in reversed(p)], maxsteps=200, extraprec=200):
                if abs(z.imag) < tiny and points[0] - tiny <= z.real <= points[-1] + tiny:
                    assert min(abs(z.real - x) for x in points) < tiny


def _rf(*num, den=(1,)):
    return RationalFunction([F(c) for c in num], [F(c) for c in den])


def _one_piece(f):
    return PiecewiseBound([Piece(F(0), F(1), f, "")])


# every public way to ask for roots of degree 3 or more; a cubic L2/L4
# crossing is bisected instead (test_optimize.test_bracketed_crossing_bisected_to_tol)
HIGHER_DEGREE = {
    "roots_in_closed_interval": lambda: roots_in_closed_interval(P(-2, 0, 0, 1), F(0), F(2)),
    "cut_at_roots": lambda: cut_at_roots([(P(-1, 1), 1), (P(-2, 0, 0, 1), 1)], F(0), F(2)),
    # -(s^4/4 + s^2/2 - s) peaks where s^3 + s - 1 = 0
    "certified_sup-critical-point": lambda: certified_sup(
        [SupCell(F(0), F(1), [_rf(0, 1, F(-1, 2), 0, F(-1, 4))])], F(1, 10**9)),
    # 1/(s^3 + 2) has no pole in [0, 1], but the pole check is a root search
    "certified_sup-denominator": lambda: certified_sup(
        [SupCell(F(0), F(1), [_rf(1, den=(2, 0, 0, 1))])], F(1, 10**9)),
    # s^3 crosses 1/4 at 4^(-1/3)
    "pointwise_min": lambda: pointwise_min(_one_piece(_rf(0, 0, 0, 1)), _one_piece(_rf(F(1, 4)))),
    "feasible_region": lambda: feasible_region(_one_piece(_rf(0, 0, 0, 1)), F(1, 4)),
    # (s^3 - 1/4)(s^3 - 1/2), negative between its two roots in (0, 1)
    "validate_tables-positivity": lambda: _piece_positive(
        Piece(F(0), F(1), RationalFunction(pmul(P(F(-1, 4), 0, 0, 1), P(F(-1, 2), 0, 0, 1))))),
}


@pytest.mark.parametrize("name", sorted(HIGHER_DEGREE))
def test_degree_three_or_more_is_out_of_domain(name):
    # never a silent answer: a root finder of degree <= 2 must refuse the rest
    with pytest.raises(OutOfDomain):
        HIGHER_DEGREE[name]()


def test_degree_three_or_more_is_out_of_domain_under_optimize_flag():
    code = (
        "import runpy, sys\n"
        "from shortintervals.errors import OutOfDomain\n"
        "for name, call in runpy.run_path(sys.argv[1])['HIGHER_DEGREE'].items():\n"
        "    try:\n"
        "        call()\n"
        "    except OutOfDomain:\n"
        "        continue\n"
        "    raise SystemExit(name)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-O", "-c", code, __file__], env=env, timeout=60)
    assert proc.returncode == 0
