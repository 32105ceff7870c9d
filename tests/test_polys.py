from fractions import Fraction as F

import pytest

from shortintervals.errors import ShortIntervalsError
from shortintervals.exact import BoundaryPoint
from shortintervals.polys import (
    BracketedRoot,
    ExactRoot,
    pdivmod,
    peval,
    pgcd,
    pmul,
    rational_between,
    roots_in_closed_interval,
    sign_at,
    squarefree_part,
    sturm_chain,
    count_roots_open,
)


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
