"""Independent oracle for the certified mu bracket.

The paper's formula is evaluated directly with mpmath at 50 digits, from
the rows of the transcription files: no table object, no objective cell
and no certified supremum of the package is used.  The supremum is taken
over a dense grid of each smooth stretch plus its ends, refined by
golden-section search around the best grid point.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction as F
from functools import lru_cache

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shortintervals.mu import mu_upper
from shortintervals.tables import (
    DEFAULT_PINTZ_MAX_N,
    HypothesisMode,
    parse_endpoint,
    parse_formula,
    parse_transcription,
)

mpmath.mp.dps = 50
MP = mpmath.mpf
EPS = MP("1e-12")  # the oracle's own error is far below this
SLACK = MP("1e-40")  # float noise of the level test at exact region ends
GRID = 32


def _mp(x: F):
    return MP(x.numerator) / x.denominator


def _mp_point(b):
    return _mp(b.p) + _mp(b.q) * mpmath.sqrt(b.r)


class _Row:
    __slots__ = ("lo", "hi", "num", "den")
    # the rows of a table abut, so they are sorted by lo

    def __init__(self, lo, hi, rf):
        self.lo, self.hi = _mp_point(lo), _mp_point(hi)
        self.num = [_mp(c) for c in reversed(rf.num)]
        self.den = [_mp(c) for c in reversed(rf.den)]

    def __call__(self, s):
        return mpmath.polyval(self.num, s) / mpmath.polyval(self.den, s)


@lru_cache(maxsize=None)
def _rows():
    a_finite, (family,) = parse_transcription("a")
    a = [_Row(lo, hi, rf) for lo, hi, rf, _ in a_finite]
    lo_t, hi_t, rf_t, _ = family
    for n in range(6, DEFAULT_PINTZ_MAX_N + 1):
        a.append(_Row(parse_endpoint(lo_t, n), parse_endpoint(hi_t, n), parse_formula(rf_t, n)))
    astar = [_Row(lo, hi, rf) for lo, hi, rf, _ in parse_transcription("astar")[0]]
    return (a, [r.lo for r in a]), (astar, [r.lo for r in astar])


def _side_value(table, s, side):
    """Value of the row on the given side of s (side -1: lo < s <= hi,
    +1: lo <= s < hi), or None outside the rows."""
    rows, los = table
    i = (bisect_left(los, s) if side < 0 else bisect_right(los, s)) - 1
    if i < 0 or not ((s <= rows[i].hi) if side < 0 else (s < rows[i].hi)):
        return None
    return rows[i](s)


def _past(s, x, side):
    """Whether the side of s lies at or beyond x."""
    return s > x or (s == x and side > 0)


def _a(mode, s, side):
    a_rows, _ = _rows()
    v = _side_value(a_rows, s, side)
    if v is None or not _past(s, MP(1) / 2, side) or mode is HypothesisMode.UNCONDITIONAL:
        return v
    if mode is HypothesisMode.RH:
        return None
    if mode is HypothesisMode.LH and _past(s, MP(3) / 4, side):
        return MP(0)
    return min(v, MP(2))


def _astar(mode, s, side):
    _, astar_rows = _rows()
    v = _side_value(astar_rows, s, side)
    if v is None or not _past(s, MP(1) / 2, side):
        return v
    a = _a(mode, s, side)
    return None if a is None else min(v, 3 * a)


def _regularized(table, mode, s, sides):
    vals = [v for v in (table(mode, s, side) for side in sides) if v is not None]
    return max(vals) if vals else None


def _objective(mode, refined, theta, s, a, astar):
    mu2 = (1 - theta) * (1 - s) * a + 2 * s - 1
    if not refined:
        return mu2
    return min(mu2, (1 - theta) * (1 - s) * astar + 4 * s - 3)


def oracle(theta: F, mode: HypothesisMode, refined: bool):
    """sup of the paper's formula, or None for an empty region."""
    a_rows, astar_rows = _rows()
    t, c = _mp(theta), 1 / (1 - _mp(theta))
    cap = a_rows[0][-1].hi
    points = {MP(0), cap, MP(1) / 2, MP(3) / 4}
    for row in a_rows[0] + astar_rows[0]:
        points.update((row.lo, row.hi))
    for row in a_rows[0]:  # region ends: the row meets the level c
        width = max(len(row.num), len(row.den))
        num = [MP(0)] * (width - len(row.num)) + row.num
        den = [MP(0)] * (width - len(row.den)) + row.den
        level = [n - c * d for n, d in zip(num, den)]
        while level and level[0] == 0:
            level.pop(0)
        for r in mpmath.polyroots(level, maxsteps=200, extraprec=200) if len(level) > 1 else []:
            if abs(mpmath.im(r)) < SLACK and row.lo < mpmath.re(r) < row.hi:
                points.add(mpmath.re(r))
    points = sorted(p for p in points if 0 <= p <= cap)

    def value(s, sides=(-1, +1)):  # regularized; one side is enough off the points
        a = _regularized(_a, mode, s, sides)
        if a is None or a < c - SLACK:
            return None
        return _objective(mode, refined, t, s, a, _regularized(_astar, mode, s, sides))

    def inner(s):
        return value(s, (+1,))

    found = [v for v in map(value, points) if v is not None]
    stretches = []  # (best grid value, bracket around it) per feasible stretch
    for x, y in zip(points, points[1:]):
        if inner((x + y) / 2) is None:
            continue
        grid = [x + (y - x) * k / GRID for k in range(GRID + 1)]
        vals = [inner(s) for s in grid[1:-1]]
        k = max(range(len(vals)), key=vals.__getitem__)
        stretches.append((vals[k], grid[k], grid[k + 2]))
    if not found and not stretches:
        return None
    best = max(found + [v for v, _, _ in stretches])
    phi = (mpmath.sqrt(5) - 1) / 2
    for v, lo, hi in stretches:
        if v < best - MP("1e-6"):
            continue  # too far below to hold the supremum
        while hi - lo > MP("1e-24"):  # golden-section search for the local max
            m1, m2 = hi - phi * (hi - lo), lo + phi * (hi - lo)
            if inner(m1) < inner(m2):
                lo = m1
            else:
                hi = m2
        best = max(best, inner((lo + hi) / 2))
    return best


MODES = [(m, r) for m in HypothesisMode for r in (True, False)]


@pytest.mark.parametrize("mode,refined", MODES, ids=[f"{m.value}-{r}" for m, r in MODES])
@settings(max_examples=5, deadline=None, derandomize=True)
@given(theta=st.integers(min_value=100, max_value=6000).map(lambda k: F(k, 10**4)))
@example(theta=F(17, 30))  # degenerate region {7/10}
@example(theta=F(1, 2))
@example(theta=F(9, 20))  # LH: the moments cross at a cubic irrational
@example(theta=F(151031, 333000))  # unconditional: likewise
def test_mu_bracket_contains_oracle(mode, refined, theta):
    res = mu_upper(theta, mode, refined=refined)
    want = oracle(theta, mode, refined)
    if want is None:
        assert res.is_empty, (theta, res)
        return
    assert not res.is_empty, theta
    assert MP(res.lower) - EPS <= want <= MP(res.upper) + EPS, (theta, res, want)
