"""Certified upper bounds for the exceptional-set exponent mu(theta).

For a hypothesis mode with zero-density majorant table A~ and energy table
A~*, the bound is

    sup { min( (1-t)(1-s) A~(s) + 2s - 1,  (1-t)(1-s) A~*(s) + 4s - 3 )
          : A~(s) >= 1/(1-t) },

with the empty supremum equal to -infinity.  The constraint region is solved
exactly; on each cell the supremum is taken over exact candidate points
(cell ends, critical points and crossings of the two moments), with
cubic crossings bisected to the tolerance.  Dropping the second
(fourth-moment) term gives the weaker second-moment-only variant.

Theta enters only through u = 1-t.  Each table row is compiled once, on
first use, into integer polynomials (_Row), and a theta = a/b builds every
polynomial it needs, objectives, critical points and crossings, as
(b-a)X + b*Y from them (_Moment, _MuCell): one scale and one add each,
and only for a cell that optimize.certified_sup evaluates.  The rest are
ruled out by their bounds.  A row's objective is affine in u at each
sigma, so its maximum over a merged interval is convex in u, and on
[k/K, (k+1)/K] it lies below the chord through upper bounds at the ends:
knots, each the certified maximum at one u = k/K, cached per row and
filled only as thetas need them (_Row.knot).  A cell's bound is that
chord at its theta, in outward-rounded floats.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache
from math import inf, nextafter

from . import optimize
from .errors import DomainMismatch, OutOfDomain
from .exact import BoundaryPoint, as_boundary, float_down, float_up
from .optimize import SupCell, SupResult, certified_sup
from .piecewise import PiecewiseBound, RationalFunction, _merged_cells, feasible_region
from .polys import (
    ONE, Poly, common_ints, lincomb, pdivmod, pderiv, pgcd, pmul, pscale, psub, ratio_at,
)
from .tables import DEFAULT_PINTZ_MAX_N, HypothesisMode, a_table, astar_table

DEFAULT_TOL = Fraction(1, 10**9)
# knots of the cell bounds lie at u = 1-t = k/K for k = 0..K
K = 8
# a curve holds one exact rational per grid point; the ceiling keeps its
# memory bounded for every value the CLI admits
MAX_CURVE_STEPS = 100_000

ACTIVE_L2 = "L2"
ACTIVE_L4 = "L4"
ACTIVE_EMPTY = "EMPTY"


def _as_theta(theta) -> Fraction:
    theta = Fraction(theta)
    if not 0 < theta < 1:
        raise OutOfDomain(f"theta must lie in (0, 1), got {theta}")
    return theta


def _moment_value(table_value, sigma, theta: Fraction, moment: int):
    if isinstance(table_value, float):
        return -inf
    s = as_boundary(sigma)
    s_val = s.as_fraction() if s.is_rational else s
    value = (1 - theta) * (1 - s_val) * table_value + moment * s_val - (moment - 1)
    if isinstance(value, BoundaryPoint) and value.is_rational:
        return value.as_fraction()
    return value


def mu2(sigma, theta, mode=HypothesisMode.UNCONDITIONAL, pintz_max_n=DEFAULT_PINTZ_MAX_N):
    """Second-moment exponent (1-t)(1-s)*A~(s) + 2s - 1, exactly."""
    theta = _as_theta(theta)
    a = a_table(mode, pintz_max_n).evaluate_upper(as_boundary(sigma))
    return _moment_value(a, sigma, theta, 2)


def mu4(sigma, theta, mode=HypothesisMode.UNCONDITIONAL, pintz_max_n=DEFAULT_PINTZ_MAX_N):
    """Fourth-moment exponent (1-t)(1-s)*A~*(s) + 4s - 3, exactly."""
    theta = _as_theta(theta)
    a = astar_table(mode, pintz_max_n).evaluate_upper(as_boundary(sigma))
    return _moment_value(a, sigma, theta, 4)


def _scaled_row(rf: RationalFunction) -> tuple[Poly, Poly]:
    """(1-s)P/Q in lowest terms for the row formula P/Q."""
    num = pmul((ONE, -ONE), rf.num)
    g = pgcd(num, rf.den)
    return pdivmod(num, g)[0], pdivmod(rf.den, g)[0]


def _up(x: float) -> float:
    return nextafter(x, inf)


def _ints(p: Poly) -> tuple[int, ...]:
    """An integral polynomial's coefficients as ints."""
    return tuple(map(int, p))


class _Row:
    """A covering piece's row, compiled once for the per-theta kernels, and
    the knots of its cell bounds.

    G/H = (1-s)P/Q in lowest terms, written over the integers: times the
    common denominator `scale` of its coefficients and not divided by their
    content, so each kernel over its integer scale is exactly the rational
    polynomial of the generic construction, and a surd root of it has the
    same canonical form (see polys._quadratic_roots).  The moment-m objective at
    theta = a/b is ((b-a)G + b*Y)/(b*H) with Y = (m*s - m + 1)H, and the
    numerator of its derivative is ((b-a)W + b*m*H^2)/(b*scale^2) with
    W = G'H - GH': a theta only scales and adds these.
    """

    __slots__ = ("m", "g", "h", "y", "w", "mh2", "scale", "_crossings", "_knots")

    def __init__(self, rf: RationalFunction, m: int):
        (g, h), self.scale = common_ints(*_scaled_row(rf))
        self.m, self.g, self.h = m, g, h
        self.y = _ints(pmul((1 - m, m), h))
        self.w = _ints(psub(pmul(pderiv(g), h), pmul(g, pderiv(h))))
        self.mh2 = _ints(pscale(pmul(h, h), m))
        self._crossings: dict[_Row, tuple] = {}
        self._knots: dict[tuple[int, int], float] = {}

    def knot(self, j: int, k: int, lo: BoundaryPoint, hi: BoundaryPoint) -> float:
        """U_k, a float upper bound on the objective's maximum over the merged
        interval j = [lo, hi] at u = 1-t = k/K, computed once: the upper end
        of a one-objective certified_sup at theta = (K-k)/K (at u = 0 the
        objective is m*s - (m-1), and U_0 is m*hi - (m-1) rounded up).  It
        is called through the optimize module, so a knot counts as the
        objective_cells work that it is."""
        if (j, k) not in self._knots:
            theta = Fraction(K - k, K)
            cell = _MuCell(lo, hi, (_Moment(self, theta.numerator, theta.denominator),))
            self._knots[j, k] = optimize.certified_sup([cell], DEFAULT_TOL).upper
        return self._knots[j, k]

    def crossing_kernel(self, star: "_Row") -> tuple:
        """(X, Y, scale) for this second-moment row G/H and the
        fourth-moment row star G*/H*, computed once: at theta = a/b their
        objectives cross at the roots of ((b-a)X + b*Y)/(b*scale), with
        X = G H* - G* H and Y = 2(1-s) H H*."""
        if star not in self._crossings:
            h2 = pmul(self.h, star.h)
            self._crossings[star] = (_ints(psub(pmul(self.g, star.h), pmul(star.g, self.h))),
                                     _ints(pmul((2, -2), h2)), self.scale * star.scale)
        return self._crossings[star]


class _Moment:
    """A row's moment objective at theta = a/b, as the integer quotient
    num/den = ((b-a)G + b*Y)/(b*H) (see _Row), built on first use: most
    cells are skipped by their bound and never evaluated."""

    __slots__ = ("row", "a", "b", "_quotient", "_critical")

    def __init__(self, row: _Row, a: int, b: int):
        self.row, self.a, self.b = row, a, b
        self._quotient = self._critical = None

    def quotient(self) -> tuple:
        """(num, den), built on first use."""
        if self._quotient is None:
            row, b = self.row, self.b
            self._quotient = lincomb(b - self.a, row.g, b, row.y), tuple(b * x for x in row.h)
        return self._quotient

    num = property(lambda self: self.quotient()[0])
    den = property(lambda self: self.quotient()[1])

    def eval_exact(self, x):
        return ratio_at(*self.quotient(), x)

    def critical(self) -> tuple:
        """(p, den) for the numerator of the derivative, built on first use."""
        if self._critical is None:
            row, b = self.row, self.b
            self._critical = lincomb(b - self.a, row.w, b, row.mh2), b * row.scale**2
        return self._critical


class _MuCell(SupCell):
    """A cell of the mu objective, whose kernels are its rows' compiled ones.
    It needs no pole check: H is its row's own denominator, and the row's
    piece_max has ruled out a pole on the whole closed piece (_PieceIndex)."""

    __slots__ = ()

    def critical_polys(self) -> list:
        return [crit for crit in (f.critical() for f in self.objectives) if crit[0]]

    def crossing(self, i: int, j: int) -> tuple:
        # the only pair is (L2, L4); the sign of the polynomial is immaterial
        l2, l4 = self.objectives
        x, y, scale = l2.row.crossing_kernel(l4.row)
        return lincomb(l2.b - l2.a, x, l2.b, y), l2.b * scale


class _PieceIndex:
    """The rows of a bound's pieces for moment m.  The theta-independent row
    of a piece is compiled on its first use, since rows outside every
    feasible region (the family rows near 1) never need it."""

    def __init__(self, pw: PiecewiseBound, m: int):
        self.pw = pw
        self.m = m
        self.rows: dict[int, _Row | None] = {}

    def row(self, k: int) -> _Row | None:
        """The row of piece k (None for -inf).  piece_max raises on a pole
        in the closed piece, so no _MuCell of the row can hold one."""
        if k not in self.rows:
            rf = self.pw.pieces[k].rf
            self.rows[k] = None if self.pw.piece_max(k) is None else _Row(rf, self.m)
        return self.rows[k]

    def covering(self, x, y) -> list[_Row | None]:
        """Rows of the pieces covering [x, y], by the bound's exact bisection."""
        out = [self.row(k) for k in self.pw.indices_at(x) if y <= self.pw.pieces[k].hi]
        # dropping a feasible cell would under-estimate the sup: never allowed
        if not out:
            raise DomainMismatch(f"no table row covers [{x}, {y}]")
        return out


@lru_cache(maxsize=None)
def _mode_grid(mode: HypothesisMode, pintz_max_n: int):
    """The A table, the row indices of both tables, the merged breakpoints
    bps of both, and for each merged interval [bps[j], bps[j+1]] its span:
    the indices of the A and A* pieces that contain it."""
    atab = a_table(mode, pintz_max_n)
    astab = astar_table(mode, pintz_max_n)
    merged = list(_merged_cells(atab, astab))
    bps = [lo for lo, _, _, _ in merged] + [merged[-1][1]]
    spans = [(ka, ks) for _, _, ka, ks in merged]
    return atab, _PieceIndex(atab, 2), _PieceIndex(astab, 4), bps, spans


def objective_cells(
    theta,
    mode=HypothesisMode.UNCONDITIONAL,
    refined: bool = True,
    pintz_max_n: int = DEFAULT_PINTZ_MAX_N,
) -> list[SupCell]:
    """Feasible sigma-cells with their min-of-moments objectives.

    Cells follow the common refinement of both tables inside the feasible
    region, and take their rows from the precompiled span of the merged
    interval that contains them.  A degenerate region point on a table
    breakpoint produces one point-cell per adjacent piece pair, which
    realizes the upper-regularized (max over adjacent rows) reading of the
    tables.  A cell in merged interval j carries an upper bound on its
    objective: the least over its rows of the chord U_k + lam*(U_{k+1} -
    U_k) between the row's knots for j around u = 1-t = (k + lam)/K (see
    _Row.knot).  Every float step is rounded outward, and lam enters by its
    upper end where the difference is >= 0 and by its lower end otherwise,
    so the bound holds under python -O.  Point cells are bounded by inf: they
    are never skipped, and are evaluated first.
    """
    theta = _as_theta(theta)
    atab, a_idx, astar_idx, bps, spans = _mode_grid(mode, pintz_max_n)
    c = 1 / (1 - theta)
    region = feasible_region(atab, c)
    cells: list[SupCell] = []
    objectives: dict[_Row, _Moment] = {}  # by row, built once per theta
    a, b = theta.numerator, theta.denominator
    k = min((b - a) * K // b, K - 1)
    lam = Fraction((b - a) * K - k * b, b)
    lam_lo, lam_hi = float_down(lam), float_up(lam)

    def objective(row):
        if row not in objectives:
            objectives[row] = _Moment(row, a, b)
        return objectives[row]

    def chord(row, j):
        lo, hi = bps[j], bps[j + 1]
        u_k = row.knot(j, k, lo, hi)
        if not lam:
            return u_k
        d = _up(row.knot(j, k + 1, lo, hi) - u_k)
        return _up(u_k + _up(d * (lam_hi if d >= 0 else lam_lo)))

    def add_cell(x, y, a_rows, star_rows, j):
        for ra in a_rows:
            if ra is None:
                continue
            combos = [(ra, rs) for rs in star_rows if rs is not None] if refined else [(ra,)]
            for rows in combos:
                bound = inf if j is None else min([chord(row, j) for row in rows])
                cells.append(_MuCell(x, y, [objective(row) for row in rows], bound))

    for rlo, rhi in region:
        if rlo == rhi:
            add_cell(rlo, rhi, a_idx.covering(rlo, rhi),
                     astar_idx.covering(rlo, rhi) if refined else (), None)
            continue
        # cell i lies in merged interval j0 - 1 + i
        j0 = bisect_right(bps, rlo)
        cuts = [rlo, *bps[j0 : bisect_left(bps, rhi)], rhi]
        for j, (x, y) in enumerate(zip(cuts, cuts[1:]), j0 - 1):
            # dropping a feasible cell would under-estimate the sup: never allowed
            if not 0 <= j < len(spans):
                raise DomainMismatch(f"no table row covers [{x}, {y}]")
            ka, ks = spans[j]
            add_cell(x, y, [a_idx.row(ka)], [astar_idx.row(ks)] if refined else (), j)
    return cells


class MuBoundResult:
    """Certified bracket for the exceptional-set exponent at one theta."""

    __slots__ = (
        "theta", "mode", "refined", "upper", "lower",
        "witness_sigma", "witness_exact", "active", "tol",
    )

    def __init__(self, theta, mode, refined, sup: SupResult, tol):
        self.theta = theta
        self.mode = mode
        self.refined = refined
        self.upper = sup.upper
        self.lower = sup.lower
        self.witness_exact = sup.witness
        self.witness_sigma = None if sup.witness is None else float(as_boundary(sup.witness))
        if sup.witness is None:
            self.active = ACTIVE_EMPTY
        elif refined and sup.active_index == 1:
            self.active = ACTIVE_L4
        else:
            self.active = ACTIVE_L2
        self.tol = tol

    @property
    def is_empty(self) -> bool:
        return self.active == ACTIVE_EMPTY

    def __repr__(self):
        if self.is_empty:
            return f"MuBoundResult(theta={self.theta}, {self.mode.value}: -inf)"
        return (
            f"MuBoundResult(theta={self.theta}, {self.mode.value}: "
            f"[{self.lower:.12g}, {self.upper:.12g}], witness={self.witness_sigma:.9g}, "
            f"{self.active})"
        )


def mu_upper(
    theta,
    mode=HypothesisMode.UNCONDITIONAL,
    tol=DEFAULT_TOL,
    refined: bool = True,
    pintz_max_n: int = DEFAULT_PINTZ_MAX_N,
) -> MuBoundResult:
    """Certified upper bound for mu(theta) under the given hypothesis.

    The returned ``upper`` is a mathematically valid bound within ``tol`` of
    the supremum it certifies; ``witness_sigma`` attains ``lower``.  An empty
    feasible region yields -inf with the EMPTY tag.
    """
    theta = _as_theta(theta)
    tol = Fraction(tol)
    cells = objective_cells(theta, mode, refined, pintz_max_n)
    sup = certified_sup(cells, tol)
    return MuBoundResult(theta, mode, refined, sup, tol)


class CurvePoint:
    __slots__ = ("theta", "mu_upper", "gap_exponent")

    def __init__(self, theta: Fraction, mu: float):
        self.theta = theta
        self.mu_upper = mu
        self.gap_exponent = mu - float(theta) if mu != -inf else -inf

    def __repr__(self):
        return f"CurvePoint(theta={self.theta}, mu={self.mu_upper}, gap={self.gap_exponent})"


def theta_grid(theta_min, theta_max, steps: int) -> list[Fraction]:
    if not 1 <= steps <= MAX_CURVE_STEPS:
        raise OutOfDomain(f"steps must lie in [1, {MAX_CURVE_STEPS}], got {steps}")
    tmin, tmax = Fraction(theta_min), Fraction(theta_max)
    if not 0 < tmin < tmax < 1:
        raise OutOfDomain("need 0 < theta_min < theta_max < 1")
    h = (tmax - tmin) / steps
    return [tmin + i * h for i in range(steps + 1)]


def mu_curve(
    theta_min,
    theta_max,
    steps: int,
    mode=HypothesisMode.UNCONDITIONAL,
    tol=DEFAULT_TOL,
    refined: bool = True,
    pintz_max_n: int = DEFAULT_PINTZ_MAX_N,
) -> list[CurvePoint]:
    """mu_upper on a uniform theta grid (steps+1 points), in grid order.

    Grid points are exact rationals so endpoint constants are hit exactly.
    """
    return [
        CurvePoint(t, mu_upper(t, mode, tol, refined, pintz_max_n).upper)
        for t in theta_grid(theta_min, theta_max, steps)
    ]


def gap_exponent(
    theta,
    mode=HypothesisMode.UNCONDITIONAL,
    tol=DEFAULT_TOL,
    refined: bool = True,
    pintz_max_n: int = DEFAULT_PINTZ_MAX_N,
) -> float:
    """Exponent bounding the count of long prime gaps: mu(theta) - theta."""
    res = mu_upper(theta, mode, tol, refined, pintz_max_n)
    return res.upper - float(theta) if not res.is_empty else -inf
