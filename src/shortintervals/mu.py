"""Certified upper bounds for the exceptional-set exponent mu(theta).

For a hypothesis mode with zero-density majorant table A~ and energy table
A~*, the bound is

    sup { min( (1-t)(1-s) A~(s) + 2s - 1,  (1-t)(1-s) A~*(s) + 4s - 3 )
          : A~(s) >= 1/(1-t) },

with the empty supremum equal to -infinity.  The constraint region is solved
exactly; on each cell the supremum is taken over exact candidate points
(cell ends, critical points and crossings of the two moments), with
irrational crossings bisected to the tolerance.  Dropping the second
(fourth-moment) term gives the weaker second-moment-only variant.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache
from math import inf

from .errors import DomainMismatch, OutOfDomain
from .exact import BoundaryPoint, as_boundary
from .optimize import SupCell, SupResult, certified_sup
from .piecewise import PiecewiseBound, RationalFunction, _merged_cells, feasible_region
from .polys import ONE, Poly, padd, pdivmod, pgcd, pmul, pscale
from .tables import DEFAULT_PINTZ_MAX_N, HypothesisMode, a_table, astar_table

DEFAULT_TOL = Fraction(1, 10**9)

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


def _moment_rf(scaled: tuple[Poly, Poly], theta: Fraction, moment: int) -> RationalFunction:
    """((1-t)G + (m*s - m + 1) H) / H for the scaled row G/H = (1-s)P/Q.

    With G/H in lowest terms so is the result, since gcd((1-t)G, H) = 1.
    """
    g, h = scaled
    affine = (Fraction(1 - moment), Fraction(moment))
    return RationalFunction(padd(pscale(g, 1 - theta), pmul(affine, h)), h)


class _Row:
    """A covering piece's scaled row and the piece's maximum."""

    __slots__ = ("scaled", "top")

    def __init__(self, scaled: tuple[Poly, Poly], top: Fraction):
        self.scaled = scaled
        self.top = top

    def bound(self, theta: Fraction, moment: int, x_lo: Fraction, y_hi: Fraction) -> Fraction:
        """Upper bound on the moment objective over a cell [x, y] of the
        piece, given rationals x_lo <= x and y_hi >= y: there 0 <= 1-s <= 1-x,
        so (1-s)A(s) <= (1-x)*top when top >= 0 and <= (1-y)*top otherwise."""
        weight = 1 - x_lo if self.top >= 0 else 1 - y_hi
        return (1 - theta) * weight * self.top + moment * y_hi - (moment - 1)


class _PieceIndex:
    """The rows of a bound's pieces.  The theta-independent row of a piece is
    built on its first use, since rows outside every feasible region (the
    family rows near 1) never need it."""

    def __init__(self, pw: PiecewiseBound):
        self.pw = pw
        self.rows: dict[int, _Row | None] = {}

    def row(self, k: int) -> _Row | None:
        """The row of piece k (None for -inf)."""
        if k not in self.rows:
            rf = self.pw.pieces[k].rf
            self.rows[k] = None if rf is None else _Row(_scaled_row(rf), self.pw.piece_max(k))
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
    return atab, _PieceIndex(atab), _PieceIndex(astab), bps, spans


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
    tables.  Each cell carries an upper bound on its objective from the
    maxima of its pieces.
    """
    theta = _as_theta(theta)
    atab, a_idx, astar_idx, bps, spans = _mode_grid(mode, pintz_max_n)
    c = 1 / (1 - theta)
    region = feasible_region(atab, c)
    cells: list[SupCell] = []
    objectives: dict[int, RationalFunction] = {}  # by row, built once per theta

    def objective(row, moment):
        if id(row) not in objectives:
            objectives[id(row)] = _moment_rf(row.scaled, theta, moment)
        return objectives[id(row)]

    def add_cell(x, y, a_rows, star_rows):
        x_lo, y_hi = x.enclose_fraction(32)[0], y.enclose_fraction(32)[1]
        for ra in a_rows:
            if ra is None:
                continue
            objs = [objective(ra, 2)]
            bound = ra.bound(theta, 2, x_lo, y_hi)
            if refined:
                for rs in star_rows:
                    if rs is not None:
                        cells.append(SupCell(x, y, objs + [objective(rs, 4)],
                                             min(bound, rs.bound(theta, 4, x_lo, y_hi))))
            else:
                cells.append(SupCell(x, y, objs, bound))

    for rlo, rhi in region:
        if rlo == rhi:
            add_cell(rlo, rhi, a_idx.covering(rlo, rhi),
                     astar_idx.covering(rlo, rhi) if refined else ())
            continue
        # cell k lies in merged interval j0 - 1 + k
        j0 = bisect_right(bps, rlo)
        cuts = [rlo, *bps[j0 : bisect_left(bps, rhi)], rhi]
        for j, (x, y) in enumerate(zip(cuts, cuts[1:]), j0 - 1):
            # dropping a feasible cell would under-estimate the sup: never allowed
            if not 0 <= j < len(spans):
                raise DomainMismatch(f"no table row covers [{x}, {y}]")
            ka, ks = spans[j]
            add_cell(x, y, [a_idx.row(ka)], [astar_idx.row(ks)] if refined else ())
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
    tmin, tmax = Fraction(theta_min), Fraction(theta_max)
    if not 0 < tmin < tmax < 1:
        raise OutOfDomain("need 0 < theta_min < theta_max < 1")
    if steps < 1:
        raise OutOfDomain("steps must be >= 1")
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
