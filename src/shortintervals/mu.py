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
from .piecewise import PiecewiseBound, RationalFunction, feasible_region
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


class _PieceIndex:
    """Float-keyed lookup of the pieces covering a sigma range.

    Binary search on approximate keys narrows to a couple of candidates,
    which are then verified with exact comparisons.  The theta-independent
    scaled row of a piece is computed on its first use, since rows outside
    every feasible region (the family rows near 1) never need it.
    """

    def __init__(self, pw: PiecewiseBound):
        self.pieces = pw.pieces
        self.lo_keys = [float(p.lo) for p in pw.pieces]
        self.scaled: dict[int, tuple[Poly, Poly] | None] = {}

    def covering(self, x, y) -> list[tuple[Poly, Poly] | None]:
        """Scaled rows (None for -inf) of the pieces covering [x, y]."""
        i = bisect_right(self.lo_keys, float(x))
        out = []
        for k in range(max(0, i - 2), min(len(self.pieces), i + 2)):
            p = self.pieces[k]
            if p.lo <= x and y <= p.hi:
                if k not in self.scaled:
                    self.scaled[k] = None if p.rf is None else _scaled_row(p.rf)
                out.append(self.scaled[k])
        # dropping a feasible cell would under-estimate the sup: never allowed
        if not out:
            raise DomainMismatch(f"no table row covers [{x}, {y}]")
        return out


@lru_cache(maxsize=None)
def _mode_grid(mode: HypothesisMode, pintz_max_n: int):
    atab = a_table(mode, pintz_max_n)
    astab = astar_table(mode, pintz_max_n)
    bps: list[BoundaryPoint] = []
    for b in sorted(atab.breakpoints() + astab.breakpoints(), key=float):
        if not bps or bps[-1] < b:
            bps.append(b)
    bp_keys = [float(b) for b in bps]
    return atab, astab, _PieceIndex(atab), _PieceIndex(astab), bps, bp_keys


def objective_cells(
    theta,
    mode=HypothesisMode.UNCONDITIONAL,
    refined: bool = True,
    pintz_max_n: int = DEFAULT_PINTZ_MAX_N,
) -> list[SupCell]:
    """Feasible sigma-cells with their min-of-moments objectives.

    Cells follow the common refinement of both tables inside the feasible
    region.  A degenerate region point on a table breakpoint produces one
    point-cell per adjacent piece pair, which realizes the upper-regularized
    (max over adjacent rows) reading of the tables.
    """
    theta = _as_theta(theta)
    atab, astab, a_idx, astar_idx, bps, bp_keys = _mode_grid(mode, pintz_max_n)
    c = 1 / (1 - theta)
    region = feasible_region(atab, c)
    cells: list[SupCell] = []

    def add_cell(x, y):
        for ga in a_idx.covering(x, y):
            if ga is None:
                continue
            objs = [_moment_rf(ga, theta, 2)]
            if refined:
                for gs in astar_idx.covering(x, y):
                    if gs is not None:
                        cells.append(SupCell(x, y, objs + [_moment_rf(gs, theta, 4)]))
            else:
                cells.append(SupCell(x, y, objs))

    for rlo, rhi in region:
        if rlo == rhi:
            add_cell(rlo, rhi)
            continue
        lo_i = bisect_left(bp_keys, float(rlo)) - 1
        hi_i = bisect_right(bp_keys, float(rhi)) + 1
        cuts = [rlo]
        for b in bps[max(0, lo_i) : hi_i]:
            if rlo < b < rhi and cuts[-1] < b:
                cuts.append(b)
        cuts.append(rhi)
        for x, y in zip(cuts, cuts[1:]):
            add_cell(x, y)
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
