"""Certified supremum of min-of-rational-functions over a union of cells.

Each closed cell is split at the exact roots of every objective's
critical-point polynomial N'D - ND', so every objective is monotone between
consecutive cuts.  The cell supplies those polynomials and the crossing
polynomial of two objectives: a hand-built SupCell derives them from its
objectives' numerators and denominators, after checking that no objective
has a pole in the cell, and a subclass may supply precompiled ones (the mu
cells do).  There the maximum of the min lies at a cut or at a
crossing of a non-decreasing and a non-increasing objective.  Cuts and
crossings of degree at most 2 are rational or quadratic and evaluated
exactly.  A crossing polynomial of higher degree changes sign once in its
stretch, so it is bisected on that sign until the value it bounds is
attained within tol/4; while both ends are floats, the sign steps run in
floats and integers, on the midpoints that the rational steps would take.
Denominators and critical-point polynomials of degree 3 or more raise
OutOfDomain (polys.roots_in_closed_interval).  The returned bracket
[lower, upper] always contains the true supremum.
"""

from fractions import Fraction
from itertools import chain, product
from math import inf
from operator import itemgetter

from . import polys
from .errors import DenominatorVanishes, NonConvergence, OutOfDomain
from .exact import BoundaryPoint, as_boundary, float_down, float_up
from .polys import pderiv, pmul, psub, sign_at

# a sign step evaluates one polynomial, a value step every objective at both
# ends, so a crossing of degree 3 or more is narrowed on signs alone to this
# width before the values at its ends are compared
_WIDTH = Fraction(1, 10**12)
_WIDTH_F = float(_WIDTH)


class SupCell:
    """A closed sigma-cell with the objective min(objectives) on it, and
    optionally a known upper bound on that objective over the cell.

    The bound may be a float or an exact value (int, Fraction or
    BoundaryPoint); either way it must be a true upper bound, and
    certified_sup compares it exactly."""

    __slots__ = ("lo", "hi", "objectives", "bound")

    def __init__(self, lo, hi, objectives, bound=None):
        self.lo = as_boundary(lo)
        self.hi = as_boundary(hi)
        if self.lo > self.hi:
            raise ValueError("inverted cell")
        self.objectives = tuple(objectives)
        if not self.objectives:
            raise ValueError("cell without objectives")
        self.bound = bound

    def critical_polys(self) -> list:
        """Pairs (p, den) whose polynomials p/den hold the critical points
        of the objectives: each nonzero N'D - ND'.  Raises
        DenominatorVanishes when an objective has a pole in the closed cell,
        and OutOfDomain when a denominator has degree 3 or more."""
        out = []
        for rf in self.objectives:
            if polys.roots_in_closed_interval(rf.den, self.lo, self.hi):
                raise DenominatorVanishes(f"pole of {rf} in [{self.lo}, {self.hi}]")
            crit = psub(pmul(pderiv(rf.num), rf.den), pmul(rf.num, pderiv(rf.den)))
            if crit:
                out.append((crit, 1))
        return out

    def crossing(self, i: int, j: int) -> tuple:
        """(p, den) with the crossings of objectives i and j the roots of
        p/den: their cross-multiplied difference."""
        fi, fj = self.objectives[i], self.objectives[j]
        return psub(pmul(fi.num, fj.den), pmul(fj.num, fi.den)), 1


class SupResult:
    __slots__ = ("upper", "lower", "witness", "active_index")

    def __init__(self, upper, lower, witness, active_index):
        self.upper = upper
        self.lower = lower
        self.witness = witness  # exact BoundaryPoint/Fraction or None
        self.active_index = active_index

    @property
    def is_empty(self) -> bool:
        return self.witness is None and self.upper == -inf

    def __repr__(self):
        return (
            f"SupResult(upper={self.upper!r}, lower={self.lower!r}, "
            f"witness={self.witness}, active={self.active_index})"
        )


def _value_bounds(value) -> tuple[float, float]:
    if isinstance(value, BoundaryPoint):
        lo, hi = value.enclose_fraction(60)
        return float_down(lo), float_up(hi)
    return float_down(value), float_up(value)


def _argmin(values):
    """(min value, first index attaining it), compared exactly."""
    i = min(range(len(values)), key=values.__getitem__)
    return values[i], i


def _point(x: BoundaryPoint):
    return x.as_fraction() if x.is_rational else x


def _exact_float(v) -> float | None:
    """v as a float when v is a Fraction that a float holds exactly."""
    if type(v) is Fraction:
        try:
            f = float(v)
        except OverflowError:
            return None
        if f.as_integer_ratio() == (v.numerator, v.denominator):
            return f
    return None


def _float_bisect(diff, s_p: int, fp: float, fq: float):
    """Bisect [fp, fq] on the sign of diff, with s_p its sign at fp, at the
    float midpoints that polys.rational_between picks, until the ends are
    _WIDTH apart or no float lies between them.  Returns (fp, fq, hit), hit
    the midpoint where diff vanishes, if any.

    fq - fp and _WIDTH_F are the correctly rounded width and _WIDTH, so
    they are ordered as the exact values are unless they are equal."""
    while True:
        w = fq - fp
        if w < _WIDTH_F or w == _WIDTH_F and Fraction(fq) - Fraction(fp) <= _WIDTH:
            return fp, fq, None
        fm = 0.5 * (fp + fq)
        if not fp < fm < fq:
            return fp, fq, None
        v = polys.hom_eval(diff, *fm.as_integer_ratio())
        if v == 0:
            return fp, fq, fm
        if (v > 0) - (v < 0) == s_p:
            fp = fm
        else:
            fq = fm


def _crossing(cell, up, dn, i, j, x, y, tol, found, bounds):
    """Candidate at the crossing of up-objective i and down-objective j in (x, y)."""
    objectives = cell.objectives
    diff, den = cell.crossing(i, j)
    if len(diff) <= 3:
        root = polys.roots_in_closed_interval(diff, x, y, den)[0]
        t = _point(root.point)
        found.append((*_argmin([rf.eval_exact(t) for rf in objectives]), t))
        return
    # f_i - f_j rises through 0 once in (x, y), and diff is f_i - f_j times
    # denominators of one sign there, so the sign of diff alone locates the
    # crossing: bisect until both ends are rational and _WIDTH apart; a
    # midpoint where diff vanishes is the crossing itself
    p, q = _point(x), _point(y)
    s_p = sign_at(diff, p)
    while not (type(p) is type(q) is Fraction and q - p <= _WIDTH):
        fp, fq = _exact_float(p), _exact_float(q)
        if fp is not None and fq is not None:
            fp, fq, hit = _float_bisect(diff, s_p, fp, fq)
            if hit is not None:
                m = Fraction(hit)
                found.append((*_argmin([rf.eval_exact(m) for rf in objectives]), m))
                return
            p, q = Fraction(fp), Fraction(fq)
            if q - p <= _WIDTH:
                break
        m = polys.rational_between(p, q)
        s_m = sign_at(diff, m)
        if s_m == 0:
            found.append((*_argmin([rf.eval_exact(m) for rf in objectives]), m))
            return
        p, q = (m, q) if s_m == s_p else (p, m)
    while True:
        vp = [rf.eval_exact(p) for rf in objectives]
        vq = [rf.eval_exact(q) for rf in objectives]
        # the min of the up-objectives rises and that of the down-objectives
        # falls, so min(U(q), D(p)) bounds the objective on [p, q]
        high = min([vq[u] for u in up] + [vp[d] for d in dn])
        low, k = _argmin(vp)
        if high - low <= tol / 4:
            found.append((low, k, p))
            bounds.append(high)
            return
        if float(p) == float(q):
            raise NonConvergence(f"tol {float(tol):.3g} is below the float resolution")
        m = (p + q) / 2
        p, q = (m, q) if sign_at(diff, m) == s_p else (p, m)


def _cell_sup(cell: SupCell, tol: Fraction, found: list, bounds: list):
    """Append the cell's attained (value, index, point) candidates to found,
    and the bounds on its bisected crossings to bounds."""
    objectives = cell.objectives
    cuts, _ = polys.cut_at_roots(cell.critical_polys(), cell.lo, cell.hi)
    values = []
    for x in cuts:
        t = _point(x)
        values.append([rf.eval_exact(t) for rf in objectives])
        found.append((*_argmin(values[-1]), t))
    for x, y, vx, vy in zip(cuts, cuts[1:], values, values[1:]):
        # every objective is monotone on [x, y]; a constant one counts as both
        up = [i for i in range(len(objectives)) if not vy[i] < vx[i]]
        dn = [i for i in range(len(objectives)) if not vx[i] < vy[i]]
        for i, j in product(up, dn):
            if vx[i] < vx[j] and vy[j] < vy[i]:
                _crossing(cell, up, dn, i, j, x, y, tol, found, bounds)


def certified_sup(cells: list[SupCell], tol: Fraction | float) -> SupResult:
    """Certified bracket for sup over all cells of min_i f_i(sigma).

    Guarantees lower <= sup <= upper and upper - lower <= tol on success;
    the witness is an exact point whose objective value is >= lower, and
    active_index is the first objective attaining the min there.  An empty
    cell list yields the empty-supremum convention (-inf).  Raises
    OutOfDomain when tol is not positive or when a cell's denominators or
    critical-point polynomials have degree 3 or more (a crossing of any
    degree is fine), DenominatorVanishes when an objective has a pole in a
    closed cell, and NonConvergence when tol is narrower than the float
    bracket can be.

    Cells are visited by decreasing bound.  Each time the best attained
    value improves, floor = best - tol is formed once, and a cell with
    floor > bound is skipped: it cannot hold the witness nor raise the
    upper end.  The comparison is exact for a float bound too (a float is
    an exact rational), so a skipped cell is one the bound truly rules
    out, and neither which cells are skipped nor the order of the rest
    changes the result.  Ties still go to the first cell in list order.
    """
    if not tol > 0:
        raise OutOfDomain(f"tol must be positive, got {tol}")
    tol_f = float_down(Fraction(tol)) if not isinstance(tol, float) else tol
    if not cells:
        return SupResult(-inf, -inf, None, None)
    tol = Fraction(tol)
    found, bounds = [[] for _ in cells], []  # found is kept per cell, in list order
    best = floor = None
    order = sorted(range(len(cells)),
                   key=lambda i: -inf if cells[i].bound is None else -float(cells[i].bound))
    for i in order:
        cell = cells[i]
        if floor is not None and cell.bound is not None and floor > cell.bound:
            continue
        _cell_sup(cell, tol, found[i], bounds)
        top = max(found[i], key=itemgetter(0))[0]
        if best is None or top > best:
            best = top
            # as a BoundaryPoint, comparing it with a float bound is filtered
            # through float enclosures before any exact arithmetic
            floor = as_boundary(best - tol)
    value, index, witness = max(chain.from_iterable(found), key=itemgetter(0))
    lower = _value_bounds(value)[0]
    upper = _value_bounds(max([value] + bounds))[1]
    if upper - lower > tol_f:
        raise NonConvergence(f"tol {tol_f:.3g} cannot be met: the bracket is {upper - lower:.3g} wide")
    return SupResult(upper, lower, witness, index)
