"""Piecewise rational bounds in sigma on [0, sigma_cap).

A PiecewiseBound is an ordered list of abutting pieces, each carrying one
rational-function formula (or the symbolic value -infinity).  Evaluation is
upper-regularized: at a shared breakpoint the larger of the two adjacent
formula values is returned, so the function is an upper-semicontinuous
majorant of whatever the individual rows bound.
"""

from bisect import bisect_right
from fractions import Fraction
from math import inf

from . import polys
from .errors import DenominatorVanishes, DomainMismatch, OutOfDomain
from .exact import BoundaryPoint, as_boundary
from .optimize import SupCell, certified_sup
from .polys import Poly, pmul, pscale, psub, ptrim, rational_between

_MAX_TOL = Fraction(1, 10**9)

ExactValue = Fraction | BoundaryPoint


def _fmt_poly(p: Poly) -> str:
    if not p:
        return "0"

    def render(indices) -> str:
        terms = []
        for k in indices:
            c = p[k]
            if c == 0:
                continue
            if k == 0:
                body = str(abs(c))
            else:
                mag = abs(c)
                coeff = "" if mag == 1 else f"{mag}*"
                body = f"{coeff}s" if k == 1 else f"{coeff}s^{k}"
            if not terms:
                terms.append(body if c > 0 else f"-{body}")
            else:
                terms.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(terms) if terms else "0"

    desc = render(range(len(p) - 1, -1, -1))
    if desc.startswith("-"):
        asc = render(range(len(p)))
        if not asc.startswith("-"):
            return asc
    return desc


class RationalFunction:
    """P(s)/Q(s) with exact rational coefficients.

    Exact evaluation works at rationals and at quadratic surds (the value
    then lives in the same field).
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=(Fraction(1),)):
        self.num = ptrim(num)
        self.den = ptrim(den)
        if not self.den:
            raise ZeroDivisionError("identically zero denominator")

    @classmethod
    def constant(cls, c) -> "RationalFunction":
        return cls((Fraction(c),))

    def eval_exact(self, x: "ExactValue") -> ExactValue:
        if isinstance(x, BoundaryPoint) and not x.is_rational:
            return polys.ratio_at(self.num, self.den, x)
        xf = x.as_fraction() if isinstance(x, BoundaryPoint) else Fraction(x)
        den = polys.peval(self.den, xf)
        if den == 0:
            raise DenominatorVanishes(f"denominator vanishes at {xf}")
        return polys.peval(self.num, xf) / den

    # -- algebra ---------------------------------------------------------

    def scale(self, k) -> "RationalFunction":
        return RationalFunction(pscale(self.num, k), self.den)

    def same_function(self, other: "RationalFunction") -> bool:
        return pmul(self.num, other.den) == pmul(other.num, self.den)

    def __str__(self) -> str:
        num, den = _fmt_poly(self.num), _fmt_poly(self.den)
        if self.den == (Fraction(1),):
            return num
        ns = num if ("+" not in num and "- " not in num) else f"({num})"
        return f"{ns}/({den})"

    def __repr__(self) -> str:
        return f"RationalFunction({self})"


class Piece:
    """One row of a piecewise bound: a formula valid on [lo, hi)."""

    __slots__ = ("lo", "hi", "rf", "provenance")

    def __init__(self, lo, hi, rf: RationalFunction | None, provenance: str = ""):
        self.lo = as_boundary(lo)
        self.hi = as_boundary(hi)
        if not self.lo < self.hi:
            raise ValueError(f"empty piece [{self.lo}, {self.hi})")
        self.rf = rf  # None encodes the value -infinity on this piece
        self.provenance = provenance

    def value_at(self, s: ExactValue):
        if self.rf is None:
            return -inf
        return self.rf.eval_exact(s)

    def __repr__(self) -> str:
        body = "-inf" if self.rf is None else str(self.rf)
        return f"Piece([{self.lo}, {self.hi}) -> {body}; {self.provenance})"


def _exact_max(values):
    """Maximum of exact values and -inf sentinels, compared exactly."""
    best = -inf
    for v in values:
        if isinstance(v, float):
            continue  # -inf piece
        if isinstance(best, float) or as_boundary(v) > as_boundary(best):
            best = v
    return best


class PiecewiseBound:
    """Ordered, exactly-abutting pieces covering [0, sigma_cap)."""

    __slots__ = ("pieces", "_los", "_maxima", "_int_rows")

    def __init__(self, pieces):
        pieces = tuple(pieces)
        if not pieces:
            raise ValueError("no pieces")
        for a, b in zip(pieces, pieces[1:]):
            if not a.hi == b.lo:
                raise ValueError(f"gap or overlap between {a} and {b}")
        self.pieces = pieces
        self._los = [p.lo for p in pieces]
        self._maxima: dict[int, Fraction | None] = {}
        self._int_rows: dict[int, tuple] = {}

    @property
    def lo(self) -> BoundaryPoint:
        return self.pieces[0].lo

    @property
    def sigma_cap(self) -> BoundaryPoint:
        return self.pieces[-1].hi

    def breakpoints(self) -> list[BoundaryPoint]:
        return [p.lo for p in self.pieces] + [self.sigma_cap]

    def indices_at(self, s) -> list[int]:
        """Indices of the pieces whose closed cell contains s: one, or the
        two sharing a breakpoint.  Bisects on the exact piece starts."""
        s = as_boundary(s)
        if s < self.lo or s >= self.sigma_cap:
            raise OutOfDomain(f"sigma={s} outside [{self.lo}, {self.sigma_cap})")
        i = bisect_right(self._los, s) - 1
        return [i - 1, i] if i > 0 and self._los[i] == s else [i]

    def pieces_at(self, s) -> list[Piece]:
        return [self.pieces[i] for i in self.indices_at(s)]

    def piece_max(self, k: int) -> Fraction | None:
        """An upper bound, within 1e-9, on piece k's formula over its closed
        cell (None for -inf), computed once; a pole in the closed cell
        raises DenominatorVanishes, and a denominator or critical-point
        polynomial of degree 3 or more raises OutOfDomain (certified_sup)."""
        if k not in self._maxima:
            p = self.pieces[k]
            self._maxima[k] = None if p.rf is None else Fraction(
                certified_sup([SupCell(p.lo, p.hi, [p.rf])], _MAX_TOL).upper)
        return self._maxima[k]

    def int_row(self, k: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        """(P, Q, m) with integer P and Q: piece k's formula is (P/m)/(Q/m),
        m the least common denominator of its coefficients; computed once."""
        if k not in self._int_rows:
            rf = self.pieces[k].rf
            (p, q), m = polys.common_ints(rf.num, rf.den)
            self._int_rows[k] = p, q, m
        return self._int_rows[k]

    def evaluate_upper(self, s):
        """Upper-regularized value at s: the max over all pieces touching s."""
        return _exact_max(p.value_at(as_boundary(s)) for p in self.pieces_at(s))

    def scale(self, k) -> "PiecewiseBound":
        k = Fraction(k)
        return PiecewiseBound(
            Piece(p.lo, p.hi, None if p.rf is None else p.rf.scale(k), p.provenance)
            for p in self.pieces
        )

    def restrict(self, lo, hi) -> "PiecewiseBound":
        """The sub-bound on [lo, hi), splitting pieces as needed."""
        lo, hi = as_boundary(lo), as_boundary(hi)
        if lo < self.lo or hi > self.sigma_cap or not lo < hi:
            raise OutOfDomain(f"[{lo}, {hi}) not within [{self.lo}, {self.sigma_cap})")
        out = []
        for p in self.pieces:
            a = p.lo if p.lo > lo else lo
            b = p.hi if p.hi < hi else hi
            if a < b:
                out.append(Piece(a, b, p.rf, p.provenance))
        return PiecewiseBound(out)

    def __repr__(self) -> str:
        return f"PiecewiseBound({len(self.pieces)} pieces on [{self.lo}, {self.sigma_cap}))"


def concat(a: PiecewiseBound, b: PiecewiseBound) -> PiecewiseBound:
    if not a.sigma_cap == b.lo:
        raise DomainMismatch("bounds do not abut")
    return PiecewiseBound(a.pieces + b.pieces)


def _merged_cells(a: PiecewiseBound, b: PiecewiseBound):
    """Common refinement: yields (lo, hi, ka, kb), with ka and kb the indices
    of the pieces of a and of b that contain [lo, hi]."""
    cuts: list[BoundaryPoint] = []
    for bp in sorted(a.breakpoints() + b.breakpoints()):
        if not cuts or cuts[-1] < bp:
            cuts.append(bp)
    ia = ib = 0
    for lo, hi in zip(cuts, cuts[1:]):
        while not a.pieces[ia].hi > lo:
            ia += 1
        while not b.pieces[ib].hi > lo:
            ib += 1
        yield lo, hi, ia, ib


def pointwise_min(a: PiecewiseBound, b: PiecewiseBound) -> PiecewiseBound:
    """Pointwise minimum of two bounds over the same domain.

    On each cell of the common refinement the formulas' crossing points are
    inserted as new breakpoints, exactly: they are rational or quadratic
    over Q.  Raises OutOfDomain when a crossing polynomial has degree 3 or
    more (polys.roots_in_closed_interval).
    """
    if not (a.lo == b.lo and a.sigma_cap == b.sigma_cap):
        raise DomainMismatch(
            f"domains differ: [{a.lo}, {a.sigma_cap}) vs [{b.lo}, {b.sigma_cap})"
        )
    out: list[Piece] = []

    def emit(lo, hi, rf, prov):
        if out and out[-1].provenance == prov and (
            (out[-1].rf is None and rf is None)
            or (out[-1].rf is not None and rf is not None and out[-1].rf.same_function(rf))
        ):
            prev = out.pop()
            out.append(Piece(prev.lo, hi, prev.rf, prev.provenance))
        else:
            out.append(Piece(lo, hi, rf, prov))

    for lo, hi, ka, kb in _merged_cells(a, b):
        pa, pb = a.pieces[ka], b.pieces[kb]
        if pa.rf is None or pb.rf is None:
            none_side = pa if pa.rf is None else pb
            emit(lo, hi, None, none_side.provenance)
            continue
        diff = psub(pmul(pa.rf.num, pb.rf.den), pmul(pb.rf.num, pa.rf.den))
        if not diff:
            emit(lo, hi, pa.rf, pa.provenance)
            continue
        cuts, _ = polys.cut_at_roots([(diff, 1)], lo, hi)
        for x, y in zip(cuts, cuts[1:]):
            t = rational_between(x, y)
            winner = pa if pa.rf.eval_exact(t) <= pb.rf.eval_exact(t) else pb
            emit(x, y, winner.rf, winner.provenance)
    return PiecewiseBound(out)


def feasible_region(pw: PiecewiseBound, c: Fraction) -> list[tuple[BoundaryPoint, BoundaryPoint]]:
    """Maximal closed intervals where the regularized bound is >= c.

    Each piece is solved on its closed cell [lo, hi]; since regularization
    takes the max of adjacent pieces at breakpoints, the union over closed
    cells is exactly the upper level set.  Pieces whose maximum is below c
    are skipped unsolved.  Endpoints are exact: each crossing of a row with
    c is rational or quadratic.  A piece that is solved or bounded raises
    OutOfDomain when its crossing with c, its denominator or its
    critical-point polynomial has degree 3 or more
    (polys.roots_in_closed_interval), and DenominatorVanishes when it has a
    pole (piece_max).
    """
    c = Fraction(c)
    n, d = c.numerator, c.denominator
    intervals: list[tuple[BoundaryPoint, BoundaryPoint]] = []
    for k, piece in enumerate(pw.pieces):
        top = pw.piece_max(k)
        if top is None or top < c:
            continue
        # rf - c = (d*P - n*Q)/(d*Q) for the row's integer P/Q and c = n/d
        p, q, m = pw.int_row(k)
        diff = polys.lincomb(d, p, -n, q)
        if not diff:
            intervals.append((piece.lo, piece.hi))
            continue
        cuts, exact = polys.cut_at_roots([(diff, d * m)], piece.lo, piece.hi)
        # equality points are feasible on their own, possibly isolated
        intervals += [(x, x) for x in exact]
        for x, y in zip(cuts, cuts[1:]):
            # d*P - n*Q has one sign on the stretch, read at an end where it
            # does not vanish (or inside), and Q has one sign on the piece
            # (piece_max(k) has ruled out a pole), so rf > c there iff their
            # product is > 0
            if (polys.sign_at(diff, x) or polys.sign_at(diff, y) or polys.sign_at(
                    diff, rational_between(x, y))) * polys.sign_at(q, x) > 0:
                intervals.append((x, y))

    intervals.sort()
    merged: list[tuple[BoundaryPoint, BoundaryPoint]] = []
    for lo, hi in intervals:
        if merged and not merged[-1][1] < lo:
            plo, phi = merged[-1]
            merged[-1] = (plo, hi if hi > phi else phi)
        else:
            merged.append((lo, hi))
    # the domain is half-open at sigma_cap
    return [iv for iv in merged if iv[0] < pw.sigma_cap]
