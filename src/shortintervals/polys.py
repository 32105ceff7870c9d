"""Polynomials with exact rational coefficients.

Supports the root classification needed by the piecewise algebra: linear and
quadratic factors give exact BoundaryPoint roots, anything of higher degree
falls back to Sturm isolation with certified rational brackets.  cut_at_roots
is the one place where an interval is cut at such roots.
"""

from fractions import Fraction

from .errors import NonConvergence, OutOfDomain
from .exact import BoundaryPoint, _surd_sign, as_boundary, sqrt_fraction

Poly = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def ptrim(coeffs) -> Poly:
    # Fraction(x) of a Fraction is slow (an abstract-base-class check) and
    # most coefficients already are Fractions
    c = [x if type(x) is Fraction else Fraction(x) for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def pdegree(p: Poly) -> int:
    return len(p) - 1


def padd(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return ptrim(
        [(a[i] if i < len(a) else ZERO) + (b[i] if i < len(b) else ZERO) for i in range(n)]
    )


def pneg(a: Poly) -> Poly:
    return tuple(-x for x in a)


def psub(a: Poly, b: Poly) -> Poly:
    return padd(a, pneg(b))


def pmul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ptrim(out)


def pscale(a: Poly, k) -> Poly:
    k = Fraction(k)
    if k == 0:
        return ()
    return tuple(x * k for x in a)


def pderiv(a: Poly) -> Poly:
    return ptrim([i * a[i] for i in range(1, len(a))])


def peval(a: Poly, x: Fraction) -> Fraction:
    acc = ZERO
    for c in reversed(a):
        acc = acc * x + c
    return acc


def peval_surd(a: Poly, x: BoundaryPoint) -> tuple[Fraction, Fraction]:
    """(u, v) with a(x) = u + v*sqrt(r) for x = p + q*sqrt(r), by one Horner
    loop over rational pairs."""
    if not a:
        return ZERO, ZERO
    p, q, qr = x.p, x.q, x.q * x.r
    u, v = a[-1], ZERO
    for c in reversed(a[:-1]):
        u, v = u * p + v * qr + c, u * q + v * p
    return u, v


def sign_at(a: Poly, x) -> int:
    x = as_boundary(x)
    if x.is_rational:
        v = peval(a, x.as_fraction())
        return (v > 0) - (v < 0)
    return _surd_sign(*peval_surd(a, x), x.r)


def pdivmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [ZERO] * max(0, len(a) - len(b) + 1)
    rem = list(a)
    db, lead = len(b) - 1, b[-1]
    while len(rem) - 1 >= db and any(x != 0 for x in rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < db:
            break
        k = len(rem) - 1 - db
        f = rem[-1] / lead
        q[k] = f
        for i, c in enumerate(b):
            rem[k + i] -= f * c
        rem.pop()
    return ptrim(q), ptrim(rem)


def _monic(a: Poly) -> Poly:
    return tuple(x / a[-1] for x in a) if a else a


def pgcd(a: Poly, b: Poly) -> Poly:
    a, b = ptrim(a), ptrim(b)
    while b:
        a, b = b, pdivmod(a, b)[1]
    return _monic(a)


def squarefree_part(a: Poly) -> Poly:
    """a divided by gcd(a, a'), preserving the root set with simple roots."""
    a = ptrim(a)
    if pdegree(a) <= 1:
        return a
    g = pgcd(a, pderiv(a))
    if pdegree(g) == 0:
        return a
    return pdivmod(a, g)[0]


def sturm_chain(p: Poly) -> list[Poly]:
    chain = [ptrim(p), pderiv(p)]
    while chain[-1]:
        rem = pdivmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(pneg(rem))
    return [c for c in chain if c]


def _variations(chain: list[Poly], x) -> int:
    signs = [s for s in (sign_at(c, x) for c in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_open(chain: list[Poly], lo, hi) -> int:
    """Number of distinct roots in the open interval (lo, hi), p square-free."""
    # Sturm gives roots in (lo, hi]; subtract hi if it is a root
    n = _variations(chain, lo) - _variations(chain, hi)
    if sign_at(chain[0], hi) == 0:
        n -= 1
    return n


def rational_between(a, b) -> Fraction:
    """Some exact rational strictly inside (a, b); endpoints may be surds."""
    a, b = as_boundary(a), as_boundary(b)
    fa, fb = float(a), float(b)
    m = Fraction(0.5 * (fa + fb))
    if a < m < b:
        return m
    if not a < b:
        raise OutOfDomain(f"no rational strictly between {a} and {b}")
    prec = 64
    while True:
        a_hi = a.enclose_fraction(prec)[1]
        b_lo = b.enclose_fraction(prec)[0]
        if a_hi < b_lo:
            m = (a_hi + b_lo) / 2
            if a < m < b:
                return m
        prec *= 2
        if prec > 1 << 16:
            raise NonConvergence(f"failed to separate {a} and {b}")


class ExactRoot:
    """A root represented exactly as a BoundaryPoint."""

    __slots__ = ("point",)

    def __init__(self, point: BoundaryPoint):
        self.point = point

    def __repr__(self):
        return f"ExactRoot({self.point})"


class BracketedRoot:
    """An irrational, non-quadratic root enclosed in [lo, hi] (rationals)."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        self.lo = lo
        self.hi = hi

    def __repr__(self):
        return f"BracketedRoot([{self.lo}, {self.hi}])"


Root = ExactRoot | BracketedRoot

DEFAULT_BRACKET_WIDTH = Fraction(1, 10**12)


def _quadratic_roots(p: Poly) -> list[BoundaryPoint]:
    if pdegree(p) == 1:
        return [BoundaryPoint.rational(-p[0] / p[1])]
    a2, a1, a0 = p[2], p[1], p[0]
    disc = a1 * a1 - 4 * a2 * a0
    if disc < 0:
        return []
    if disc == 0:
        return [BoundaryPoint.rational(-a1 / (2 * a2))]
    c, r = sqrt_fraction(disc)
    if r == 1:
        lo = (-a1 - c) / (2 * a2)
        hi = (-a1 + c) / (2 * a2)
        return sorted(
            (BoundaryPoint.rational(lo), BoundaryPoint.rational(hi)),
            key=lambda b: b.as_fraction(),
        )
    base, spread = -a1 / (2 * a2), c / (2 * a2)
    roots = [BoundaryPoint(base, -spread, r), BoundaryPoint(base, spread, r)]
    if roots[0] > roots[1]:
        roots.reverse()
    return roots


def _refine_bracket(p: Poly, lo: Fraction, hi: Fraction, width: Fraction) -> Root:
    """Shrink an isolating interval (simple root, sign change) to width."""
    s_lo = sign_at(p, lo)
    while hi - lo > width:
        mid = rational_between(lo, hi)
        s_mid = sign_at(p, mid)
        if s_mid == 0:
            return ExactRoot(BoundaryPoint.rational(mid))
        if s_mid == s_lo:
            lo = mid
        else:
            hi = mid
    return BracketedRoot(lo, hi)


def roots_in_closed_interval(
    p: Poly, lo, hi, bracket_width: Fraction = DEFAULT_BRACKET_WIDTH
) -> list[Root]:
    """All distinct real roots of p in [lo, hi], in ascending order.

    Roots of linear/quadratic square-free parts come back exact; higher
    degree irrational roots come back as BracketedRoot enclosures no wider
    than bracket_width.  Raises on the zero polynomial.
    """
    p = ptrim(p)
    if not p:
        raise ValueError("zero polynomial has no isolated roots")
    lo, hi = as_boundary(lo), as_boundary(hi)
    if lo > hi:
        raise ValueError("empty interval")
    # a quadratic's double root comes back once from _quadratic_roots, so
    # only higher degrees need the gcd
    sf = squarefree_part(p) if pdegree(p) > 2 else p
    if pdegree(sf) <= 0:
        return []
    if pdegree(sf) <= 2:
        roots = [ExactRoot(b) for b in _quadratic_roots(sf) if lo <= b <= hi]
        return roots

    out: list[Root] = []
    if sign_at(sf, lo) == 0:
        out.append(ExactRoot(lo))
    if lo == hi:
        return out

    chain = sturm_chain(sf)
    stack = [(lo, hi)]
    isolated: list[tuple[Fraction, Fraction]] = []
    exacts: list[BoundaryPoint] = []
    while stack:
        a, b = stack.pop()
        n = count_roots_open(chain, a, b)
        if n == 0:
            continue
        mid = rational_between(a, b)
        if sign_at(sf, mid) == 0:
            exacts.append(BoundaryPoint.rational(mid))
            stack.append((a, mid))
            stack.append((mid, b))
            continue
        if n == 1:
            # shrink until the endpoints are rational and sign-definite
            aa, bb = a, b
            while not (as_boundary(aa).is_rational and as_boundary(bb).is_rational):
                m2 = rational_between(aa, bb)
                s2 = sign_at(sf, m2)
                if s2 == 0:
                    exacts.append(BoundaryPoint.rational(m2))
                    aa = None
                    break
                if count_roots_open(chain, aa, m2) == 1:
                    bb = m2
                else:
                    aa = m2
            if aa is not None:
                isolated.append((as_boundary(aa).as_fraction(), as_boundary(bb).as_fraction()))
            continue
        stack.append((a, mid))
        stack.append((mid, b))

    for a, b in isolated:
        out.append(_refine_bracket(sf, a, b, bracket_width))
    for e in exacts:
        out.append(ExactRoot(e))
    if sign_at(sf, hi) == 0:
        out.append(ExactRoot(hi))

    # bracket lo is never itself a root, so the keys are distinct
    out.sort(key=lambda root: root.point if isinstance(root, ExactRoot) else root.lo)
    return out


def cut_at_roots(
    ps, lo, hi, bracket_width: Fraction = DEFAULT_BRACKET_WIDTH
) -> tuple[list[BoundaryPoint], list[bool], list[BoundaryPoint]]:
    """Cut [lo, hi] at the roots of the nonzero polynomials ps.

    Returns (cuts, bracketed, exact): cuts are the distinct points lo, ..., hi
    in ascending order; bracketed[k] tells whether [cuts[k], cuts[k+1]] lies
    inside the certified bracket of an inexact root, and on every other
    stretch each polynomial has one nonzero sign; exact lists the exact roots.
    Of equal points the first one found is kept, lo and hi before the roots.
    """
    lo, hi = as_boundary(lo), as_boundary(hi)
    points, brackets, exact = [lo, hi], [], []
    for p in ps:
        for root in roots_in_closed_interval(p, lo, hi, bracket_width):
            if isinstance(root, ExactRoot):
                exact.append(root.point)
                points.append(root.point)
            else:
                brackets.append((as_boundary(root.lo), as_boundary(root.hi)))
                points += brackets[-1]
    points.sort()
    cuts = [x for i, x in enumerate(points) if i == 0 or points[i - 1] < x]
    bracketed = [any(p <= x and y <= q for p, q in brackets) for x, y in zip(cuts, cuts[1:])]
    return cuts, bracketed, exact
