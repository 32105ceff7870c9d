"""Polynomials with exact rational coefficients.

Roots are exact: a polynomial of degree 1 or 2 has rational or quadratic
surd roots, which come back as BoundaryPoints, and cut_at_roots is the one
place where an interval is cut at them.  Degree 3 or more raises
OutOfDomain: every table row, region boundary and mu critical point has
degree at most 2, and the one higher-degree polynomial on the mu path, a
cubic L2/L4 crossing, needs only signs, which optimize._crossing bisects on.

A polynomial's coefficients are Fractions or ints.  The per-theta kernels
keep integer coefficients c and a positive integer scale d for the rational
polynomial c/d: they evaluate by homogeneous integer Horner, with one
Fraction per value, and find roots from the integer discriminant.
"""

from fractions import Fraction
from math import lcm

from .errors import DenominatorVanishes, NonConvergence, OutOfDomain
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


def common_ints(*ps) -> tuple[list[tuple[int, ...]], int]:
    """([m*p for p in ps], m): the polynomials ps with integer coefficients,
    m the least common denominator of all their coefficients."""
    m = lcm(*(Fraction(x).denominator for p in ps for x in p))
    return [tuple(x.numerator * (m // x.denominator) for x in map(Fraction, p)) for p in ps], m


def int_form(p, den: int = 1) -> tuple[tuple[int, ...], int]:
    """(c, d) with integer c, a positive integer d and c/d = p/den: p's
    coefficients over their common denominator, trailing zeros dropped."""
    if all(type(x) is int for x in p):
        c = list(p)
    else:
        (c,), m = common_ints(p)
        c, den = list(c), den * m
    while c and c[-1] == 0:
        c.pop()
    return tuple(c), den


def lincomb(k: int, a: tuple[int, ...], j: int, b: tuple[int, ...]) -> tuple[int, ...]:
    """k*a + j*b for integer polynomials, trailing zeros dropped."""
    if len(a) < len(b):
        k, a, j, b = j, b, k, a
    c = [k * x for x in a]
    for i, y in enumerate(b):
        c[i] += j * y
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def hom_eval(a, p: int, q: int):
    """q^deg(a) * a(p/q) for q > 0: sum of a_k p^k q^(deg - k), an integer
    for integer coefficients; 0 for the zero polynomial."""
    if not a:
        return 0
    acc, qk = a[-1], 1
    for c in reversed(a[:-1]):
        qk *= q
        acc = acc * p + c * qk
    return acc


def surd_ints(x: BoundaryPoint) -> tuple[int, int, int]:
    """(P, Q, E) with x = (P + Q*sqrt(r))/E and E > 0."""
    e = lcm(x.p.denominator, x.q.denominator)
    return x.p.numerator * (e // x.p.denominator), x.q.numerator * (e // x.q.denominator), e


def hom_eval_surd(a, big_p: int, big_q: int, e: int, r: int):
    """(U, V) with E^deg(a) * a(x) = U + V*sqrt(r) at x = (P + Q*sqrt(r))/E."""
    if not a:
        return 0, 0
    u, v, ek, qr = a[-1], 0, 1, big_q * r
    for c in reversed(a[:-1]):
        ek *= e
        u, v = u * big_p + v * qr + c * ek, u * big_q + v * big_p
    return u, v


def ratio_at(num: Poly, den: Poly, x):
    """num(x)/den(x) exactly, at a Fraction or a BoundaryPoint x: a
    Fraction, or a BoundaryPoint in x's field.  Integer coefficients make
    this integer work up to one Fraction per value (two at a surd).
    Raises DenominatorVanishes when den(x) = 0."""
    if isinstance(x, BoundaryPoint):
        if x.q:
            big_p, big_q, e = surd_ints(x)
            r = x.r
            nu, nv = hom_eval_surd(num, big_p, big_q, e, r)
            du, dv = hom_eval_surd(den, big_p, big_q, e, r)
            # r is not a square, so du + dv*sqrt(r) vanishes iff its norm does
            norm = du * du - dv * dv * r
            if norm == 0:
                raise DenominatorVanishes(f"denominator vanishes at {x}")
            # multiply through by the conjugate du - dv*sqrt(r)
            u, v = nu * du - nv * dv * r, nv * du - nu * dv
            k = len(den) - len(num)
            if k >= 0:
                u, v = u * e**k, v * e**k
            else:
                norm *= e**-k
            val = BoundaryPoint(Fraction(u, norm), Fraction(v, norm), r)
            return val.p if val.q == 0 else val
        x = x.p
    p, q = x.numerator, x.denominator
    d = hom_eval(den, p, q)
    if d == 0:
        raise DenominatorVanishes(f"denominator vanishes at {x}")
    n, k = hom_eval(num, p, q), len(den) - len(num)
    return Fraction(n * q**k, d) if k >= 0 else Fraction(n, d * q**-k)


def sign_at(a: Poly, x) -> int:
    """Exact sign of a at a rational or a surd x."""
    x = as_boundary(x)
    if x.q == 0:
        v = hom_eval(a, x.p.numerator, x.p.denominator)
    else:
        u, v = hom_eval_surd(a, *surd_ints(x), x.r)
        return _surd_sign(u, v, x.r)
    return (v > 0) - (v < 0)


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


def _quadratic_roots(c: tuple[int, ...], d: int) -> list[BoundaryPoint]:
    """The real roots, ascending, of c/d for integer c of degree 1 or 2 and
    an integer d > 0.  The surd is read off the discriminant of c/d in lowest
    terms, so a root has the same canonical form however c/d is written."""
    if len(c) == 2:
        return [BoundaryPoint.rational(Fraction(-c[0], c[1]))]
    a0, a1, a2 = c
    disc = a1 * a1 - 4 * a2 * a0
    if disc < 0:
        return []
    base = Fraction(-a1, 2 * a2)
    if disc == 0:
        return [BoundaryPoint.rational(base)]
    root, r = sqrt_fraction(Fraction(disc, d * d))
    spread = root * d / (2 * a2)
    if r == 1:
        return [BoundaryPoint.rational(x) for x in sorted((base - spread, base + spread))]
    roots = [BoundaryPoint(base, -spread, r), BoundaryPoint(base, spread, r)]
    return roots if spread > 0 else roots[::-1]


def _roots_between(c: tuple[int, ...], d: int, lo: BoundaryPoint, hi: BoundaryPoint):
    """The roots of c/d in [lo, hi], ascending, for integer c of degree 1 or
    2 and an integer d > 0.  Which roots lie there is read off the exact
    signs of c and c' at lo and hi, so a root outside is never built."""
    s_lo, s_hi = sign_at(c, lo), sign_at(c, hi)
    if len(c) == 2:
        return _quadratic_roots(c, d) if s_lo * s_hi <= 0 else []
    a0, a1, a2 = c
    disc = a1 * a1 - 4 * a2 * a0
    g = 1 if a2 > 0 else -1
    s_lo, s_hi = g * s_lo, g * s_hi  # 1 outside the roots, -1 between, 0 on one
    if disc < 0 or s_lo < 0 and s_hi < 0:
        return []
    # g*c'(x) has the sign of x - v, v = -a1/(2*a2) the vertex
    deriv = (a1, 2 * a2)
    t_lo, t_hi = g * sign_at(deriv, lo), g * sign_at(deriv, hi)
    if disc == 0:
        return _quadratic_roots(c, d) if t_lo <= 0 <= t_hi else []
    # position from left to right: 0 before the first root, 1 on it, 2
    # between the roots, 3 on the second, 4 past it; off the middle x != v
    p_lo = 2 if s_lo < 0 else 2 + t_lo * (1 + s_lo)
    p_hi = 2 if s_hi < 0 else 2 + t_hi * (1 + s_hi)
    inside = (p_lo <= 1 <= p_hi, p_lo <= 3 <= p_hi)
    if not any(inside):
        return []
    return [r for r, keep in zip(_quadratic_roots(c, d), inside) if keep]


def roots_in_closed_interval(p: Poly, lo, hi, den: int = 1) -> list[ExactRoot]:
    """All distinct real roots of p/den in [lo, hi], in ascending order, as
    exact rationals or quadratic surds.

    Raises OutOfDomain when p has degree 3 or more: the tables and the mu
    objectives need no more, and a cubic L2/L4 crossing is bisected by its
    caller (optimize._crossing).  Raises ValueError on the zero polynomial
    and on lo > hi.
    """
    c, d = int_form(p, den)
    if not c:
        raise ValueError("zero polynomial has no isolated roots")
    if len(c) > 3:
        raise OutOfDomain(f"exact roots need degree <= 2, got degree {len(c) - 1}")
    lo, hi = as_boundary(lo), as_boundary(hi)
    if lo > hi:
        raise ValueError("empty interval")
    if len(c) == 1:
        return []
    return [ExactRoot(b) for b in _roots_between(c, d, lo, hi)]


def cut_at_roots(ps, lo, hi) -> tuple[list[BoundaryPoint], list[BoundaryPoint]]:
    """Cut [lo, hi] at the roots of the nonzero polynomials p/den, for the
    pairs (p, den) in ps.

    Returns (cuts, exact): cuts are the distinct points lo, ..., hi in
    ascending order, on every stretch between two of them each polynomial
    has one nonzero sign, and exact lists the roots.  Of equal points the
    first one found is kept, lo and hi before the roots.  Raises OutOfDomain
    when some p has degree 3 or more (see roots_in_closed_interval).
    """
    lo, hi = as_boundary(lo), as_boundary(hi)
    exact = [root.point for p, den in ps for root in roots_in_closed_interval(p, lo, hi, den)]
    points = sorted([lo, hi] + exact)
    cuts = [x for i, x in enumerate(points) if i == 0 or points[i - 1] < x]
    return cuts, exact
