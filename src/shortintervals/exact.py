"""Exact arithmetic primitives: rationals, quadratic surds, directed rounding.

Comparisons between table breakpoints must be exact, because feasibility
regions can degenerate to a single point.  Every sign returned here is the
exact sign.  A comparison first looks at float approximations with a proven
error bound and lets them decide only when their enclosures are separated;
near-ties are decided by integer arithmetic on ``fractions.Fraction``.
Floats also appear at the end, where ``float_down``/``float_up`` round an
exact value outward into a certified bracket.
"""

import math
from fractions import Fraction
from functools import lru_cache
from math import inf, isqrt

from .errors import MixedSurds

RationalLike = int | Fraction

_SMALL_PRIMES: list[int] = []


def _small_primes(bound: int = 10_000) -> list[int]:
    if not _SMALL_PRIMES:
        sieve = bytearray([1]) * (bound + 1)
        sieve[0] = sieve[1] = 0
        for p in range(2, isqrt(bound) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
        _SMALL_PRIMES.extend(i for i in range(2, bound + 1) if sieve[i])
    return _SMALL_PRIMES


# every surd operation re-normalizes its radicand; each theta brings a few new
# ones, so recent radicands are kept and the cache stays bounded
@lru_cache(maxsize=1 << 10)
def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n = s^2 * m and return (s, m).

    m is square-free whenever all square factors of n involve small primes
    or n/s^2 is a perfect square; larger undetected square factors only
    affect the canonical shape of a surd, never the result of a comparison.
    """
    if n < 0:
        raise ValueError("negative radicand")
    if n in (0, 1):
        return 1, n
    s, m = 1, n
    # full trial division is only worthwhile for moderate radicands; huge
    # discriminants get a cheap pass (comparisons never depend on this)
    prime_cap = 10_000 if m <= 10**8 else 100
    for p in _small_primes():
        if p > prime_cap or p * p > m:
            break
        while m % (p * p) == 0:
            m //= p * p
            s *= p
    root = isqrt(m)
    if root * root == m:
        s, m = s * root, 1
    return s, m


def sqrt_fraction(x: Fraction) -> tuple[Fraction, int]:
    """Return (c, r) with sqrt(x) = c*sqrt(r), r a (best-effort) square-free int."""
    if x < 0:
        raise ValueError("negative radicand")
    n = x.numerator * x.denominator
    s, m = squarefree_decompose(n)
    return Fraction(s, x.denominator), m


def float_down(x: Fraction) -> float:
    """Largest double <= x (for |x| within double range)."""
    f = float(x)
    if math.isinf(f):
        return math.nextafter(f, -math.inf) if f > 0 else f
    if Fraction(f) > x:
        f = math.nextafter(f, -math.inf)
    return f


def float_up(x: Fraction) -> float:
    """Smallest double >= x."""
    f = float(x)
    if math.isinf(f):
        return math.nextafter(f, math.inf) if f < 0 else f
    if Fraction(f) < x:
        f = math.nextafter(f, math.inf)
    return f


def _sign(x: Fraction | int) -> int:
    return (x > 0) - (x < 0)


def _surd_sign(p: Fraction, q: Fraction, r: int) -> int:
    """Exact sign of p + q*sqrt(r), r >= 0, by squaring away the surd."""
    if q == 0 or r == 0:
        return _sign(p)
    if r == 1:
        return _sign(p + q)
    if q > 0:
        if p >= 0:
            return 1
        # p < 0: compare q^2 r against p^2
        return _sign(q * q * r - p * p)
    return -_surd_sign(-p, -q, r)


# relative and absolute parts of a float enclosure's error bound; see
# BoundaryPoint._enclosure for the argument
_REL = 2.0**-48
_TINY = 2.0**-1000


def _rational_enclosure(x: RationalLike | Fraction) -> tuple[float, float]:
    """Float enclosure (f, e) of an int or Fraction: |f - x| <= e."""
    try:
        f = float(x)
    except OverflowError:
        return 0.0, inf
    return f, abs(f) * _REL + _TINY


class BoundaryPoint:
    """An exact real of the form p + q*sqrt(r) with p, q rational, r >= 0 integer.

    Breakpoints of the exponent tables are of this shape (most are plain
    rationals; a few are surds such as (539 - sqrt(42121))/460).  Comparison
    against any other BoundaryPoint is exact, including when the two surds
    differ.  A float enclosure with a proven error bound decides the order
    only when the two enclosures are clearly apart; otherwise the sign is
    decided in rational arithmetic.  Arithmetic is closed within a single
    field Q(sqrt(r)), also when the two operands write it with radicands
    whose product is a square; combining surds of two distinct fields raises
    ``MixedSurds``, which the tables never require.
    """

    __slots__ = ("p", "q", "r", "_f", "_e")

    def __init__(self, p: RationalLike | Fraction, q: RationalLike = 0, r: int = 0):
        p = Fraction(p)
        q = Fraction(q)
        r = int(r)
        if r < 0:
            raise ValueError("negative radicand")
        if q == 0 or r == 0:
            q, r = Fraction(0), 0
        elif r == 1:
            p, q, r = p + q, Fraction(0), 0
        else:
            s, m = squarefree_decompose(r)
            if m in (0, 1):
                p, q, r = p + q * s, Fraction(0), 0
            elif s != 1:
                q, r = q * s, m
        self.p = p
        self.q = q
        self.r = r
        self._e = None

    def _enclosure(self) -> tuple[float, float]:
        """Float enclosure (f, e) with |f - value| <= e, computed once.

        f = float(p) + float(q)*sqrt(r) and
        e = (|float(p)| + |float(q)*sqrt(r)|) * 2^-48 + (1 + sqrt(r)) * 2^-1000.
        float() of an int or a Fraction is correctly rounded (int true
        division), and so are math.sqrt, the product and the sum: at most
        six roundings, each off by a relative 2^-53 at most, so the relative
        part of the error is below 6 * 2^-53 < 2^-50 of |p| + |q*sqrt(r)|
        (and of the computed terms, which differ from those by far less).
        A rounding into the subnormal range is instead off by up to 2^-1075
        absolutely; only float(q)'s can be magnified, by the factor sqrt(r),
        hence (1 + sqrt(r)) * 2^-1000.  A value out of float range raises
        OverflowError or makes e infinite; e = inf then sends every
        comparison with the point to the exact path.
        """
        e = self._e
        if e is not None:
            return self._f, e
        try:
            f = float(self.p)
            if self.q:
                sr = math.sqrt(self.r)
                t = float(self.q) * sr
                e = (abs(f) + abs(t)) * _REL + (1.0 + sr) * _TINY
                f += t
            else:
                e = abs(f) * _REL + _TINY
        except OverflowError:
            e = inf
        if e == inf:
            f = 0.0
        self._f, self._e = f, e
        return f, e

    def float_bounds(self) -> tuple[float, float]:
        """Floats lo <= value <= hi from the cached enclosure, (-inf, inf)
        for a value out of float range."""
        f, e = self._enclosure()
        return math.nextafter(f - e, -inf), math.nextafter(f + e, inf)

    @classmethod
    def rational(cls, x: RationalLike | Fraction) -> "BoundaryPoint":
        return cls(Fraction(x))

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.p

    def sign(self) -> int:
        return _surd_sign(self.p, self.q, self.r)

    # -- comparisons ----------------------------------------------------

    def _compare(self, other: "BoundaryPoint | RationalLike | Fraction") -> int:
        fa, ea = self._enclosure()
        if isinstance(other, BoundaryPoint):
            fb, eb = other._enclosure()
        elif isinstance(other, (int, Fraction)):
            fb, eb = _rational_enclosure(other)
        elif isinstance(other, float):
            # a float is its own exact enclosure; every point is finite
            if math.isinf(other):
                return -1 if other > 0 else 1
            fb, eb = other, 0.0
        else:
            other = as_boundary(other)
            fb, eb = other._enclosure()
        # the enclosures are apart by more than their widths: the computed
        # difference, off by a relative 2^-53 at most, has the exact sign
        d = fa - fb
        margin = 2.0 * (ea + eb)
        if d > margin:
            return 1
        if -d > margin:
            return -1
        other = as_boundary(other)
        if self.q == 0 and other.q == 0:
            a, b = self.p, other.p
            return 0 if a == b else (1 if a > b else -1)
        if self.q == 0 or other.q == 0 or self.r == other.r:
            r = self.r if self.q != 0 else other.r
            return _surd_sign(self.p - other.p, self.q - other.q, r)
        # distinct surds: compare (dp + q sqrt(r)) against q' sqrt(r')
        dp = self.p - other.p
        sa = _surd_sign(dp, self.q, self.r)
        sb = _sign(other.q)
        if sa != sb:
            return -1 if sa < sb else 1
        if sa == 0:
            return 0
        # both sides share sign sa; square once more
        d2 = _surd_sign(
            dp * dp + self.q * self.q * self.r - other.q * other.q * other.r,
            2 * dp * self.q,
            self.r,
        )
        return d2 if sa > 0 else -d2

    def __eq__(self, other) -> bool:
        if isinstance(other, (BoundaryPoint, int, Fraction)):
            return self._compare(other) == 0
        return NotImplemented

    def __lt__(self, other) -> bool:
        return self._compare(other) < 0

    def __le__(self, other) -> bool:
        return self._compare(other) <= 0

    def __gt__(self, other) -> bool:
        return self._compare(other) > 0

    def __ge__(self, other) -> bool:
        return self._compare(other) >= 0

    # -- field arithmetic (single surd) ---------------------------------

    def _coerce(self, other) -> "tuple[Fraction, Fraction, int] | None":
        """(p, q, r) with other = p + q*sqrt(r) over the common radicand r, or
        None when other is not a number.  A surd over another radicand r'
        shares self's field when r*r' = k^2: then sqrt(r') = (k/r)*sqrt(r)."""
        if isinstance(other, (int, Fraction)):
            return Fraction(other), Fraction(0), self.r
        if not isinstance(other, BoundaryPoint):
            return None
        if self.q == 0 or other.q == 0 or self.r == other.r:
            return other.p, other.q, (self.r if self.q != 0 else other.r)
        k = isqrt(self.r * other.r)
        if k * k != self.r * other.r:
            raise MixedSurds(
                f"arithmetic across distinct surds sqrt({self.r}), sqrt({other.r})"
            )
        return other.p, other.q * k / self.r, self.r

    def __add__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        p, q, r = co
        return BoundaryPoint(self.p + p, self.q + q, r)

    __radd__ = __add__

    def __neg__(self):
        return BoundaryPoint(-self.p, -self.q, self.r)

    def __sub__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        p, q, r = co
        return BoundaryPoint(self.p - p, self.q - q, r)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        p, q, r = co
        return BoundaryPoint(self.p * p + self.q * q * r, self.p * q + self.q * p, r)

    __rmul__ = __mul__

    def inverse(self) -> "BoundaryPoint":
        if self.q == 0:
            if self.p == 0:
                raise ZeroDivisionError("inverse of zero")
            return BoundaryPoint(1 / self.p)
        norm = self.p * self.p - self.q * self.q * self.r
        if norm == 0:
            raise ZeroDivisionError("inverse of zero")
        return BoundaryPoint(self.p / norm, -self.q / norm, self.r)

    def __truediv__(self, other):
        if self._coerce(other) is None:
            return NotImplemented
        return self * as_boundary(other).inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    # -- enclosures ------------------------------------------------------

    def enclose_fraction(self, precision: int = 53) -> tuple[Fraction, Fraction]:
        """Exact rational bounds lo <= value <= hi.

        Width is at most 2^-precision * max(1, |value|); for rationals the
        enclosure is the point itself.
        """
        if precision < 1:
            raise ValueError("precision must be >= 1")
        if self.q == 0:
            return self.p, self.p
        qa = abs(self.q)
        extra = (qa.numerator // qa.denominator + 1).bit_length() + 1
        k = precision + extra
        s = isqrt(self.r << (2 * k))
        lo_rt = Fraction(s, 1 << k)
        hi_rt = Fraction(s + 1, 1 << k)
        if self.q > 0:
            return self.p + self.q * lo_rt, self.p + self.q * hi_rt
        return self.p + self.q * hi_rt, self.p + self.q * lo_rt

    def __float__(self) -> float:
        # fast approximation (a few ulp); enclose_fraction() gives certified bounds
        if self.q == 0:
            return float(self.p)
        return float(self.p) + float(self.q) * math.sqrt(self.r)

    def __repr__(self) -> str:
        if self.q == 0:
            return f"BoundaryPoint({self.p})"
        return f"BoundaryPoint({self.p} + {self.q}*sqrt({self.r}))"

    def __str__(self) -> str:
        if self.q == 0:
            return str(self.p)
        num = []
        if self.p:
            num.append(str(self.p))
        num.append(f"{self.q}*sqrt({self.r})" if self.q != 1 else f"sqrt({self.r})")
        return " + ".join(num).replace("+ -", "- ")


# defining __eq__ suppresses hashing; surd normalization is best-effort, so
# value-consistent hashes cannot be guaranteed and dict keys are not supported
BoundaryPoint.__hash__ = None  # type: ignore[assignment]


def as_boundary(x: "BoundaryPoint | RationalLike | Fraction") -> BoundaryPoint:
    if isinstance(x, BoundaryPoint):
        return x
    return BoundaryPoint.rational(Fraction(x))
