"""Zero-density and additive-energy exponent tables, under four hypotheses.

Two transcriptions of each table exist on purpose: the rows are encoded here
as exact coefficient constructors, and a second, independently written copy
ships as a text file (``data/zero_density_rows.txt``, ``data/energy_rows.txt``)
in the printed layout.  ``checksum_rows`` cross-checks the two, so a typo has
to be made twice, identically, to survive.
"""

import enum
import re
from fractions import Fraction
from functools import lru_cache
from importlib import resources

from . import polys
from .errors import InvalidFamilyIndex, ParseError
from .exact import BoundaryPoint, as_boundary
from .piecewise import (
    Piece,
    PiecewiseBound,
    RationalFunction,
    concat,
    pointwise_min,
)

F = Fraction

DEFAULT_PINTZ_MAX_N = 64
# Ceiling on the family index: the tables hold one piece per family row, so
# their size grows linearly with it.  At the ceiling, on a 2-core x86 VM with
# Python 3.11, the unconditional A table builds in 0.5 s, and both tables
# plus a first mu in 5.7 s, with a tracemalloc peak of 15 MB.
MAX_FAMILY_INDEX = 10_000


class HypothesisMode(enum.Enum):
    UNCONDITIONAL = "unconditional"
    DH = "dh"  # density hypothesis: A <= 2
    LH = "lh"  # Lindelof: A <= 2, and A <= 0 beyond 3/4
    RH = "rh"  # Riemann: no zeros right of 1/2

    @classmethod
    def parse(cls, text: str) -> "HypothesisMode":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ParseError(f"unknown hypothesis mode {text!r}") from None


# --------------------------------------------------------------------------
# encoded rows (first transcription)

def _rf(num, den=(1,)) -> RationalFunction:
    return RationalFunction([F(c) for c in num], [F(c) for c in den])


def _surd(p_num, p_den, q_num, r) -> BoundaryPoint:
    return BoundaryPoint(F(p_num, p_den), F(q_num, p_den), r)


_S_42121 = _surd(539, 460, -1, 42121)    # 0.7255..., rows join continuously here
_S_60001 = _surd(5831, 8240, +1, 60001)  # 0.7373...
_S_128689 = _surd(1273, 1184, -1, 128689)  # 0.7721...

# A(sigma): (lo, hi, formula, reference); ranges normalized to [lo, hi)
_A_ROWS = (
    (F(0), F(1, 2), _rf((1,), (1, -1)), "Riemann-von Mangoldt"),
    (F(1, 2), F(7, 10), _rf((3,), (2, -1)), "Ingham"),
    (F(7, 10), F(19, 25), _rf((15,), (3, 5)), "Guth-Maynard"),
    (F(19, 25), F(127, 167), _rf((9,), (-2, 8)), "Ivic"),
    (F(127, 167), F(13, 17), _rf((15,), (-3, 13)), "Ivic"),
    (F(13, 17), F(17, 22), _rf((6,), (-1, 5)), "Ivic"),
    (F(17, 22), F(41, 53), _rf((2,), (-6, 9)), "Tao-Trudgian-Yang"),
    (F(41, 53), F(7, 9), _rf((9,), (-1, 7)), "Ivic"),
    (F(7, 9), F(1867, 2347), _rf((9,), (-8, 16)), "Tao-Trudgian-Yang"),
    (F(1867, 2347), F(4, 5), _rf((3,), (0, 2)), "Bourgain"),
    (F(4, 5), F(7, 8), _rf((3,), (0, 2)), "Ivic"),
    (F(7, 8), F(279, 314), _rf((3,), (-7, 10)), "Heath-Brown"),
    (F(279, 314), F(155, 174), _rf((24,), (-11, 30)), "Chen-Debruyne-Vindas"),
    (F(155, 174), F(9, 10), _rf((24,), (-11, 30)), "Ivic"),
    (F(9, 10), F(31, 34), _rf((3,), (-7, 10)), "Tao-Trudgian-Yang"),
    (F(31, 34), F(14, 15), _rf((11,), (-36, 48)), "Tao-Trudgian-Yang"),
    (F(14, 15), F(2841, 3016), _rf((391,), (-2014, 2493)), "Tao-Trudgian-Yang"),
    (F(2841, 3016), F(859, 908), _rf((22232,), (-134765, 163248)), "Tao-Trudgian-Yang"),
    (F(859, 908), F(23, 24), _rf((356,), (-2279, 2742)), "Tao-Trudgian-Yang"),
    (F(23, 24), F(2211487, 2274732), _rf((3,), (-20, 24)), "Pintz"),
    (F(2211487, 2274732), F(39, 40), _rf((86152,), (-1311509, 1447460)), "Tao-Trudgian-Yang"),
    (F(39, 40), F(41, 42), _rf((2,), (-12, 15)), "Pintz"),
    (F(41, 42), F(59, 60), _rf((3,), (-35, 40)), "Pintz"),
)

# A*(sigma): denominators are the printed factored forms, multiplied out
_ASTAR_ROWS = (
    (F(0), F(1, 2), _rf((3,), (1, -1)), "Riemann-von Mangoldt"),
    (F(1, 2), F(2, 3), _rf((10, -11), (2, -3, 1)), "Heath-Brown"),
    (F(2, 3), F(7, 10), _rf((18, -19), (4, -6, 2)), "Heath-Brown"),
    (F(7, 10), _S_42121, _rf((90, -95), (6, 4, -10)), "Tao-Trudgian-Yang"),
    (_S_42121, F(165, 226), _rf((90, -88), (15, -13, -2)), "Tao-Trudgian-Yang"),
    (F(165, 226), _S_60001, _rf((457, -546), (122, -238, 116)), "Tao-Trudgian-Yang"),
    (_S_60001, F(42, 55), _rf((90, -95), (6, 4, -10)), "Tao-Trudgian-Yang"),
    (F(42, 55), F(97, 127), _rf((18, -19), (-66, 156, -90)), "Tao-Trudgian-Yang"),
    (F(97, 127), F(79, 103), _rf((54, -57), (-4, 20, -16)), "Tao-Trudgian-Yang"),
    (F(79, 103), F(33, 43), _rf((18, -19), (-54, 128, -74)), "Tao-Trudgian-Yang"),
    (F(33, 43), F(84, 109), _rf((90, -95), (-6, 32, -26)), "Tao-Trudgian-Yang"),
    (F(84, 109), _S_128689, _rf((18, -19), (-18, 45, -27)), "Tao-Trudgian-Yang"),
    (_S_128689, F(5, 6), _rf((40, -36), (-5, 25, -20)), "Tao-Trudgian-Yang"),
    (F(5, 6), F(1), _rf((12,), (-1, 4)), "Heath-Brown"),
)

_PINTZ_LO_TEMPLATE = "1 - 1/(2*n*(n - 1))"
_PINTZ_HI_TEMPLATE = "1 - 1/(2*n*(n + 1))"
_PINTZ_FORMULA_TEMPLATE = "3/(n*(1 - 2*(n - 1)*(1 - s)))"


def pintz_piece(n: int) -> Piece:
    """The n-th member of the family of rows covering sigma close to 1."""
    if n < 6:
        raise InvalidFamilyIndex(f"family rows start at n = 6, got {n}")
    lo = 1 - F(1, 2 * n * (n - 1))
    hi = 1 - F(1, 2 * n * (n + 1))
    # denominator n*(1 - 2(n-1)(1-s)) = n(3-2n) + 2n(n-1)*s
    rf = _rf((3,), (n * (3 - 2 * n), 2 * n * (n - 1)))
    return Piece(lo, hi, rf, "Pintz")


def sigma_cap(pintz_max_n: int = DEFAULT_PINTZ_MAX_N) -> Fraction:
    """Right edge of the tables when the family runs up to n = pintz_max_n;
    n = 5 (no family rows) ends them at 59/60, where the finite rows end.
    Raises InvalidFamilyIndex outside [5, MAX_FAMILY_INDEX]."""
    if pintz_max_n < 5:
        raise InvalidFamilyIndex(f"the tables need a family index of at least 5, got {pintz_max_n}")
    if pintz_max_n > MAX_FAMILY_INDEX:
        raise InvalidFamilyIndex(
            f"the family index is capped at {MAX_FAMILY_INDEX}, got {pintz_max_n}")
    return 1 - F(1, 2 * pintz_max_n * (pintz_max_n + 1))


# --------------------------------------------------------------------------
# table construction per hypothesis mode

@lru_cache(maxsize=None)
def a_table(
    mode: HypothesisMode = HypothesisMode.UNCONDITIONAL,
    pintz_max_n: int = DEFAULT_PINTZ_MAX_N,
) -> PiecewiseBound:
    """Upper bound for A(sigma) on [0, sigma_cap), upper-regularized."""
    cap = sigma_cap(pintz_max_n)
    base = PiecewiseBound(
        [Piece(lo, hi, rf, ref) for lo, hi, rf, ref in _A_ROWS]
        + [pintz_piece(n) for n in range(6, pintz_max_n + 1)]
    )
    if mode is HypothesisMode.UNCONDITIONAL:
        return base
    low = base.restrict(0, F(1, 2))
    if mode is HypothesisMode.RH:
        return concat(low, PiecewiseBound([Piece(F(1, 2), cap, None, "RH")]))
    two = RationalFunction.constant(2)
    if mode is HypothesisMode.DH:
        clip = PiecewiseBound([Piece(F(1, 2), cap, two, "DH")])
        return concat(low, pointwise_min(base.restrict(F(1, 2), cap), clip))
    # LH: A <= 2 up to 3/4, A <= 0 beyond
    clip = PiecewiseBound([Piece(F(1, 2), F(3, 4), two, "LH")])
    mid = pointwise_min(base.restrict(F(1, 2), F(3, 4)), clip)
    tail = PiecewiseBound([Piece(F(3, 4), cap, RationalFunction.constant(0), "LH")])
    return concat(concat(low, mid), tail)


@lru_cache(maxsize=None)
def astar_table(
    mode: HypothesisMode = HypothesisMode.UNCONDITIONAL,
    pintz_max_n: int = DEFAULT_PINTZ_MAX_N,
) -> PiecewiseBound:
    """Effective upper bound for A*(sigma): table rows min'ed with 3*A(sigma)."""
    cap = sigma_cap(pintz_max_n)
    low = PiecewiseBound(
        [Piece(lo, hi, rf, ref) for lo, hi, rf, ref in _ASTAR_ROWS[:1]]
    )
    if mode is HypothesisMode.RH:
        return concat(low, PiecewiseBound([Piece(F(1, 2), cap, None, "RH")]))
    rows = PiecewiseBound(
        [Piece(lo, hi, rf, ref) for lo, hi, rf, ref in _ASTAR_ROWS[1:]]
    ).restrict(F(1, 2), cap)
    trivial = a_table(mode, pintz_max_n).restrict(F(1, 2), cap).scale(3)
    return concat(low, pointwise_min(rows, trivial))


# --------------------------------------------------------------------------
# transcription file: parsing and cross-check

_TOKEN = re.compile(r"\s*(\d+|[a-z]+|\*|\+|\-|/|\(|\))")


def _tokenize(text: str) -> list[str]:
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"bad character in expression {text!r} at {pos}")
        out.append(m.group(1))
        pos = m.end()
    return out


class _ExprParser:
    """Tiny recursive-descent parser for the row expressions.

    Evaluates directly into one of two algebras: rational functions of s
    (pairs of coefficient tuples) for formulas, BoundaryPoints for range
    endpoints (where sqrt(k) is allowed and s is not).
    """

    def __init__(self, tokens, atom):
        self.toks = tokens
        self.i = 0
        self.atom = atom

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, expect=None):
        tok = self.peek()
        if tok is None or (expect is not None and tok != expect):
            raise ParseError(f"expected {expect!r}, found {tok!r}")
        self.i += 1
        return tok

    def expr(self):
        val = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            val = val + rhs if op == "+" else val - rhs
        return val

    def term(self):
        val = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            val = val * rhs if op == "*" else val / rhs
        return val

    def factor(self):
        if self.peek() == "-":
            self.take()
            return -self.factor()
        if self.peek() == "(":
            self.take()
            val = self.expr()
            self.take(")")
            return val
        tok = self.take()
        if tok == "sqrt":
            self.take("(")
            inner = self.expr()
            self.take(")")
            return self.atom("sqrt", inner)
        if tok.isdigit():
            return self.atom("int", int(tok))
        return self.atom("name", tok)


class _RFValue:
    """Rational functions of s as (num, den) coefficient pairs."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = polys.ptrim(num)
        self.den = polys.ptrim(den)

    def __add__(self, o):
        return _RFValue(
            polys.padd(polys.pmul(self.num, o.den), polys.pmul(o.num, self.den)),
            polys.pmul(self.den, o.den),
        )

    def __sub__(self, o):
        return self + (-o)

    def __neg__(self):
        return _RFValue(polys.pneg(self.num), self.den)

    def __mul__(self, o):
        return _RFValue(polys.pmul(self.num, o.num), polys.pmul(self.den, o.den))

    def __truediv__(self, o):
        if not o.num:
            raise ParseError("division by zero in formula")
        return _RFValue(polys.pmul(self.num, o.den), polys.pmul(self.den, o.num))


def parse_formula(text: str, n: int | None = None) -> RationalFunction:
    def atom(kind, payload):
        if kind == "int":
            return _RFValue((F(payload),), (F(1),))
        if kind == "name" and payload == "s":
            return _RFValue((F(0), F(1)), (F(1),))
        if kind == "name" and payload == "n" and n is not None:
            return _RFValue((F(n),), (F(1),))
        raise ParseError(f"unexpected {payload!r} in formula {text!r}")

    p = _ExprParser(_tokenize(text), atom)
    val = p.expr()
    if p.peek() is not None:
        raise ParseError(f"trailing tokens in {text!r}")
    return RationalFunction(val.num, val.den)


def parse_endpoint(text: str, n: int | None = None) -> BoundaryPoint:
    def atom(kind, payload):
        if kind == "int":
            return BoundaryPoint.rational(payload)
        if kind == "sqrt":
            if not (isinstance(payload, BoundaryPoint) and payload.is_rational):
                raise ParseError(f"sqrt of non-rational in {text!r}")
            rad = payload.as_fraction()
            if rad.denominator != 1:
                raise ParseError(f"sqrt of non-integer in {text!r}")
            return BoundaryPoint(0, 1, int(rad))
        if kind == "name" and payload == "n" and n is not None:
            return BoundaryPoint.rational(n)
        raise ParseError(f"unexpected {payload!r} in endpoint {text!r}")

    p = _ExprParser(_tokenize(text), atom)
    val = p.expr()
    if p.peek() is not None:
        raise ParseError(f"trailing tokens in {text!r}")
    return val


_DATA_FILES = {"a": "zero_density_rows.txt", "astar": "energy_rows.txt"}


def transcription_text(which: str) -> str:
    """Raw contents of the committed transcription file ('a' or 'astar')."""
    name = _DATA_FILES[which]
    return resources.files("shortintervals").joinpath("data", name).read_text()


def parse_transcription(which: str):
    """Parse a transcription file into (finite_rows, family_templates)."""
    finite, families = [], []
    for lineno, raw in enumerate(transcription_text(which).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(";")]
        if len(parts) == 5 and parts[4].startswith("family"):
            families.append((parts[0], parts[1], parts[2], parts[3]))
            continue
        if len(parts) != 4:
            raise ParseError(f"{_DATA_FILES[which]} line {lineno}: expected 4 fields")
        lo = parse_endpoint(parts[0])
        hi = parse_endpoint(parts[1])
        rf = parse_formula(parts[2])
        finite.append((lo, hi, rf, parts[3]))
    return finite, families


def checksum_rows(which: str) -> tuple[bool, list[str]]:
    """Cross-check encoded rows against the committed transcription file."""
    encoded = _A_ROWS if which == "a" else _ASTAR_ROWS
    finite, families = parse_transcription(which)
    problems = []
    if len(finite) != len(encoded):
        problems.append(
            f"{which}: {len(finite)} transcribed rows vs {len(encoded)} encoded"
        )
    for i, ((flo, fhi, frf, fref), (elo, ehi, erf, eref)) in enumerate(
        zip(finite, encoded), 1
    ):
        if not (flo == as_boundary(elo) and fhi == as_boundary(ehi)):
            problems.append(f"{which} row {i}: range mismatch")
        if not frf.same_function(erf):
            problems.append(f"{which} row {i}: formula mismatch ({frf} vs {erf})")
        if fref != eref:
            problems.append(f"{which} row {i}: reference {fref!r} vs {eref!r}")
    if which == "a":
        if len(families) != 1:
            problems.append("a: expected exactly one family row")
        else:
            lo_t, hi_t, rf_t, ref_t = families[0]
            if (lo_t, hi_t, rf_t) != (
                _PINTZ_LO_TEMPLATE,
                _PINTZ_HI_TEMPLATE,
                _PINTZ_FORMULA_TEMPLATE,
            ) or ref_t != "Pintz":
                problems.append("a: family row template mismatch")
            else:
                for n in (6, 7, 13, 64):
                    piece = pintz_piece(n)
                    if not (
                        parse_endpoint(lo_t, n) == piece.lo
                        and parse_endpoint(hi_t, n) == piece.hi
                        and parse_formula(rf_t, n).same_function(piece.rf)
                    ):
                        problems.append(f"a: family instantiation differs at n={n}")
    elif families:
        problems.append("astar: unexpected family row")
    return (not problems), problems


# --------------------------------------------------------------------------
# diagnostics

class BreakpointInfo:
    __slots__ = ("sigma", "left", "right", "jump")

    def __init__(self, sigma, left, right):
        self.sigma = sigma  # BoundaryPoint
        self.left = left  # exact value or -inf
        self.right = right
        if isinstance(left, float) or isinstance(right, float):
            self.jump = None if isinstance(left, float) and isinstance(right, float) else float("inf")
        else:
            self.jump = left - right  # positive means a downward step

    @property
    def continuous(self) -> bool:
        return self.jump is not None and self.jump != float("inf") and self.jump == 0

    def __repr__(self):
        return (
            f"BreakpointInfo(sigma={float(self.sigma):.6f}, left={self.left}, "
            f"right={self.right}, jump={self.jump})"
        )


class TableDiagnostics:
    __slots__ = (
        "which",
        "mode",
        "n_pieces",
        "covers",
        "breakpoints",
        "all_positive",
        "max_monotonicity_violation",
    )

    def __init__(self, which, mode, n_pieces, covers, breakpoints, all_positive, viol):
        self.which = which
        self.mode = mode
        self.n_pieces = n_pieces
        self.covers = covers
        self.breakpoints = breakpoints
        self.all_positive = all_positive
        self.max_monotonicity_violation = viol

    def jumps(self) -> list[BreakpointInfo]:
        return [b for b in self.breakpoints if not b.continuous]

    def __repr__(self):
        return (
            f"TableDiagnostics({self.which}/{self.mode.value}: {self.n_pieces} pieces, "
            f"covers={self.covers}, jumps={len(self.jumps())}, "
            f"positive={self.all_positive}, mono_viol={self.max_monotonicity_violation:.3g})"
        )


def _piece_positive(piece: Piece) -> bool:
    """Certify value >= 0 on the closed cell (0 allowed for clipped pieces).
    A numerator or denominator of degree 3 or more raises OutOfDomain."""
    rf = piece.rf
    if rf is None:
        return False
    if not rf.num:
        return True  # identically zero
    lo, hi = piece.lo, piece.hi
    # with no cut inside, numerator and denominator keep one sign on (lo, hi)
    cuts = polys.cut_at_roots([(rf.num, 1), (rf.den, 1)], lo, hi)[0]
    return len(cuts) == 2 and all(
        rf.eval_exact(s) >= 0 for s in (lo, polys.rational_between(lo, hi), hi))


def validate_tables(
    mode: HypothesisMode = HypothesisMode.UNCONDITIONAL,
    which: str = "a",
    pintz_max_n: int = DEFAULT_PINTZ_MAX_N,
) -> TableDiagnostics:
    """Structural report: coverage, breakpoint jumps, positivity,
    and a sampled check that (1-s) * table(s) is non-increasing.  The
    positivity check raises OutOfDomain on a row whose numerator or
    denominator has degree 3 or more."""
    pw = (a_table if which == "a" else astar_table)(mode, pintz_max_n)
    covers = pw.lo == 0 and pw.sigma_cap == sigma_cap(pintz_max_n)

    bps = []
    for left_piece, right_piece in zip(pw.pieces, pw.pieces[1:]):
        s = left_piece.hi
        bps.append(BreakpointInfo(s, left_piece.value_at(s), right_piece.value_at(s)))

    finite_pieces = [p for p in pw.pieces if p.rf is not None]
    all_positive = all(_piece_positive(p) for p in finite_pieces)

    viol = 0.0
    prev = None
    for piece in finite_pieces:
        lo_f, hi_f = float(piece.lo), float(piece.hi)
        for k in range(33):
            s = lo_f + (hi_f - lo_f) * k / 32
            v = (1.0 - s) * float(piece.rf.eval_exact(Fraction(s)))
            if prev is not None and v > prev[1] + 1e-15:
                viol = max(viol, v - prev[1])
            prev = (s, v)
    return TableDiagnostics(which, mode, len(pw.pieces), covers, bps, all_positive, viol)
