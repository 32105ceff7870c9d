"""Output checks for every workload.  Each checker returns a list of error
strings, empty when the output is right.  None of them goes through the code
path whose output it checks.

Golden values were computed independently of the package: psi(10^k) with a
pure-Python bytearray sieve and math.fsum, the energy count with pure-Python
sorted pair sums and bisect, the explicit-formula values with mpmath at 40
digits over the packaged zero ordinates.
"""

import cmath
import math
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from math import inf

import numpy as np
from numpy.polynomial import polynomial as P

GOLDEN_PSI = {
    10: 7.832014180505469,
    100: 94.0453112293574,
    1000: 996.6809122471752,
    10000: 10013.396693263116,
    100000: 100051.56402565795,
    1000000: 999586.597495633,
    10000000: 9998539.403345976,
}
GOLDEN_ENERGY = {1000.0: 1787323146}
# (x, T) -> explicit_formula_psi(default zeros, x, T)
GOLDEN_EXPLICIT = {
    (1000.5, 5000.0): 996.67044150810476181,
    (10000.5, 5000.0): 10012.551269626533311,
    (100000.5, 5000.0): 100049.83889282408003,
    (1000000.5, 2000.0): 999625.1046186097717,
}

GRID_SLACK = 1e-9
# a sample point counts as feasible when A >= c up to this relative rounding
# allowance, so region endpoints, where suprema often sit, count
FEASIBLE_ROUNDING = 1e-12


# --------------------------------------------------------------------------
# theta workloads

def _float_poly(coeffs, length=1):
    """Ascending float coefficients, zero-padded to `length`."""
    out = np.zeros(max(length, len(coeffs)))
    out[: len(coeffs)] = [float(c) for c in coeffs]
    return out


class _FloatTable:
    """A table's pieces as float polynomials, independent of the exact code."""

    def __init__(self, pw):
        self.lo = [float(p.lo) for p in pw.pieces]
        self.hi = [float(p.hi) for p in pw.pieces]
        self.forms = [None if p.rf is None else (_float_poly(p.rf.num), _float_poly(p.rf.den))
                      for p in pw.pieces]

    def covering(self, s):
        """Indices of the pieces with a formula whose closed range contains s."""
        i = bisect_right(self.lo, s) - 1
        return [k for k in range(max(0, i - 1), min(len(self.lo), i + 2))
                if self.lo[k] <= s <= self.hi[k] and self.forms[k] is not None]

    def values(self, points):
        """Value at each point: the max over the pieces whose closed range
        contains it (upper regularization), -inf where none has a formula."""
        out = np.full(len(points), -inf)
        for j, s in enumerate(points):
            for k in self.covering(s):
                num, den = self.forms[k]
                out[j] = max(out[j], P.polyval(s, num) / P.polyval(s, den))
        return out


def _horner(rows, x):
    """Each ascending polynomial row evaluated at the points of its row of x."""
    acc = np.zeros_like(x)
    for j in range(rows.shape[1] - 1, -1, -1):
        acc = acc * x + rows[:, j : j + 1]
    return acc


def _roots_in(polys, lo, hi):
    """Real roots of each ascending polynomial row that lie in [lo, hi] of
    that row, from companion-matrix eigenvalues polished by two Newton steps."""
    polys = np.asarray(polys, dtype=float)
    nonzero = polys != 0.0
    degree = np.where(nonzero.any(axis=1), polys.shape[1] - 1 - np.argmax(nonzero[:, ::-1], axis=1), 0)
    found = []
    for d in range(1, polys.shape[1]):
        pick = degree == d
        if not pick.any():
            continue
        rows = polys[pick, : d + 1]
        companion = np.zeros((len(rows), d, d))
        companion[:, np.arange(1, d), np.arange(d - 1)] = 1.0
        companion[:, :, -1] = -rows[:, :d] / rows[:, d:]
        roots = np.linalg.eigvals(companion)
        x = roots.real
        deriv = rows[:, 1:] * np.arange(1, d + 1)
        for _ in range(2):
            slope = _horner(deriv, x)
            step = np.divide(_horner(rows, x), slope, out=np.zeros_like(x), where=slope != 0.0)
            x = x - step
        a, b = lo[pick][:, None], hi[pick][:, None]
        keep = (np.abs(roots.imag) <= 1e-9 * (1.0 + np.abs(roots))) & (x >= a - 1e-12) & (x <= b + 1e-12)
        found.append(np.clip(x, a, b)[keep])
    return np.concatenate(found) if found else np.empty(0)


class FormulaGrid:
    """The paper's objective sampled in floats.

    The sample points are every table breakpoint, `points` uniform interior
    points, and, for each theta, the points where suprema sit off that grid:
    the feasible region's endpoints inside a piece (roots of
    A = 1/(1-theta)) and, refined, the crossings of the two moment
    objectives.  Table values come straight from the piece formulas, so no
    exact region, cell or branch-and-bound code is involved.  A certified
    `upper` below the sample maximum is a silent under-estimate.
    """

    def __init__(self, atab, astab, points=20000):
        self.cap = float(atab.sigma_cap)
        self.atab, self.astab = _FloatTable(atab), _FloatTable(astab)
        bps = sorted({float(b) for pw in (atab, astab) for b in pw.breakpoints()})
        s = sorted(set(np.linspace(0.0, self.cap, points, endpoint=False)[1:].tolist())
                   | {b for b in bps if b < self.cap})
        self.s = np.array(s)
        self.a = self.atab.values(s)
        self.astar = self.astab.values(s)
        # A = c on a piece: num - c den = 0
        with_form = [k for k, f in enumerate(self.atab.forms) if f is not None]
        self.a_lo = np.array([self.atab.lo[k] for k in with_form])
        self.a_hi = np.array([self.atab.hi[k] for k in with_form])
        self.a_num = np.array([_float_poly(self.atab.forms[k][0], 3) for k in with_form])
        self.a_den = np.array([_float_poly(self.atab.forms[k][1], 3) for k in with_form])
        # mu2 = mu4 between consecutive breakpoints, for each pair of covering
        # pieces: (1-theta) (nA dS - nS dA) + 2 dA dS = 0
        diffs, boths, xs, ys = [], [], [], []
        edges = [b for b in bps if b < self.cap] + [self.cap]
        for x, y in zip(edges, edges[1:]):
            mid = 0.5 * (x + y)
            for i in self.atab.covering(mid):
                na, da = self.atab.forms[i]
                for k in self.astab.covering(mid):
                    ns, ds = self.astab.forms[k]
                    diffs.append(_float_poly(P.polysub(P.polymul(na, ds), P.polymul(ns, da)), 6))
                    boths.append(_float_poly(2.0 * P.polymul(da, ds), 6))
                    xs.append(x)
                    ys.append(y)
        self.cross_diff, self.cross_both = np.array(diffs), np.array(boths)
        self.cross_lo, self.cross_hi = np.array(xs), np.array(ys)

    def off_grid(self, t, refined):
        """Sample points for one theta beyond the fixed grid."""
        c = 1.0 / (1.0 - t)
        points = [_roots_in(self.a_num - c * self.a_den, self.a_lo, self.a_hi)]
        if refined and len(self.cross_lo):
            points.append(_roots_in((1.0 - t) * self.cross_diff + self.cross_both,
                                    self.cross_lo, self.cross_hi))
        extra = np.unique(np.concatenate(points))
        return extra[extra < self.cap]

    def sup(self, theta, refined):
        t = float(theta)
        extra = self.off_grid(t, refined)
        s = np.concatenate([self.s, extra])
        a = np.concatenate([self.a, self.atab.values(extra)])
        feasible = a >= (1.0 / (1.0 - t)) * (1.0 - FEASIBLE_ROUNDING)
        if not feasible.any():
            return -inf
        s, a = s[feasible], a[feasible]
        scale = (1.0 - t) * (1.0 - s)
        value = scale * a + 2.0 * s - 1.0
        if refined:
            astar = np.concatenate([self.astar, self.astab.values(extra)])[feasible]
            value = np.minimum(value, scale * astar + 4.0 * s - 3.0)
        return float(value.max())


EMPTY_BEYOND = {"unconditional": Fraction(17, 30), "dh": Fraction(1, 2),
                "lh": Fraction(1, 2), "rh": Fraction(1, 2)}


def closed_form(mode, refined, theta):
    """Exact value of mu where the paper gives one, else None."""
    if mode == "rh":
        return 1 - theta
    if mode == "lh" and not refined:
        return 1 - theta / 2
    if mode == "unconditional" and refined and theta == Fraction(17, 30):
        return Fraction(7, 12)
    return None


def check_mu(si, res, mode, refined, theta, tol, grid):
    """Checks on one certified bracket.  The witness check evaluates the
    moments exactly with mu2/mu4, through the tables' pointwise lookup rather
    than the cells."""
    errors = []
    where = f"mu({theta}, {mode}, {'refined' if refined else 'l2-only'})"
    expect_empty = theta > EMPTY_BEYOND[mode]
    if res.is_empty != expect_empty:
        errors.append(f"{where}: EMPTY={res.is_empty}, expected {expect_empty}")
    if res.is_empty:
        if grid.sup(theta, refined) != -inf:
            errors.append(f"{where}: EMPTY but the float grid has feasible points")
        return errors
    lower, upper = res.lower, res.upper
    if not lower <= upper:
        errors.append(f"{where}: lower {lower!r} > upper {upper!r}")
    if not upper - lower <= float(tol):
        errors.append(f"{where}: width {upper - lower:.3g} > tol {float(tol):.3g}")
    exact = closed_form(mode, refined, theta)
    if exact is not None and not Fraction(lower) <= exact <= Fraction(upper):
        errors.append(f"{where}: closed form {exact} outside [{lower!r}, {upper!r}]")
    w, m = res.witness_exact, si.HypothesisMode(mode)
    at_witness = float(si.mu2(w, theta, m))
    if refined:
        at_witness = min(at_witness, float(si.mu4(w, theta, m)))
    if not at_witness >= lower - float(tol):
        errors.append(f"{where}: objective {at_witness!r} at witness {w} < lower {lower!r}")
    grid_sup = grid.sup(theta, refined)
    if not grid_sup <= upper + GRID_SLACK:
        errors.append(f"{where}: float grid reaches {grid_sup!r} > upper {upper!r}")
    return errors


# --------------------------------------------------------------------------
# table lookups

RANGE_SLACK = 1e-9  # far beyond the rounding of a float conversion


@lru_cache(maxsize=None)
def _float_ranges(pw):
    return [(float(p.lo), float(p.hi)) for p in pw.pieces]


def oracle_upper(pw, s, as_boundary):
    """Brute force: max over every piece whose closed range contains s.
    Pieces whose float range misses s by more than RANGE_SLACK are skipped
    before the exact comparison."""
    s = as_boundary(s)
    x = float(s)
    best = -inf
    for p, (lo, hi) in zip(pw.pieces, _float_ranges(pw)):
        if x < lo - RANGE_SLACK or hi + RANGE_SLACK < x:
            continue
        if s < p.lo or p.hi < s or p.rf is None:
            continue
        v = p.rf.eval_exact(s)
        if best == -inf or as_boundary(v) > as_boundary(best):
            best = v
    return best


def same_value(a, b, as_boundary):
    if isinstance(a, float) or isinstance(b, float):
        return a == b
    return as_boundary(a) == as_boundary(b)


def check_lookup(pw, s, value, as_boundary, label):
    expect = oracle_upper(pw, s, as_boundary)
    if same_value(value, expect, as_boundary):
        return []
    return [f"{label}({s}) = {value}, brute force gives {expect}"]


# --------------------------------------------------------------------------
# empirical

def brute_lambda(limit):
    """Lambda(n) for n <= limit by trial division: log p for n = p^k."""
    lam = [0.0] * (limit + 1)
    for n in range(2, limit + 1):
        m, p = n, 2
        while p * p <= m and m % p:
            p += 1
        p = m if p * p > m else p
        while m % p == 0:
            m //= p
        if m == 1:
            lam[n] = math.log(p)
    return lam


def check_sieve(sieve, brute):
    errors = []
    for x, psi in GOLDEN_PSI.items():
        if x <= sieve.limit and not math.isclose(sieve.psi(x), psi, rel_tol=1e-10):
            errors.append(f"sieve psi({x}) = {sieve.psi(x)!r}, golden {psi!r}")
    n = len(brute) - 1
    values = sieve.values[: n + 1].tolist()
    if any(not math.isclose(v, b, rel_tol=1e-15, abs_tol=0.0) for v, b in zip(values, brute)):
        errors.append(f"sieve Lambda differs from trial division below {n}")
    if not math.isclose(float(sieve.cum[n]), math.fsum(brute), rel_tol=1e-12):
        errors.append(f"sieve psi({n}) differs from the trial-division sum")
    return errors


def check_energy(T, count):
    golden = GOLDEN_ENERGY.get(T)
    if golden is not None and count != golden:
        return [f"additive_energy(T={T}) = {count}, golden {golden}"]
    return []


def brute_energy(ordinates):
    """Ordered quadruples of signed ordinates with |g1 + g2 - g3 - g4| <= 1."""
    signed = [-g for g in reversed(ordinates)] + list(ordinates)
    sums = [a + b for a in signed for b in signed]
    return sum(1 for u in sums for v in sums if abs(u - v) <= 1.0)


def explicit_psi_reference(ordinates, x, T):
    """Pure-Python explicit formula over the ordinates up to T."""
    terms = []
    for g in ordinates:
        if g > T:
            break
        rho = complex(0.5, g)
        terms.append(2.0 * (cmath.exp(rho * math.log(x)) / rho).real)
    return x - math.fsum(terms) - math.log(2 * math.pi) - 0.5 * math.log1p(-(x ** -2.0))


def check_explicit(ordinates, x, T, value):
    ref = explicit_psi_reference(ordinates, x, T)
    if abs(value - ref) > 1e-6 * max(1.0, abs(ref)) ** 0.5:
        return [f"explicit_formula_psi({x}, {T}) = {value!r}, reference {ref!r}"]
    return []


def moment_reference(ordinates, X, theta, k, samples, seed):
    """|S(x)|^(2k) averaged over the documented sample: default_rng(seed)
    uniform on [X, 2X], summed as one matrix instead of per-sample fsums."""
    tau = float(X) ** (1.0 - float(theta))
    T = min(tau, float(ordinates[-1]))
    gs = np.asarray([g for g in ordinates if g <= T])
    xs = np.sort(np.random.default_rng(seed).uniform(float(X), float(2 * X), samples))
    rho = 0.5 + 1j * gs
    logs = np.log(xs)[:, None]
    terms = (np.exp(rho * (logs + math.log1p(1 / tau))) - np.exp(rho * logs)) / rho
    s = 2.0 * terms.real.sum(axis=1)
    return float(np.mean(np.abs(s) ** (2 * k)))


def check_moment(ordinates, X, theta, k, samples, seed, stat):
    ref = moment_reference(ordinates, X, theta, k, samples, seed)
    if stat.samples != samples or stat.k != k or not math.isclose(stat.mean, ref, rel_tol=1e-8):
        return [f"moment_statistic(X={X}, theta={theta}, k={k}, seed={seed}) mean "
                f"{stat.mean!r}, reference {ref!r}"]
    return []


def exceptional_reference(cum, X, theta, delta):
    """Loop version of the integer-grid exceptional count on the same psi."""
    t, d = float(theta), float(delta)
    count = 0
    for x in range(X, 2 * X):
        y = float(x) ** t
        total = cum[int(math.floor(x + y))] - cum[x]
        if abs(total - y) >= d * y:
            count += 1
    return count


def check_exceptional(cum, X, theta, delta, scan):
    ref = exceptional_reference(cum, X, theta, delta)
    if scan.exceptional_count != ref or scan.sample_count != X:
        return [f"exceptional_measure(X={X}, theta={theta}, delta={delta}) = "
                f"{scan.exceptional_count}/{scan.sample_count}, loop gives {ref}/{X}"]
    return []
