"""Desk-scale measurements: prime-power sums, exceptional sets, zero sums.

Everything here works at heights where the asymptotic regime is far away;
the point is to exercise the defined objects (von Mangoldt sums over short
intervals, the exceptional set, truncated explicit-formula sums over real
zeta zeros, additive energy of zero ordinates) against exact brute force.

Floating summations are compensated (math.fsum, or blockwise exact bases
for the sieve's cumulative array) and run in a fixed ascending order, so
results are reproducible bit-for-bit.
"""

import math
import struct
from importlib import resources

import numpy as np

from .errors import (
    InsufficientZeros,
    LimitTooLarge,
    OrderError,
    OutOfRange,
    ParseError,
    TooManyZeros,
)

# the sieve holds two float64 arrays of limit + 1 entries; max_limit may
# lower this ceiling but never raise it
DEFAULT_MAX_LIMIT = 10**8
# a moment sample holds two float64 arrays of this many entries
MAX_MOMENT_SAMPLES = 1_000_000
_CACHE_MAGIC = b"LAMS"
_CACHE_VERSION = 1

PACKAGED_ZEROS = "zeta_zeros_5k.txt"


# --------------------------------------------------------------------------
# von Mangoldt sieve

class LambdaSieve:
    """Lambda(n) for 1 <= n <= limit, with a cumulative array for psi.

    ``values[n]`` is log p when n = p^k and 0 otherwise; ``cum[n]`` is
    psi(n) = sum of Lambda up to n.  When restored from a cache file only
    the cumulative array is present and pointwise values are differences
    of it (accurate to rounding; rebuild the sieve for exact values).
    """

    __slots__ = ("limit", "values", "cum")

    def __init__(self, limit: int, values, cum):
        self.limit = limit
        self.values = values
        self.cum = cum

    def lambda_value(self, n: int) -> float:
        if not 1 <= n <= self.limit:
            raise OutOfRange(f"n={n} outside [1, {self.limit}]")
        if self.values is not None:
            return float(self.values[n])
        return float(self.cum[n] - self.cum[n - 1])

    def psi(self, x) -> float:
        """Chebyshev psi(x) = sum of Lambda(n) for n <= x."""
        if x < 0 or x > self.limit:
            raise OutOfRange(f"x={x} outside [0, {self.limit}]")
        return float(self.cum[int(math.floor(x))])

    def save_cache(self, path) -> None:
        """Binary cache: magic 'LAMS', version byte, little-endian u64 limit,
        then the cumulative-psi doubles (limit+1 of them, little-endian)."""
        with open(path, "wb") as f:
            f.write(_CACHE_MAGIC)
            f.write(bytes([_CACHE_VERSION]))
            f.write(struct.pack("<Q", self.limit))
            f.write(self.cum.astype("<f8").tobytes())


def load_cache(path) -> LambdaSieve:
    with open(path, "rb") as f:
        head = f.read(13)
        if len(head) != 13 or head[:4] != _CACHE_MAGIC:
            raise ParseError(f"{path}: not a sieve cache file")
        if head[4] != _CACHE_VERSION:
            raise ParseError(f"{path}: unsupported cache version {head[4]}")
        (limit,) = struct.unpack("<Q", head[5:13])
        data = f.read()
    expect = (limit + 1) * 8
    if len(data) != expect:
        raise ParseError(f"{path}: truncated cache ({len(data)} != {expect} bytes)")
    cum = np.frombuffer(data, dtype="<f8").astype(np.float64)
    return LambdaSieve(int(limit), None, cum)


def _base_primes(bound: int) -> np.ndarray:
    sieve = np.ones(bound + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.nonzero(sieve)[0]


def sieve_lambda(
    limit: int,
    max_limit: int = DEFAULT_MAX_LIMIT,
    segment: int = 1 << 22,
) -> LambdaSieve:
    """Segmented sieve for Lambda up to limit (memory guard: max_limit, at
    most DEFAULT_MAX_LIMIT)."""
    if max_limit > DEFAULT_MAX_LIMIT:
        raise LimitTooLarge(f"guard {max_limit} exceeds the ceiling {DEFAULT_MAX_LIMIT}")
    if limit < 2:
        raise OutOfRange("limit must be >= 2")
    if limit > max_limit:
        raise LimitTooLarge(f"limit {limit} exceeds guard {max_limit}")
    lam = np.zeros(limit + 1, dtype=np.float64)
    root = math.isqrt(limit)
    base = _base_primes(max(root, 2))

    for seg_lo in range(2, limit + 1, segment):
        seg_hi = min(seg_lo + segment, limit + 1)
        mask = np.ones(seg_hi - seg_lo, dtype=bool)
        for p in base:
            p = int(p)
            start = max(p * p, ((seg_lo + p - 1) // p) * p)
            if start < seg_hi:
                mask[start - seg_lo :: p] = False
        primes = np.nonzero(mask)[0] + seg_lo
        lam[primes] = np.log(primes.astype(np.float64))

    for p in base:
        p = int(p)
        pk = p * p
        lp = math.log(p)
        while pk <= limit:
            lam[pk] = lp
            pk *= p

    # cumulative psi with exact block bases: within-block rounding stays
    # below ~1e-12 relative, block offsets are fsum-exact
    cum = np.empty(limit + 1, dtype=np.float64)
    cum[0] = 0.0
    block = 1 << 16
    totals = []
    base_acc = 0.0
    for blo in range(1, limit + 1, block):
        bhi = min(blo + block, limit + 1)
        cum[blo:bhi] = base_acc + np.cumsum(lam[blo:bhi])
        totals.append(float(np.sum(lam[blo:bhi], dtype=np.float64)))
        base_acc = math.fsum(totals)
    return LambdaSieve(limit, lam, cum)


def interval_sum(sieve: LambdaSieve, x, y) -> float:
    """Sum of Lambda(n) over x < n <= x + y."""
    if y < 0:
        raise OutOfRange("negative interval length")
    if x < 0 or x + y > sieve.limit:
        raise OutOfRange(f"interval ({x}, {x + y}] outside sieve range")
    hi = int(math.floor(x + y))
    lo = int(math.floor(x))
    return float(sieve.cum[hi] - sieve.cum[lo])


class ExceptionalScan:
    """Result of scanning [X, 2X) for short-interval deviations."""

    __slots__ = (
        "X", "theta", "delta", "step",
        "measure_estimate", "sample_count", "exceptional_count",
    )

    def __init__(self, X, theta, delta, step, measure, samples, exceptional):
        self.X = X
        self.theta = theta
        self.delta = delta
        self.step = step
        self.measure_estimate = measure
        self.sample_count = samples
        self.exceptional_count = exceptional

    def __repr__(self):
        return (
            f"ExceptionalScan(X={self.X}, theta={float(self.theta):g}, "
            f"delta={float(self.delta):g}, step={self.step}, "
            f"measure={self.measure_estimate:g}, "
            f"exceptional={self.exceptional_count}/{self.sample_count})"
        )


def exceptional_measure(
    sieve: LambdaSieve, X: int, theta, delta, step=1
) -> ExceptionalScan:
    """Scan x over [X, 2X) for |sum_{x<n<=x+y} Lambda(n) - y| >= delta*y, y = x^theta.

    With step 1 this is the exact integer-grid measure of the exceptional
    set; fractional steps subsample and the estimate is labeled accordingly.
    """
    theta_f, delta_f, step_f = float(theta), float(delta), float(step)
    if X < 2 or step_f <= 0:
        raise OutOfRange("need X >= 2 and step > 0")
    if 2 * X + (2 * X) ** theta_f > sieve.limit:
        raise OutOfRange(f"need 2X + (2X)^theta <= sieve limit {sieve.limit}")
    if step_f == 1.0:
        xs = np.arange(X, 2 * X, dtype=np.int64)
        xf = xs.astype(np.float64)
    else:
        xf = np.arange(float(X), float(2 * X), step_f, dtype=np.float64)
        xs = np.floor(xf).astype(np.int64)
    ys = xf ** theta_f
    hi = np.floor(xf + ys).astype(np.int64)
    sums = sieve.cum[hi] - sieve.cum[xs]
    exceptional = np.abs(sums - ys) >= delta_f * ys
    count = int(np.count_nonzero(exceptional))
    return ExceptionalScan(
        X, theta, delta, step_f, step_f * count, int(xs.size), count
    )


# --------------------------------------------------------------------------
# zeta zeros

class ZeroSet:
    """Positive ordinates of zeros on the critical line, ascending."""

    __slots__ = ("ordinates", "source", "max_T")

    def __init__(self, ordinates, source: str = "<memory>"):
        arr = np.asarray(ordinates, dtype=np.float64)
        self.ordinates = arr
        self.source = source
        self.max_T = float(arr[-1]) if arr.size else 0.0

    def __len__(self) -> int:
        return int(self.ordinates.size)

    def count_below(self, T: float) -> int:
        return int(np.searchsorted(self.ordinates, T, side="right"))

    def up_to(self, T: float) -> np.ndarray:
        return self.ordinates[: self.count_below(T)]

    def __repr__(self):
        return f"ZeroSet({len(self)} ordinates <= {self.max_T:.3f} from {self.source})"


def load_zeros(path) -> ZeroSet:
    """Parse a plain-text zeros file: one positive ordinate per line, ascending."""
    ordinates = []
    prev = 0.0
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if not line:
                continue
            try:
                g = float(line)
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: not a number: {line!r}") from None
            if not math.isfinite(g) or g <= 0:
                raise ParseError(f"{path}: line {lineno}: ordinate must be positive")
            if g <= prev:
                raise OrderError(f"{path}: line {lineno}: not strictly ascending")
            ordinates.append(g)
            prev = g
    return ZeroSet(np.array(ordinates), source=str(path))


def default_zeros() -> ZeroSet:
    """The zero dataset shipped with the package (heights up to ~5000)."""
    path = resources.files("shortintervals").joinpath("data", PACKAGED_ZEROS)
    with resources.as_file(path) as p:
        return load_zeros(p)


def riemann_vonmangoldt(T: float) -> float:
    """Main terms of the zero-counting function: (T/2pi)log(T/2pi) - T/2pi + 7/8."""
    u = T / (2 * math.pi)
    return u * math.log(u) - u + 7 / 8


def _window_contains_half(sigma_lo, sigma_hi, open_lo, open_hi) -> bool:
    lo_ok = sigma_lo < 0.5 or (sigma_lo == 0.5 and not open_lo)
    hi_ok = sigma_hi > 0.5 or (sigma_hi == 0.5 and not open_hi)
    return lo_ok and hi_ok


def s_interval_sum(
    zeros: ZeroSet,
    x: float,
    tau: float,
    T: float,
    sigma_lo: float = 0.0,
    sigma_hi: float = 1.0,
    open_lo: bool = False,
    open_hi: bool = False,
) -> float:
    """Sum of ((x + x/tau)^rho - x^rho)/rho over zeros with |gamma| <= T
    and real part in the sigma window.

    Dataset zeros all have real part 1/2, so windows excluding 1/2 give 0.
    Conjugate pairs are summed together, making the result real; terms are
    accumulated in ascending gamma order with exact (fsum) compensation.
    """
    if tau <= 0 or x <= 1:
        raise OutOfRange("need x > 1 and tau > 0")
    if T > zeros.max_T:
        raise InsufficientZeros(f"T={T} beyond dataset height {zeros.max_T}")
    if not _window_contains_half(sigma_lo, sigma_hi, open_lo, open_hi):
        return 0.0
    gs = zeros.up_to(T)
    if gs.size == 0:
        return 0.0
    rho = 0.5 + 1j * gs
    term = (np.exp(rho * math.log(x + x / tau)) - np.exp(rho * math.log(x))) / rho
    return math.fsum(2.0 * term.real)


def explicit_formula_psi(zeros: ZeroSet, x: float, T: float) -> float:
    """Truncated explicit formula for psi(x):
    x - sum_{|gamma|<=T} x^rho/rho - log(2 pi) - (1/2) log(1 - x^-2)."""
    if x <= 2:
        raise OutOfRange("need x > 2")
    if T > zeros.max_T:
        raise InsufficientZeros(f"T={T} beyond dataset height {zeros.max_T}")
    gs = zeros.up_to(T)
    zero_sum = 0.0
    if gs.size:
        rho = 0.5 + 1j * gs
        term = np.exp(rho * math.log(x)) / rho
        zero_sum = math.fsum(2.0 * term.real)
    return x - zero_sum - math.log(2 * math.pi) - 0.5 * math.log1p(-(x ** -2.0))


def additive_energy(zeros: ZeroSet, T: float, cap: int = 5000) -> int:
    """Count of ordered quadruples from {+-gamma : gamma <= T} with
    |g1 + g2 - g3 - g4| <= 1, via sorted pair sums and window counting."""
    n = zeros.count_below(T)
    if n > cap:
        raise TooManyZeros(f"{n} ordinates below T={T} exceeds cap {cap}")
    if n == 0:
        return 0
    gs = zeros.up_to(T)
    signed = np.concatenate([-gs[::-1], gs])
    sums = (signed[:, None] + signed[None, :]).ravel()
    sums.sort(kind="stable")
    hi = np.searchsorted(sums, sums + 1.0, side="right")
    lo = np.searchsorted(sums, sums - 1.0, side="left")
    return int(np.sum(hi - lo, dtype=np.int64))


class MomentStatistic:
    __slots__ = ("mean", "std_error", "samples", "k", "T", "tau")

    def __init__(self, mean, std_error, samples, k, T, tau):
        self.mean = mean
        self.std_error = std_error
        self.samples = samples
        self.k = k
        self.T = T
        self.tau = tau

    def __repr__(self):
        return (
            f"MomentStatistic(mean={self.mean:.6g} +- {self.std_error:.2g}, "
            f"k={self.k}, samples={self.samples}, T={self.T:.6g})"
        )


def moment_statistic(
    zeros: ZeroSet, X: int, theta, k: int, samples: int, seed: int = 0
) -> MomentStatistic:
    """Monte Carlo average of |S_[0,1](x)|^(2k) over x uniform in [X, 2X].

    tau = X^(1-theta); the zero sum is truncated at T = min(tau, max height).
    Returns the sample mean with its standard error; the seed fixes the
    sample for reproducibility.  samples must lie in [1, MAX_MOMENT_SAMPLES].
    """
    if k not in (1, 2):
        raise OutOfRange("k must be 1 or 2")
    if not 1 <= samples <= MAX_MOMENT_SAMPLES:
        raise OutOfRange(f"samples must lie in [1, {MAX_MOMENT_SAMPLES}], got {samples}")
    theta_f = float(theta)
    tau = float(X) ** (1.0 - theta_f)
    T = min(tau, zeros.max_T)
    if len(zeros) == 0:
        return MomentStatistic(0.0, 0.0, samples, k, T, tau)
    rng = np.random.default_rng(seed)
    xs = np.sort(rng.uniform(float(X), float(2 * X), samples))
    gs = zeros.up_to(T)
    rho = 0.5 + 1j * gs
    vals = np.empty(samples, dtype=np.float64)
    for i, x in enumerate(xs):
        term = (np.exp(rho * math.log(x + x / tau)) - np.exp(rho * math.log(x))) / rho
        s = math.fsum(2.0 * term.real)
        vals[i] = abs(s) ** (2 * k)
    mean = math.fsum(vals) / samples
    if samples > 1:
        var = math.fsum((vals - mean) ** 2) / (samples - 1)
        stderr = math.sqrt(var / samples)
    else:
        stderr = float("inf")
    return MomentStatistic(mean, stderr, samples, k, T, tau)
