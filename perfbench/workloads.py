"""The four workloads: seeded input streams, the timed call, its checks.

Every workload takes its inputs from `random.Random(seed)` (and numpy
generators seeded from it), so one seed gives one input stream.  The package
sees only exact rationals, quadratic surds taken from its own tables, and
floats.  An operation is one call into the package:

* curve     - mu at one theta of a seeded grid on (0, 1), unconditional,
              refined, tol 1e-9;
* window    - mu at theta = u * (last non-empty theta) in one of the four
              modes, refined or l2-only;
* tables    - one sigma looked up in one of the eight tables;
* empirical - one empirical command; they cycle through a sieve to 10^7,
              the energy at T = 1000, a k = 2 moment, an exceptional scan
              and an explicit-formula value.
"""

import random
from fractions import Fraction
from statistics import median, quantiles

import numpy as np

import checks

MODES = ("unconditional", "dh", "lh", "rh")
CURVE_TOL = Fraction(1, 10**9)
RH_TOL = Fraction(1, 10**13)
GRID = 1024  # theta grid size; a power of two for the bit-reversed order
GRID_BITS = 10


def first_answers(si):
    """What an invocation pays before its first answer in every mode: both
    tables built and looked up once, and one certified mu (refined and
    l2-only) at theta = 1/4, which builds whatever mu prepares lazily.  The
    tables are asked for with the arguments mu passes, so each is built once."""
    quarter = Fraction(1, 4)
    n = si.tables.DEFAULT_PINTZ_MAX_N
    for mode in si.HypothesisMode:
        for table in (si.a_table(mode, n), si.astar_table(mode, n)):
            table.evaluate_upper(quarter)
        for refined in (True, False):
            si.mu_upper(quarter, mode, refined=refined)


REFERENCE_COEFFS = (Fraction(3, 7), Fraction(-5, 11), Fraction(13, 17), Fraction(-2, 3),
                    Fraction(7, 19))


def fraction_loop():
    """Reference loop for the exact layers: fixed Fraction arithmetic, about
    3.3 ms on an uncontended core of the 2-vCPU Xeon the benchmark was tuned
    on."""
    for i in range(1, 200):
        x, acc = Fraction(i, 401), Fraction(0)
        for c in REFERENCE_COEFFS:
            acc = acc * x + c
    return acc


def _bit_reversed(i):
    return int(format(i, f"0{GRID_BITS}b")[::-1], 2)


def stratified_units(rng):
    """Endless points of (0, 1): each pass is a fresh uniform grid of GRID
    points with a seeded offset, visited in bit-reversed order, so any prefix
    of the stream is spread evenly over (0, 1)."""
    while True:
        offset = Fraction(rng.randrange(1, 1 << 16), 1 << 16)
        for i in range(GRID):
            yield (_bit_reversed(i) + offset) / GRID


class Workload:
    """An operation is one call into the package; `inputs` yields the input
    of each call and `call` makes it."""

    name = ""
    traced_ops = 0  # size of the fixed, seed-determined traced run
    # seconds `reference` takes on the machine the benchmark was tuned on
    # when no other tenant slows it
    REFERENCE_S = 3.3e-3
    # report names of the operation rate and latency, and the latency unit
    RATE, LATENCY, UNIT = "calls_per_s", "call", "ms"

    def __init__(self, si, seed):
        self.si = si
        self.seed = seed
        self.rng = random.Random(seed)

    def setup(self):
        first_answers(self.si)

    def reference(self):
        """A loop with the program's mix of work, timed around each block of
        operations to scale their times (see run.measure)."""
        return fraction_loop()

    def inputs(self):
        raise NotImplementedError

    def call(self, inp):
        raise NotImplementedError

    def check(self, inp, out):
        """Error strings, empty when `out` is right for `inp`."""
        raise NotImplementedError

    def kind(self, inp):
        """What `report` tells operations apart by."""
        return None

    def report(self, kinds, seconds):
        """Workload-specific report lines, {name: (value, unit)}, from the
        kind and the time in seconds of each operation."""
        scale = 1e3 if self.UNIT == "ms" else 1e6
        p50, p90 = percentiles(seconds, scale)
        return {self.RATE: (len(seconds) / sum(seconds), "1/s"),
                f"{self.LATENCY}_{self.UNIT}_p50": (p50, self.UNIT),
                f"{self.LATENCY}_{self.UNIT}_p90": (p90, self.UNIT)}


def percentiles(seconds, scale=1e3):
    """(median, 90th percentile) of durations in seconds, times scale."""
    if len(seconds) < 2:
        v = scale * seconds[0]
        return v, v
    return scale * median(seconds), scale * quantiles(seconds, n=10)[8]


class ThetaWorkload(Workload):
    """An input is the (mode, refined, theta, tol) of one mu_upper call."""

    RATE, LATENCY = "thetas_per_s", "theta"

    def setup(self):
        super().setup()
        si = self.si
        self.grids = {}
        for mode in self.modes:
            m = si.HypothesisMode(mode)
            self.grids[mode] = checks.FormulaGrid(si.a_table(m, si.tables.DEFAULT_PINTZ_MAX_N),
                                                  si.astar_table(m, si.tables.DEFAULT_PINTZ_MAX_N))

    def call(self, inp):
        mode, refined, theta, tol = inp
        # looked up on the module at call time, so traced runs see every call
        return self.si.mu.mu_upper(theta, self.si.HypothesisMode(mode), tol, refined)

    def check(self, inp, res):
        mode, refined, theta, tol = inp
        return checks.check_mu(self.si, res, mode, refined, theta, tol, self.grids[mode])


class Curve(ThetaWorkload):
    """Thetas of the bit-reversed stream: any run of consecutive inputs is
    spread evenly over (0, 1), as the points of a curve are."""

    name = "curve"
    modes = ("unconditional",)
    traced_ops = 128

    def inputs(self):
        for theta in stratified_units(self.rng):
            yield "unconditional", True, theta, CURVE_TOL


WINDOW_CONFIGS = tuple((m, r) for m in MODES for r in (True, False))


class Window(ThetaWorkload):
    """For each point u of the stream, mu at u * (last non-empty theta) in
    all four modes, refined and l2-only; the first point is u = 1."""

    name = "window"
    modes = MODES
    traced_ops = 128

    def inputs(self):
        def units():
            yield Fraction(1)  # the regions' last points: 17/30 and 1/2
            yield from stratified_units(self.rng)

        for u in units():
            for mode, refined in WINDOW_CONFIGS:
                yield mode, refined, u * checks.EMPTY_BEYOND[mode], RH_TOL if mode == "rh" else CURVE_TOL


class Tables(Workload):
    """An input is (table index, sigma); each sigma is looked up in both
    tables of all four modes in turn."""

    name = "tables"
    traced_ops = 4096
    RATE, LATENCY, UNIT = "lookups_per_s", "lookup", "us"
    BREAKPOINT_SHARE = 0.25
    DIGITS = 10**6

    def setup(self):
        super().setup()
        si = self.si
        n = si.tables.DEFAULT_PINTZ_MAX_N
        self.tables = [(f"{which}[{m.value}]", table)
                       for m in si.HypothesisMode
                       for which, table in (("a", si.a_table(m, n)), ("astar", si.astar_table(m, n)))]
        self.cap = self.tables[0][1].sigma_cap
        unique = {str(p.lo): p.lo for _, table in self.tables for p in table.pieces}
        self.breakpoints = sorted(unique.values(), key=float)

    def sigmas(self):
        rng = self.rng
        while True:
            if rng.random() < self.BREAKPOINT_SHARE:
                yield rng.choice(self.breakpoints)
                continue
            s = Fraction(rng.randrange(self.DIGITS), self.DIGITS)
            if s < self.cap:
                yield s

    def inputs(self):
        for s in self.sigmas():
            for i in range(len(self.tables)):
                yield i, s

    def call(self, inp):
        i, s = inp
        return self.tables[i][1].evaluate_upper(s)

    def check(self, inp, value):
        i, s = inp
        label, table = self.tables[i]
        return checks.check_lookup(table, s, value, self.si.exact.as_boundary, label)


class Empirical(Workload):
    """One operation is one empirical command; the five run in a fixed cycle,
    and the exceptional scan reads the sieve of its own cycle."""

    name = "empirical"
    traced_ops = 10  # two cycles
    SIEVE_LIMIT = 10**7
    ENERGY_T = 1000.0
    MOMENT_X = 10**6
    MOMENT_THETA = Fraction(1, 2)  # zero sum truncated at T = X^(1/2) = 1000
    MOMENT_SAMPLES = 500
    SCAN_X = 50_000
    EXPLICIT_T = 5000.0
    STEPS = ("sieve_lambda", "additive_energy", "moment_statistic",
             "exceptional_measure", "explicit_formula_psi")
    REFERENCE_S = 8e-3

    def setup(self):
        si = self.si
        fixed = np.random.default_rng(0).random(1 << 18)
        self.reference_data = fixed, np.exp(1j * fixed[: 1 << 16])
        self.zeros = si.default_zeros()
        self.ordinates = self.zeros.ordinates.tolist()
        self.brute = checks.brute_lambda(10**4)
        self.sieve = None
        # touch every code path once at a small size
        small = si.sieve_lambda(10**5)
        si.additive_energy(self.zeros, 50.0)
        si.moment_statistic(self.zeros, 10**4, 0.5, 2, 4, seed=0)
        si.exceptional_measure(small, 1000, 0.5, 0.5)
        si.explicit_formula_psi(self.zeros, 1000.5, 100.0)

    def reference(self):
        """numpy sort, cumulative sum, complex exponential and pair sums, as
        the empirical commands do."""
        x, z = self.reference_data
        np.cumsum(np.sort(x))
        np.exp(3.0 * z).real.sum()
        np.sort((x[:512, None] + x[None, :512]).ravel())

    def inputs(self):
        rng = self.rng
        while True:
            yield "sieve_lambda", (self.SIEVE_LIMIT,)
            yield "additive_energy", (self.ENERGY_T,)
            yield "moment_statistic", (self.MOMENT_THETA, rng.randrange(1 << 31))
            yield "exceptional_measure", (Fraction(rng.randrange(500, 701), 1000),
                                          Fraction(rng.randrange(200, 501), 1000))
            yield "explicit_formula_psi", (rng.randrange(10**3, 10**6) + 0.5,)

    def _call_args(self, step, args):
        if step == "sieve_lambda":
            return args
        if step == "moment_statistic":
            theta, seed = args
            return self.zeros, self.MOMENT_X, theta, 2, self.MOMENT_SAMPLES, seed
        if step == "exceptional_measure":
            return (self.sieve, self.SCAN_X, *args)
        if step == "explicit_formula_psi":
            return self.zeros, args[0], self.EXPLICIT_T
        return (self.zeros, *args)

    def call(self, inp):
        step, args = inp
        if step == "sieve_lambda":
            self.sieve = None  # never hold two sieves
        # looked up on the module at call time, so traced runs see every call
        out = getattr(self.si.empirical, step)(*self._call_args(step, args))
        if step == "sieve_lambda":
            self.sieve = out  # read by the exceptional scan of this cycle
        return out

    def check(self, inp, out):
        step, args = inp
        if step == "sieve_lambda":
            return checks.check_sieve(out, self.brute)
        if step == "exceptional_measure":
            # x + x^theta < 4X for every scanned x < 2X
            cum = self.sieve.cum[: 4 * self.SCAN_X].tolist()
            return checks.check_exceptional(cum, self.SCAN_X, *args, out)
        if step == "additive_energy":
            return checks.check_energy(args[0], out)
        if step == "moment_statistic":
            theta, seed = args
            return checks.check_moment(self.ordinates, self.MOMENT_X, theta, 2,
                                       self.MOMENT_SAMPLES, seed, out)
        return checks.check_explicit(self.ordinates, args[0], self.EXPLICIT_T, out)

    def fixed_checks(self):
        """Checks that do not depend on the seed: goldens and small brute force."""
        si = self.si
        errors = []
        for (x, T), golden in checks.GOLDEN_EXPLICIT.items():
            value = si.explicit_formula_psi(self.zeros, x, T)
            if abs(value - golden) > 1e-6 * x ** 0.5:
                errors.append(f"explicit_formula_psi({x}, {T}) = {value!r}, golden {golden!r}")
        small_T = 50.0
        count = si.additive_energy(self.zeros, small_T)
        brute = checks.brute_energy(self.zeros.up_to(small_T).tolist())
        if count != brute:
            errors.append(f"additive_energy(T={small_T}) = {count}, brute force {brute}")
        return errors

    def kind(self, inp):
        return inp[0]

    def report(self, kinds, seconds):
        out = {}
        for step, name in zip(self.STEPS, ("sieve_s", "energy_s", "moments_s",
                                           "scan_s", "explicit_s")):
            times = [t for kind, t in zip(kinds, seconds) if kind == step]
            out[name] = (median(times) if times else 0.0, "s")
        return out


WORKLOADS = {w.name: w for w in (Curve, Window, Tables, Empirical)}
