import os
import random
import subprocess
import sys
from fractions import Fraction as F
from math import inf
from pathlib import Path

import mpmath
import numpy as np
import pytest

from shortintervals import optimize, polys
from shortintervals.errors import DenominatorVanishes, NonConvergence
from shortintervals.mu import mu_upper
from shortintervals.optimize import SupCell, certified_sup
from shortintervals.piecewise import RationalFunction


def rf(num, den=(1,)):
    return RationalFunction([F(c) for c in num], [F(c) for c in den])


def test_smooth_interior_maximum():
    res = certified_sup([SupCell(F(0), F(1), [rf((0, 1, -1))])], F(1, 10**9))
    assert res.lower <= 0.25 <= res.upper
    assert res.upper - res.lower <= 1e-9
    assert abs(float(res.witness) - 0.5) < 1e-3


def test_kink_maximum_min_of_two():
    res = certified_sup(
        [SupCell(F(0), F(1), [rf((0, 1)), rf((1, -1))])], F(1, 10**12)
    )
    assert abs(res.upper - 0.5) <= 1e-12
    assert res.lower <= 0.5


def test_empty_region_convention():
    res = certified_sup([], F(1, 10**9))
    assert res.upper == -inf and res.lower == -inf
    assert res.witness is None and res.is_empty


def test_degenerate_point_cell_exact():
    res = certified_sup([SupCell(F(7, 10), F(7, 10), [rf((F(7, 12),))])], F(1, 10**9))
    assert res.lower <= 7 / 12 <= res.upper
    assert res.upper - res.lower <= 1e-12
    assert float(res.witness) == 0.7


def test_endpoint_maximum_resolves_from_seed():
    # increasing objective: supremum at the right endpoint, found exactly
    res = certified_sup([SupCell(F(0), F(1, 2), [rf((0, 2))])], F(1, 10**12))
    assert abs(res.upper - 1.0) <= 1e-12
    assert res.witness == F(1, 2)


def test_argmin_index_reported():
    # objective 1: constant 2; objective 0: 3 - s; min is objective 1 near 1
    res = certified_sup([SupCell(F(0), F(1), [rf((3, -1)), rf((2,))])], F(1, 10**9))
    assert res.active_index == 1
    assert abs(res.upper - 2.0) <= 1e-9


def test_cell_bounds_skip_only_what_cannot_matter(monkeypatch):
    from shortintervals import optimize

    evaluated = []
    cell_sup = optimize._cell_sup

    def counting(cell, *args):
        evaluated.append(cell)
        return cell_sup(cell, *args)

    monkeypatch.setattr(optimize, "_cell_sup", counting)
    tol = F(1, 10**9)
    one = SupCell(F(0), F(1, 4), [rf((1,))], bound=F(2))
    # bound + tol below the attained 1: skipped, never evaluated
    low = SupCell(F(1, 4), F(1, 2), [rf((F(1, 2),))], bound=F(1, 2))
    res = certified_sup([low, one], tol)
    assert evaluated == [one] and res.witness == 0
    # a bound within tol above the attained value keeps the cell, whose
    # value is the supremum
    near = SupCell(F(1, 2), F(3, 4), [rf((1 + tol / 2,))], bound=1 + tol / 2)
    res = certified_sup([one, near], tol)
    assert F(res.upper) >= 1 + tol / 2 and res.witness == F(1, 2)
    # a tie goes to the first cell in list order, though the second is
    # visited first
    tie = SupCell(F(1, 2), F(3, 4), [rf((1,))], bound=F(1))
    assert certified_sup([tie, one], tol).witness == F(1, 2)


# a pole inside the cell, at its right end, at a surd inside, and in the
# second of two objectives
POLE_CELLS = [
    [rf((1,), (F(-1, 2), 1))],
    [rf((1,), (-1, 1))],
    [rf((0, 1), (F(-1, 2), 0, 1))],
    [rf((1, -1)), rf((2,), (F(-1, 3), 1))],
]


@pytest.mark.parametrize("objectives", POLE_CELLS, ids=range(len(POLE_CELLS)))
def test_hand_built_cell_with_a_pole_raises(objectives):
    # a pole in the closed cell makes the supremum meaningless: never return one
    with pytest.raises(DenominatorVanishes):
        certified_sup([SupCell(F(0), F(1), objectives)], F(1, 10**9))


def test_hand_built_cell_with_a_pole_raises_under_optimize_flag():
    # also mu's chord bounds, which hold without assert: at theta = 1/3 the
    # cells' chords run between knots (lam = 1/3), at 1/2 they are knots
    code = (
        "from fractions import Fraction as F\n"
        "from shortintervals.errors import DenominatorVanishes\n"
        "from shortintervals.mu import mu_upper\n"
        "from shortintervals.optimize import SupCell, certified_sup\n"
        "from shortintervals.piecewise import RationalFunction as R\n"
        "cases = [[R((F(1),), (F(-1, 2), F(1)))], [R((F(1),), (F(-1), F(1)))],\n"
        "         [R((F(0), F(1)), (F(-1, 2), F(0), F(1)))],\n"
        "         [R((F(1), F(-1))), R((F(2),), (F(-1, 3), F(1)))]]\n"
        "for objectives in cases:\n"
        "    try:\n"
        "        certified_sup([SupCell(F(0), F(1), objectives)], F(1, 10**9))\n"
        "    except DenominatorVanishes:\n"
        "        continue\n"
        "    raise SystemExit(1)\n"
        "for theta, value in ((F(1, 3), F(9, 10)), (F(1, 2), F(183, 260))):\n"
        "    res = mu_upper(theta)\n"
        "    if not F(res.lower) <= value <= F(res.upper) or res.upper - res.lower > 1e-9:\n"
        "        raise SystemExit(2)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=60)
    assert proc.returncode == 0


def test_non_convergence_unreachable_tol():
    # 1/3 has no float bracket narrower than one ulp
    with pytest.raises(NonConvergence):
        certified_sup([SupCell(F(0), F(1), [rf((F(1, 3),))])], F(1, 10**20))
    # nor has the irrational crossing of s^3 and 1 - s
    with pytest.raises(NonConvergence):
        certified_sup([SupCell(F(0), F(1), [rf((0, 0, 0, 1)), rf((1, -1))])], F(1, 10**20))


def test_bracketed_crossing_bisected_to_tol():
    # s^3 = 1 - s has one real root, a cubic irrational: the crossing comes
    # back bracketed and is bisected until the bracket is within tol
    root = mpmath.findroot(lambda x: x**3 + x - 1, 0.68)
    for tol in (F(1, 10**9), F(1, 10**15)):
        res = certified_sup([SupCell(F(0), F(1), [rf((0, 0, 0, 1)), rf((1, -1))])], tol)
        assert res.lower <= float(1 - root) <= res.upper
        assert res.upper - res.lower <= float(tol)
        assert isinstance(res.witness, F) and abs(float(res.witness) - float(root)) < 1e-12
        assert res.active_index == 0  # s^3 is the smaller one left of the crossing


def _crossing_by_rationals(cell, up, dn, i, j, x, y, tol, found, bounds):
    """optimize._crossing with every sign step taken by rational_between and
    sign_at, as before float midpoints were bisected in floats."""
    objectives = cell.objectives
    diff, den = cell.crossing(i, j)
    if len(diff) <= 3:
        root = polys.roots_in_closed_interval(diff, x, y, den)[0]
        t = optimize._point(root.point)
        found.append((*optimize._argmin([rf.eval_exact(t) for rf in objectives]), t))
        return
    p, q = optimize._point(x), optimize._point(y)
    s_p = polys.sign_at(diff, p)
    while not (type(p) is type(q) is F and q - p <= optimize._WIDTH):
        m = polys.rational_between(p, q)
        s_m = polys.sign_at(diff, m)
        if s_m == 0:
            found.append((*optimize._argmin([rf.eval_exact(m) for rf in objectives]), m))
            return
        p, q = (m, q) if s_m == s_p else (p, m)
    while True:
        vp = [rf.eval_exact(p) for rf in objectives]
        vq = [rf.eval_exact(q) for rf in objectives]
        high = min([vq[u] for u in up] + [vp[d] for d in dn])
        low, k = optimize._argmin(vp)
        if high - low <= tol / 4:
            found.append((low, k, p))
            bounds.append(high)
            return
        if float(p) == float(q):
            raise NonConvergence("tol is below the float resolution")
        m = (p + q) / 2
        p, q = (m, q) if polys.sign_at(diff, m) == s_p else (p, m)


def _replayed(monkeypatch, run):
    """run() with the float bisection and with the rational one, and how
    often the float bisection stepped."""
    steps = []
    bisect = optimize._float_bisect

    def counting(*args):
        out = bisect(*args)
        steps.append(out)
        return out

    monkeypatch.setattr(optimize, "_float_bisect", counting)
    got = run()
    monkeypatch.setattr(optimize, "_crossing", _crossing_by_rationals)
    return got, run(), steps


def _same_result(got, want):
    assert (got.upper, got.lower, got.active_index) == (want.upper, want.lower, want.active_index)
    assert type(got.witness) is type(want.witness) and got.witness == want.witness


@pytest.mark.parametrize("tol", [F(1, 10**9), F(1, 10**15)])
def test_float_bisection_replays_rational_steps(monkeypatch, tol):
    # the float midpoints are the ones rational_between picks, so the
    # witness and the bracket are those of the rational bisection
    cell = SupCell(F(0), F(1), [rf((0, 0, 0, 1)), rf((1, -1))])
    got, want, steps = _replayed(monkeypatch, lambda: certified_sup([cell], tol))
    assert steps
    _same_result(got, want)


def test_float_bisection_replays_rational_steps_on_mu(monkeypatch):
    # the unconditional bound at theta = 9/20 bisects a cubic L2/L4 crossing
    # (under the Lindelof hypothesis that crossing is quadratic)
    got, want, steps = _replayed(monkeypatch, lambda: mu_upper(F(9, 20)))
    assert steps
    assert (got.upper, got.lower, got.active) == (want.upper, want.lower, want.active)
    assert type(got.witness_exact) is type(want.witness_exact)
    assert got.witness_exact == want.witness_exact


def test_randomized_objectives_against_dense_grid():
    rng = random.Random(101)
    xs = np.linspace(0.0, 1.0, 1_000_001)
    for _ in range(25):
        num = [F(rng.randint(-8, 8)) for _ in range(3)]
        # a + b s^2 with a, b >= 1: sign-definite even under interval Horner
        den = [F(rng.randint(1, 6)), F(0), F(rng.randint(1, 6))]
        f = RationalFunction(num, den)
        if not f.num:
            continue
        d = np.polyval([float(c) for c in reversed(f.den)], xs)
        vals = np.polyval([float(c) for c in reversed(f.num)], xs) / d
        grid_max = float(vals.max())
        res = certified_sup([SupCell(F(0), F(1), [f])], F(1, 10**9))
        assert res.upper >= grid_max - 1e-9
        assert res.upper - grid_max <= 1e-9 + 1e-4  # tol + grid resolution effect
