import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shortintervals import polys
from shortintervals.errors import DenominatorVanishes, DomainMismatch, OutOfDomain
from shortintervals.exact import BoundaryPoint
from shortintervals.optimize import SupCell, certified_sup
from shortintervals.piecewise import (
    Piece,
    PiecewiseBound,
    RationalFunction,
    feasible_region,
    pointwise_min,
)
from shortintervals.tables import HypothesisMode, a_table, astar_table

UNC = HypothesisMode.UNCONDITIONAL


def rf(num, den=(1,)):
    return RationalFunction([F(c) for c in num], [F(c) for c in den])


INGHAM = rf((3,), (2, -1))  # 3/(2 - s)


def test_enclose_point_interval_tight():
    # a point cell is evaluated exactly: its bracket is the directed
    # rounding of the exact value, at most one ulp wide
    res = certified_sup([SupCell(F(1, 2), F(1, 2), [INGHAM])], F(1, 10**15))
    assert res.lower == res.upper == 2.0
    res = certified_sup([SupCell(F(1, 3), F(1, 3), [INGHAM])], F(1, 10**15))
    assert F(res.lower) <= F(9, 5) <= F(res.upper)
    assert res.upper - res.lower <= math.ulp(1.8)


def test_enclose_contains_range():
    # 3/(2 - s) rises from 2 to 30/13 on [1/2, 7/10]
    res = certified_sup([SupCell(F(1, 2), F(7, 10), [INGHAM])], F(1, 10**12))
    assert F(res.lower) <= F(30, 13) <= F(res.upper)
    assert res.witness == F(7, 10)


def test_enclose_pole_raises():
    pole = rf((1,), (1, -1))
    with pytest.raises(DenominatorVanishes):
        certified_sup([SupCell(F(999, 1000), F(1001, 1000), [pole])], F(1, 10**9))
    with pytest.raises(DenominatorVanishes):
        certified_sup([SupCell(F(1), F(1), [pole])], F(1, 10**9))


def test_enclosure_soundness_randomized():
    # no exact sample of min(f, g) on a cell exceeds the certified upper
    # bound, and the witness attains at least the lower bound
    rng = random.Random(19)
    for _ in range(60):
        fs = [
            RationalFunction(
                [F(rng.randint(-9, 9)) for _ in range(rng.randint(1, 3))],
                [F(rng.randint(1, 9)), F(0), F(rng.randint(1, 9))],  # positive on R
            )
            for _ in range(2)
        ]
        a = F(rng.randint(-100, 100), 100)
        b = a + F(rng.randint(1, 50), 100)
        res = certified_sup([SupCell(a, b, fs)], F(1, 10**9))
        assert res.upper - res.lower <= 1e-9
        for k in range(33):
            t = a + (b - a) * F(k, 32)
            assert min(f.eval_exact(t) for f in fs) <= F(res.upper)
        assert min(f.eval_exact(res.witness) for f in fs) >= F(res.lower)


def test_evaluate_upper_takes_max_at_breakpoints():
    pw = PiecewiseBound([
        Piece(F(0), F(1, 2), rf((1,)), "low"),
        Piece(F(1, 2), F(1), rf((3,)), "high"),
    ])
    assert pw.evaluate_upper(F(1, 4)) == 1
    assert pw.evaluate_upper(F(1, 2)) == 3  # max of adjacent pieces
    assert pw.evaluate_upper(F(3, 4)) == 3
    with pytest.raises(OutOfDomain):
        pw.evaluate_upper(F(1))
    with pytest.raises(OutOfDomain):
        pw.evaluate_upper(F(-1, 10))


def test_pieces_at_matches_scan():
    # the bisected lookup returns exactly the pieces whose closed cell holds
    # sigma, in table order: two at a breakpoint, surd breakpoints included
    rng = random.Random(31)
    for mode in HypothesisMode:
        for table in (a_table(mode), astar_table(mode)):
            cap = table.sigma_cap.as_fraction()
            points = [p.lo for p in table.pieces]
            points += [cap * F(rng.randrange(10**6), 10**6) for _ in range(200)]
            for s in points:
                expected = [p for p in table.pieces if p.lo <= s <= p.hi]
                assert table.pieces_at(s) == expected, (mode, s)
            assert len(table.pieces_at(table.pieces[-1].lo)) == 2
            with pytest.raises(OutOfDomain):
                table.pieces_at(table.sigma_cap)


def test_pointwise_min_idempotent():
    table = a_table(UNC)
    m = pointwise_min(table, table)
    assert len(m.pieces) == len(table.pieces)
    for p, q in zip(m.pieces, table.pieces):
        assert p.lo == q.lo and p.hi == q.hi
        assert p.rf.same_function(q.rf)


def test_pointwise_min_exact_crossing():
    # 2 crosses 3/(2-s) exactly at s = 1/2
    a = PiecewiseBound([Piece(F(0), F(1), rf((2,)), "const")])
    b = PiecewiseBound([Piece(F(0), F(1), INGHAM, "ingham")])
    m = pointwise_min(a, b)
    assert [p.lo for p in m.pieces] == [F(0), F(1, 2)]
    assert m.pieces[0].provenance == "ingham"
    assert m.pieces[1].provenance == "const"
    assert m.evaluate_upper(F(1, 4)) == F(3) / F(7, 4)
    assert m.evaluate_upper(F(3, 4)) == 2


def test_pointwise_min_domain_mismatch():
    a = PiecewiseBound([Piece(F(0), F(1), rf((2,)), "")])
    b = PiecewiseBound([Piece(F(0), F(1, 2), rf((2,)), "")])
    with pytest.raises(DomainMismatch):
        pointwise_min(a, b)


def test_majorization_against_direct_min():
    # value of the min-table equals min of the input values away from cuts
    rng = random.Random(23)
    a = PiecewiseBound([Piece(F(0), F(1), rf((2,)), "const")])
    b = PiecewiseBound([Piece(F(0), F(1), INGHAM, "ingham")])
    m = pointwise_min(a, b)
    cuts = {bp.as_fraction() for bp in m.breakpoints() if bp.is_rational}
    for _ in range(10_000):
        s = F(rng.randint(0, 9999), 10_000)
        if s in cuts:
            continue
        assert m.evaluate_upper(s) == min(a.evaluate_upper(s), b.evaluate_upper(s))


def test_feasible_region_degenerate_point():
    # threshold 30/13 touches the table only at sigma = 7/10
    region = feasible_region(a_table(UNC), F(30, 13))
    assert len(region) == 1
    lo, hi = region[0]
    assert lo == F(7, 10) and hi == F(7, 10)
    # under RH the table ends at 1/2 with the value 2 (theta = 1/2)
    assert feasible_region(a_table(HypothesisMode.RH), F(2)) == [(F(1, 2), F(1, 2))]


def test_feasible_region_zero_threshold_is_everything():
    table = a_table(UNC)
    region = feasible_region(table, F(0))
    assert len(region) == 1
    assert region[0][0] == 0 and region[0][1] == table.sigma_cap


def test_feasible_region_exact_linear_crossing():
    # threshold 15/13 (theta = 2/15) exits inside the row with formula
    # 22232/(163248 s - 134765); the crossing is rational
    region = feasible_region(a_table(UNC), F(15, 13))
    assert len(region) == 1
    lo, hi = region[0]
    assert lo == F(2, 15)
    assert hi == F(2310491, 2448720)
    assert 0.9419 < float(hi) < 0.946


def test_feasible_region_membership_randomized():
    rng = random.Random(29)
    table = a_table(UNC)
    c = F(2)
    region = feasible_region(table, c)
    cap = table.sigma_cap.as_fraction()
    for _ in range(10_000):
        s = F(rng.randint(0, 10_000), 10_001) * cap.numerator / cap.denominator
        if not 0 <= s < cap:
            continue
        inside = any(lo <= s <= hi for lo, hi in region)
        assert inside == (table.evaluate_upper(s) >= c), s


def _rational_end_values(mode):
    values = set()
    for p in a_table(mode).pieces:
        for x in (p.lo, p.hi):
            v = None if p.rf is None else p.rf.eval_exact(x)
            if isinstance(v, F):
                values.add(v)
    return sorted(values)


END_VALUES = {mode: _rational_end_values(mode) for mode in HypothesisMode}


@st.composite
def mode_and_level(draw):
    mode = draw(st.sampled_from(list(HypothesisMode)))
    c = draw(st.one_of(
        st.fractions(min_value=0, max_value=3, max_denominator=10**4),
        st.sampled_from(END_VALUES[mode]),
        st.just(F(30, 13)),
    ))
    return mode, c


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    case=mode_and_level(),
    units=st.lists(st.fractions(min_value=0, max_value=1, max_denominator=10**6),
                   min_size=20, max_size=20),
)
def test_feasible_region_exact_in_all_modes(case, units):
    # sigma lies in the region iff the regularized table reaches c there,
    # at random sigma and at every region endpoint
    mode, c = case
    table = a_table(mode)
    region = feasible_region(table, c)
    cap = table.sigma_cap
    points = [cap.as_fraction() * u for u in units if u < 1]
    points += [x for iv in region for x in iv if x < cap]
    for s in points:
        inside = any(lo <= s <= hi for lo, hi in region)
        assert inside == (table.evaluate_upper(s) >= c), (mode, c, s)


def _region_by_scan(pw, c):
    """The region as every piece's own solve gives it: each piece whose
    maximum reaches c is cut at its crossings with c, and all parts are
    sorted and merged by exact comparison."""
    c = F(c)
    n, d = c.numerator, c.denominator
    intervals = []
    for k, piece in enumerate(pw.pieces):
        top = pw.piece_max(k)
        if top is None or top < c:
            continue
        p, q, m = pw.int_row(k)
        diff = polys.lincomb(d, p, -n, q)
        if not diff:
            intervals.append((piece.lo, piece.hi))
            continue
        cuts, exact = polys.cut_at_roots([(diff, d * m)], piece.lo, piece.hi)
        intervals += [(x, x) for x in exact]
        for x, y in zip(cuts, cuts[1:]):
            if (polys.sign_at(diff, x) or polys.sign_at(diff, y) or polys.sign_at(
                    diff, polys.rational_between(x, y))) * polys.sign_at(q, x) > 0:
                intervals.append((x, y))
    intervals.sort()
    merged = []
    for lo, hi in intervals:
        if merged and not merged[-1][1] < lo:
            plo, phi = merged[-1]
            merged[-1] = (plo, hi if hi > phi else phi)
        else:
            merged.append((lo, hi))
    return [iv for iv in merged if iv[0] < pw.sigma_cap]


def _forms(region):
    return [(x.p, x.q, x.r) for iv in region for x in iv]


def _assert_same_region(table, c):
    got, want = feasible_region(table, c), _region_by_scan(table, c)
    assert got == want, c
    assert _forms(got) == _forms(want), c


def _bound_levels(table):
    """Every piece maximum and minimum of the table: float ties with c."""
    ks = [k for k, p in enumerate(table.pieces) if p.rf is not None]
    return {table.piece_max(k) for k in ks} | {table.piece_min(k) for k in ks}


BOTH_TABLES = [(mode, build) for mode in HypothesisMode for build in (a_table, astar_table)]


@pytest.mark.parametrize("mode,build", BOTH_TABLES)
def test_feasible_region_matches_scan_at_piece_bounds(mode, build):
    # thresholds equal to a piece's maximum or minimum are the ties that the
    # float comparisons hand to exact arithmetic; 30/13 and 2 touch the
    # tables at single points, and 10^400 is out of float range
    table = build(mode)
    levels = _bound_levels(table) | set(END_VALUES[mode]) | {F(30, 13), F(2), F(0)}
    levels |= {F(10**400), -F(10**400), F(1, 10**400)}
    for c in sorted(levels):
        _assert_same_region(table, c)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(case=mode_and_level(), which=st.sampled_from([a_table, astar_table]))
def test_feasible_region_matches_scan(case, which):
    mode, c = case
    _assert_same_region(which(mode), c)


def test_feasible_region_solves_only_pieces_crossing_c(monkeypatch):
    # a piece whose minimum reaches c is taken whole and one whose maximum
    # is below c is skipped: only pieces with min < c <= max are solved
    table = a_table(UNC)
    feasible_region(table, F(0))  # compute every piece's bounds
    calls = []
    isolate = polys.roots_in_closed_interval

    def counting(p, lo, hi, den=1):
        calls.append((lo, hi))
        return isolate(p, lo, hi, den)

    monkeypatch.setattr(polys, "roots_in_closed_interval", counting)
    assert feasible_region(table, F(0)) == [(0, table.sigma_cap)]
    assert not calls
    for c in (F(2), F(15, 13), F(30, 13)):
        calls.clear()
        feasible_region(table, c)
        crossing = [(p.lo, p.hi) for k, p in enumerate(table.pieces)
                    if table.piece_min(k) < c <= table.piece_max(k)]
        assert calls == crossing, c


@pytest.mark.parametrize("mode,build", BOTH_TABLES)
def test_piece_min_is_below_every_value(mode, build):
    # piece_min(k) <= rf(s) <= piece_max(k) at exact s across each closed
    # cell, surd ends included
    table = build(mode)
    for k, piece in enumerate(table.pieces):
        if piece.rf is None:
            assert table.piece_min(k) is None
            continue
        lo_f, hi_f = piece.lo.enclose_fraction(64)[1], piece.hi.enclose_fraction(64)[0]
        samples = [piece.lo, piece.hi]
        samples += [lo_f + (hi_f - lo_f) * F(j, 16) for j in range(1, 16)]
        low, top = table.piece_min(k), table.piece_max(k)
        assert low == F(float(low)) and low <= top
        for s in samples:
            v = piece.rf.eval_exact(s)
            assert low <= v <= top, (mode, k, s)


POLE_AT_HALF = PiecewiseBound([Piece(F(0), F(1), rf((1,), (F(-1, 2), 1)), "pole")])
POLE_AT_THIRD = PiecewiseBound([Piece(F(0), F(1), rf((1,), (F(-1, 3), 1)), "pole")])


def test_feasible_region_pole_raises():
    # 1/(s - 1/2) is not sign-definite on [0, 1): solving its level set
    # would silently drop feasible sigma
    with pytest.raises(DenominatorVanishes):
        feasible_region(POLE_AT_HALF, F(1))
    # the sign of 1/(s - 1/3) at the piece's midpoint hides the pole: the
    # piece's maximum over its closed cell must still find it
    with pytest.raises(DenominatorVanishes):
        feasible_region(POLE_AT_THIRD, F(1))


def test_feasible_region_pole_raises_under_optimize_flag():
    code = (
        "from fractions import Fraction as F\n"
        "from shortintervals.errors import DenominatorVanishes\n"
        "from shortintervals.piecewise import Piece, PiecewiseBound, RationalFunction,"
        " feasible_region\n"
        "for pole in (F(1, 2), F(1, 3)):\n"
        "    pw = PiecewiseBound([Piece(F(0), F(1), RationalFunction((F(1),), (-pole, F(1))))])\n"
        "    try:\n"
        "        feasible_region(pw, F(1))\n"
        "    except DenominatorVanishes:\n"
        "        continue\n"
        "    raise SystemExit(1)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=60)
    assert proc.returncode == 0


def _surd_horner(coeffs, x):
    """coeffs(x) in plain BoundaryPoint arithmetic."""
    acc = BoundaryPoint.rational(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


small = st.fractions(min_value=-20, max_value=20, max_denominator=50)
coeff_lists = st.lists(small, min_size=1, max_size=5)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(num=coeff_lists, den=coeff_lists.filter(any), p=small, q=small.filter(bool),
       r=st.sampled_from([2, 3, 5, 8, 12, 42121]))
@example(num=[F(1)], den=[F(-2), F(0), F(1)], p=F(0), q=F(1), r=2)
def test_surd_evaluation_matches_boundary_arithmetic(num, den, p, q, r):
    # the Q(sqrt r) kernel gives the value, field and sign that
    # BoundaryPoint arithmetic gives
    x = BoundaryPoint(p, q, r)
    f = RationalFunction(num, den)
    want_num, want_den = _surd_horner(f.num, x), _surd_horner(f.den, x)
    assert polys.sign_at(f.num, x) == want_num.sign()
    assert polys.sign_at(f.den, x) == want_den.sign()
    if want_den.sign() == 0:
        with pytest.raises(DenominatorVanishes):
            f.eval_exact(x)
        return
    want, got = want_num / want_den, f.eval_exact(x)
    if want.is_rational:
        assert type(got) is F and got == want.as_fraction()
    else:
        assert (got.p, got.q, got.r) == (want.p, want.q, want.r)


def test_surd_pole_raises():
    with pytest.raises(DenominatorVanishes):
        rf((1,), (-2, 0, 1)).eval_exact(BoundaryPoint(0, 1, 2))


def test_surd_pole_raises_under_optimize_flag():
    code = (
        "from fractions import Fraction as F\n"
        "from shortintervals.errors import DenominatorVanishes\n"
        "from shortintervals.exact import BoundaryPoint\n"
        "from shortintervals.piecewise import RationalFunction\n"
        "try:\n"
        "    RationalFunction((F(1),), (F(-2), F(0), F(1))).eval_exact(BoundaryPoint(0, 1, 2))\n"
        "except DenominatorVanishes:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=60)
    assert proc.returncode == 0
