from bisect import bisect_left, bisect_right
from fractions import Fraction as F
from math import inf

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shortintervals import mu, optimize, piecewise, polys
from shortintervals.errors import DomainMismatch, OutOfDomain
from shortintervals.exact import BoundaryPoint
from shortintervals.mu import (
    gap_exponent,
    mu2,
    mu4,
    mu_curve,
    mu_upper,
    theta_grid,
)
from shortintervals.optimize import SupCell, certified_sup
from shortintervals.piecewise import RationalFunction, feasible_region
from shortintervals.polys import lincomb, padd, pderiv, pmul, pscale, psub, ptrim, rational_between
from shortintervals.tables import DEFAULT_PINTZ_MAX_N, HypothesisMode, a_table

UNC = HypothesisMode.UNCONDITIONAL
DH = HypothesisMode.DH
LH = HypothesisMode.LH
RH = HypothesisMode.RH


# ----- exact moment values ---------------------------------------------------

def test_mu2_at_half_is_one_minus_theta():
    for theta in (F(1, 10), F(1, 3), F(2, 5)):
        assert mu2(F(1, 2), theta) == 1 - theta


def test_mu2_at_junction():
    # (13/15)(3/10)(30/13) + 2*(7/10) - 1 = 1
    assert mu2(F(7, 10), F(2, 15)) == 1
    delta = F(1, 100)
    assert mu2(F(7, 10), F(2, 15) + delta) == 1 - F(9, 13) * delta


def test_mu4_headline_value():
    # (13/30)(3/10)(235/39) + 4*(7/10) - 3 = 7/12
    assert mu4(F(7, 10), F(17, 30)) == F(7, 12)


def test_mu4_low_range():
    for theta in (F(3, 10), F(1, 4)):
        assert mu4(F(1, 2), theta) == 2 - 3 * theta
        assert mu4(F(1, 2), theta, DH) == 2 - 3 * theta


def test_mu4_lh_energy_decision():
    # LH energy table keeps the sharper printed row at 3/4:
    # min((10-11s)/((2-s)(1-s)) family value 50/9, trivial 3*2) = 50/9,
    # giving (1/2)(1/4)(50/9) = 25/36
    assert mu4(F(3, 4), F(1, 2), LH) == F(25, 36)


def test_mu_moments_at_surd_sigma():
    s = BoundaryPoint(F(539, 460), F(-1, 460), 42121)
    v2 = mu2(s, F(1, 2))
    v4 = mu4(s, F(1, 2))
    assert not isinstance(v2, float) and not isinstance(v4, float)
    # both table rows join continuously at this surd; values are irrational
    assert not (isinstance(v4, BoundaryPoint) and v4.is_rational)


def test_moment_out_of_domain():
    with pytest.raises(OutOfDomain):
        mu2(F(7, 10), F(3, 2))
    with pytest.raises(OutOfDomain):
        mu2(F(9999, 10000), F(1, 4))  # beyond sigma_cap = 1 - 1/8320


def test_rh_moment_is_minus_inf_above_half():
    assert mu2(F(3, 5), F(1, 4), RH) == -inf


# ----- certified suprema -----------------------------------------------------

def test_mu_headline_17_30():
    r = mu_upper(F(17, 30))
    assert abs(r.upper - 7 / 12) <= 1e-9
    assert r.upper - r.lower <= 1e-9
    assert abs(r.witness_sigma - 0.7) <= 1e-6
    assert r.active == "L4"


def test_mu_empty_beyond_17_30():
    r = mu_upper(F(3, 5))
    assert r.is_empty and r.upper == -inf and r.active == "EMPTY"
    assert r.witness_sigma is None


def test_mu_rh_exact():
    r = mu_upper(F(3, 10), RH, tol=F(1, 10**13))
    assert abs(r.upper - 0.7) <= 1e-12
    assert r.active == "L2"


def test_mu_lh_value():
    r = mu_upper(F(2, 5), LH)
    assert abs(r.upper - 0.8) <= 1e-9


def test_mu_slope_near_2_15():
    delta = F(1, 100)
    r = mu_upper(F(2, 15) + delta)
    assert abs(r.upper - float(1 - F(9, 13) * delta)) <= 1e-6
    assert abs(r.witness_sigma - 0.7) <= 1e-3


def test_mu_l2_only_weaker():
    theta = F(17, 30)
    refined = mu_upper(theta)
    l2 = mu_upper(theta, refined=False)
    assert refined.upper <= l2.upper + 1.1e-9
    # at 17/30 the second-moment-only bound is 7/10, not 7/12
    assert abs(l2.upper - 0.7) <= 1e-9
    assert l2.active == "L2"


def test_gap_exponent():
    assert abs(gap_exponent(F(17, 30)) - (7 / 12 - 17 / 30)) <= 1e-9
    assert gap_exponent(F(3, 10), RH) == pytest.approx(0.4, abs=1e-9)
    assert gap_exponent(F(7, 10)) == -inf


# ----- curves ----------------------------------------------------------------

def test_theta_grid_counts():
    assert len(theta_grid(F(1, 2), F(11, 20), 5)) == 6
    with pytest.raises(OutOfDomain):
        theta_grid(F(1, 2), F(1, 3), 5)


def test_theta_grid_steps_ceiling():
    grid = theta_grid(F(1, 1000), F(999, 1000), mu.MAX_CURVE_STEPS)
    assert len(grid) == mu.MAX_CURVE_STEPS + 1
    assert grid[0] == F(1, 1000) and grid[-1] == F(999, 1000)
    for steps in (0, mu.MAX_CURVE_STEPS + 1, 10**18):
        with pytest.raises(OutOfDomain):
            theta_grid(F(1, 2), F(11, 20), steps)


def test_curve_finite_and_monotone():
    pts = mu_curve(F(1, 2), F(11, 20), 5)
    assert len(pts) == 6
    assert all(p.mu_upper != -inf for p in pts)
    for a, b in zip(pts, pts[1:]):
        assert b.mu_upper <= a.mu_upper + 1.1e-9
    for p in pts:
        assert p.gap_exponent == pytest.approx(p.mu_upper - float(p.theta), abs=1e-12)


def test_curve_rh_shape():
    pts = mu_curve(F(1, 10), F(9, 10), 8, RH)
    for p in pts:
        if p.theta <= F(1, 2):
            assert p.mu_upper == pytest.approx(1 - float(p.theta), abs=1e-9)
        else:
            assert p.mu_upper == -inf and p.gap_exponent == -inf


def test_curve_empty_tail():
    pts = mu_curve(F(17, 30) + F(1, 1000), F(9, 10), 1)
    assert len(pts) == 2
    assert all(p.mu_upper == -inf for p in pts)


def test_mode_dominance_sampled():
    for theta in theta_grid(F(1, 20), F(19, 20), 12):
        uppers = [mu_upper(theta, m).upper for m in (RH, LH, DH, UNC)]
        for s, w in zip(uppers, uppers[1:]):
            if s != -inf:
                assert s <= w + 1.1e-9, theta


def test_uncovered_cell_raises(monkeypatch):
    # a feasible cell no table row covers must fail loudly, never be dropped
    table = a_table(UNC)
    index = mu._PieceIndex(table, 2)
    assert len(index.covering(F(1, 4), F(1, 3))) == 1
    b = table.pieces[2].lo  # 7/10: a point cell there gets both adjacent rows
    assert len(index.covering(b, b)) == 2
    assert len(index.covering(b, table.pieces[2].hi)) == 1
    with pytest.raises(DomainMismatch):
        index.covering(F(99, 100), F(1))
    with pytest.raises(DomainMismatch):
        index.covering(b - F(1, 10**6), b + F(1, 10**6))
    # cells past the last precompiled span, or before the first, have no rows
    for lo, hi in ((F(99, 100), F(1)), (F(-1, 10), F(1, 10))):
        region = [(BoundaryPoint(lo), BoundaryPoint(hi))]
        monkeypatch.setattr(mu, "feasible_region", lambda pw, c, region=region: region)
        with pytest.raises(DomainMismatch):
            mu.objective_cells(F(1, 4))


def _cells_by_covering(theta, mode, refined):
    """objective_cells as (lo, hi, objectives, bound), with the rows of every
    cell looked up by _PieceIndex.covering instead of the precompiled spans."""
    atab, a_idx, astar_idx, bps, _ = mu._mode_grid(mode, DEFAULT_PINTZ_MAX_N)
    out = []
    for rlo, rhi in feasible_region(atab, 1 / (1 - theta)):
        cuts = [rlo, *bps[bisect_right(bps, rlo) : bisect_left(bps, rhi)], rhi]
        for x, y in [(rlo, rhi)] if rlo == rhi else zip(cuts, cuts[1:]):
            for ra in a_idx.covering(x, y):
                if ra is None:
                    continue
                l2 = mu._Moment(ra, theta.numerator, theta.denominator)
                if not refined:
                    out.append((x, y, [l2], mu._cell_bound(x, y, [l2])))
                    continue
                for rs in astar_idx.covering(x, y):
                    if rs is not None:
                        l4 = mu._Moment(rs, theta.numerator, theta.denominator)
                        out.append((x, y, [l2, l4], mu._cell_bound(x, y, [l2, l4])))
    return out


@pytest.mark.parametrize("mode", [UNC, DH, LH, RH], ids=lambda m: m.value)
def test_spans_match_covering(mode):
    # each merged interval's precompiled rows are the ones the exact lookup
    # finds inside it, and the cells built from them are those built by lookup
    _, a_idx, astar_idx, bps, spans = mu._mode_grid(mode, DEFAULT_PINTZ_MAX_N)
    assert len(spans) == len(bps) - 1
    for (ka, ks), x, y in zip(spans, bps, bps[1:]):
        a = rational_between(x, y)
        b = rational_between(a, y)
        (ra,), (rs,) = a_idx.covering(a, b), astar_idx.covering(a, b)
        assert a_idx.row(ka) is ra and astar_idx.row(ks) is rs
    for theta in (F(1, 10), F(1, 3), F(1, 2), F(17, 30), F(2, 3)):
        for refined in (True, False):
            got = [(c.lo, c.hi, c.objectives, c.bound)
                   for c in mu.objective_cells(theta, mode, refined)]
            want = _cells_by_covering(theta, mode, refined)
            assert len(got) == len(want)
            for (lo, hi, objs, bound), (x, y, ref_objs, ref_bound) in zip(got, want):
                assert (lo.p, lo.q, lo.r, hi.p, hi.q, hi.r) == (x.p, x.q, x.r, y.p, y.q, y.r)
                assert bound == ref_bound
                assert [(f.num, f.den) for f in objs] == [(f.num, f.den) for f in ref_objs]


def test_empty_theta_skips_root_isolation(monkeypatch):
    # an EMPTY theta is decided by the cached piece maxima alone
    mu_upper(F(1, 4))  # build the table's maxima and scaled rows
    calls = []
    isolate = polys.roots_in_closed_interval

    def counting(*args, **kwargs):
        calls.append(args)
        return isolate(*args, **kwargs)

    monkeypatch.setattr(polys, "roots_in_closed_interval", counting)
    assert mu_upper(F(3, 4)).is_empty
    assert not calls
    assert not mu_upper(F(1, 4)).is_empty
    assert calls


def _proportional(p, q) -> bool:
    """p = k*q for some nonzero rational k, or both are zero."""
    p, q = ptrim(p), ptrim(q)
    if not p or not q:
        return not p and not q
    return len(p) == len(q) and all(x * q[-1] == y * p[-1] for x, y in zip(p, q))


def _generic_objective(rf, m, theta):
    """((1-t)G + (m*s - m + 1)H)/H for the scaled row G/H = (1-s)P/Q, built
    from RationalFunctions; and the same from the row's own P/Q."""
    g, h = mu._scaled_row(rf)
    affine = (F(1 - m), F(m))
    generic = RationalFunction(padd(pscale(g, 1 - theta), pmul(affine, h)), h)
    own = RationalFunction(padd(pscale(pmul((F(1), F(-1)), rf.num), 1 - theta),
                                pmul(affine, rf.den)), rf.den)
    return generic, own


@settings(max_examples=12, deadline=None, derandomize=True)
@given(mode=st.sampled_from([UNC, DH, LH, RH]),
       theta=st.fractions(min_value=F(1, 10**4), max_value=1 - F(1, 10**4),
                          max_denominator=10**6))
@example(mode=LH, theta=F(17, 30))  # LH has constant rows 2 and zero rows
@example(mode=DH, theta=F(1, 4))
@example(mode=RH, theta=F(1, 3))  # RH has -inf rows
def test_compiled_kernels_match_the_generic_construction(mode, theta):
    # every row's compiled objective, critical-point polynomial and region
    # boundary, and every span's crossing polynomial, are the generic ones
    # (up to a nonzero rational factor for the polynomials)
    _, a_idx, astar_idx, bps, spans = mu._mode_grid(mode, DEFAULT_PINTZ_MAX_N)
    a, b = theta.numerator, theta.denominator
    c = 1 / (1 - theta)
    generic = {}
    for index, m in ((a_idx, 2), (astar_idx, 4)):
        pw = index.pw
        for k, piece in enumerate(pw.pieces):
            row = index.row(k)
            if piece.rf is None:
                assert row is None
                continue
            p, q, _ = pw.int_row(k)
            assert _proportional(lincomb(c.denominator, p, -c.numerator, q),
                                 psub(piece.rf.num, pscale(piece.rf.den, c)))
            f = mu._Moment(row, a, b)
            g, own = generic[row] = _generic_objective(piece.rf, m, theta)
            assert RationalFunction(f.num, f.den).same_function(g)
            assert g.same_function(own)
            crit = psub(pmul(pderiv(g.num), g.den), pmul(g.num, pderiv(g.den)))
            assert _proportional(f.critical()[0], crit)
            mid = rational_between(piece.lo, piece.hi)
            for x in (piece.lo, mid, BoundaryPoint(mid), piece.hi):
                assert f.eval_exact(x) == g.eval_exact(x)
    for (ka, ks), lo, hi in zip(spans, bps, bps[1:]):
        ra, rs = a_idx.row(ka), astar_idx.row(ks)
        if ra is None or rs is None:
            continue
        compiled = mu._MuCell(lo, hi, (mu._Moment(ra, a, b), mu._Moment(rs, a, b)))
        plain = SupCell(lo, hi, (generic[ra][0], generic[rs][0]))
        assert _proportional(compiled.crossing(0, 1)[0], plain.crossing(0, 1)[0])


@pytest.mark.parametrize("mode", [UNC, DH], ids=lambda m: m.value)
def test_theta_path_builds_no_polynomial_products(monkeypatch, mode):
    # once rows are compiled, a non-empty theta only scales and adds them:
    # no module on the theta path, polys included, builds a product or a
    # derivative; at 4001/9000 the unconditional refined bound bisects a
    # cubic L2/L4 crossing
    thetas = [F(1, 10), F(1, 4), F(2, 5), F(4001, 9000), F(1, 2)]
    want = [mu_upper(t, mode, refined=refined) for t in thetas for refined in (True, False)]
    calls = []
    for module in (optimize, piecewise, mu, polys):
        for name in ("pmul", "pderiv"):
            if hasattr(module, name):
                def counting(*args, _f=getattr(module, name), _name=name):
                    calls.append(_name)
                    return _f(*args)
                monkeypatch.setattr(module, name, counting)
    got = [mu_upper(t, mode, refined=refined) for t in thetas for refined in (True, False)]
    assert not any(res.is_empty for res in got)
    assert [(r.upper, r.lower, r.active) for r in got] == [(r.upper, r.lower, r.active) for r in want]
    assert not calls


@pytest.mark.parametrize("mode", [UNC, DH, LH, RH], ids=lambda m: m.value)
def test_cell_bounds_are_sound_and_change_nothing(mode):
    # every cell's bound is at least its own supremum, and skipping cells
    # by their bounds leaves upper, lower, witness and active index alone
    tol = F(1, 10**13) if mode is RH else F(1, 10**9)
    for theta in (F(1, 10), F(1, 3), F(1, 2)):
        for refined in (True, False):
            cells = mu.objective_cells(theta, mode, refined)
            for cell in cells:
                own = certified_sup([SupCell(cell.lo, cell.hi, cell.objectives)], tol)
                assert F(own.lower) <= cell.bound
            plain = [SupCell(cell.lo, cell.hi, cell.objectives) for cell in cells]
            a, b = certified_sup(cells, tol), certified_sup(plain, tol)
            assert (a.upper, a.lower, a.active_index) == (b.upper, b.lower, b.active_index)
            assert a.witness == b.witness


@settings(max_examples=100, deadline=None, derandomize=True)
@given(theta=st.fractions(min_value=F(1, 1000), max_value=F(999, 1000), max_denominator=10**9),
       mode=st.sampled_from([UNC, DH, LH, RH]))
@example(theta=1 - F(1, 2**80), mode=UNC)
@example(theta=F(1, 3**50), mode=UNC)
@example(theta=F(1, 3**50), mode=DH)
@example(theta=F(1, 3**50), mode=LH)
@example(theta=F(1, 3**50), mode=RH)
@example(theta=F(17, 30), mode=UNC)  # a point region [7/10, 7/10]
@example(theta=F(1, 2), mode=DH)
def test_float_cell_bounds_dominate_the_exact_ones(theta, mode):
    # each objective's float bound is at least the exact bound it stands for,
    # (1-t)*top*(1-x or 1-y) + m*y - (m-1) with the piece's exact maximum top,
    # taken at the exact (surd) cell ends; a cell's bound is their min
    _, a_idx, astar_idx, _, _ = mu._mode_grid(mode, DEFAULT_PINTZ_MAX_N)
    for refined in (True, False):
        cells = mu.objective_cells(theta, mode, refined)
        tops = {id(row): index.pw.piece_max(k)
                for index in (a_idx, astar_idx) for k, row in index.rows.items() if row}
        for cell in cells:
            x, y = cell.lo, cell.hi
            own = [mu._cell_bound(x, y, (f,)) for f in cell.objectives]
            assert cell.bound == min(own)
            for f, bound in zip(cell.objectives, own):
                m, t = f.row.m, (1 - theta) * tops[id(f.row)]
                tail = m * y - (m - 1)
                head = t * (1 - x) if t >= 0 else t * (1 - y)
                # bound - tail >= head is bound >= head + tail without
                # adding surds of two fields
                assert F(bound) - tail >= head
