import tracemalloc
from fractions import Fraction as F
from math import inf

import pytest

from shortintervals.errors import InvalidFamilyIndex, ParseError
from shortintervals.exact import BoundaryPoint
from shortintervals.optimize import SupCell, certified_sup
from shortintervals.piecewise import Piece, RationalFunction
from shortintervals.polys import pmul
from shortintervals.tables import (
    MAX_FAMILY_INDEX,
    HypothesisMode,
    _piece_positive,
    a_table,
    astar_table,
    checksum_rows,
    parse_endpoint,
    parse_formula,
    pintz_piece,
    sigma_cap,
    validate_tables,
)

UNC = HypothesisMode.UNCONDITIONAL
DH = HypothesisMode.DH
LH = HypothesisMode.LH
RH = HypothesisMode.RH


# ----- transcription parser ------------------------------------------------

def test_parse_formula_examples():
    f = parse_formula("15/(3 + 5*s)")
    assert f.eval_exact(F(3, 4)) == F(15) / F(27, 4)
    g = parse_formula("(10 - 11*s)/((2 - s)*(1 - s))")
    assert g.eval_exact(F(1, 2)) == F(9, 2) / F(3, 4)  # = 6
    fam = parse_formula("3/(n*(1 - 2*(n - 1)*(1 - s)))", n=6)
    assert fam.eval_exact(F(59, 60)) == F(3, 5)


def test_parse_endpoint_examples():
    e = parse_endpoint("(539 - sqrt(42121))/460")
    assert e == BoundaryPoint(F(539, 460), F(-1, 460), 42121)
    assert parse_endpoint("1 - 1/(2*n*(n - 1))", n=6) == BoundaryPoint(F(59, 60))
    with pytest.raises(ParseError):
        parse_endpoint("3*s + 1")
    with pytest.raises(ParseError):
        parse_formula("sqrt(2)*s")


def test_checksum_both_tables():
    ok, problems = checksum_rows("a")
    assert ok, problems
    ok, problems = checksum_rows("astar")
    assert ok, problems


# ----- low range and mode variants ------------------------------------------

def test_a_table_headline_values():
    table = a_table(UNC)
    assert table.evaluate_upper(F(7, 10)) == F(30, 13)
    assert table.evaluate_upper(F(1, 2)) == 2
    assert table.evaluate_upper(F(3, 4)) == F(20, 9)
    assert table.evaluate_upper(F(0)) == 1
    # genuine downward jump entering the family rows
    assert table.evaluate_upper(F(59, 60)) == F(9, 13)


def test_a_table_modes():
    assert a_table(RH).evaluate_upper(F(3, 5)) == -inf
    assert a_table(RH).evaluate_upper(F(1, 2)) == 2
    assert a_table(DH).evaluate_upper(F(3, 5)) == 2
    assert a_table(LH).evaluate_upper(F(3, 4)) == 2
    assert a_table(LH).evaluate_upper(F(4, 5)) == 0
    # DH keeps unconditional values once they dip below 2 (at 25/32)
    assert a_table(DH).evaluate_upper(F(25, 32)) == 2
    assert a_table(DH).evaluate_upper(F(4, 5)) == F(15, 8)


def test_astar_table_values():
    t = astar_table(UNC)
    assert t.evaluate_upper(F(7, 10)) == F(235, 39)
    assert t.evaluate_upper(F(9, 10)) == F(9, 2)  # trivial bound beats the row
    assert t.evaluate_upper(F(1, 2)) == 6
    # continuity where the trivial bound takes over is not required, but the
    # printed rows join continuously at 5/6
    assert t.evaluate_upper(F(5, 6)) <= F(12) / (F(4) * F(5, 6) - 1)


def test_astar_never_exceeds_trivial_bound():
    import random

    rng = random.Random(5)
    for mode in (UNC, DH, LH):
        at = a_table(mode)
        ast = astar_table(mode)
        cap = at.sigma_cap.as_fraction()
        for _ in range(10_000):
            s = F(rng.randint(0, 99_999), 100_000)
            if s >= cap:
                continue
            a, st = at.evaluate_upper(s), ast.evaluate_upper(s)
            if a == -inf:
                assert st == -inf
            else:
                assert st <= 3 * a


def test_astar_rh_mode():
    t = astar_table(RH)
    assert t.evaluate_upper(F(3, 5)) == -inf
    assert t.evaluate_upper(F(1, 4)) == 4


def test_pintz_piece_examples():
    p = pintz_piece(6)
    assert p.lo == F(59, 60) and p.hi == F(83, 84)
    assert p.rf.eval_exact(F(59, 60)) == F(3, 5)
    assert pintz_piece(7).lo == pintz_piece(6).hi == F(83, 84)
    with pytest.raises(InvalidFamilyIndex):
        pintz_piece(5)


def test_sigma_cap_and_coverage():
    assert sigma_cap(64) == 1 - F(1, 2 * 64 * 65)
    for mode in (UNC, DH, LH, RH):
        for which in ("a", "astar"):
            d = validate_tables(mode, which)
            assert d.covers, (mode, which)
            assert d.all_positive or mode is RH, (mode, which)


def test_sigma_cap_below_the_finite_rows_raises():
    # n = 5 ends the tables at 59/60, exactly where the finite rows end
    assert sigma_cap(5) == F(59, 60)
    assert a_table(UNC, 5).sigma_cap == astar_table(DH, 5).sigma_cap == F(59, 60)
    for n in (4, 3, 0, -1):
        with pytest.raises(InvalidFamilyIndex):
            sigma_cap(n)
        with pytest.raises(InvalidFamilyIndex):
            a_table(LH, n)


def test_family_index_above_the_ceiling_raises_before_building():
    # the tables hold one piece per family row: an index past the ceiling is
    # refused before any piece is built, so asking costs next to no memory
    assert sigma_cap(MAX_FAMILY_INDEX) == 1 - F(1, 2 * MAX_FAMILY_INDEX * (MAX_FAMILY_INDEX + 1))
    for n in (MAX_FAMILY_INDEX + 1, 10**8):
        with pytest.raises(InvalidFamilyIndex):
            sigma_cap(n)
        for mode in (UNC, DH, LH, RH):
            tracemalloc.start()
            try:
                for build in (a_table, astar_table):
                    with pytest.raises(InvalidFamilyIndex):
                        build(mode, n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * 1024, (mode, n, peak)


def test_piece_positive_sees_bracketed_roots_and_poles():
    negative_inside = [
        # (s^3 - 1/4)(s^3 - 1/2): two bracketed roots, negative between them
        RationalFunction(pmul((F(-1, 4), F(0), F(0), F(1)), (F(-1, 2), F(0), F(0), F(1)))),
        # two poles, negative between them
        RationalFunction((F(1),), pmul((F(-1, 3), F(1)), (F(-2, 3), F(1)))),
        # s^2 - s: zero at both ends, negative inside
        RationalFunction((F(0), F(-1), F(1))),
    ]
    for rf in negative_inside:
        assert not _piece_positive(Piece(0, 1, rf)), rf
    assert _piece_positive(Piece(0, 1, RationalFunction((F(0), F(1), F(-1)))))  # s - s^2


def test_validate_reports_pintz_jump():
    d = validate_tables(UNC, "a")
    jumps = {float(b.sigma): b for b in d.jumps()}
    b = jumps[float(F(59, 60))]
    assert b.left == F(9, 13) and b.right == F(3, 5)
    assert b.jump == F(6, 65)


def test_validate_reports_continuity_at_junctions():
    d = validate_tables(UNC, "a")
    by_sigma = {float(b.sigma): b for b in d.breakpoints}
    for s in (F(1, 2), F(7, 10), F(19, 25), F(9, 10), F(31, 34), F(14, 15)):
        assert by_sigma[float(s)].continuous, s


def test_table_monotone_weighted_diagnostic():
    # (1 - s) * A(s) should be non-increasing for the unconditional majorant
    d = validate_tables(UNC, "a")
    assert d.max_monotonicity_violation == 0.0


def test_global_sup_is_30_13():
    table = a_table(UNC)
    cells = [SupCell(p.lo, p.hi, [p.rf]) for p in table.pieces if p.rf is not None]
    res = certified_sup(cells, F(1, 10**12))
    assert abs(res.upper - float(F(30, 13))) <= 1e-12
    assert abs(float(res.witness) - 0.7) < 1e-6


def test_feasibility_never_reaches_cap():
    from shortintervals.piecewise import feasible_region

    for mode in (UNC, DH, LH):
        table = a_table(mode)
        region = feasible_region(table, F(1))
        assert region, mode
        assert region[-1][1] < table.sigma_cap


def test_mode_tables_pointwise_ordered():
    import random

    rng = random.Random(13)
    tabs = [a_table(m) for m in (RH, LH, DH, UNC)]
    cap = tabs[0].sigma_cap.as_fraction()
    for _ in range(2_000):
        s = F(rng.randint(0, 99_999), 100_000)
        if s >= cap:
            continue
        vals = [t.evaluate_upper(s) for t in tabs]
        for a, b in zip(vals, vals[1:]):
            assert (a == -inf) or a <= b, s
