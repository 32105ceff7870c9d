"""Certified bounds for the exceptional-set exponent mu(theta).

mu(theta) bounds the measure of x in [X, 2X] where the short-interval prime
count over (x, x + x^theta] strays from its expected value.  The calculator
turns the exponent tables into a certified bracket via exact feasibility
regions and an exact candidate-point supremum (cell ends, critical points
and crossings of the two moments), then derives the prime-gap exponent
mu(theta) - theta.  Writes curve data for all four hypothesis modes.
"""

import csv
from fractions import Fraction as F

from shortintervals import HypothesisMode, gap_exponent, mu_curve, mu_upper

print("=" * 70)
print("headline: theta = 17/30, the edge of the all-x regime")
print("=" * 70)
res = mu_upper(F(17, 30))
print(res)
print(f"  certified: mu(17/30) <= {res.upper:.12f}  (7/12 = {7 / 12:.12f})")
print(f"  witness sigma* = {res.witness_sigma}  (the table junction 7/10)")
print(f"  active moment: {res.active} (the fourth-moment bound is the binding one)")
print(f"  prime-gap exponent: {gap_exponent(F(17, 30)):.12f}  (= 1/60)")

print("\njust above the almost-all edge theta = 2/15:")
for delta in (F(1, 100), F(1, 1000)):
    r = mu_upper(F(2, 15) + delta)
    print(f"  mu(2/15 + {delta}) <= {r.upper:.9f}"
          f"   vs 1 - (9/13)*{delta} = {float(1 - F(9, 13) * delta):.9f}")

print("\nbeyond 17/30 the constraint region is empty:")
print(f"  mu(0.6) -> {mu_upper(F(3, 5)).active}")

print("\n" + "=" * 70)
print("conditional modes at theta = 0.4")
print("=" * 70)
for mode in (HypothesisMode.RH, HypothesisMode.LH, HypothesisMode.DH,
             HypothesisMode.UNCONDITIONAL):
    r = mu_upper(F(2, 5), mode)
    print(f"  {mode.value:>13}: mu <= {r.upper:.9f}   (witness {r.witness_sigma}, {r.active})")
print("  RH gives 1 - theta; the refined LH bound starts improving on the")
print("  classic 1 - theta/2 once theta passes 7/16:")
for t in (F(2, 5), F(12, 25), F(1, 2)):
    ref = mu_upper(t, HypothesisMode.LH).upper
    l2 = mu_upper(t, HypothesisMode.LH, refined=False).upper
    print(f"    theta = {str(t):>5}: refined {ref:.6f}  vs  1 - theta/2 = {l2:.6f}")

print("\n" + "=" * 70)
print("curves (written to mu_curves.csv)")
print("=" * 70)
rows = []
for mode in HypothesisMode:
    pts = mu_curve(F(1, 50), F(49, 50), 96, mode)
    for p in pts:
        rows.append((str(p.theta), mode.value, p.mu_upper, p.gap_exponent))
with open("mu_curves.csv", "w", newline="") as f:
    w = csv.writer(f)
    w.writerow(["theta", "mode", "mu_upper", "gap_exponent"])
    w.writerows(rows)
print(f"  wrote {len(rows)} rows")

unc = [r for r in rows if r[1] == "unconditional" and r[2] != float("-inf")]
print(f"  unconditional bound is finite at {len(unc)} of 97 grid points")
print(f"  largest finite theta on the grid: {unc[-1][0]} (17/30 = {float(F(17, 30)):.4f})")
