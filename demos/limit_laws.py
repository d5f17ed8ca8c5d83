"""The three limit laws, each checked against exact finite-n counts.

1. With m = n drivers, defect/sqrt(n) is asymptotically Rayleigh.
2. For fixed defect k, cp(n,n,k)/cp(n,n,0) has a closed limit in e.
3. With m = lambda*n drivers, the probability the lot fills tends to
   1 - T(lambda e^-lambda)/lambda, with T the tree function.
"""

import math

from parkfun import (
    defect_ratio_limit,
    full_lot_limit,
    rayleigh_cdf,
    ratio_as_float,
    tail_sum,
    tail_sum_alternating,
    tree_function,
)

print("1. Rayleigh law: P(defect >= sqrt(n)) -> e^-2 =", f"{math.exp(-2):.6f}")
tails = []
for n in (100, 400, 1600):
    k = math.isqrt(n)
    tails.append(ratio_as_float(tail_sum_alternating(n, n, k), n ** n))
    print(f"   n={n:>5d}: exact P(defect >= {k:>2d}) = {tails[-1]:.6f}")
print("   the miss closes like 1/sqrt(n), so Richardson's 2 P(1600) - P(400)",
      f"= {2 * tails[2] - tails[1]:.6f}")
print("   limiting CDF of defect/sqrt(n):",
      ", ".join(f"F({x})={rayleigh_cdf(x):.4f}" for x in (0.5, 1.0, 2.0)))

print("\n2. Fixed-defect ratios for m = n:")
print(f"   limit of cp(n,n,1)/cp(n,n,0) = 2e - 3      = {defect_ratio_limit(0, 1):.6f}")
print(f"   limit of cp(n,n,2)/cp(n,n,0) = 3e^2-8e+7/2 = {defect_ratio_limit(0, 2):.6f}")
for n in (100, 1000, 4000):
    num = tail_sum_alternating(n, n, 1) - tail_sum_alternating(n, n, 2)
    den = tail_sum_alternating(n, n, 0) - tail_sum_alternating(n, n, 1)
    print(f"   exact ratio at n={n:>4d}: {ratio_as_float(num, den):.6f}")

print("\n3. Full-lot probability with m = floor(lambda n) drivers:")
print("   lambda   exact n=10   exact n=20   limit")
for i in range(100, 325, 25):
    lam = i / 100
    cells = []
    for n in (10, 20):
        m = (i * n) // 100
        if m < n:
            cells.append(0.0)
        else:
            count = tail_sum(n, m, m - n) - tail_sum(n, m, m - n + 1)
            cells.append(ratio_as_float(count, n ** m))
    print(f"   {lam:>5.2f}   {cells[0]:>10.6f}   {cells[1]:>10.6f}   "
          f"{full_lot_limit(lam):.6f}")

print("\n   The limit uses the tree function T(v), inverse of t e^-t:")
for lam in (0.5, 1.0, 2.0):
    v = min(lam * math.exp(-lam), math.exp(-1))
    print(f"   T({lam:.1f} e^-{lam:.1f}) = {tree_function(v):.10f}")
print("   (for lambda <= 1 the root is lambda itself)")
