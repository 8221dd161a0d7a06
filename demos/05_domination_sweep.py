"""
Series domination and majorization order
========================================

Shifting each eigenvalue up, lambda_k -> mu_k = lambda_k + rho^2, can
only shrink every term d_k lambda_k^(-s), so every prefix sum of the
shifted series sits below the raw one and the full sums are strictly
ordered.  The same prefix-sum logic, applied to sorted vectors, is the
majorization preorder; this demo exercises both.

Run from the repository root:

    python3 demos/05_domination_sweep.py
"""

import numpy as np

from spherezeta.majorize import partial_sum_domination, weak_majorizes
from spherezeta.spectrum import spectrum_slice
from spherezeta.zeta import compare_zeta_pair


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Sweep the domination gap across dimensions and exponents
    # ------------------------------------------------------------------
    print("full-sum gap zeta(s) - Z(s) (positive = shifted series dominated)")
    print(f"{'n':>3s}" + "".join(f"{f's=n/2+{ds}':>14s}" for ds in (0.5, 1.5, 2.5)))
    for n in (1, 2, 3, 4):
        gaps = []
        for ds in (0.5, 1.5, 2.5):
            pair = compare_zeta_pair(n / 2.0 + ds, n, 400)
            assert pair.dominated
            gaps.append(pair.zeta_laplace.value - pair.zeta_shifted.value)
        print(f"{n:>3d}" + "".join(f"{g:>14.6e}" for g in gaps))
    print("  (the circle row is exactly zero: rho = 0 means no shift at all)")

    # ------------------------------------------------------------------
    # 2. Termwise domination implies prefix-sum domination
    # ------------------------------------------------------------------
    n, s = 3, 2.5
    entries = spectrum_slice(n, 50)[1:]
    shifted = [e.d * e.mu ** (-s) for e in entries]
    raw = [e.d * e.lam ** (-s) for e in entries]
    rep = partial_sum_domination(shifted, raw)
    print(f"\nprefix sums on S^{n} at s={s}: dominated = {rep.ok}, "
          f"smallest prefix gap = {min(rep.prefix_gaps):.3e}")

    # ------------------------------------------------------------------
    # 3. Majorization: averaging moves vectors down the order
    # ------------------------------------------------------------------
    x = np.array([5.0, 3.0, 1.0, 1.0])
    print(f"\nx = {x.tolist()}")
    rng = np.random.default_rng(6)
    y = x.copy()
    for step in range(3):
        perm = rng.permutation(len(x))
        y = 0.5 * y + 0.5 * y[perm]
        rep = weak_majorizes(x, y)
        print(f"  after averaging step {step + 1}: y = "
              f"{np.round(y, 4).tolist()}, x majorizes y: {rep.verdict}")
    mean = np.full_like(x, x.mean())
    print(f"  the flat vector {mean.tolist()} is the bottom of the order: "
          f"{weak_majorizes(x, mean).verdict}")

    # ------------------------------------------------------------------
    # 4. Weak vs full majorization
    # ------------------------------------------------------------------
    for a, b in (([3.0, 1.0], [2.0, 2.0]), ([3.0, 2.0], [2.0, 2.0])):
        rep = weak_majorizes(a, b)
        print(f"\n{a} vs {b}: verdict '{rep.verdict}', totals differ by "
              f"{rep.total_gap}")
    print("  (equal totals give full majorization; otherwise only the weak order holds)")


if __name__ == "__main__":
    main()
