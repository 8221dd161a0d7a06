"""
The Mellin bridge from heat kernel to zeta kernel
=================================================

Gamma(s) lambda^(-s) = integral_0^infty t^(s-1) e^(-t lambda) dt turns
the zeta kernel into a weighted time-integral of the heat kernel.  The
quadrature route and the direct series route share no code beyond the
heat kernel itself, so their agreement is a genuine two-sided check.
The integrator places its panels in log t up to a cutoff, bounds the
far tail in closed form with an incomplete gamma function, bounds the
panel error on Bernstein ellipses, and lets these certificates choose
the cutoff and the number of nodes.

Run from the repository root:

    python3 demos/04_mellin_bridge.py
"""

from spherezeta.kernels import KernelQuery, mellin_zeta_kernel, zeta_kernel
from spherezeta.truncation import TruncationPolicy

POLICY = TruncationPolicy(max_k=2_000_000, tol=1e-7)


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Direct series vs quadrature on a grid of (n, s, angle)
    # ------------------------------------------------------------------
    print("direct series vs Mellin quadrature")
    print(f"{'n':>3s} {'s':>6s} {'cos(gamma)':>11s} {'direct':>22s} "
          f"{'bridged':>22s} {'diff':>10s}")
    for n in (1, 2):
        for ds in (0.75, 1.5):
            s = n / 2.0 + ds
            for cg in (-0.5, 0.5, 1.0):
                q = KernelQuery(n=n, cos_gamma=cg, policy=POLICY)
                direct = zeta_kernel(s, q)
                bridged = mellin_zeta_kernel(s, q)
                print(f"{n:>3d} {s:>6.2f} {cg:>11.2f} {direct.value:>22.15f} "
                      f"{bridged.value:>22.15f} "
                      f"{abs(direct.value - bridged.value):>10.1e}")

    # ------------------------------------------------------------------
    # 2. The certificate sizes the quadrature
    # ------------------------------------------------------------------
    # Each panel's Gauss-Legendre error is bounded on a Bernstein ellipse
    # inside the strip |Im log t| < pi/2; panels double until that bound
    # fits its quarter of tol, and the cutoff doubles until the far tail
    # does.  On S^1 the far tail decays only like e^(-t), so large s needs
    # a later cutoff and more panels.
    print("\nnodes chosen by the certificate:")
    for n, s, cg in ((2, 2.25, 0.3), (1, 10.0, 0.5)):
        q = KernelQuery(n=n, cos_gamma=cg, policy=POLICY)
        bridged, direct = mellin_zeta_kernel(s, q), zeta_kernel(s, q)
        print(f"  n={n}, s={s:g}, cos(gamma)={cg}: {bridged.terms_used} nodes, "
              f"certified {bridged.tail_bound:.1e}, "
              f"diff {abs(bridged.value - direct.value):.1e}")

    # ------------------------------------------------------------------
    # 3. The integrand's two regimes
    # ------------------------------------------------------------------
    # Small t: the heat kernel is sharply peaked and t^(s-1) tames the
    # integrable singularity; panels of equal width in log t crowd
    # towards t = 0.  Large t: only the first excited mode survives, so
    # the tail looks like d_1 r_1 e^(-t lambda_1), which is what the
    # closed-form incomplete-gamma bound covers after the cutoff.
    q = KernelQuery(n=2, cos_gamma=0.3, policy=POLICY)
    bridged = mellin_zeta_kernel(2.25, q)
    print(f"\ncertified bound carried through the bridge: "
          f"{bridged.tail_bound:.1e}")


if __name__ == "__main__":
    main()
