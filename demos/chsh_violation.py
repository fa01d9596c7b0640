"""Two sphere machines, their particles parked at the centers and joined by
a rigid rod.  Measuring either wing drags the partner to the antipodal
surface point; the partner's wing then measures an ordinary localized state.

At eps = 1 the pair reproduces the singlet correlation E(a, b) = -a.b, and
the settings-optimized CHSH combination reaches 2*sqrt(2).  Making the
bands more deterministic does not restore locality bounds -- it makes the
violation worse, up to the algebraic maximum 4.  Cutting the rod snaps the
value back under the classical bound 2: the violation lives in the rod,
not in the randomness.
"""

import math

from qmachine import (
    ChshSetting,
    ElasticSpec,
    chsh_analytic,
    chsh_estimate,
    correlation_analytic,
    max_chsh,
    plane_direction,
    severed_chsh_scan,
)

TSIRELSON = ChshSetting.from_plane_degrees(0.0, 90.0, 225.0, 135.0)


def correlations_at_full_band():
    print("Pair correlation vs. angle between the axes (eps = 1):")
    band = ElasticSpec(1.0, 0.0)
    for deg in (0, 45, 90, 135, 180):
        a, b = plane_direction(0.0), plane_direction(math.radians(deg))
        print(f"  angle {deg:>3}d:  E = {correlation_analytic(a, b, band):+.4f}"
              f"   (singlet: {-math.cos(math.radians(deg)):+.4f})")
    print()


def chsh_at_optimal_settings():
    band = ElasticSpec(1.0, 0.0)
    exact = chsh_analytic(TSIRELSON, band)
    est = chsh_estimate(TSIRELSON, band, n=200_000, seed=7)
    print(f"CHSH at the optimal quantum settings (0, 90, 225, 135 degrees):")
    print(f"  analytic     S = {exact:.10f}   (2*sqrt(2) = {2*math.sqrt(2):.10f})")
    print(f"  monte carlo  S = {est.value:.4f} +- {est.stderr:.4f}"
          f"   ({est.correlations[0]:+.3f}, {est.correlations[1]:+.3f},"
          f" {est.correlations[2]:+.3f}, {est.correlations[3]:+.3f})")
    print()


def sweep_the_band():
    print("Settings-optimized |S| as the band turns classical:")
    for eps in (1.0, 0.9, 0.8, 1 / math.sqrt(2), 0.5, 0.25, 0.0):
        best = max_chsh(ElasticSpec(eps, 0.0)).max_abs_s
        bar = "#" * round(20 * best / 4.0)
        print(f"  eps = {eps:5.3f}:  max |S| = {best:.6f}  {bar}")
    print()
    print("The optimum is min(4, 2*sqrt(2)/eps): flat at 4 until eps = 1/sqrt(2),")
    print("then tempered by the band's randomness down to 2*sqrt(2).")
    print()


def cut_the_rod():
    best = severed_chsh_scan(ElasticSpec(1.0, 0.0), angles_count=8, n=50_000, seed=9)
    print(f"Rod severed (independent wings, uniform random states):")
    print(f"  max |S| over an 8-angle grid = {best:.4f}  (classical bound 2)")


if __name__ == "__main__":
    correlations_at_full_band()
    chsh_at_optimal_settings()
    sweep_the_band()
    cut_the_rod()
