import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from qmachine.analytic import epsilon_probabilities
from qmachine.epr import (
    ChshSetting,
    EntangledPair,
    chsh_analytic,
    chsh_estimate,
    chsh_sweep,
    chsh_value,
    correlation_analytic,
    correlation_mc,
    joint_counts,
    max_chsh,
    measure_pair,
    plane_direction,
    severed_chsh_scan,
    severed_correlation_mc,
)
from qmachine.epr import _PLACEMENTS, _canonical_setting, _corr_curve
from qmachine.geometry import Direction, ElasticSpec, Outcome
from qmachine.sampler import BLOCK_SIZE, RandomStream, run_trials

Z = Direction(0.0, 0.0, 1.0)
ROOT2 = math.sqrt(2.0)
O1, O2 = Outcome.O1, Outcome.O2
TSIRELSON = ChshSetting.from_plane_degrees(0.0, 90.0, 225.0, 135.0)


def brute_force_max_abs_s(eps, step_deg=3.0):
    """Independent CHSH optimum oracle: exhaustive coplanar grid scan with a
    plain 2-D matrix per left-prime angle, no separability tricks, no
    refinement.  The optimizing geometries of this model sit on multiples of
    45 degrees, so any step dividing 45 hits them exactly."""
    ang = np.deg2rad(np.arange(0.0, 360.0, step_deg))
    c = np.cos(ang)
    curve = -np.sign(c) if eps == 0.0 else -np.clip(c / eps, -1.0, 1.0)
    best = 0.0
    for k in range(len(ang)):
        shifted = np.roll(curve, k)
        s = (
            curve[:, None]
            + curve[None, :]
            + shifted[:, None]
            - shifted[None, :]
        )
        best = max(best, float(np.abs(s).max()))
    return best


def reference_grid_scan(eps, resolution_deg):
    """The sequential max_chsh grid scan, one np.roll per (placement, a')
    pair, with no polish: returns (max |S|, signed S, setting)."""
    m = max(8, int(round(360.0 / resolution_deg)))
    grid = np.arange(m) * (2.0 * math.pi / m)
    curve = _corr_curve(grid, eps)
    best = None
    for placement, (s1, s2, s3, s4) in enumerate(_PLACEMENTS):
        for k in range(m):
            rolled = np.roll(curve, k)
            beta_group = s1 * curve + s3 * rolled
            gamma_group = s2 * curve + s4 * rolled
            hi = beta_group.max() + gamma_group.max()
            lo = beta_group.min() + gamma_group.min()
            if best is None or hi > best[0]:
                best = (
                    hi, 1.0, placement,
                    grid[k], grid[int(beta_group.argmax())], grid[int(gamma_group.argmax())],
                )
            if -lo > best[0]:
                best = (
                    -lo, -1.0, placement,
                    grid[k], grid[int(beta_group.argmin())], grid[int(gamma_group.argmin())],
                )
    value, sign, placement, alpha, beta, gamma = best
    return value, sign * value, _canonical_setting(placement, alpha, beta, gamma)


class TestEntangledPair:
    def test_fresh_pair_has_no_surface_positions(self):
        pair = EntangledPair()
        assert pair.left is None and pair.right is None
        assert not pair.collapsed

    def test_rod_forces_antipode(self):
        pair = EntangledPair()
        d = Direction(0.3, -0.4, 0.8)
        pair.localize_left(d)
        assert pair.left.position == d
        assert pair.right.position == -d

    def test_localize_right(self):
        pair = EntangledPair()
        d = Direction(0.0, 1.0, 0.0)
        pair.localize_right(d)
        assert pair.left.position == -d

    def test_cannot_localize_twice(self):
        pair = EntangledPair()
        pair.localize_left(Direction(0, 0, 1))
        with pytest.raises(ValueError):
            pair.localize_right(Direction(1, 0, 0))

    def test_cannot_measure_collapsed_pair(self):
        pair = EntangledPair()
        pair.localize_left(Direction(0, 0, 1))
        with pytest.raises(ValueError):
            measure_pair(
                pair, Direction(0, 0, 1), Direction(1, 0, 0),
                ElasticSpec(1.0, 0.0), RandomStream(1),
            )


class TestMeasurePair:
    def test_same_axis_perfectly_anticorrelated(self):
        a = plane_direction(0.7)
        rng = RandomStream(40)
        for _ in range(500):
            pair = EntangledPair()
            out_a, out_b = measure_pair(pair, a, a, ElasticSpec(1.0, 0.0), rng)
            assert out_a is not out_b

    def test_rigid_band_outcome_deterministic_given_source(self):
        a = plane_direction(0.0)
        b = plane_direction(math.pi / 3)  # a.b = 0.5
        rng = RandomStream(41)
        seen = set()
        for _ in range(500):
            pair = EntangledPair()
            out_a, out_b = measure_pair(pair, a, b, ElasticSpec(0.0, 0.0), rng)
            seen.add((out_a, out_b))
            assert out_b is not out_a  # sign rule for a.b > 0
        assert seen == {(O1, O2), (O2, O1)}

    def test_rejects_biased_source_band(self):
        with pytest.raises(ValueError):
            measure_pair(
                EntangledPair(), plane_direction(0), plane_direction(1),
                ElasticSpec(0.5, 0.2), RandomStream(1),
                left_elastic=ElasticSpec(0.5, 0.1),
            )

    def test_right_first_requires_unbiased_band(self):
        with pytest.raises(ValueError):
            measure_pair(
                EntangledPair(), plane_direction(0), plane_direction(1),
                ElasticSpec(0.5, 0.2), RandomStream(1), order="right",
            )


class TestJointDistribution:
    def test_orthogonal_axes_even_cells(self):
        counts = joint_counts(
            plane_direction(0.0), plane_direction(math.pi / 2),
            ElasticSpec(1.0, 0.0), 1_000_000, 42,
        )
        for cell in counts.values():
            assert abs(cell / 1_000_000 - 0.25) <= 0.002

    def test_same_axis_cells_empty(self):
        a = plane_direction(0.3)
        counts = joint_counts(a, a, ElasticSpec(1.0, 0.0), 100_000, 43)
        assert counts[(O1, O1)] == 0
        assert counts[(O2, O2)] == 0

    def test_marginals_fair_for_every_epsilon(self):
        n = 100_000
        bound = 4.0 * math.sqrt(0.25 / n)
        a = plane_direction(0.5)
        b = plane_direction(1.7)
        for k, eps in enumerate((1.0, 0.6, 0.2, 0.0)):
            counts = joint_counts(a, b, ElasticSpec(eps, 0.0), n, 440 + k)
            left_up = counts[(O1, O1)] + counts[(O1, O2)]
            right_up = counts[(O1, O1)] + counts[(O2, O1)]
            assert abs(left_up / n - 0.5) <= bound
            assert abs(right_up / n - 0.5) <= bound

    def test_conditional_right_distribution_matches_band_law(self):
        # biased right band: the right wing still sees an ordinary
        # single-particle measurement of the dragged state (-a after O1,
        # +a after O2)
        a = plane_direction(0.0)
        b = plane_direction(1.2)
        band = ElasticSpec(0.5, 0.2)
        n = 400_000
        counts = joint_counts(a, b, band, n, 45, left_elastic=ElasticSpec(0.5, 0.0))
        for source_out, dragged in ((O1, -a), (O2, a)):
            n_cond = counts[(source_out, O1)] + counts[(source_out, O2)]
            freq = counts[(source_out, O1)] / n_cond
            p1 = epsilon_probabilities(dragged, b, band).p1
            assert abs(freq - p1) <= 4.0 * math.sqrt(p1 * (1.0 - p1) / n_cond)

    def test_order_independence(self):
        a = plane_direction(0.4)
        b = plane_direction(1.9)
        band = ElasticSpec(0.7, 0.0)
        n = 200_000
        left_first = joint_counts(a, b, band, n, 46, order="left")
        right_first = joint_counts(a, b, band, n, 47, order="right")
        for key in left_first:
            diff = abs(left_first[key] - right_first[key]) / n
            assert diff <= 0.01, key


class TestCorrelation:
    def test_singlet_form_at_full_band(self):
        band = ElasticSpec(1.0, 0.0)
        for ang in (0.0, 0.4, 1.2, 2.0, 3.0):
            a, b = plane_direction(0.0), plane_direction(ang)
            assert correlation_analytic(a, b, band) == pytest.approx(
                -math.cos(ang), abs=1e-12
            )

    def test_hand_value_half_band(self):
        a = plane_direction(0.0)
        b = plane_direction(math.acos(0.25))
        assert correlation_analytic(a, b, ElasticSpec(0.5, 0.0)) == pytest.approx(
            -0.5, abs=1e-12
        )

    def test_orthogonal_axes_zero(self):
        a, b = Direction(0.0, 0.0, 1.0), Direction(1.0, 0.0, 0.0)
        for eps in (1.0, 0.5, 0.0):
            assert correlation_analytic(a, b, ElasticSpec(eps, 0.0)) == 0.0

    def test_same_axis_is_minus_one_for_every_epsilon(self):
        a = plane_direction(0.9)
        for eps in (1.0, 0.5, 0.25, 0.0):
            assert correlation_analytic(a, a, ElasticSpec(eps, 0.0)) == pytest.approx(
                -1.0, abs=1e-12
            )

    def test_symmetry_and_antisymmetry(self):
        rng = np.random.default_rng(48)
        for _ in range(100):
            a = Direction(*rng.standard_normal(3))
            b = Direction(*rng.standard_normal(3))
            band = ElasticSpec(float(rng.uniform(0.05, 1.0)), 0.0)
            e = correlation_analytic(a, b, band)
            assert e == correlation_analytic(b, a, band)
            assert correlation_analytic(a, -b, band) == pytest.approx(-e, abs=1e-12)

    def test_rejects_biased_band(self):
        with pytest.raises(ValueError):
            correlation_analytic(
                plane_direction(0), plane_direction(1), ElasticSpec(0.5, 0.2)
            )

    def test_mc_agreement_grid(self):
        n = 100_000
        root = RandomStream(49)
        index = 0
        for ang in (0.3, 1.0, math.pi / 2, 2.4):
            a, b = plane_direction(0.0), plane_direction(ang)
            for eps in (1.0, 0.7, 0.4):
                band = ElasticSpec(eps, 0.0)
                exact = correlation_analytic(a, b, band)
                est = correlation_mc(a, b, band, n, root.substream(index))
                index += 1
                bound = 4.0 * math.sqrt((1.0 - exact * exact) / n)
                if abs(exact) == 1.0:
                    assert est == exact
                else:
                    assert abs(est - exact) <= bound, (ang, eps)


class TestChshValue:
    def test_quantum_optimum_settings(self):
        s = chsh_value(TSIRELSON, ElasticSpec(1.0, 0.0))
        assert s == pytest.approx(2.0 * ROOT2, abs=1e-12)

    def test_rigid_band_reaches_four(self):
        s = chsh_value(TSIRELSON, ElasticSpec(0.0, 0.0))
        assert s == 4.0

    def test_degenerate_settings_cannot_violate(self):
        setting = ChshSetting.from_plane_degrees(30.0, 30.0, 200.0, 200.0)
        for eps in (1.0, 0.5, 0.0):
            s = chsh_value(setting, ElasticSpec(eps, 0.0))
            e = correlation_analytic(setting.a, setting.b, ElasticSpec(eps, 0.0))
            assert s == pytest.approx(2.0 * e, abs=1e-12)
            assert abs(s) <= 2.0

    def test_monte_carlo_mode(self):
        s = chsh_value(
            TSIRELSON, ElasticSpec(1.0, 0.0), mode="monte-carlo", n=200_000, seed=50
        )
        assert abs(s - 2.0 * ROOT2) <= 0.02

    def test_monte_carlo_requires_trials(self):
        with pytest.raises(ValueError):
            chsh_value(TSIRELSON, ElasticSpec(1.0, 0.0), mode="mc", n=0)

    def test_estimate_reports_stderr(self):
        est = chsh_estimate(TSIRELSON, ElasticSpec(1.0, 0.0), 100_000, 51)
        # each correlation contributes (1 - 1/2)/n at the optimum settings
        assert est.stderr == pytest.approx(math.sqrt(2.0 / 100_000), rel=0.05)
        assert abs(est.value - 2.0 * ROOT2) <= 5.0 * est.stderr


class TestMaxChsh:
    # Frozen from the brute-force oracle: the optimum is min(4, 2*sqrt(2)/eps),
    # flat at 4 up to eps = 1/sqrt(2).
    EXPECTED = {
        0.0: 4.0,
        0.25: 4.0,
        0.5: 4.0,
        0.75: 2.0 * ROOT2 / 0.75,
        1.0: 2.0 * ROOT2,
    }

    def test_matches_brute_force_oracle(self):
        for eps, expected in self.EXPECTED.items():
            oracle = brute_force_max_abs_s(eps)
            assert oracle == pytest.approx(expected, abs=1e-9), eps
            produced = max_chsh(ElasticSpec(eps, 0.0)).max_abs_s
            assert produced == pytest.approx(oracle, abs=1e-6), eps

    def test_quantum_point_to_nano_precision(self):
        opt = max_chsh(ElasticSpec(1.0, 0.0))
        assert abs(opt.max_abs_s - 2.0 * ROOT2) <= 1e-9

    def test_optimal_setting_reproduces_value(self):
        for eps in (1.0, 0.85, 0.6, 0.0):
            opt = max_chsh(ElasticSpec(eps, 0.0))
            s = chsh_analytic(opt.setting, ElasticSpec(eps, 0.0))
            assert abs(s) == pytest.approx(opt.max_abs_s, abs=1e-9)
            assert s == pytest.approx(opt.signed_s, abs=1e-9)

    def test_plateau_boundary(self):
        below = max_chsh(ElasticSpec(0.70, 0.0)).max_abs_s
        above = max_chsh(ElasticSpec(0.72, 0.0)).max_abs_s
        assert below == pytest.approx(4.0, abs=1e-9)
        assert above == pytest.approx(2.0 * ROOT2 / 0.72, abs=1e-6)

    def test_coplanar_matches_full_sphere_search(self):
        # at eps = 1 a 6-parameter spherical search finds nothing beyond the
        # coplanar optimum
        def neg_s(params):
            def vec(theta, phi):
                return np.array(
                    [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi),
                     math.cos(theta)]
                )

            a = np.array([0.0, 0.0, 1.0])
            ap, b, bp = vec(*params[0:2]), vec(*params[2:4]), vec(*params[4:6])
            return -(
                -a @ b - a @ bp - ap @ b + ap @ bp
            )

        rng = np.random.default_rng(52)
        best = 0.0
        for _ in range(12):
            start = rng.uniform([0, -math.pi] * 3, [math.pi, math.pi] * 3)
            res = minimize(neg_s, start, method="Nelder-Mead",
                           options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 5000})
            best = max(best, -res.fun)
        coplanar = max_chsh(ElasticSpec(1.0, 0.0)).max_abs_s
        assert best <= coplanar + 1e-6
        assert best >= coplanar - 1e-3  # the search does find the optimum


class TestMaxChshGridScan:
    # 0.25 deg gives m = 1440, which leaves a partial last chunk
    CASES = [(i / 20, 1.0) for i in range(21)] + [
        (eps, res) for res in (7.0, 50.0, 0.25) for eps in (0.0, 0.5, 1 / ROOT2, 0.9, 1.0)
    ]

    @pytest.mark.parametrize("eps,resolution_deg", CASES)
    def test_matches_sequential_reference_exactly(self, eps, resolution_deg):
        opt = max_chsh(ElasticSpec(eps, 0.0), resolution_deg, refine=False)
        value, signed, setting = reference_grid_scan(eps, resolution_deg)
        assert opt.max_abs_s == value
        assert opt.signed_s == signed
        assert opt.setting == setting

    def test_peak_memory_is_bounded_at_fine_resolution(self):
        # unchunked, each (4, m, m) float64 array at m = 1440 would take 66 MB
        tracemalloc.start()
        try:
            max_chsh(ElasticSpec(0.9, 0.0), 0.25)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_optimum_is_closed_form(self, eps):
        expected = 4.0 if eps == 0.0 else min(4.0, 2.0 * ROOT2 / eps)
        assert abs(max_chsh(ElasticSpec(eps, 0.0)).max_abs_s - expected) <= 1e-9


class TestChshSweep:
    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            chsh_sweep([])

    def test_monotone_non_increasing(self):
        points = chsh_sweep((0.0, 0.25, 0.5, 0.75, 1.0))
        values = [p.max_abs_s for p in points]
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))
        assert values[0] == pytest.approx(4.0, abs=1e-9)
        assert values[-1] == pytest.approx(2.0 * ROOT2, abs=1e-9)


class TestSeveredRod:
    def test_correlation_vanishes(self):
        est = severed_correlation_mc(ElasticSpec(1.0, 0.0), 200_000, 53)
        assert abs(est) <= 4.0 / math.sqrt(200_000)

    def test_classical_bound_over_grid(self):
        n = 50_000
        best = severed_chsh_scan(ElasticSpec(1.0, 0.0), angles_count=6, n=n, seed=54)
        assert best <= 2.0 + 4.0 * (2.0 / math.sqrt(n))


# Two full blocks and a partial third one.
PIN_N = 2 * BLOCK_SIZE + 7
# (right band, left band or None, order, seed) and the counts (O1 O1, O1 O2,
# O2 O1, O2 O2) of joint_counts(plane_direction(0.4), plane_direction(1.9), ...)
JOINT_PINS = {
    "eps0-left": (ElasticSpec(0.0, 0.0), None, "left", 60, (0, 65549, 65530, 0)),
    "eps0-right": (ElasticSpec(0.0, 0.0), None, "right", 61, (0, 65575, 65504, 0)),
    "eps0.3-left": (ElasticSpec(0.3, 0.0), None, "left", 62, (25097, 40237, 40454, 25291)),
    "eps0.3-right": (ElasticSpec(0.3, 0.0), None, "right", 63, (25149, 40191, 40699, 25040)),
    "eps1-left": (ElasticSpec(1.0, 0.0), None, "left", 64, (30591, 35170, 34965, 30353)),
    "eps1-right": (ElasticSpec(1.0, 0.0), None, "right", 65, (30639, 35066, 35100, 30274)),
    "biased-right-band": (
        ElasticSpec(0.5, 0.2), ElasticSpec(0.5, 0.0), "left", 66, (15155, 50573, 24047, 41304),
    ),
}
# (band, seed) and severed_correlation_mc(band, PIN_N, seed)
SEVERED_PINS = {
    "eps0-d0.3": (ElasticSpec(0.0, 0.3), 70, 0.08635250497791408),
    "eps0.5-d-0.2": (ElasticSpec(0.5, -0.2), 71, 0.04343182355678637),
}


class TestBlockKernelPins:
    @pytest.mark.parametrize("workers", (1, 2, 3))
    @pytest.mark.parametrize("case", JOINT_PINS)
    def test_joint_counts_exact(self, case, workers):
        band, left, order, seed, cells = JOINT_PINS[case]
        c = joint_counts(
            plane_direction(0.4), plane_direction(1.9), band, PIN_N, seed,
            workers=workers, left_elastic=left, order=order,
        )
        assert (c[(O1, O1)], c[(O1, O2)], c[(O2, O1)], c[(O2, O2)]) == cells

    @pytest.mark.parametrize("workers", (1, 2, 3))
    @pytest.mark.parametrize("case", SEVERED_PINS)
    def test_severed_correlation_exact(self, case, workers):
        band, seed, value = SEVERED_PINS[case]
        assert severed_correlation_mc(band, PIN_N, seed, workers=workers) == value

    @pytest.mark.parametrize(
        "call",
        [
            lambda: run_trials(Z, Z, ElasticSpec(1.0, 0.0), 10, 1, workers=0),
            lambda: joint_counts(Z, Z, ElasticSpec(1.0, 0.0), 10, 1, workers=0),
            lambda: correlation_mc(Z, Z, ElasticSpec(1.0, 0.0), 10, 1, workers=0),
            lambda: severed_correlation_mc(ElasticSpec(1.0, 0.0), 10, 1, workers=0),
        ],
        ids=["run_trials", "joint_counts", "correlation_mc", "severed_correlation_mc"],
    )
    def test_zero_workers_rejected(self, call):
        with pytest.raises(ValueError, match="workers must be positive"):
            call()

    # at most three threads, and at most three blocks per call
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=3 * BLOCK_SIZE),
        eps=st.sampled_from((0.0, 0.3, 1.0)),
    )
    def test_counts_do_not_depend_on_workers(self, seed, n, eps):
        band = ElasticSpec(eps, 0.0)
        a, b = plane_direction(0.4), plane_direction(1.9)
        v = Direction.from_spherical(1.1)
        spin = {run_trials(v, Z, band, n, seed, workers=w) for w in (1, 2, 3)}
        pair = [joint_counts(a, b, band, n, seed, workers=w) for w in (1, 2, 3)]
        severed = {severed_correlation_mc(band, n, seed, workers=w) for w in (1, 2, 3)}
        assert len(spin) == 1 and len(severed) == 1
        assert pair[0] == pair[1] == pair[2]
