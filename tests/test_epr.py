import decimal
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

import qmachine.sampler
from qmachine.analytic import epsilon_probabilities
from qmachine.epr import (
    TSIRELSON_ANGLES_DEG,
    ChshSetting,
    EntangledPair,
    chsh_analytic,
    chsh_estimate,
    correlation_analytic,
    correlation_mc,
    joint_counts,
    max_chsh,
    measure_pair,
    plane_direction,
    severed_chsh_scan,
    severed_correlation_mc,
)
from qmachine.geometry import Direction, ElasticSpec, Outcome, axis_coordinate
from qmachine.sampler import (
    BLOCK_SIZE,
    RandomStream,
    _cut,
    _map_blocks,
    _pair_block,
    measure,
    outcome_at_axis,
    run_trials,
    sample_break_point,
)

Z = Direction(0.0, 0.0, 1.0)
ROOT2 = math.sqrt(2.0)
O1, O2 = Outcome.O1, Outcome.O2
TSIRELSON = ChshSetting.from_plane_degrees(0.0, 90.0, 225.0, 135.0)


def block_plan(n):
    """``(j, m, start)`` of each block of ``n`` trials: ``BLOCK_SIZE`` trials
    from ``start = j * BLOCK_SIZE`` on, the last block the rest."""
    starts = range(0, n, BLOCK_SIZE)
    return [(j, min(BLOCK_SIZE, n - start), start) for j, start in enumerate(starts)]


def transposed(counts):
    """Joint counts with each (left, right) key read as (right, left)."""
    return {(x, y): counts[(y, x)] for x, y in counts}


def ref_curve(angles, eps):
    """Pair correlation at each angle between the two axes, -clip(cos/eps)
    or -sign(cos) at eps = 0, written out so that no oracle below shares
    code with qmachine.epr."""
    c = np.cos(angles)
    if eps == 0.0:
        return -np.sign(c)
    with np.errstate(over="ignore"):  # c / eps overflows for a subnormal eps
        return -np.clip(c / eps, -1.0, 1.0)


def brute_force_max_abs_s(eps, step_deg=3.0):
    """Independent CHSH optimum oracle: exhaustive coplanar grid scan with a
    plain 2-D matrix per left-prime angle, no separability tricks, no
    refinement.  The optimizing geometries of this model sit on multiples of
    45 degrees, so any step dividing 45 hits them exactly."""
    ang = np.deg2rad(np.arange(0.0, 360.0, step_deg))
    curve = ref_curve(ang, eps)
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


# The four CHSH sign placements (which correlation term carries the minus),
# each with the relabeling that maps it back to the canonical
# S = E(a,b) + E(a,b') + E(a',b) - E(a',b').  Written out here, not taken
# from qmachine.epr, so the reference shares no search code with max_chsh.
REF_PLACEMENTS = (
    (1.0, 1.0, 1.0, -1.0),  # minus on (a', b')
    (1.0, 1.0, -1.0, 1.0),  # minus on (a', b)  -> swap b, b'
    (1.0, -1.0, 1.0, 1.0),  # minus on (a, b')  -> swap a, a'
    (-1.0, 1.0, 1.0, 1.0),  # minus on (a, b)   -> swap both
)


def ref_setting(placement, alpha, beta, gamma):
    """Angles (a=0, a'=alpha, b=beta, b'=gamma) of a placement, relabeled
    so the canonical sign pattern reproduces the placement's value."""
    a, ap, b, bp = 0.0, alpha, beta, gamma
    if placement in (1, 3):
        b, bp = bp, b
    if placement in (2, 3):
        a, ap = ap, a
    return ChshSetting(
        plane_direction(a), plane_direction(ap), plane_direction(b), plane_direction(bp)
    )


def placement_scans(eps, resolution_deg):
    """A sequential CHSH grid scan, one np.roll per a', run once per sign
    placement: each placement's first maximum as
    (|S|, sign, alpha, beta, gamma)."""
    m = max(8, int(round(360.0 / resolution_deg)))
    grid = np.arange(m) * (2.0 * math.pi / m)
    curve = ref_curve(grid, eps)
    scans = []
    for s1, s2, s3, s4 in REF_PLACEMENTS:
        best = None
        for k in range(m):
            rolled = np.roll(curve, k)
            beta_group = s1 * curve + s3 * rolled
            gamma_group = s2 * curve + s4 * rolled
            hi = beta_group.max() + gamma_group.max()
            lo = beta_group.min() + gamma_group.min()
            if best is None or hi > best[0]:
                best = (
                    hi, 1.0,
                    grid[k], grid[int(beta_group.argmax())], grid[int(gamma_group.argmax())],
                )
            if -lo > best[0]:
                best = (
                    -lo, -1.0,
                    grid[k], grid[int(beta_group.argmin())], grid[int(gamma_group.argmin())],
                )
        scans.append(best)
    return scans


def reference_grid_scan(eps, resolution_deg):
    """The four-placement grid scan with no polish, first maximum over
    placement, then a', then +S before -S: returns (max |S|, signed S,
    setting)."""
    best = None
    for placement, scan in enumerate(placement_scans(eps, resolution_deg)):
        if best is None or scan[0] > best[1][0]:
            best = (placement, scan)
    placement, (value, sign, alpha, beta, gamma) = best
    return value, sign * value, ref_setting(placement, alpha, beta, gamma)


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

    def test_cannot_localize_twice(self):
        pair = EntangledPair()
        pair.localize_left(Direction(0, 0, 1))
        with pytest.raises(ValueError):
            pair.localize_left(Direction(1, 0, 0))

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

    # The left wing draws first from each block's substream, so the remote
    # axis b cannot reach its draws: the left marginal is exact, not just
    # within noise, for every b (battery line 6 checks it statistically).
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("eps", [0.0, 1e-9, 0.5, 1.0])
    def test_left_marginal_is_exactly_independent_of_b(self, eps, workers):
        a = plane_direction(0.5)
        left_up = set()
        for b_rad in (0.0, 0.5, 1.7, 3.0, 4.4):
            counts = joint_counts(
                a, plane_direction(b_rad), ElasticSpec(eps, 0.0), 150_000, 17, workers
            )
            left_up.add(counts[(O1, O1)] + counts[(O1, O2)])
        assert left_up == {75_145}

    def test_conditional_right_distribution_matches_band_law(self):
        # biased right band: the right wing still sees an ordinary
        # single-particle measurement of the dragged state (-a after O1,
        # +a after O2)
        a = plane_direction(0.0)
        b = plane_direction(1.2)
        band = ElasticSpec(0.5, 0.2)
        n = 400_000
        counts = joint_counts(a, b, band, n, 45)
        for source_out, dragged in ((O1, -a), (O2, a)):
            n_cond = counts[(source_out, O1)] + counts[(source_out, O2)]
            freq = counts[(source_out, O1)] / n_cond
            p1 = epsilon_probabilities(dragged, b, band).p1
            assert abs(freq - p1) <= 4.0 * math.sqrt(p1 * (1.0 - p1) / n_cond)

    def test_order_independence(self):
        # right-first is the left-first process with the wings relabeled:
        # the call with b, a passed, each key read in reverse
        a = plane_direction(0.4)
        b = plane_direction(1.9)
        band = ElasticSpec(0.7, 0.0)
        n = 200_000
        left_first = joint_counts(a, b, band, n, 46)
        right_first = transposed(joint_counts(b, a, band, n, 47))
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
        s = chsh_analytic(TSIRELSON, ElasticSpec(1.0, 0.0))
        assert s == pytest.approx(2.0 * ROOT2, abs=1e-12)

    def test_rigid_band_reaches_four(self):
        s = chsh_analytic(TSIRELSON, ElasticSpec(0.0, 0.0))
        assert s == 4.0

    def test_degenerate_settings_cannot_violate(self):
        setting = ChshSetting.from_plane_degrees(30.0, 30.0, 200.0, 200.0)
        for eps in (1.0, 0.5, 0.0):
            s = chsh_analytic(setting, ElasticSpec(eps, 0.0))
            e = correlation_analytic(setting.a, setting.b, ElasticSpec(eps, 0.0))
            assert s == pytest.approx(2.0 * e, abs=1e-12)
            assert abs(s) <= 2.0

    def test_monte_carlo_mode(self):
        s = chsh_estimate(TSIRELSON, ElasticSpec(1.0, 0.0), 200_000, 50).value
        assert abs(s - 2.0 * ROOT2) <= 0.02

    def test_monte_carlo_requires_trials(self):
        with pytest.raises(ValueError, match="at least one trial"):
            chsh_estimate(TSIRELSON, ElasticSpec(1.0, 0.0), 0, 0)

    def test_numpy_trial_count_gives_floats(self):
        est = chsh_estimate(TSIRELSON, ElasticSpec(1.0, 0.0), np.int64(1000), 52)
        assert est == chsh_estimate(TSIRELSON, ElasticSpec(1.0, 0.0), 1000, 52)
        assert {type(x) for x in (est.value, est.stderr, *est.correlations)} == {float}

    def test_estimate_reports_stderr(self):
        est = chsh_estimate(TSIRELSON, ElasticSpec(1.0, 0.0), 100_000, 51)
        # each correlation contributes (1 - 1/2)/n at the optimum settings
        assert est.stderr == pytest.approx(math.sqrt(2.0 / 100_000), rel=0.05)
        assert abs(est.value - 2.0 * ROOT2) <= 5.0 * est.stderr


# values the benchmark's unused second argument to max_chsh is tried with
CHSH_RESOLUTIONS = (0.5, 1.0, 7.0, 42.5, 45.0, 50.0, 60.0)


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
            produced = max_chsh(ElasticSpec(eps, 0.0))
            assert produced == pytest.approx(oracle, abs=1e-6), eps

    def test_quantum_point_to_nano_precision(self):
        assert abs(max_chsh(ElasticSpec(1.0, 0.0)) - 2.0 * ROOT2) <= 1e-9

    # The second positional argument is the slot the benchmark still passes
    # (``max_chsh(elastic, 1.0)``); whatever it holds, the result is the same.
    @pytest.mark.parametrize("resolution_deg", [1.0, 7.0])
    def test_quantum_point_stays_at_or_below_tsirelson_bound(self, resolution_deg):
        assert max_chsh(ElasticSpec(1.0, 0.0), resolution_deg) <= 2.0 * math.sqrt(2.0)

    # Each row the Tsirelson setting attains is the double nearest
    # 2*sqrt(2)/eps, worked out to 40 digits.
    @pytest.mark.parametrize(
        "eps, resolution_deg",
        [(0.75, 1.0), (0.85, 1.0), (0.95, 1.0), (1.0, 1.0), (0.75, 7.0)],
    )
    def test_tsirelson_rows_are_correctly_rounded(self, eps, resolution_deg):
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            exact = 2 * decimal.Decimal(2).sqrt() / decimal.Decimal(eps)
        assert max_chsh(ElasticSpec(eps, 0.0), resolution_deg) == float(exact)

    def test_optimal_setting_reproduces_value(self):
        for eps in (1.0, 0.85, 0.6, 0.0):
            s = chsh_analytic(TSIRELSON, ElasticSpec(eps, 0.0))
            assert abs(s) == max_chsh(ElasticSpec(eps, 0.0))

    # eps = 0 and eps small enough to clamp every term, where cos(90 deg)
    # rounds to +6e-17 and a term's sign rests on that residue
    @pytest.mark.parametrize("resolution_deg", CHSH_RESOLUTIONS)
    @pytest.mark.parametrize("eps", [0.0, 5e-324, 1e-300, 1e-17])
    def test_reported_setting_scores_its_value(self, eps, resolution_deg):
        band = ElasticSpec(eps, 0.0)
        best = max_chsh(band, resolution_deg)
        assert best == max_chsh(band)
        assert abs(abs(chsh_analytic(TSIRELSON, band)) - best) <= 1e-9

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_reported_setting_scores_its_value_at_any_eps(self, eps):
        band = ElasticSpec(eps, 0.0)
        assert abs(abs(chsh_analytic(TSIRELSON, band)) - max_chsh(band)) <= 1e-9

    def test_angles_are_the_reported_degrees(self):
        # the degrees ``chsh --optimal`` reports name the setting that
        # scores max_chsh at every eps
        assert TSIRELSON_ANGLES_DEG == (0.0, 90.0, 225.0, 135.0)
        setting = ChshSetting.from_plane_degrees(*TSIRELSON_ANGLES_DEG)
        for eps in (0.5, 1.0, 0.9, 0.75):
            band = ElasticSpec(eps, 0.0)
            assert abs(chsh_analytic(setting, band)) == max_chsh(band)

    def test_rejects_biased_band(self):
        with pytest.raises(ValueError, match="unbiased band"):
            max_chsh(ElasticSpec(0.5, 0.1))

    def test_plateau_boundary(self):
        below = max_chsh(ElasticSpec(0.70, 0.0))
        above = max_chsh(ElasticSpec(0.72, 0.0))
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
        coplanar = max_chsh(ElasticSpec(1.0, 0.0))
        assert best <= coplanar + 1e-6
        assert best >= coplanar - 1e-3  # the search does find the optimum


class TestMaxChshGridScan:
    """The closed form against the grid oracles: no grid setting beats it
    by more than the last bit, which rounding can give either side."""

    @staticmethod
    def assert_no_grid_setting_beats(eps, resolution_deg):
        grid_best = reference_grid_scan(eps, resolution_deg)[0]
        closed = max_chsh(ElasticSpec(eps, 0.0))
        assert grid_best <= math.nextafter(closed, math.inf)

    @pytest.mark.parametrize("resolution_deg", [0.25, 1.0, 7.0, 45.0])
    @pytest.mark.parametrize("eps", [0.0, 0.25, 0.5, 1 / ROOT2, 0.75, 0.9, 1.0])
    def test_no_grid_setting_beats_the_closed_form(self, eps, resolution_deg):
        self.assert_no_grid_setting_beats(eps, resolution_deg)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0), st.sampled_from([1.0, 7.0]))
    def test_no_grid_setting_beats_the_closed_form_at_any_eps(self, eps, resolution_deg):
        self.assert_no_grid_setting_beats(eps, resolution_deg)

    @pytest.mark.parametrize("resolution_deg", [1.0, 7.0, 50.0])
    @pytest.mark.parametrize("eps", [0.0, 0.5, 1 / ROOT2, 0.9, 1.0])
    def test_every_placement_reaches_the_same_grid_maximum(self, eps, resolution_deg):
        values = [scan[0] for scan in placement_scans(eps, resolution_deg)]
        assert [v.hex() for v in values] == [values[0].hex()] * 4

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_optimum_is_closed_form(self, eps):
        expected = 4.0 if eps == 0.0 else min(4.0, 2.0 * ROOT2 / eps)
        assert abs(max_chsh(ElasticSpec(eps, 0.0)) - expected) <= 1e-9


class TestSeveredRod:
    def test_correlation_vanishes(self):
        est = severed_correlation_mc(ElasticSpec(1.0, 0.0), 200_000, 53)
        assert abs(est) <= 4.0 / math.sqrt(200_000)

    # each wing's uniform state sees the band's mean outcome -d, and the two
    # wings are independent, so E = d**2 for any band inside [-1, 1]
    @pytest.mark.parametrize("eps,d,seed", [
        (0.3, 0.4, 55), (0.5, -0.5, 56), (0.0, 0.6, 57), (0.1, -0.2, 58), (1.0, 0.0, 59),
    ])
    def test_biased_band_correlation_is_d_squared(self, eps, d, seed):
        n = 400_000
        est = severed_correlation_mc(ElasticSpec(eps, d), n, seed)
        assert abs(est - d * d) <= 5.0 * math.sqrt((1.0 - d**4) / n)

    def test_classical_bound_over_grid(self):
        n = 50_000
        best = severed_chsh_scan(ElasticSpec(1.0, 0.0), angles_count=6, n=n, seed=54)
        assert best <= 2.0 + 4.0 * (2.0 / math.sqrt(n))

    def test_scan_does_not_depend_on_workers(self):
        n = BLOCK_SIZE + 9
        scans = [
            severed_chsh_scan(ElasticSpec(0.5, 0.1), 3, n, seed=58, workers=w) for w in (1, 2, 3)
        ]
        assert scans[0].hex() == scans[1].hex() == scans[2].hex()

    @pytest.mark.parametrize("count, error", [
        (0, ValueError), (-1, ValueError), (2.5, TypeError), ("3", TypeError), (True, TypeError),
    ])
    def test_scan_rejects_bad_angles_count(self, count, error):
        with pytest.raises(error, match="^angles_count must be"):
            severed_chsh_scan(ElasticSpec(1.0, 0.0), angles_count=count, n=10)

    @pytest.mark.parametrize("n, workers, error, match", [
        (0, 2, ValueError, "need at least one trial"),
        (10.0, 2, TypeError, "^n must be an integer"),
        (10, 0, ValueError, "workers must be positive"),
        (10, 1.5, TypeError, "^workers must be an integer"),
    ])
    def test_scan_checks_n_and_workers_before_threads(self, monkeypatch, n, workers, error, match):
        def no_pool(max_workers):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(qmachine.sampler, "ThreadPoolExecutor", no_pool)
        with pytest.raises(error, match=match):
            severed_chsh_scan(ElasticSpec(1.0, 0.0), 2, n, workers=workers)


class GridStream:
    """Stands in for the Philox of the stream keyed ``(seed, spawn_key)``:
    word number ``p`` is a pure function of ``p`` and the spawn key, with
    only its top three bits set, so its double lies on the grid k/8 and
    states, snap points and coins tie often."""

    def __init__(self, seed, spawn_key):
        self.seed, self.spawn_key, self.position = seed, spawn_key, 0

    def random_raw(self, size=None):
        m = 1 if size is None else size
        # splitmix64 of (position, key), top three bits
        x = np.arange(self.position, self.position + m, dtype=np.uint64)
        self.position += m
        x += np.uint64((self.seed + 97 * sum(self.spawn_key)) * 0x9E3779B97F4A7C15 % 2**64)
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
        x = (x >> np.uint64(61)) << np.uint64(61)
        return x if size is not None else int(x[0])


def eager_generator(rs):
    """numpy's ``Generator`` on the Philox of the stream ``rs``, built at
    once: its C ``uniform`` and ``random`` are the independent reference for
    the snap points and coins the package forms from the stream's words."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(rs.seed, spawn_key=rs.spawn_key))
    )


def word_uniform(words):
    """``uniform(lo, hi, m)`` on the next ``m`` words of the word source
    ``words``: the doubles ``(x >> 11) * 2**-53`` scaled in two numpy steps."""
    return lambda lo, hi, m: lo + (hi - lo) * ((words(m) >> np.uint64(11)) * 2.0**-53)


def snap_points(uniform, elastic, m):
    """``m`` snap points ``uniform(lo, hi, m)``; at eps 0, d itself, with no
    draw."""
    lo, hi = elastic.break_lower, elastic.break_upper
    return np.full(m, elastic.d) if elastic.epsilon == 0.0 else uniform(lo, hi, m)


def resolve(lam, t, coins):
    """The outcome rule on the snap points ``lam``, True for O1, with the fair
    coins ``coins(k)`` for its ``k`` exact ties in index order."""
    up, tie = lam < t, lam == t
    up[tie] = coins(np.count_nonzero(tie))
    return up


def four_array_severed(elastic, n, seed, ties):
    """severed_correlation_mc in its four-array form: both wings' states,
    then both wings' snap points, drawn in full from one word sequence
    before either is resolved.  Adds each block's exact ties to ``ties``."""

    def run_block(words, m, _start):
        uniform = word_uniform(words)
        t_left = uniform(-1.0, 1.0, m)
        t_right = uniform(-1.0, 1.0, m)
        lam_l = snap_points(uniform, elastic, m)
        lam_r = snap_points(uniform, elastic, m)
        ties.append(int(np.count_nonzero(lam_l == t_left) + np.count_nonzero(lam_r == t_right)))

        def coins(k):
            return words(k) < np.uint64(1 << 63)

        a_up = resolve(lam_l, t_left, coins)
        b_up = resolve(lam_r, t_right, coins)
        return int(np.count_nonzero(a_up == b_up))

    same = _map_blocks(run_block, n, seed)
    return (2 * same - n) / n


class TestSeveredForcedTies:
    @pytest.mark.parametrize("band", [
        ElasticSpec(1.0, 0.0), ElasticSpec(0.5, 0.25), ElasticSpec(0.25, -0.5),
        ElasticSpec(0.0, 0.5), ElasticSpec(0.0, 0.0),
    ])
    @pytest.mark.parametrize("n", [1, 7, 1000, BLOCK_SIZE + 5])
    def test_matches_four_array_form(self, band, n, monkeypatch):
        # every block reads the grid words of its key in place of Philox's
        monkeypatch.setattr(qmachine.sampler, "_philox", GridStream)
        ties = []
        expected = four_array_severed(band, n, 3, ties)
        for workers in (1, 2):
            assert severed_correlation_mc(band, n, 3, workers) == expected
        if n >= 1000:
            assert sum(ties) > n // 20


# Two full blocks and a partial third one.
PIN_N = 2 * BLOCK_SIZE + 7
# (band, order, seed) and the counts (O1 O1, O1 O2, O2 O1, O2 O2), keyed
# (left, right), of joint_counts(plane_direction(0.4), plane_direction(1.9),
# ...) with the ``order`` wing measured first; right-first counts are those
# of the call with the axes swapped, transposed
JOINT_PINS = {
    "eps0-left": (ElasticSpec(0.0, 0.0), "left", 60, (0, 65549, 65530, 0)),
    "eps0-right": (ElasticSpec(0.0, 0.0), "right", 61, (0, 65575, 65504, 0)),
    "eps0.3-left": (ElasticSpec(0.3, 0.0), "left", 62, (25097, 40237, 40454, 25291)),
    "eps0.3-right": (ElasticSpec(0.3, 0.0), "right", 63, (25149, 40191, 40699, 25040)),
    "eps1-left": (ElasticSpec(1.0, 0.0), "left", 64, (30591, 35170, 34965, 30353)),
    "eps1-right": (ElasticSpec(1.0, 0.0), "right", 65, (30639, 35066, 35100, 30274)),
    "biased-right-band": (ElasticSpec(0.5, 0.2), "left", 66, (15155, 50573, 24047, 41304)),
}
# (band, seed) and severed_correlation_mc(band, PIN_N, seed)
SEVERED_PINS = {
    "eps0-d0.3": (ElasticSpec(0.0, 0.3), 70, 0.08635250497791408),
    "eps0.5-d-0.2": (ElasticSpec(0.5, -0.2), 71, 0.04343182355678637),
}


def where_joint_counts(a, b, elastic, n, seed):
    """joint_counts in its first form: the partner's axis coordinate built per
    pair with np.where, and every cell counted from its own mask, block by
    block of :func:`block_plan`."""
    left_el = ElasticSpec(elastic.epsilon, 0.0)
    t_ab = axis_coordinate(a, b)
    root = RandomStream(seed)

    def run_block(j, m):
        gen = eager_generator(root.substream(j))

        def coins(k):
            return gen.random(k) < 0.5

        a_up = resolve(snap_points(gen.uniform, left_el, m), 0.0, coins)
        t2 = np.where(a_up, -t_ab, t_ab)
        b_up = resolve(snap_points(gen.uniform, elastic, m), t2, coins)
        return np.array([
            np.count_nonzero(x & y)
            for x, y in ((a_up, b_up), (a_up, ~b_up), (~a_up, b_up), (~a_up, ~b_up))
        ])

    cells = sum(run_block(j, m) for j, m, _ in block_plan(n)).tolist()
    return dict(zip(((O1, O1), (O1, O2), (O2, O1), (O2, O2)), cells))


# (a, b, band, orders); right-first runs the call with a and b swapped
WHERE_CASES = {
    # a.b = 0 exactly: at eps = 0 every partner trial ties at -0.0 or +0.0
    "exact-partner-ties": (Z, Direction(1.0, 0.0, 0.0), ElasticSpec(0.0, 0.0),
                           ("left", "right")),
    "eps0": (plane_direction(0.4), plane_direction(1.9), ElasticSpec(0.0, 0.0),
             ("left", "right")),
    "eps0.3": (plane_direction(0.4), plane_direction(1.9), ElasticSpec(0.3, 0.0),
               ("left", "right")),
    "eps1-same-axis": (Z, Z, ElasticSpec(1.0, 0.0), ("left", "right")),
    "biased-right-band": (plane_direction(0.4), plane_direction(1.9), ElasticSpec(0.5, 0.2),
                          ("left",)),
    # the partner ties at d = 0.3 whenever it lands at -a.b = 0.3
    "rigid-biased-tie": (Z, Direction.from_spherical(math.acos(-0.3)), ElasticSpec(0.0, 0.3),
                         ("left",)),
}


class TestJointCountsReference:
    @pytest.mark.parametrize("n", (1, BLOCK_SIZE, 2 * BLOCK_SIZE + 7))
    @pytest.mark.parametrize("case", WHERE_CASES)
    def test_matches_where_form(self, case, n):
        a, b, band, orders = WHERE_CASES[case]
        for order in orders:
            first, second = (a, b) if order == "left" else (b, a)
            expected = where_joint_counts(first, second, band, n, 80 + n)
            for workers in (1, 2, 3):
                assert joint_counts(
                    first, second, band, n, 80 + n, workers=workers
                ) == expected, (order, workers)


def scalar_pair_blocks(a, b, elastic, n, seed):
    """joint_counts' pairs from the paper's one-trial path, looped over each
    block's stream in two passes: the left wing measures the central
    particle of every pair of the block, then ``measure`` runs the right
    wing from the antipode of each left landing point.  Yields, per block,
    the left outcomes, which of them tied, the right outcomes and which of
    them tied, as four lists.

    A block draws a wing's tie coins after all of that wing's snap points,
    while the one-trial path draws a coin right after its tie; so the two
    agree when no trial of a wing ties, or when every trial does.
    """
    left_el = ElasticSpec(elastic.epsilon, 0.0)
    root = RandomStream(seed)
    for j, m, _ in block_plan(n):
        rs = root.substream(j)
        a_out, a_tie, b_out, b_tie = [], [], [], []
        for _ in range(m):
            snap = sample_break_point(left_el, rs)
            a_tie.append(snap == 0.0)
            a_out.append(outcome_at_axis(0.0, snap, rs))
        for outcome in a_out:
            partner = -a if outcome is O1 else a
            b_o, _, snap = measure(partner, b, elastic, rs)
            b_tie.append(snap == axis_coordinate(partner, b))
            b_out.append(b_o)
        yield a_out, a_tie, b_out, b_tie


def scalar_joint_counts(a, b, elastic, n, seed):
    """joint_counts from :func:`scalar_pair_blocks`, with its tie limit."""
    counts = dict.fromkeys(((O1, O1), (O1, O2), (O2, O1), (O2, O2)), 0)
    for a_out, _, b_out, _ in scalar_pair_blocks(a, b, elastic, n, seed):
        for key in zip(a_out, b_out):
            counts[key] += 1
    return counts


class TestJointCountsScalarPath:
    # the left wing never ties for eps > 0 and always ties at eps 0; no
    # right wing ties at these axes
    @pytest.mark.parametrize("b_deg", (45.0, 135.0, 240.0))
    @pytest.mark.parametrize("eps,n", [
        (1.0, 3000), (0.6, 3000), (1e-9, 3000), (0.0, 3000),
        (1.0, BLOCK_SIZE + 1000), (0.0, BLOCK_SIZE + 1000),
    ])
    def test_matches_the_scalar_path(self, eps, n, b_deg):
        a, b = plane_direction(0.0), plane_direction(math.radians(b_deg))
        band = ElasticSpec(eps, 0.0)
        assert joint_counts(a, b, band, n, 90) == scalar_joint_counts(a, b, band, n, 90)

    # Per trial: the pair block's outcomes, block after block, are those of
    # the one-trial path.  They agree only where each wing of a block has no
    # tie or only ties (eps 0 ties every left trial); a block with some but
    # not all is assumed away, and the forced-tie tests cover that case.
    # ~1.3 s in all, half of it the two-block example.
    @settings(max_examples=50, deadline=None)
    @given(
        b_rad=st.floats(0.0, 2.0 * math.pi),
        eps=st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 3000),
    )
    @example(b_rad=1.9, eps=0.5, seed=91, n=BLOCK_SIZE + 7)
    def test_pair_block_matches_per_trial(self, b_rad, eps, seed, n):
        a, b, band = plane_direction(0.0), plane_direction(b_rad), ElasticSpec(eps, 0.0)
        blocks = list(scalar_pair_blocks(a, b, band, n, seed))
        assume(all(sum(tie) in (0, len(tie)) for blk in blocks for tie in (blk[1], blk[3])))
        t_ab = axis_coordinate(a, b)
        cuts = _cut(band, 0.0), _cut(band, t_ab), _cut(band, -t_ab)
        root = RandomStream(seed)
        for (j, m, _), (a_out, _, b_out, _) in zip(block_plan(n), blocks):
            a_up, b_up = _pair_block(root.substream(j).words, m, band, cuts)
            assert a_up.tolist() == [o is O1 for o in a_out]
            assert b_up.tolist() == [o is O1 for o in b_out]


class TestBlockKernelPins:
    @pytest.mark.parametrize("workers", (1, 2, 3))
    @pytest.mark.parametrize("case", JOINT_PINS)
    def test_joint_counts_exact(self, case, workers):
        band, order, seed, cells = JOINT_PINS[case]
        a, b = plane_direction(0.4), plane_direction(1.9)
        if order == "left":
            c = joint_counts(a, b, band, PIN_N, seed, workers=workers)
        else:
            c = transposed(joint_counts(b, a, band, PIN_N, seed, workers=workers))
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
