import csv
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qmachine.climit import (
    DensityGrid,
    double_slit_grid,
    double_slit_scenario,
    epsilon_transform,
    gaussian_grid,
    load_density_csv,
    localization,
    save_density_csv,
    threshold_for_mass,
)


def uniform_grid(n=101, width=2.0, x0=-1.0):
    dx = width / n
    height = 1.0 / width
    return DensityGrid(x0, dx, np.full(n, height))


@st.composite
def random_grids(draw, max_points=2000):
    """Unit-mass grids with ties, plateaus and zero runs: a fill value
    (often 0) with scattered draws from a few shared levels or anywhere."""
    n = draw(st.integers(3, max_points))
    levels = st.sampled_from((0.0, 0.5, 1.0, 7.0))
    anywhere = st.floats(0.0, 1e3, allow_subnormal=False)
    v = draw(arrays(np.float64, n, elements=levels | anywhere, fill=levels))
    assume(v.sum() > 0.0)
    dx = draw(st.floats(1e-3, 1.0))
    x0 = draw(st.floats(-10.0, 10.0))
    return DensityGrid(x0, dx, v / v.sum() / dx)


def cap_mass(grid, c):
    return float(np.maximum(grid.values - c, 0.0).sum()) * grid.dx


EPS = st.floats(0.0, 1.0, exclude_min=True) | st.sampled_from((1e-6, 0.5, 1.0))


def triangle_grid(n=20001, apex=0.0):
    # unit-mass hat with its peak at `apex` inside [-1, 1]
    x = np.linspace(-1.0, 1.0, n)
    v = np.maximum(
        np.where(x <= apex, (x + 1.0) / (apex + 1.0), (1.0 - x) / (1.0 - apex)), 0.0
    )
    dx = x[1] - x[0]
    return DensityGrid(-1.0, dx, v / (v.sum() * dx))


class TestDensityGrid:
    def test_renormalizes_small_corrections_silently(self):
        g = gaussian_grid(501)
        assert float(g.values.sum()) * g.dx == pytest.approx(1.0, abs=1e-12)

    def test_warns_on_large_renormalization(self):
        with pytest.warns(UserWarning, match="renormalized") as record:
            DensityGrid(0.0, 0.1, np.array([1.0, 2.0, 1.0]))
        # the warning names the line that built the grid
        assert record[0].filename == __file__

    @pytest.mark.parametrize(
        "x0,dx,values",
        [
            (0.0, 0.1, [1.0, 2.0]),                  # too few points
            (0.0, -0.1, [1.0, 2.0, 1.0]),            # bad spacing
            (0.0, 0.1, [1.0, -0.5, 1.0]),            # negative density
            (0.0, 0.1, [1.0, float("nan"), 1.0]),    # non-finite
            (0.0, 0.1, [0.0, 0.0, 0.0]),             # zero mass
        ],
    )
    def test_rejects_bad_inputs(self, x0, dx, values):
        with pytest.raises(ValueError):
            DensityGrid(x0, dx, np.array(values))

    def test_values_read_only(self):
        g = uniform_grid()
        with pytest.raises(ValueError):
            g.values[0] = 5.0

    def test_positions(self):
        g = DensityGrid(2.0, 0.5, np.array([0.5, 0.5, 0.5, 0.5]))
        assert np.allclose(g.positions, [2.0, 2.5, 3.0, 3.5])


class TestThresholdForMass:
    def test_full_mass_cuts_at_zero(self):
        assert threshold_for_mass(gaussian_grid(501), 1.0) == 0.0

    def test_uniform_density_closed_form(self):
        g = uniform_grid()
        height = g.values[0]
        for eps in (0.9, 0.5, 0.25, 0.1):
            c = threshold_for_mass(g, eps)
            assert c == pytest.approx(height * (1.0 - eps), abs=1e-9)

    def test_triangle_closed_form(self):
        # cap above level c of the unit hat has mass (1 - c)^2, so
        # c(eps) = 1 - sqrt(eps)
        g = triangle_grid()
        for eps in (0.25, 0.5, 0.81):
            c = threshold_for_mass(g, eps)
            assert c == pytest.approx(1.0 - math.sqrt(eps), abs=1e-6)

    def test_mass_residual_tolerance(self):
        g = gaussian_grid(2001)
        for eps in (0.75, 0.3, 0.04, 0.007):
            c = threshold_for_mass(g, eps)
            cap = float(np.maximum(g.values - c, 0.0).sum()) * g.dx
            assert abs(cap - eps) <= 1e-12

    def test_monotone_in_eps(self):
        g = gaussian_grid(801)
        eps_grid = np.linspace(0.05, 1.0, 20)
        cs = [threshold_for_mass(g, float(e)) for e in eps_grid]
        assert all(a >= b - 1e-12 for a, b in zip(cs, cs[1:]))
        assert cs[-1] == 0.0

    @pytest.mark.parametrize("eps", [0.0, -0.2, 1.2, float("nan")])
    def test_rejects_bad_eps(self, eps):
        with pytest.raises(ValueError):
            threshold_for_mass(uniform_grid(), eps)


class TestThresholdProperties:
    @settings(max_examples=100, deadline=None)
    @given(grid=random_grids(), eps=EPS)
    def test_cap_holds_eps(self, grid, eps):
        c = threshold_for_mass(grid, eps)
        assert c >= 0.0
        assert abs(cap_mass(grid, c) - eps) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(grid=random_grids(), eps_pair=st.tuples(EPS, EPS).map(sorted))
    def test_level_never_rises_with_eps(self, grid, eps_pair):
        lo, hi = eps_pair
        c_lo, c_hi = threshold_for_mass(grid, lo), threshold_for_mass(grid, hi)
        assert c_lo >= c_hi
        narrow, wide = grid.values > c_lo, grid.values > c_hi
        assert not (narrow & ~wide).any()

    @settings(max_examples=50, deadline=None)
    @given(grid=random_grids())
    def test_full_mass_is_level_zero(self, grid):
        assert threshold_for_mass(grid, 1.0) == 0.0

    def test_eps_at_every_knot_mass_and_its_neighbours(self):
        # eps exactly at a knot, where two linear pieces meet, and one ulp
        # to either side, on plateaus and zero runs
        v = np.array([0.0, 3.0, 3.0, 1.0, 0.0, 0.0, 1.0, 2.0, 3.0])
        g = DensityGrid(0.0, 0.1, v / v.sum() / 0.1)
        knots = [cap_mass(g, c) for c in np.unique(g.values)]
        eps = sorted({e for k in knots for e in (k, np.nextafter(k, 0.0), np.nextafter(k, 2.0))
                      if 0.0 < e <= 1.0})
        levels = [threshold_for_mass(g, e) for e in eps]
        for e, c in zip(eps, levels):
            assert c >= 0.0 and abs(cap_mass(g, c) - e) <= 1e-12
        assert levels == sorted(levels, reverse=True)


class TestEpsilonTransform:
    def test_identity_at_full_mass(self):
        g = gaussian_grid(501)
        report = epsilon_transform(g, 1.0)
        assert report.threshold == 0.0
        assert np.abs(report.transformed.values - g.values).max() <= 1e-12

    def test_mass_conserved(self):
        g = gaussian_grid(2001)
        for eps in (1.0, 0.5, 0.1, 0.01):
            assert epsilon_transform(g, eps).mass_error <= 1e-9

    def test_input_grid_untouched(self):
        g = gaussian_grid(501)
        before = g.values.copy()
        epsilon_transform(g, 0.05)
        assert np.array_equal(g.values, before)

    def test_support_nesting(self):
        g = gaussian_grid(1001)
        masks = []
        for eps in (1.0, 0.5, 0.1, 0.01):
            report = epsilon_transform(g, eps)
            mask = np.zeros(g.n, dtype=bool)
            for i, j in report.support:
                mask[i : j + 1] = True
            masks.append(mask)
        for wide, narrow in zip(masks, masks[1:]):
            assert not (narrow & ~wide).any()

    def test_uniform_density_is_its_own_transform(self):
        g = uniform_grid()
        for eps in (0.9, 0.5, 0.1):
            report = epsilon_transform(g, eps)
            assert report.support == ((0, g.n - 1),)
            assert np.abs(report.transformed.values - g.values).max() <= 1e-9

    def test_small_eps_support_on_coarse_grid(self):
        # quadratic-expansion cap width 2*(3 eps sigma^3 sqrt(2 pi)/2)^(1/3)
        # ~ 0.67 at eps = 0.01, under 10 cells when dx = 0.1
        g = gaussian_grid(101)
        report = epsilon_transform(g, 0.01)
        cells = sum(j - i + 1 for i, j in report.support)
        assert cells < 10

    def test_small_eps_support_matches_quadratic_prediction(self):
        g = gaussian_grid(2001)
        report = epsilon_transform(g, 0.01)
        width = sum(j - i + 1 for i, j in report.support) * g.dx
        predicted = 2.0 * (1.5 * 0.01 * math.sqrt(2.0 * math.pi)) ** (1.0 / 3.0)
        assert abs(width - predicted) <= 3.0 * g.dx

    def test_rejects_eps_whose_renormalized_cap_overflows(self):
        # the cumulative sum of this 7-cell plateau rounds below 7 times its
        # height, so the cut level sits a few ulps under the plateau, and a
        # few ulps divided by 5e-324 overflow
        with pytest.warns(UserWarning, match="renormalized"):
            g = DensityGrid(0.0, 0.01, np.array([0.0] + [1.0] * 7 + [0.0]))
        with pytest.raises(ValueError, match="eps 5e-324"):
            epsilon_transform(g, 5e-324)

    def test_report_json_keys(self):
        report = epsilon_transform(gaussian_grid(201), 0.5)
        payload = report.to_json_dict()
        for key in ("epsilon", "threshold", "mass_error", "support_intervals",
                    "n_clusters", "modes", "support_width", "variance", "mean"):
            assert key in payload


class TestLocalization:
    def test_single_peak(self):
        g = gaussian_grid(501)
        loc = localization(g)
        assert loc.modes == (pytest.approx(0.0, abs=1e-12),)
        assert loc.mean == pytest.approx(0.0, abs=1e-9)

    def test_equal_bimodal_reports_both_modes(self):
        g = double_slit_grid(1.0)
        loc = localization(g)
        assert len(loc.modes) == 2
        assert loc.modes[0] == pytest.approx(-2.0, abs=1e-9)
        assert loc.modes[1] == pytest.approx(2.0, abs=1e-9)

    def test_plateau_reports_all_tied_positions(self):
        g = uniform_grid(11)
        loc = localization(g)
        assert len(loc.modes) == 11

    def test_variance_collapses_with_eps(self):
        g = gaussian_grid(2001)
        variances = [
            localization(epsilon_transform(g, eps).transformed).variance
            for eps in (0.1, 0.01, 0.001)
        ]
        assert variances[0] > variances[1] > variances[2]
        assert variances[2] < 0.01

    def test_mean_converges_to_argmax_for_skewed_density(self):
        # distance to the peak shrinks with the cap width (~sqrt(eps) here)
        g = triangle_grid(apex=0.25)
        distances = []
        for eps in (0.1, 0.01, 0.001):
            loc = localization(epsilon_transform(g, eps).transformed)
            dist = abs(loc.mean - 0.25)
            assert dist <= 0.5 * loc.support_width
            distances.append(dist)
        assert distances[0] > distances[1] > distances[2]


class TestDoubleSlit:
    def test_half_mass_behind_slit_one(self):
        g = double_slit_grid(1.0)
        behind = float(g.values[g.positions < 0.0].sum()) * g.dx
        assert behind == pytest.approx(0.5, abs=1e-3)

    def test_equal_peaks_keep_two_clusters(self):
        report = double_slit_scenario(1.0, (0.9, 0.5, 0.1, 0.01, 0.001))
        assert all(row.n_clusters == 2 for row in report.rows)
        assert report.collapse_threshold == pytest.approx(0.0, abs=1e-12)

    def test_skewed_peaks_collapse_at_small_eps(self):
        report = double_slit_scenario(1.05, (0.9, 0.001))
        large, small = report.rows
        assert large.n_clusters == 2
        assert small.n_clusters == 1
        assert small.taller_survives

    def test_collapse_threshold_grows_with_ratio(self):
        low = double_slit_scenario(1.05, (0.5,)).collapse_threshold
        high = double_slit_scenario(1.2, (0.5,)).collapse_threshold
        assert 0.0 < low < high

    def test_cluster_count_flips_at_threshold(self):
        report = double_slit_scenario(1.1, (0.5,))
        eps_star = report.collapse_threshold
        above = double_slit_scenario(1.1, (min(1.0, eps_star * 2.0),)).rows[0]
        below = double_slit_scenario(1.1, (eps_star / 2.0,)).rows[0]
        assert above.n_clusters == 2
        assert below.n_clusters == 1

    def test_rejects_ratio_below_one(self):
        with pytest.raises(ValueError):
            double_slit_scenario(0.9, (0.5,))


class TestDensityCsv:
    def test_round_trip(self, tmp_path):
        g = gaussian_grid(301)
        path = tmp_path / "density.csv"
        save_density_csv(g, path)
        back = load_density_csv(path)
        assert back.x0 == pytest.approx(g.x0, abs=1e-15)
        assert back.dx == pytest.approx(g.dx, rel=1e-12)
        assert np.allclose(back.values, g.values, atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(grid=random_grids(max_points=500))
    def test_file_carries_every_value_exactly(self, grid, tmp_path_factory):
        path = tmp_path_factory.mktemp("density") / "random.csv"
        save_density_csv(grid, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        written = np.array([[float(x), float(v)] for x, v in rows])
        assert written[:, 0].tobytes() == grid.positions.tobytes()
        assert written[:, 1].tobytes() == grid.values.tobytes()
        back = load_density_csv(path)
        assert back.x0 == grid.x0 and back.n == grid.n
        assert back.dx == pytest.approx(grid.dx, rel=1e-9)
        # the values reach the grid untouched; only its renormalization
        # with the dx re-estimated from the positions can move them
        again = DensityGrid(back.x0, back.dx, grid.values).values
        assert back.values.tobytes() == again.tobytes()

    def test_headerless_file(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("0.0,0.5\n0.5,1.0\n1.0,0.5\n")
        g = load_density_csv(path)
        assert g.n == 3

    def test_rejects_nonuniform_spacing(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,value\n0.0,1.0\n0.5,2.0\n1.2,1.0\n")
        with pytest.raises(ValueError, match="uniform"):
            load_density_csv(path)

    def test_rejects_short_files(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("x,value\n0.0,1.0\n1.0,1.0\n")
        with pytest.raises(ValueError):
            load_density_csv(path)
