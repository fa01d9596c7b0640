import math

import numpy as np
import pytest

from qmachine.geometry import (
    Direction,
    ElasticSpec,
    Outcome,
    axis_coordinate,
)


def random_direction(rng):
    return Direction(*rng.standard_normal(3))


class TestDirection:
    def test_constructor_normalizes(self):
        d = Direction(0.0, 0.0, 2.0)
        assert (d.x, d.y, d.z) == (0.0, 0.0, 1.0)

    def test_normalization_idempotent(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            d = random_direction(rng)
            again = Direction(d.x, d.y, d.z)
            assert abs(again.x - d.x) <= 1e-15
            assert abs(again.y - d.y) <= 1e-15
            assert abs(again.z - d.z) <= 1e-15

    def test_unit_norm_invariant(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            d = random_direction(rng)
            assert abs(d.x**2 + d.y**2 + d.z**2 - 1.0) <= 1e-12

    @pytest.mark.parametrize("vec", [(0, 0, 0), (1e-10, 0, 0), (2e9, 0, 0)])
    def test_rejects_bad_magnitudes(self, vec):
        with pytest.raises(ValueError):
            Direction(*vec)

    def test_spherical_round_trip(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            theta = rng.uniform(0.05, math.pi - 0.05)  # away from the poles
            phi = rng.uniform(-math.pi + 1e-6, math.pi)
            t2, p2 = Direction.from_spherical(theta, phi).to_spherical()
            assert abs(t2 - theta) <= 1e-12
            assert abs(p2 - phi) <= 1e-12

    def test_pole_azimuth_convention(self):
        assert Direction(0, 0, 1).to_spherical() == (0.0, 0.0)
        theta, phi = Direction(0, 0, -1).to_spherical()
        assert theta == pytest.approx(math.pi, abs=1e-15)
        assert phi == 0.0

    def test_negation(self):
        d = Direction(1, 2, 3)
        n = -d
        assert (n.x, n.y, n.z) == (-d.x, -d.y, -d.z)

    def test_immutable(self):
        d = Direction(0, 0, 1)
        with pytest.raises(AttributeError):
            d.x = 2.0


class TestAxisCoordinate:
    def test_aligned(self):
        u = Direction(0.2, -0.4, 0.7)
        assert axis_coordinate(u, u) == pytest.approx(1.0, abs=1e-15)

    def test_antipodal(self):
        u = Direction(0.2, -0.4, 0.7)
        assert axis_coordinate(-u, u) == pytest.approx(-1.0, abs=1e-15)

    def test_orthogonal(self):
        assert axis_coordinate(Direction(1, 0, 0), Direction(0, 0, 1)) == 0.0

    def test_range_symmetry_and_cosine(self):
        rng = np.random.default_rng(14)
        for _ in range(1000):
            v, u = random_direction(rng), random_direction(rng)
            t = axis_coordinate(v, u)
            assert -1.0 <= t <= 1.0
            assert t == axis_coordinate(u, v)
            # the angle from atan2 of the cross and dot products
            cross = np.linalg.norm(np.cross([v.x, v.y, v.z], [u.x, u.y, u.z]))
            assert abs(math.cos(math.atan2(cross, v.dot(u))) - t) <= 1e-12


class TestElasticSpec:
    def test_breakable_segment(self):
        e = ElasticSpec(0.25, 0.5)
        assert e.break_lower == 0.25
        assert e.break_upper == 0.75

    @pytest.mark.parametrize(
        "eps,d", [(-0.1, 0.0), (1.1, 0.0), (0.5, 0.6), (0.5, -0.6), (1.0, 0.01), (0.0, 1.5)]
    )
    def test_rejects_out_of_domain(self, eps, d):
        with pytest.raises(ValueError):
            ElasticSpec(eps, d)

    @pytest.mark.parametrize("eps,d", [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (0.3, -0.7)])
    def test_accepts_boundary_values(self, eps, d):
        ElasticSpec(eps, d)

    def test_immutable(self):
        e = ElasticSpec(0.5)
        with pytest.raises(AttributeError):
            e.epsilon = 0.7


def test_outcome_enum():
    assert len(Outcome) == 2
    assert Outcome.O1.value == 1
    assert Outcome.O2.value == -1
