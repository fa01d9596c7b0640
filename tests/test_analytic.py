import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmachine.analytic import (
    ProbabilityPair,
    Spinor,
    SpinOperator,
    born_probabilities,
    epsilon_probabilities,
    expectation_from_axis,
    linearity_deviation,
    probabilities_from_axis,
    quantum_probabilities,
    spin_operator,
    spinor_from_direction,
)
from qmachine.analytic import _clamp_law
from qmachine.geometry import Direction, ElasticSpec, axis_coordinate

Z = Direction(0.0, 0.0, 1.0)

# A spread of valid bands covering quantum, intermediate, biased and rigid.
BANDS = [
    ElasticSpec(1.0, 0.0),
    ElasticSpec(0.5, 0.2),
    ElasticSpec(0.5, -0.3),
    ElasticSpec(0.3, -0.4),
    ElasticSpec(0.1, 0.0),
    ElasticSpec(0.0, 0.0),
    ElasticSpec(0.0, 0.25),
    # eps > 0, but d - eps and d + eps both round to d: a tie at t = d
    ElasticSpec(1e-300, 1.0),
]


def random_pairs(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield Direction(*rng.standard_normal(3)), Direction(*rng.standard_normal(3))


class TestProbabilityPair:
    def test_valid(self):
        p = ProbabilityPair(0.25, 0.75)
        assert (p.p1, p.p2) == (0.25, 0.75)

    @pytest.mark.parametrize("p1,p2", [(0.5, 0.6), (-0.01, 1.01), (1.2, -0.2)])
    def test_invalid(self, p1, p2):
        with pytest.raises(ValueError):
            ProbabilityPair(p1, p2)


class TestQuantumProbabilities:
    def test_aligned(self):
        assert quantum_probabilities(Z, Z) == ProbabilityPair(1.0, 0.0)

    def test_orthogonal(self):
        v = Direction.from_spherical(math.pi / 2)
        pair = quantum_probabilities(v, Z)
        assert pair.p1 == pytest.approx(0.5, abs=1e-15)

    def test_sixty_degrees(self):
        v = Direction.from_spherical(math.pi / 3)
        pair = quantum_probabilities(v, Z)
        assert pair.p1 == pytest.approx(0.75, abs=1e-15)
        assert pair.p2 == pytest.approx(0.25, abs=1e-15)

    def test_half_angle_form(self):
        for v, u in random_pairs(300, seed=21):
            theta = math.acos(max(-1.0, min(1.0, v.dot(u))))
            assert quantum_probabilities(v, u).p1 == pytest.approx(
                math.cos(theta / 2) ** 2, abs=1e-12
            )


class TestEpsilonProbabilities:
    def test_midpoint_is_even(self):
        pair = probabilities_from_axis(0.2, ElasticSpec(0.5, 0.2))
        assert pair == ProbabilityPair(0.5, 0.5)

    def test_hand_value(self):
        pair = probabilities_from_axis(0.45, ElasticSpec(0.5, 0.2))
        assert pair.p1 == pytest.approx(0.75, abs=1e-15)
        assert pair.p2 == pytest.approx(0.25, abs=1e-15)

    def test_deterministic_regimes(self):
        band = ElasticSpec(0.5, 0.2)
        assert probabilities_from_axis(-0.4, band) == ProbabilityPair(0.0, 1.0)
        assert probabilities_from_axis(-0.3, band) == ProbabilityPair(0.0, 1.0)
        assert probabilities_from_axis(0.7, band) == ProbabilityPair(1.0, 0.0)
        assert probabilities_from_axis(0.9, band) == ProbabilityPair(1.0, 0.0)

    def test_rigid_band_step_and_tie(self):
        band = ElasticSpec(0.0, 0.25)
        assert probabilities_from_axis(0.2, band) == ProbabilityPair(0.0, 1.0)
        assert probabilities_from_axis(0.3, band) == ProbabilityPair(1.0, 0.0)
        assert probabilities_from_axis(0.25, band) == ProbabilityPair(0.5, 0.5)

    def test_uniform_band_reduces_to_quantum(self):
        band = ElasticSpec(1.0, 0.0)
        for v, u in random_pairs(1000, seed=22):
            a = epsilon_probabilities(v, u, band)
            assert a == quantum_probabilities(v, u)
            assert a.p1 == 0.5 * (1.0 + axis_coordinate(v, u))

    def test_normalization(self):
        rng = np.random.default_rng(23)
        for band in BANDS:
            for t in rng.uniform(-1, 1, 200):
                pair = probabilities_from_axis(float(t), band)
                assert abs(pair.p1 + pair.p2 - 1.0) <= 1e-12

    def test_monotone_in_axis_coordinate(self):
        grid = np.linspace(-1.0, 1.0, 401)
        for band in BANDS:
            p = [probabilities_from_axis(float(t), band).p1 for t in grid]
            assert all(a <= b + 1e-15 for a, b in zip(p, p[1:]))

    def test_rejects_out_of_range_axis(self):
        with pytest.raises(ValueError):
            probabilities_from_axis(1.5, ElasticSpec(0.5, 0.0))


class TestExpectation:
    def test_linear_at_full_band(self):
        band = ElasticSpec(1.0, 0.0)
        for v, u in random_pairs(300, seed=24):
            assert expectation_from_axis(axis_coordinate(v, u), band) == pytest.approx(
                axis_coordinate(v, u), abs=1e-15
            )

    def test_clamp_saturation(self):
        assert expectation_from_axis(0.9, ElasticSpec(0.5, 0.0)) == 1.0

    def test_tie_is_zero(self):
        assert expectation_from_axis(0.0, ElasticSpec(0.0, 0.0)) == 0.0

    def test_matches_probability_difference(self):
        grid = np.linspace(-1.0, 1.0, 201)
        for band in BANDS:
            for t in grid:
                pair = probabilities_from_axis(float(t), band)
                e = expectation_from_axis(float(t), band)
                assert abs(e - (pair.p1 - pair.p2)) <= 1e-12


@st.composite
def band_and_axis(draw):
    """A band with eps in {0, 5e-324, 1e-300} or [1e-12, 1], and an axis
    coordinate that half the time sits on d, d - eps or d + eps, or on a
    float neighbour of one of them."""
    eps = draw(st.sampled_from((0.0, 5e-324, 1e-300)) | st.floats(1e-12, 1.0))
    d = draw(st.floats(-1.0, 1.0)) * (1.0 - eps)
    if draw(st.booleans()):
        t = draw(st.sampled_from((d, d - eps, d + eps)))
        t = draw(st.sampled_from((t, math.nextafter(t, -2.0), math.nextafter(t, 2.0))))
        t = min(1.0, max(-1.0, t))
    else:
        t = draw(st.floats(-1.0, 1.0))
    return ElasticSpec(eps, d), t


class TestBandEdges:
    @settings(max_examples=500, deadline=None)
    @given(case=band_and_axis())
    # c + eps = 2 - 2**-53 rounds to 2, so p1 = 1 while E = 1 - 2**-53
    @example(case=(ElasticSpec(1.0, 0.0), math.nextafter(1.0, 0.0)))
    @example(case=(ElasticSpec(1e-300, 1.0), 1.0))
    def test_probability_and_expectation_saturate_together(self, case):
        band, t = case
        p1 = probabilities_from_axis(t, band).p1
        e = expectation_from_axis(t, band)
        if abs(e) == 1.0:
            assert p1 in (0.0, 1.0)
        # the converse: p1 = 0 only at E = -1, and p1 = 1 only within one
        # rounding of E = 1, where (c + eps) rounds up to 2 eps
        assert (p1 == 0.0) == (e == -1.0)
        if p1 == 1.0:
            assert e >= 1.0 - 2.0**-52
        if e == 0.0:
            assert p1 == 0.5


class TestSpinor:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            Spinor(1.0, 1.0)

    def test_poles(self):
        up = spinor_from_direction(Z)
        down = spinor_from_direction(-Z)
        assert up.a == pytest.approx(1.0, abs=1e-15) and abs(up.b) <= 1e-15
        assert abs(down.a) <= 1e-12 and abs(down.b) == pytest.approx(1.0, abs=1e-12)

    def test_equator(self):
        s = spinor_from_direction(Direction(1, 0, 0))
        assert s.a == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        assert s.b == pytest.approx(1 / math.sqrt(2), abs=1e-15)

    def test_phase_convention(self):
        theta, phi = 1.1, 0.7
        s = spinor_from_direction(Direction.from_spherical(theta, phi))
        assert s.a == pytest.approx(cmath.exp(-0.5j * phi) * math.cos(theta / 2), abs=1e-14)
        assert s.b == pytest.approx(cmath.exp(0.5j * phi) * math.sin(theta / 2), abs=1e-14)

    def test_normalized_everywhere(self):
        rng = np.random.default_rng(25)
        for _ in range(300):
            s = spinor_from_direction(Direction(*rng.standard_normal(3)))
            assert abs(abs(s.a) ** 2 + abs(s.b) ** 2 - 1.0) <= 1e-12


class TestSpinOperator:
    def test_z_axis_diagonal(self):
        m = spin_operator(Z).matrix
        assert np.allclose(m, np.diag([0.5, -0.5]), atol=1e-15)

    def test_x_axis_off_diagonal(self):
        m = spin_operator(Direction(1, 0, 0)).matrix
        assert np.allclose(m, np.array([[0.0, 0.5], [0.5, 0.0]]), atol=1e-15)

    def test_spectrum(self):
        rng = np.random.default_rng(26)
        for _ in range(200):
            op = spin_operator(Direction(*rng.standard_normal(3)))
            eig = np.sort(np.linalg.eigvalsh(op.matrix))
            assert abs(eig[0] + 0.5) <= 1e-10
            assert abs(eig[1] - 0.5) <= 1e-10

    def test_eigenvector_is_direction_spinor(self):
        rng = np.random.default_rng(27)
        for _ in range(200):
            u = Direction(*rng.standard_normal(3))
            applied = spin_operator(u).matrix @ spinor_from_direction(u).as_array()
            assert np.abs(applied - 0.5 * spinor_from_direction(u).as_array()).max() <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            SpinOperator(np.array([[0.5, 1.0], [0.0, -0.5]]))

    def test_rejects_wrong_spectrum(self):
        with pytest.raises(ValueError):
            SpinOperator(np.eye(2))


class TestBornProbabilities:
    def test_eigenstate(self):
        u = Direction(0.3, -0.5, 0.8)
        pair = born_probabilities(spinor_from_direction(u), u)
        assert pair.p1 == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_direction(self):
        v = Direction(1, 0, 0)
        pair = born_probabilities(spinor_from_direction(v), Z)
        assert pair.p1 == pytest.approx(0.5, abs=1e-12)

    def test_agrees_with_band_probabilities(self):
        for v, u in random_pairs(1000, seed=28):
            born = born_probabilities(spinor_from_direction(v), u)
            exact = quantum_probabilities(v, u)
            assert abs(born.p1 - exact.p1) <= 1e-12
            assert abs(born.p2 - exact.p2) <= 1e-12

    def test_operator_expectation_is_half_cosine(self):
        for v, u in random_pairs(200, seed=29):
            psi = spinor_from_direction(v)
            value = np.vdot(psi.as_array(), spin_operator(u).matrix @ psi.as_array()).real
            assert value == pytest.approx(0.5 * v.dot(u), abs=1e-12)


class TestLinearityDeviation:
    # Reference values computed independently with a plain normal-equations
    # affine fit over the same 101-point grid.
    def test_uniform_band_is_affine(self):
        assert linearity_deviation(ElasticSpec(1.0, 0.0)) <= 1e-12

    def test_half_band(self):
        dev = linearity_deviation(ElasticSpec(0.5, 0.0))
        assert dev > 0.01
        assert dev == pytest.approx(0.36400698893418726, abs=1e-12)

    def test_quarter_band(self):
        dev = linearity_deviation(ElasticSpec(0.25, 0.0))
        assert dev > 0.01
        assert dev == pytest.approx(0.62173558532323825, abs=1e-12)

    def test_rigid_band(self):
        dev = linearity_deviation(ElasticSpec(0.0, 0.0))
        assert dev > 0.1
        assert dev == pytest.approx(0.97029702970297027, abs=1e-12)


def clip_of_quotient(x, eps):
    """The clamp law written as clip(x / eps, -1, 1); x / eps may overflow to
    +-inf for a tiny eps, which the clip maps to +-1."""
    with np.errstate(over="ignore"):
        return np.clip(np.asarray(x, dtype=float) / eps, -1.0, 1.0)


class TestClampLaw:
    @settings(max_examples=300, deadline=None)
    @given(
        eps=st.one_of(
            st.sampled_from((5e-324, 1e-300, 1.0 / math.sqrt(2.0), 1.0)),
            st.floats(min_value=5e-324, max_value=1.0),
        ),
        xs=st.lists(st.floats(min_value=-2.0, max_value=2.0), max_size=16),
        ratios=st.lists(st.floats(min_value=-3.0, max_value=3.0), max_size=16),
    )
    def test_bits_match_clip_of_quotient_for_scalar_and_array(self, eps, xs, ratios):
        edges = [0.0, -0.0, eps, -eps, np.nextafter(eps, 0.0), np.nextafter(eps, 2.0)]
        x = np.array(edges + [-e for e in edges[4:]] + xs + [r * eps for r in ratios])
        law = _clamp_law(x, eps)
        assert law.tobytes() == clip_of_quotient(x, eps).tobytes()
        scalars = np.array([_clamp_law(float(xi), eps) for xi in x])
        assert scalars.tobytes() == law.tobytes()

    def test_rigid_band_is_the_sign(self):
        x = np.array([-1.0, -1e-300, -0.0, 0.0, 5e-324, 0.5])
        assert _clamp_law(x, 0.0).tobytes() == np.sign(x).tobytes()
        assert [float(_clamp_law(float(xi), 0.0)) for xi in x] == list(np.sign(x))

    def test_subnormal_epsilon_does_not_overflow(self):
        with np.errstate(all="raise"):
            assert _clamp_law(np.array([-1.0, 0.0, 1.0]), 5e-324).tolist() == [-1.0, 0.0, 1.0]
