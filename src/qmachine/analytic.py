"""Closed-form outcome statistics for the elastic-band measurement and their
two-dimensional Hilbert-space counterpart.

The uniformly breakable band (epsilon = 1) reproduces the spin-1/2 transition
probabilities (1 +/- v.u)/2; a band breakable only on [d - eps, d + eps] gives
the piecewise law implemented in :func:`probabilities_from_axis`.  The spinor
and operator functions provide the matching quantum description so the two
routes can be checked against each other.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .geometry import Direction, ElasticSpec, axis_coordinate

_PAIR_TOL = 1e-12
_HERMITIAN_TOL = 1e-12
_EIGENVALUE_TOL = 1e-10


@dataclass(frozen=True)
class ProbabilityPair:
    """Probabilities of the two outcomes; p1 + p2 = 1 within 1e-12."""

    p1: float
    p2: float

    def __post_init__(self):
        p1, p2 = float(self.p1), float(self.p2)
        if not (-_PAIR_TOL <= p1 <= 1.0 + _PAIR_TOL) or not (
            -_PAIR_TOL <= p2 <= 1.0 + _PAIR_TOL
        ):
            raise ValueError(f"probabilities out of range: ({p1!r}, {p2!r})")
        if abs(p1 + p2 - 1.0) > _PAIR_TOL:
            raise ValueError(f"probabilities do not sum to 1: ({p1!r}, {p2!r})")
        object.__setattr__(self, "p1", min(1.0, max(0.0, p1)))
        object.__setattr__(self, "p2", min(1.0, max(0.0, p2)))

    @property
    def expectation(self) -> float:
        """p1 - p2, the mean of the +/-1 outcome values."""
        return self.p1 - self.p2


@dataclass(frozen=True)
class Spinor:
    """Normalized two-component complex state vector."""

    a: complex
    b: complex

    def __post_init__(self):
        a, b = complex(self.a), complex(self.b)
        norm2 = abs(a) ** 2 + abs(b) ** 2
        if abs(norm2 - 1.0) > _PAIR_TOL:
            raise ValueError(f"spinor not normalized: |a|^2 + |b|^2 = {norm2!r}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def inner(self, other: "Spinor") -> complex:
        """Hermitian inner product <self|other>."""
        return self.a.conjugate() * other.a + self.b.conjugate() * other.b

    def as_array(self) -> np.ndarray:
        return np.array([self.a, self.b], dtype=complex)


@dataclass(frozen=True, eq=False)
class SpinOperator:
    """2x2 Hermitian matrix with eigenvalues +/- 1/2."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
        if np.abs(m - m.conj().T).max() > _HERMITIAN_TOL:
            raise ValueError("matrix is not Hermitian")
        eigs = np.sort(np.linalg.eigvalsh(m))
        if abs(eigs[0] + 0.5) > _EIGENVALUE_TOL or abs(eigs[1] - 0.5) > _EIGENVALUE_TOL:
            raise ValueError(f"eigenvalues are not +/- 1/2: {eigs}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def apply(self, state: Spinor) -> np.ndarray:
        return self.matrix @ state.as_array()


def quantum_probabilities(v: Direction, u: Direction) -> ProbabilityPair:
    """Outcome probabilities of the uniformly breakable band.

    p1 = (1 + v.u)/2 = cos^2(theta/2) and p2 = (1 - v.u)/2 = sin^2(theta/2):
    the break point is uniform on [-1, 1] and the particle at t = v.u goes up
    exactly when the band snaps below it.
    """
    t = axis_coordinate(v, u)
    p1 = 0.5 * (1.0 + t)
    return ProbabilityPair(p1, 1.0 - p1)


def probabilities_from_axis(t: float, elastic: ElasticSpec) -> ProbabilityPair:
    """Outcome probabilities for a particle at axis coordinate ``t``.

    Piecewise in t: below the breakable segment every break pulls the
    particle down (p1 = 0); above it every break pulls it up (p1 = 1); on the
    segment the break point is uniform, giving p1 = (t - d + eps)/(2 eps).
    For epsilon = 0 the segment is the single point d and the exact tie
    t = d resolves by a fair coin.
    """
    if not -1.0 <= t <= 1.0:
        raise ValueError(f"axis coordinate must be in [-1, 1], got {t!r}")
    eps, d = elastic.epsilon, elastic.d
    if eps == 0.0:
        if t < d:
            return ProbabilityPair(0.0, 1.0)
        if t > d:
            return ProbabilityPair(1.0, 0.0)
        return ProbabilityPair(0.5, 0.5)  # fair-coin tie rule
    if t <= elastic.break_lower:
        return ProbabilityPair(0.0, 1.0)
    if t >= elastic.break_upper:
        return ProbabilityPair(1.0, 0.0)
    p1 = (t - d + eps) / (2.0 * eps)
    return ProbabilityPair(p1, 1.0 - p1)


def epsilon_probabilities(v: Direction, u: Direction, elastic: ElasticSpec) -> ProbabilityPair:
    """Outcome probabilities of the partially breakable band for state v, axis u."""
    return probabilities_from_axis(axis_coordinate(v, u), elastic)


def _clamp_law(x, eps: float):
    """clamp(x / eps, -1, +1) for eps > 0 and sign(x) for eps = 0, for a
    scalar or an array ``x``: the mean +/-1 outcome at offset ``x = t - d``.

    Clipping x to [-eps, eps] before the division gives the same bits as
    clipping x / eps to [-1, 1], and cannot overflow for a subnormal eps.
    """
    if eps == 0.0:
        return np.sign(x)
    return np.clip(x, -eps, eps) / eps


def expectation_from_axis(t: float, elastic: ElasticSpec) -> float:
    """Mean +/-1 outcome value at axis coordinate ``t``.

    Equals clamp((t - d)/eps, -1, +1) for eps > 0 and sign(t - d) for
    eps = 0 (0 at the tie); identical to p1 - p2 of
    :func:`probabilities_from_axis`.
    """
    if not -1.0 <= t <= 1.0:
        raise ValueError(f"axis coordinate must be in [-1, 1], got {t!r}")
    return float(_clamp_law(t - elastic.d, elastic.epsilon))


def expectation(v: Direction, u: Direction, elastic: ElasticSpec) -> float:
    """Mean +/-1 outcome value for state v measured along u."""
    return expectation_from_axis(axis_coordinate(v, u), elastic)


def spinor_from_direction(v: Direction) -> Spinor:
    """State vector (e^{-i phi/2} cos(theta/2), e^{i phi/2} sin(theta/2))."""
    theta, phi = v.to_spherical()
    half = 0.5 * theta
    return Spinor(
        cmath.exp(-0.5j * phi) * math.cos(half),
        cmath.exp(0.5j * phi) * math.sin(half),
    )


def spin_operator(u: Direction) -> SpinOperator:
    """Spin observable along u: (1/2) [[z, x - iy], [x + iy, -z]].

    Hermitian and traceless, with +1/2 eigenvector equal to
    ``spinor_from_direction(u)`` up to a global phase.
    """
    m = 0.5 * np.array(
        [
            [u.z, u.x - 1j * u.y],
            [u.x + 1j * u.y, -u.z],
        ],
        dtype=complex,
    )
    return SpinOperator(m)


def born_probabilities(state: Spinor, u: Direction) -> ProbabilityPair:
    """Squared overlaps of ``state`` with the +/-u basis spinors."""
    up = spinor_from_direction(u)
    down = spinor_from_direction(-u)
    p1 = abs(up.inner(state)) ** 2
    p2 = abs(down.inner(state)) ** 2
    return ProbabilityPair(p1, p2)


def linearity_deviation(u: Direction, elastic: ElasticSpec, samples: int = 101) -> float:
    """Max deviation of the expectation curve from its best affine fit.

    The expectation is scanned over an even grid of axis coordinates
    t in [-1, 1] (the result does not depend on ``u`` itself) and compared to
    the least-squares affine fit.  Zero within 1e-12 exactly when the scanned
    curve is affine, i.e. for epsilon = 1; the clamped ramp (0 < eps < 1) and
    the step (eps = 0) both deviate by a strictly positive amount.
    """
    if samples < 3:
        raise ValueError(f"need at least 3 samples, got {samples}")
    t = np.linspace(-1.0, 1.0, samples)
    e = np.array([expectation_from_axis(float(ti), elastic) for ti in t])
    design = np.column_stack([t, np.ones_like(t)])
    coef, *_ = np.linalg.lstsq(design, e, rcond=None)
    return float(np.abs(e - design @ coef).max())
