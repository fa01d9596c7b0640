"""Geometry shared by the whole model: points on the unit sphere, the
breakable-band parameters, and the two measurement outcomes.

Everything here is an immutable value type with no randomness and no I/O,
so instances can be shared freely between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

# Inputs whose magnitude falls outside this band are rejected instead of
# silently normalized; they are almost certainly garbage.
_MIN_MAGNITUDE = 1e-9
_MAX_MAGNITUDE = 1e9

# Below this value of sin(theta) the azimuth is undefined; we pin it to 0.
_POLE_TOL = 1e-12


@dataclass(frozen=True)
class Direction:
    """A unit vector on the 2-sphere.

    Used both for measurement axes and for particle positions.  The
    constructor normalizes its input, so ``Direction(0, 0, 2)`` is the north
    pole.  Normalization is idempotent.
    """

    x: float
    y: float
    z: float

    def __post_init__(self):
        x, y, z = float(self.x), float(self.y), float(self.z)
        mag = math.sqrt(x * x + y * y + z * z)
        if not (_MIN_MAGNITUDE <= mag <= _MAX_MAGNITUDE):
            raise ValueError(f"cannot normalize vector with magnitude {mag!r}")
        object.__setattr__(self, "x", x / mag)
        object.__setattr__(self, "y", y / mag)
        object.__setattr__(self, "z", z / mag)

    @classmethod
    def from_spherical(cls, theta: float, phi: float = 0.0) -> "Direction":
        """Build from polar angle ``theta`` (from +z) and azimuth ``phi``."""
        st = math.sin(theta)
        return cls(st * math.cos(phi), st * math.sin(phi), math.cos(theta))

    def to_spherical(self) -> tuple[float, float]:
        """Return ``(theta, phi)`` with theta in [0, pi] and phi in (-pi, pi].

        At the poles (sin(theta) <= 1e-12) the azimuth is conventionally 0.
        """
        rho = math.hypot(self.x, self.y)
        theta = math.atan2(rho, self.z)
        phi = 0.0 if rho <= _POLE_TOL else math.atan2(self.y, self.x)
        return theta, phi

    def dot(self, other: "Direction") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def __neg__(self) -> "Direction":
        return Direction(-self.x, -self.y, -self.z)


@dataclass(frozen=True)
class SphereState:
    """State of the model particle: a point on its sphere's surface."""

    position: Direction


@dataclass(frozen=True)
class ElasticSpec:
    """Parameters of the partially breakable elastic band.

    In the axis coordinate t in [-1, 1] the elastic is breakable exactly on
    the segment [d - epsilon, d + epsilon] and unbreakable elsewhere.
    ``epsilon`` must lie in [0, 1] and ``d`` in [-1 + epsilon, 1 - epsilon],
    so the breakable segment never leaves the band.  epsilon = 1 (forcing
    d = 0) is the uniformly breakable band; epsilon = 0 is the fully rigid
    one that snaps at the single point d.
    """

    epsilon: float
    d: float = 0.0

    def __post_init__(self):
        eps, d = float(self.epsilon), float(self.d)
        if not (0.0 <= eps <= 1.0):
            raise ValueError(f"epsilon must be in [0, 1], got {eps!r}")
        if not (-1.0 + eps <= d <= 1.0 - eps):
            raise ValueError(
                f"d must be in [-1 + epsilon, 1 - epsilon] = "
                f"[{-1.0 + eps}, {1.0 - eps}], got {d!r}"
            )
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "d", d)

    @property
    def break_lower(self) -> float:
        return self.d - self.epsilon

    @property
    def break_upper(self) -> float:
        return self.d + self.epsilon


class Outcome(Enum):
    """The two possible results of a single measurement.

    O1: the particle is pulled to the axis point +u.
    O2: the particle is pulled to the antipode -u.
    """

    O1 = 1
    O2 = -1


def axis_coordinate(v: Direction, u: Direction) -> float:
    """Orthogonal-projection coordinate of v on the u axis: t = v.u = cos(theta).

    This is the coordinate in which all elastic geometry is expressed; the
    band stretches from t = -1 (at -u) to t = +1 (at u), total length 2, and
    the particle sticks to it at t.
    """
    return min(1.0, max(-1.0, v.dot(u)))
