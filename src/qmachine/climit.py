"""Cut-and-renormalize localization transform on 1-D probability densities.

The transform models a detection whose remaining randomness is parameterized
by eps in (0, 1]: cut the density at the constant level c chosen so the cap
above c holds mass eps, drop everything below, and divide by eps.  As
eps -> 0 the result concentrates at the density's maximum (or maxima: a
symmetric two-peak density keeps both peaks at every eps, while the
slightest height asymmetry makes the lower peak drop out below a positive
collapse threshold).

Input densities never mutate; every transform returns a new grid.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import asdict, dataclass

import numpy as np

_RENORM_WARN = 1e-6
_MODE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class DensityGrid:
    """Nonnegative density sampled on a uniform grid, unit mass.

    ``values[i]`` is the density at ``x0 + i*dx``; the Riemann mass
    ``dx * sum(values)`` is renormalized to 1 at construction (a warning is
    issued when the correction exceeds 1e-6).  The value array is read-only.
    """

    x0: float
    dx: float
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.ndim != 1 or v.size < 3:
            raise ValueError("density needs at least 3 grid points")
        dx = float(self.dx)
        if not np.isfinite(dx) or dx <= 0.0:
            raise ValueError(f"grid spacing must be positive, got {dx!r}")
        if not np.isfinite(v).all():
            raise ValueError("density values must be finite")
        if (v < 0.0).any():
            raise ValueError("density values must be nonnegative")
        mass = float(v.sum()) * dx
        if mass <= 0.0:
            raise ValueError("density has zero mass")
        if abs(mass - 1.0) > _RENORM_WARN:
            warnings.warn(
                f"density mass {mass:.9g} renormalized to 1", stacklevel=3
            )
        v /= mass
        v.flags.writeable = False
        object.__setattr__(self, "x0", float(self.x0))
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def positions(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n)


def threshold_for_mass(grid: DensityGrid, eps: float) -> float:
    """Level c >= 0 such that the cap above c has mass eps, solved exactly.

    The cap mass M(c) = dx * sum(max(values - c, 0)) is piecewise linear in
    c.  With the values sorted descending, s_1 >= s_2 >= ..., and
    S_k = s_1 + ... + s_k, the mass at knot s_{k+1} is dx*(S_k - k*s_{k+1})
    (s_{n+1} = 0).  For the first k where that reaches eps,
    c = (S_k - eps/dx) / k, kept inside [s_{k+1}, s_k] against rounding so
    that c never increases with eps.
    """
    eps = float(eps)
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must be in (0, 1], got {eps!r}")
    if eps == 1.0:
        return 0.0  # the whole unit mass
    s = np.sort(grid.values)[::-1]
    head = np.cumsum(s)
    k = np.arange(1, s.size + 1)
    knots = np.append(s[1:], 0.0)
    caps = grid.dx * (head - k * knots)
    # the first crossing: along a plateau the caps may wobble by an ulp
    i = int(np.argmax(caps >= eps))
    if caps[i] < eps:
        return 0.0  # eps is above the rounded total mass
    return float(np.clip((head[i] - eps / grid.dx) / k[i], knots[i], s[i]))


@dataclass(frozen=True)
class CutReport:
    """Result of one cut-and-renormalize transform.

    ``support`` lists the inclusive index ranges where the transformed
    density is positive; ``mass_error`` is the deviation of the raw
    transformed mass from 1 before the grid's own renormalization.
    """

    epsilon: float
    threshold: float
    transformed: DensityGrid
    support: tuple[tuple[int, int], ...]
    mass_error: float

    def to_json_dict(self) -> dict:
        loc = localization(self.transformed)
        return {
            "epsilon": self.epsilon,
            "threshold": self.threshold,
            "mass_error": self.mass_error,
            "support_intervals": [list(r) for r in self.support],
            "n_clusters": len(self.support),
            "modes": list(loc.modes),
            "support_width": loc.support_width,
            "variance": loc.variance,
            "mean": loc.mean,
        }


def _support_runs(mask: np.ndarray) -> tuple[tuple[int, int], ...]:
    """Inclusive index ranges of the True runs; runs are separated by at
    least one False cell."""
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return ()
    breaks = np.flatnonzero(np.diff(idx) > 1)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [idx.size - 1]))
    return tuple((int(idx[s]), int(idx[e])) for s, e in zip(starts, ends))


def epsilon_transform(grid: DensityGrid, eps: float) -> CutReport:
    """Cut at the eps-mass level, keep the cap, renormalize by eps.

    eps = 1 cuts at level 0 and returns the density unchanged.  The input
    grid is untouched; the report carries a new grid.  Raises ValueError
    when eps is so small that the renormalized cap rounds to zero or
    overflows.
    """
    c = threshold_for_mass(grid, eps)
    with np.errstate(over="ignore"):  # an overflow is reported below
        raw = np.maximum(grid.values - c, 0.0) / eps
        mass = float(raw.sum()) * grid.dx
    if not 0.0 < mass < np.inf:
        raise ValueError(f"cut eps {eps!r} is too small: the renormalized cap has mass {mass}")
    mass_error = abs(mass - 1.0)
    transformed = DensityGrid(grid.x0, grid.dx, raw)
    return CutReport(float(eps), c, transformed, _support_runs(raw > 0.0), mass_error)


@dataclass(frozen=True)
class Localization:
    """Where a density sits and how spread out it is."""

    modes: tuple[float, ...]
    support_width: float
    variance: float
    mean: float


def localization(grid: DensityGrid) -> Localization:
    """Modes (grid positions of local maxima tied with the global maximum
    within 1e-12), total support length, variance, and mean."""
    v = grid.values
    peak = float(v.max())
    local = np.empty(v.size, dtype=bool)
    local[0] = v[0] >= v[1]
    local[-1] = v[-1] >= v[-2]
    local[1:-1] = (v[1:-1] >= v[:-2]) & (v[1:-1] >= v[2:])
    modes = grid.positions[local & (v >= peak - _MODE_TOL)]
    x = grid.positions
    mean = float((v * x).sum()) * grid.dx
    var = float((v * (x - mean) ** 2).sum()) * grid.dx
    width = float(np.count_nonzero(v > 0.0)) * grid.dx
    return Localization(tuple(float(m) for m in modes), width, var, mean)


# ---------------------------------------------------------------------------
# Fixtures


def gaussian_grid(num_points: int = 2001) -> DensityGrid:
    """Standard normal bell sampled on ``num_points`` over [-5, 5]."""
    x = np.linspace(-5.0, 5.0, num_points)
    v = np.exp(-0.5 * x**2)
    dx = float(x[1] - x[0])
    return DensityGrid(float(x[0]), dx, v / (v.sum() * dx))


# Grid points, hump center distance and hump half width of the two-hump fixture.
_SLIT_POINTS = 4001
_SLIT_SEPARATION = 4.0
_SLIT_HALF_WIDTH = 1.0


def double_slit_grid(peak_ratio: float = 1.0) -> DensityGrid:
    """Two raised-cosine humps with exactly zero density between them.

    The left hump (slit 1) is ``peak_ratio`` times taller than the right.
    Compact supports keep the inter-peak gap identically zero, so the two
    clusters stay separable at every cut level.
    """
    if peak_ratio < 1.0:
        raise ValueError(f"peak ratio must be >= 1, got {peak_ratio!r}")
    half = _SLIT_SEPARATION / 2.0
    span = half + 2.0 * _SLIT_HALF_WIDTH
    x = np.linspace(-span, span, _SLIT_POINTS)
    v = np.zeros_like(x)
    for center, height in ((-half, peak_ratio), (half, 1.0)):
        inside = np.abs(x - center) <= _SLIT_HALF_WIDTH
        v[inside] += height * np.cos(
            np.pi * (x[inside] - center) / (2.0 * _SLIT_HALF_WIDTH)
        ) ** 2
    dx = float(x[1] - x[0])
    with np.errstate(over="ignore"):  # an overflow is reported below
        mass = v.sum() * dx
    if not np.isfinite(mass):
        raise ValueError(f"peak ratio {peak_ratio!r} overflows the density mass")
    return DensityGrid(float(x[0]), dx, v / mass)


@dataclass(frozen=True)
class DoubleSlitRow:
    epsilon: float
    n_clusters: int
    cluster_spans: tuple[tuple[float, float], ...]
    taller_survives: bool


@dataclass(frozen=True)
class DoubleSlitReport:
    """Cluster structure of the two-hump density across a cut sequence.

    ``collapse_threshold`` is the cap mass of the taller hump above the
    shorter peak's height: below it the cut level exceeds the shorter peak
    and only the taller cluster survives (0 for equal peaks, growing with
    the height ratio).
    """

    peak_ratio: float
    collapse_threshold: float
    rows: tuple[DoubleSlitRow, ...]

    def to_json_dict(self) -> dict:
        return asdict(self)


def double_slit_scenario(peak_ratio: float, eps_values) -> DoubleSlitReport:
    """Run the cut transform across ``eps_values`` on the two-hump density."""
    grid = double_slit_grid(peak_ratio)
    x = grid.positions
    argmax = float(x[int(grid.values.argmax())])
    shorter_peak = float(grid.values[x > 0.0].max())
    collapse = float(np.maximum(grid.values - shorter_peak, 0.0).sum()) * grid.dx
    rows = []
    for eps in eps_values:
        report = epsilon_transform(grid, float(eps))
        spans = tuple(
            (float(x[i]), float(x[j])) for i, j in report.support
        )
        survives = any(lo <= argmax <= hi for lo, hi in spans)
        rows.append(DoubleSlitRow(float(eps), len(spans), spans, survives))
    return DoubleSlitReport(float(peak_ratio), collapse, tuple(rows))


# ---------------------------------------------------------------------------
# Density file format: two-column CSV (x, value) with uniform spacing.

_SPACING_RTOL = 1e-9


def save_density_csv(grid: DensityGrid, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "value"])
        for x, v in zip(grid.positions, grid.values):
            writer.writerow([format(x, ".17g"), format(v, ".17g")])


def load_density_csv(path) -> DensityGrid:
    """Read a two-column (x, value) CSV; a non-numeric first row is a header.

    The x column must be uniformly spaced to 1e-9 relative tolerance.
    """
    xs, vs = [], []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or not row[0].strip():
                continue
            try:
                x = float(row[0])
            except ValueError:
                if xs:
                    raise ValueError(f"non-numeric row after data start: {row!r}")
                continue  # header
            if len(row) < 2:
                raise ValueError(f"expected two columns, got {row!r}")
            xs.append(x)
            vs.append(float(row[1]))
    if len(xs) < 3:
        raise ValueError("density file needs at least 3 rows")
    x = np.asarray(xs)
    steps = np.diff(x)
    dx = float(steps.mean())
    if dx <= 0.0 or np.abs(steps - dx).max() > _SPACING_RTOL * max(1.0, abs(dx)):
        raise ValueError("x column is not uniformly spaced")
    return DensityGrid(float(x[0]), dx, np.asarray(vs))
