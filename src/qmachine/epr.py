"""Two sphere models joined by a rigid rod: pair measurements, correlations,
and CHSH analysis across the breakability parameter.

Pair mechanics
--------------
Both particles start at the centers of their spheres, joined by a rigid rod
through the centers.  The first (source) measurement acts on a central
particle, whose axis coordinate is 0 on every axis; with an unbiased band
(d = 0) the outcome is a fair coin for every epsilon (at epsilon = 0 the
snap point hits the exact tie and the fair-coin tie rule applies).  The rod
simultaneously drags the partner to the antipodal surface point, after which
the partner's wing performs an ordinary single-particle measurement on that
localized state.

With outcomes valued +/-1 this gives the closed-form pair correlation

    E(a, b) = -clamp(a.b / eps, -1, +1)      (eps > 0, d = 0)
    E(a, b) = -sign(a.b)                      (eps = 0)

which at eps = 1 is the singlet correlation -a.b.  The settings-optimized
CHSH combination therefore reaches 2*sqrt(2) at eps = 1 and grows as the
band becomes more deterministic, up to the algebraic maximum 4, which is
attained for every eps <= 1/sqrt(2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.optimize import minimize

from .analytic import _clamp_law
from .geometry import Direction, ElasticSpec, Outcome, SphereState, axis_coordinate
from .sampler import (
    RandomStream,
    _map_blocks,
    _resolve,
    _snap_points,
    measure,
    outcome_at_axis,
    sample_break_point,
)

# Coplanar settings (degrees in the x-z plane) where the eps = 1 optimum
# 2*sqrt(2) is attained; also a maximizer of |S| for every eps < 1.
TSIRELSON_ANGLES_DEG = (0.0, 90.0, 225.0, 135.0)


def plane_direction(angle: float) -> Direction:
    """Direction at ``angle`` radians from +z within the x-z plane."""
    return Direction(math.sin(angle), 0.0, math.cos(angle))


@dataclass
class EntangledPair:
    """Two rod-coupled particles, initially at their sphere centers.

    Neither particle has a surface position before the first measurement;
    localizing either wing forces the partner to the antipodal point.
    """

    left: SphereState | None = None
    right: SphereState | None = None

    @property
    def collapsed(self) -> bool:
        return self.left is not None or self.right is not None

    def localize_left(self, position: Direction) -> None:
        if self.collapsed:
            raise ValueError("pair is already localized")
        self.left = SphereState(position)
        self.right = SphereState(-position)

    def localize_right(self, position: Direction) -> None:
        if self.collapsed:
            raise ValueError("pair is already localized")
        self.right = SphereState(position)
        self.left = SphereState(-position)


@dataclass(frozen=True)
class ChshSetting:
    """The four measurement axes of a CHSH run: a, a' on the left wing and
    b, b' on the right wing."""

    a: Direction
    a_prime: Direction
    b: Direction
    b_prime: Direction

    @classmethod
    def from_plane_degrees(
        cls, a: float, a_prime: float, b: float, b_prime: float
    ) -> "ChshSetting":
        return cls(
            plane_direction(math.radians(a)),
            plane_direction(math.radians(a_prime)),
            plane_direction(math.radians(b)),
            plane_direction(math.radians(b_prime)),
        )


def _wing_bands(elastic: ElasticSpec, left_elastic, order: str):
    """The bands of the wing measured first and of its partner.

    The left band defaults to the right one's epsilon with d = 0; the band
    measuring the still-central pair must be unbiased.
    """
    if order not in ("left", "right"):
        raise ValueError(f"order must be 'left' or 'right', got {order!r}")
    if left_elastic is None:
        left_elastic = ElasticSpec(elastic.epsilon, 0.0)
    if left_elastic.d != 0.0:
        raise ValueError("the source-side elastic must be unbiased (d = 0)")
    if order == "left":
        return left_elastic, elastic
    if elastic.d != 0.0:
        raise ValueError("right-first order requires an unbiased right band")
    return elastic, left_elastic


def measure_pair(
    pair: EntangledPair,
    a: Direction,
    b: Direction,
    elastic: ElasticSpec,
    rng: RandomStream,
    left_elastic: ElasticSpec | None = None,
    order: str = "left",
) -> tuple[Outcome, Outcome]:
    """Measure the left wing along ``a`` and the right wing along ``b``.

    ``elastic`` applies to the right wing; ``left_elastic`` (default: same
    epsilon, d = 0) to the left.  ``order`` selects which wing measures the
    still-central pair first; the joint outcome distribution is order
    independent when both wings use the same unbiased band.
    Returns ``(left outcome, right outcome)``.
    """
    if pair.collapsed:
        raise ValueError("pair has already been measured")
    first_el, second_el = _wing_bands(elastic, left_elastic, order)
    snap = sample_break_point(first_el, rng)
    if order == "left":
        a_out = outcome_at_axis(0.0, snap, rng)
        pair.localize_left(a if a_out is Outcome.O1 else -a)
        b_out, post, _ = measure(pair.right.position, b, second_el, rng)
        pair.right = post
    else:
        b_out = outcome_at_axis(0.0, snap, rng)
        pair.localize_right(b if b_out is Outcome.O1 else -b)
        a_out, post, _ = measure(pair.left.position, a, second_el, rng)
        pair.left = post
    return a_out, b_out


def joint_counts(
    a: Direction,
    b: Direction,
    elastic: ElasticSpec,
    n: int,
    seed,
    workers: int = 1,
    left_elastic: ElasticSpec | None = None,
    order: str = "left",
) -> dict[tuple[Outcome, Outcome], int]:
    """Joint outcome counts of ``n`` pair measurements, keyed (left, right).

    Block-substream scheme as in :mod:`qmachine.sampler`: results are
    bit-identical for any worker count.
    """
    first_el, second_el = _wing_bands(elastic, left_elastic, order)
    t_ab = axis_coordinate(a, b)

    def run_block(rs: RandomStream, m: int):
        first_up = _resolve(_snap_points(rs, first_el, m), 0.0, rs)
        # the partner sits at the antipode of the first wing's landing point
        t2 = np.where(first_up, -t_ab, t_ab)
        second_up = _resolve(_snap_points(rs, second_el, m), t2, rs)
        a_up, b_up = (first_up, second_up) if order == "left" else (second_up, first_up)
        pp = int(np.count_nonzero(a_up & b_up))
        pm = int(np.count_nonzero(a_up & ~b_up))
        mp = int(np.count_nonzero(~a_up & b_up))
        return pp, pm, mp

    pp, pm, mp = map(sum, zip(*_map_blocks(run_block, n, seed, workers)))
    return {
        (Outcome.O1, Outcome.O1): pp,
        (Outcome.O1, Outcome.O2): pm,
        (Outcome.O2, Outcome.O1): mp,
        (Outcome.O2, Outcome.O2): n - pp - pm - mp,
    }


def correlation_mc(
    a: Direction,
    b: Direction,
    elastic: ElasticSpec,
    n: int,
    seed,
    workers: int = 1,
    left_elastic: ElasticSpec | None = None,
) -> float:
    """Monte Carlo estimate of the pair correlation <A*B>."""
    c = joint_counts(a, b, elastic, n, seed, workers, left_elastic)
    same = c[(Outcome.O1, Outcome.O1)] + c[(Outcome.O2, Outcome.O2)]
    return (2 * same - n) / n


def correlation_analytic(a: Direction, b: Direction, elastic: ElasticSpec) -> float:
    """Closed-form pair correlation -clamp(a.b/eps) (eps > 0), -sign(a.b) (eps = 0).

    Average of the two equally likely source outcomes: the partner lands at
    -a or +a, contributing -/+ the single-wing expectation along b.
    """
    if elastic.d != 0.0:
        raise ValueError("pair correlations require an unbiased band (d = 0)")
    return -float(_clamp_law(axis_coordinate(a, b), elastic.epsilon))


def _corr_curve(angles: np.ndarray, eps: float) -> np.ndarray:
    """Pair correlation as a function of the angle between the two axes."""
    return -_clamp_law(np.cos(angles), eps)


@dataclass(frozen=True)
class ChshEstimate:
    """Monte Carlo CHSH value with its standard error."""

    value: float
    stderr: float
    correlations: tuple[float, float, float, float]


def chsh_analytic(setting: ChshSetting, elastic: ElasticSpec) -> float:
    """S = E(a,b) + E(a,b') + E(a',b) - E(a',b') from the closed form."""
    return (
        correlation_analytic(setting.a, setting.b, elastic)
        + correlation_analytic(setting.a, setting.b_prime, elastic)
        + correlation_analytic(setting.a_prime, setting.b, elastic)
        - correlation_analytic(setting.a_prime, setting.b_prime, elastic)
    )


def chsh_estimate(
    setting: ChshSetting, elastic: ElasticSpec, n: int, seed, workers: int = 1
) -> ChshEstimate:
    """Monte Carlo S with ``n`` pair trials per correlation term."""
    if n < 1:
        raise ValueError(f"need at least one trial per term, got {n}")
    root = seed if isinstance(seed, RandomStream) else RandomStream(seed)
    pairs = (
        (setting.a, setting.b),
        (setting.a, setting.b_prime),
        (setting.a_prime, setting.b),
        (setting.a_prime, setting.b_prime),
    )
    est = tuple(
        correlation_mc(x, y, elastic, n, root.substream(k), workers)
        for k, (x, y) in enumerate(pairs)
    )
    value = est[0] + est[1] + est[2] - est[3]
    stderr = math.sqrt(sum((1.0 - e * e) / n for e in est))
    return ChshEstimate(value, stderr, est)


def chsh_value(
    setting: ChshSetting,
    elastic: ElasticSpec,
    mode: str = "analytic",
    n: int | None = None,
    seed=None,
    workers: int = 1,
) -> float:
    """CHSH combination for fixed settings, exact or Monte Carlo."""
    if mode == "analytic":
        return chsh_analytic(setting, elastic)
    if mode in ("mc", "monte-carlo"):
        if not n:
            raise ValueError("monte-carlo mode needs a positive trial count")
        return chsh_estimate(setting, elastic, n, 0 if seed is None else seed, workers).value
    raise ValueError(f"mode must be 'analytic' or 'monte-carlo', got {mode!r}")


@dataclass(frozen=True)
class ChshOptimum:
    """Settings-optimized CHSH: the largest |S| and where it is attained."""

    max_abs_s: float
    signed_s: float
    setting: ChshSetting


# Sign placements: which of the four correlation terms carries the minus.
# Each maps back to the canonical combination by swapping a<->a' and/or
# b<->b', so the convention cannot hide a violation.
_PLACEMENTS = (
    (1.0, 1.0, 1.0, -1.0),  # canonical: minus on (a', b')
    (1.0, 1.0, -1.0, 1.0),  # minus on (a', b)  -> swap b, b'
    (1.0, -1.0, 1.0, 1.0),  # minus on (a, b')  -> swap a, a'
    (-1.0, 1.0, 1.0, 1.0),  # minus on (a, b)   -> swap both
)


# Cells (a' rows x grid angles) per array chunk of the max_chsh grid scan:
# memory stays O(m * rows) instead of O(m^2) at fine resolutions.
_CHUNK_CELLS = 2**15


def _canonical_setting(placement: int, alpha: float, beta: float, gamma: float) -> ChshSetting:
    """Angles (a=0, a'=alpha, b=beta, b'=gamma) relabeled so the canonical
    sign pattern reproduces the placement's value."""
    a, ap, b, bp = 0.0, alpha, beta, gamma
    if placement in (1, 3):
        b, bp = bp, b
    if placement in (2, 3):
        a, ap = ap, a
    return ChshSetting(
        plane_direction(a), plane_direction(ap), plane_direction(b), plane_direction(bp)
    )


def max_chsh(
    elastic: ElasticSpec, resolution_deg: float = 1.0, refine: bool = True
) -> ChshOptimum:
    """Maximize |S| over coplanar settings.

    Grid search at ``resolution_deg`` over the three free angles (a is pinned
    at 0 by rotational symmetry), exploiting that for a fixed a' the b and b'
    angles maximize independently; optionally polished by a Nelder-Mead local
    search.  All four sign placements are scanned.

    The grid is scored as arrays, one chunk of a' rows (about
    ``_CHUNK_CELLS`` cells) at a time, so memory grows as O(m * rows), not
    O(m^2).  Ties break as in a sequential scan over placement, then a', then
    +S before -S: the first maximum wins.
    """
    if elastic.d != 0.0:
        raise ValueError("pair correlations require an unbiased band (d = 0)")
    if resolution_deg <= 0.0:
        raise ValueError("resolution must be positive")
    eps = elastic.epsilon
    m = max(8, int(round(360.0 / resolution_deg)))
    step = 2.0 * math.pi / m
    grid = np.arange(m) * step
    curve = _corr_curve(grid, eps)

    # shifted[k, i] = E(angle_i - angle_k), a strided view of the doubled curve
    shifted = sliding_window_view(np.concatenate((curve[1:], curve)), m)[::-1]
    rows = max(1, _CHUNK_CELLS // m)
    best = None  # (value, sign, placement, alpha, beta, gamma)
    for placement, (s1, s2, s3, s4) in enumerate(_PLACEMENTS):
        # the signs are +-1, so x + s * y is exactly x + y or x - y
        beta_curve, beta_op = s1 * curve, np.add if s3 > 0 else np.subtract
        gamma_curve, gamma_op = s2 * curve, np.add if s4 > 0 else np.subtract
        for start in range(0, m, rows):
            rolled = shifted[start:start + rows]
            beta_group = beta_op(beta_curve, rolled)
            gamma_group = gamma_op(gamma_curve, rolled)
            hi = beta_group.max(axis=1) + gamma_group.max(axis=1)
            lo = beta_group.min(axis=1) + gamma_group.min(axis=1)
            # (hi, -lo) per row in scan order; argmax returns the first maximum
            scores = np.column_stack((hi, -lo)).ravel()
            j = int(scores.argmax())
            if best is None or scores[j] > best[0]:
                r, flip = divmod(j, 2)
                if flip:
                    b_at, g_at = beta_group[r].argmin(), gamma_group[r].argmin()
                else:
                    b_at, g_at = beta_group[r].argmax(), gamma_group[r].argmax()
                best = (
                    scores[j], -1.0 if flip else 1.0, placement,
                    grid[start + r], grid[int(b_at)], grid[int(g_at)],
                )

    value, sign, placement, alpha, beta, gamma = best
    s1, s2, s3, s4 = _PLACEMENTS[placement]
    if refine and eps > 0.0:

        def objective(x):
            al, be, ga = x
            e = lambda ang: float(_corr_curve(np.array([ang]), eps)[0])
            s = s1 * e(be) + s2 * e(ga) + s3 * e(be - al) + s4 * e(ga - al)
            return -sign * s

        res = minimize(
            objective,
            x0=[alpha, beta, gamma],
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-13, "maxiter": 20000, "maxfev": 20000},
        )
        if -res.fun > value:
            value = -res.fun
            alpha, beta, gamma = (float(x) for x in res.x)

    setting = _canonical_setting(placement, alpha, beta, gamma)
    return ChshOptimum(value, sign * value, setting)


@dataclass(frozen=True)
class SweepPoint:
    epsilon: float
    max_abs_s: float
    setting: ChshSetting


def chsh_sweep(
    eps_values, resolution_deg: float = 1.0, refine: bool = True
) -> list[SweepPoint]:
    """Settings-optimized |S| for each epsilon in ``eps_values``."""
    eps_values = list(eps_values)
    if not eps_values:
        raise ValueError("epsilon grid must not be empty")
    points = []
    for eps in eps_values:
        opt = max_chsh(ElasticSpec(float(eps), 0.0), resolution_deg, refine)
        points.append(SweepPoint(float(eps), opt.max_abs_s, opt.setting))
    return points


def severed_correlation_mc(
    elastic: ElasticSpec, n: int, seed, workers: int = 1
) -> float:
    """Pair correlation with the rod removed.

    Each trial draws independent, uniformly distributed surface states for
    the two wings and measures them independently.  The outcome distribution
    is then the same for every axis pair (the axis coordinate of a uniform
    state is uniform on [-1, 1]), so no axes are taken; the correlation is
    the product of the single-wing biases, 0 for an unbiased band.
    """

    def run_block(rs: RandomStream, m: int) -> int:
        t_left = rs.uniform(-1.0, 1.0, m)
        t_right = rs.uniform(-1.0, 1.0, m)
        lam_l = _snap_points(rs, elastic, m)
        lam_r = _snap_points(rs, elastic, m)
        a_up = _resolve(lam_l, t_left, rs)
        b_up = _resolve(lam_r, t_right, rs)
        return int(np.count_nonzero(a_up == b_up))

    same = sum(_map_blocks(run_block, n, seed, workers))
    return (2 * same - n) / n


def severed_chsh_scan(
    elastic: ElasticSpec, angles_count: int = 8, n: int = 100_000, seed: int = 0
) -> float:
    """Largest |S| over an angle grid with the rod severed.

    One independent correlation estimate per (left angle, right angle) pair;
    S is then assembled for every grid setting combination.  Without the rod
    this stays within the classical bound 2 up to sampling noise.
    """
    root = RandomStream(seed)
    k = angles_count
    est = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            est[i, j] = severed_correlation_mc(elastic, n, root.substream(i * k + j))
    # S[iA, iA', iB, iB'] over all grid combinations
    s = (
        est[:, None, :, None]
        + est[:, None, None, :]
        + est[None, :, :, None]
        - est[None, :, None, :]
    )
    return float(np.abs(s).max())
