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
# Unused: bench/run.py::import_layer reads its import time unguarded.
import scipy.optimize  # noqa: F401

from .analytic import _clamp_law
from .geometry import Direction, ElasticSpec, Outcome, SphereState, axis_coordinate
from .sampler import (
    RandomStream,
    _checked,
    _cut,
    _draws,
    _map_blocks,
    _map_indexed,
    _resolve,
    _resolve_cut,
    _scaled,
    _whole,
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

    @property
    def pairs(self) -> tuple[tuple[Direction, Direction], ...]:
        """The (left, right) axes of the terms E(a,b), E(a,b'), E(a',b), E(a',b')."""
        return (
            (self.a, self.b),
            (self.a, self.b_prime),
            (self.a_prime, self.b),
            (self.a_prime, self.b_prime),
        )


def measure_pair(
    pair: EntangledPair,
    a: Direction,
    b: Direction,
    elastic: ElasticSpec,
    rng: RandomStream,
) -> tuple[Outcome, Outcome]:
    """Measure the left wing along ``a`` and the right wing along ``b``.

    The left wing measures the still-central pair first, with the band
    ``ElasticSpec(elastic.epsilon, 0.0)``; ``elastic`` applies to the right
    wing.  The rod couples the wings symmetrically, so measuring the right
    wing first is this call with ``b, a`` passed and the outcomes read in
    reverse.  Returns ``(left outcome, right outcome)``.
    """
    if pair.collapsed:
        raise ValueError("pair has already been measured")
    snap = sample_break_point(ElasticSpec(elastic.epsilon, 0.0), rng)
    a_out = outcome_at_axis(0.0, snap, rng)
    pair.localize_left(a if a_out is Outcome.O1 else -a)
    b_out, post, _ = measure(pair.right.position, b, elastic, rng)
    pair.right = post
    return a_out, b_out


def joint_counts(
    a: Direction,
    b: Direction,
    elastic: ElasticSpec,
    n: int,
    seed,
    workers: int = 1,
) -> dict[tuple[Outcome, Outcome], int]:
    """Joint outcome counts of ``n`` pair measurements, keyed (left, right).

    The wings measure as in :func:`measure_pair`, the left one first;
    right-first counts are this call with ``b, a`` passed and each key read
    in reverse.  Block-substream scheme as in :mod:`qmachine.sampler`:
    results are bit-identical for any worker count.
    """
    left_el = ElasticSpec(elastic.epsilon, 0.0)
    t_ab = axis_coordinate(a, b)
    left_cut = _cut(left_el, 0.0)
    # the partner sits at the antipode of the left wing's landing point:
    # axis coordinate -t_ab after an up outcome, t_ab after a down one
    right_cut, flipped_cut = _cut(elastic, t_ab), _cut(elastic, -t_ab)

    def run_block(rs: RandomStream, m: int, _start: int):
        a_up = _resolve_cut(_draws(rs, left_el, m), left_cut, rs)
        b_up = _resolve_cut(
            _draws(rs, elastic, m), right_cut, rs, flip=a_up, flip_cut=flipped_cut
        )
        pp = int(np.count_nonzero(a_up & b_up))
        return pp, int(np.count_nonzero(a_up)) - pp, int(np.count_nonzero(b_up)) - pp

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
) -> float:
    """Monte Carlo estimate of the pair correlation <A*B>."""
    c = joint_counts(a, b, elastic, n, seed, workers)
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


@dataclass(frozen=True)
class ChshEstimate:
    """Monte Carlo CHSH value with its standard error."""

    value: float
    stderr: float
    correlations: tuple[float, float, float, float]


def chsh_analytic(setting: ChshSetting, elastic: ElasticSpec) -> float:
    """S = E(a,b) + E(a,b') + E(a',b) - E(a',b') from the closed form."""
    e1, e2, e3, e4 = (correlation_analytic(x, y, elastic) for x, y in setting.pairs)
    return e1 + e2 + e3 - e4


def chsh_sigma(setting: ChshSetting, elastic: ElasticSpec, n: int) -> float:
    """Standard deviation of a Monte Carlo S with ``n`` pairs per term, from
    the closed-form terms; unlike the sample stderr it is not 0 when every
    pair of a term happens to agree."""
    terms = (correlation_analytic(x, y, elastic) for x, y in setting.pairs)
    return math.sqrt(sum((1.0 - e * e) / n for e in terms))


def chsh_estimate(
    setting: ChshSetting, elastic: ElasticSpec, n: int, seed, workers: int = 1
) -> ChshEstimate:
    """Monte Carlo S with ``n`` pair trials per correlation term."""
    n = _whole(n, "n")
    if n < 1:
        raise ValueError(f"need at least one trial per term, got {n}")
    root = seed if isinstance(seed, RandomStream) else RandomStream(seed)
    est = tuple(
        correlation_mc(x, y, elastic, n, root.substream(k), workers)
        for k, (x, y) in enumerate(setting.pairs)
    )
    value = est[0] + est[1] + est[2] - est[3]
    stderr = math.sqrt(sum((1.0 - e * e) / n for e in est))
    return ChshEstimate(value, stderr, est)


def max_chsh(elastic: ElasticSpec, resolution_deg=None) -> float:
    """The largest |S| over coplanar settings, min(4, 2*sqrt(2)/eps), scored
    at the Tsirelson setting, which attains it at every eps: Cirel'son's bound
    at eps = 1 (Lett. Math. Phys. 4, 93 (1980)); for eps <= 1/sqrt(2) every
    term saturates.  ``resolution_deg`` is unused: ``bench/worker.py`` still
    passes it, and it goes once that calls ``max_chsh(elastic)``.
    """
    return abs(chsh_analytic(ChshSetting.from_plane_degrees(*TSIRELSON_ANGLES_DEG), elastic))


def severed_correlation_mc(
    elastic: ElasticSpec, n: int, seed, workers: int = 1
) -> float:
    """Pair correlation with the rod removed.

    Each trial draws independent, uniformly distributed surface states for
    the two wings and measures them independently.  The outcome distribution
    is then the same for every axis pair (the axis coordinate of a uniform
    state is uniform on [-1, 1]), so no axes are taken; the correlation is
    the product of the single-wing biases, 0 for an unbiased band.

    A block of ``m`` trials reads its stream in a fixed order: the left
    states, the right states, then (eps > 0) the left and right snap points,
    then one coin per exact tie, left wing first.  It holds two buffers of
    ``m`` doubles: the snap points come from a second generator started at
    draw ``2m``, and the right wing is drawn into the left wing's buffers
    once the left comparison is done.
    """
    lo, hi = elastic.break_lower, elastic.break_upper

    def run_block(rs: RandomStream, m: int, _start: int) -> int:
        states = rs._generator()
        t = _scaled(states.random(m), -1.0, 1.0)
        if elastic.epsilon == 0.0:
            lam, coins = elastic.d, states  # nothing to draw for the snap points
        else:
            coins = rs.generator_at(2 * m)
            lam = _scaled(coins.random(m), lo, hi)
        a_up, a_ties = lam < t, np.flatnonzero(lam == t)
        _scaled(states.random(out=t), -1.0, 1.0)
        if elastic.epsilon != 0.0:
            _scaled(coins.random(out=lam), lo, hi)
        if len(a_ties):
            a_up[a_ties] = coins.random(len(a_ties)) < 0.5
        b_up = _resolve(lam, t, coins)
        return int(np.count_nonzero(a_up == b_up))

    same = sum(_map_blocks(run_block, n, seed, workers))
    return (2 * same - n) / n


def severed_chsh_scan(
    elastic: ElasticSpec,
    angles_count: int = 8,
    n: int = 100_000,
    seed: int = 0,
    workers: int = 1,
) -> float:
    """Largest |S| over an angle grid with the rod severed.

    One independent correlation estimate per (left angle, right angle) pair,
    estimate ``i * k + j`` from substream ``i * k + j``; S is then assembled
    for every grid setting combination.  Without the rod this stays within
    the classical bound 2 up to sampling noise.  The estimates run on
    ``workers`` threads, each estimate on one, with the same result for any
    ``workers``.
    """
    k = _whole(angles_count, "angles_count")
    if k < 1:
        raise ValueError(f"angles_count must be positive, got {k}")
    n, workers = _checked(n, workers)
    root = RandomStream(seed)
    est = np.array(_map_indexed(
        lambda i: severed_correlation_mc(elastic, n, root.substream(i)), k * k, workers
    )).reshape(k, k)
    # S[iA, iA', iB, iB'] over all grid combinations
    s = (
        est[:, None, :, None]
        + est[:, None, None, :]
        + est[None, :, :, None]
        - est[None, :, None, :]
    )
    return float(np.abs(s).max())
