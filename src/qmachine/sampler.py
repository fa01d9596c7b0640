"""Monte Carlo engine for the elastic-break measurement process.

Randomness contract
-------------------
All sampling goes through :class:`RandomStream`, a thin wrapper around
numpy's counter-based Philox generator keyed by ``(seed, spawn_key)`` via
``SeedSequence``.  ``substream(i)`` appends ``i`` to the spawn key, which
yields statistically independent child streams that are reproducible across
platforms, numpy releases with the same bit generator, and worker counts.

Bulk runs partition trials into fixed-size blocks; block ``j`` draws from
``substream(j)`` only.  One dispatcher, :func:`_map_blocks`, runs the blocks
of every Monte Carlo kernel here and in :mod:`qmachine.epr`.  Results are
therefore bit-identical no matter how many workers execute the blocks, and
aggregation is a plain sum of counts, which commutes.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .geometry import Direction, ElasticSpec, Outcome, SphereState, axis_coordinate

BLOCK_SIZE = 1 << 16


class RandomStream:
    """Deterministic pseudo-random source, splittable into substreams.

    Identified by a non-negative integer seed plus a tuple spawn key; the
    same (seed, key) always reproduces the same draw sequence.  A stream is
    not safe to share between concurrent tasks, but distinct substreams are.
    """

    __slots__ = ("seed", "spawn_key", "_gen")

    def __init__(self, seed: int, spawn_key: tuple[int, ...] = ()):
        seed = int(seed)
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self.seed = seed
        self.spawn_key = tuple(int(k) for k in spawn_key)
        seq = np.random.SeedSequence(seed, spawn_key=self.spawn_key)
        self._gen = np.random.Generator(np.random.Philox(seq))

    def substream(self, index: int) -> "RandomStream":
        """Independent child stream number ``index``."""
        return RandomStream(self.seed, self.spawn_key + (int(index),))

    def random(self, size=None):
        """Uniform doubles on [0, 1)."""
        return self._gen.random(size)

    def uniform(self, low: float, high: float, size=None):
        """Uniform doubles on [low, high)."""
        return self._gen.uniform(low, high, size)

    def coin(self) -> bool:
        """Single fair coin flip."""
        return bool(self._gen.random() < 0.5)


@dataclass(frozen=True)
class TrialRecord:
    """One measurement trial: where the band snapped and what happened."""

    index: int
    break_point: float
    outcome: Outcome
    post_state: SphereState


class TrialRecords(Sequence[TrialRecord]):
    """Read-only sequence of the :class:`TrialRecord` of every trial in a run.

    The run is held as two read-only arrays copied from the constructor's
    inputs, ``break_points`` (float64) and ``o1`` (bool, True for O1); a
    record's index is its position.  Records are built on access (by index,
    by slice as a list, or by iteration) and share the post states
    ``SphereState(axis)`` and ``SphereState(-axis)``.  Vectorized consumers
    should read the arrays.
    """

    __slots__ = ("break_points", "o1", "axis", "_up", "_down")
    __hash__ = None

    def __init__(self, break_points, o1, axis: Direction):
        break_points = np.array(break_points, dtype=np.float64)
        o1 = np.array(o1, dtype=bool)
        if break_points.ndim != 1 or break_points.shape != o1.shape:
            raise ValueError("break_points and o1 must be 1-D arrays of equal length")
        break_points.flags.writeable = False
        o1.flags.writeable = False
        self.break_points = break_points
        self.o1 = o1
        self.axis = axis
        self._up = SphereState(axis)
        self._down = SphereState(-axis)

    def _record(self, index: int, break_point: float, up: bool) -> TrialRecord:
        if up:
            return TrialRecord(index, break_point, Outcome.O1, self._up)
        return TrialRecord(index, break_point, Outcome.O2, self._down)

    def __len__(self) -> int:
        return len(self.o1)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(map(
                self._record,
                range(len(self))[index],
                self.break_points[index].tolist(),
                self.o1[index].tolist(),
            ))
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"trial index {index} out of range for {len(self)} trials")
        return self._record(i, float(self.break_points[i]), bool(self.o1[i]))

    def __iter__(self):
        return map(
            self._record, range(len(self)), self.break_points.tolist(), self.o1.tolist()
        )

    def __eq__(self, other):
        if not isinstance(other, TrialRecords):
            return NotImplemented
        return (
            self.axis == other.axis
            and np.array_equal(self.break_points, other.break_points)
            and np.array_equal(self.o1, other.o1)
        )

    def __repr__(self) -> str:
        n_o1 = int(np.count_nonzero(self.o1))
        return f"TrialRecords(n={len(self)}, n_o1={n_o1}, axis={self.axis})"


@dataclass(frozen=True)
class FrequencyTable:
    """Aggregated outcome counts of a trial batch."""

    n_o1: int
    n_o2: int

    def __post_init__(self):
        if self.n_o1 < 0 or self.n_o2 < 0:
            raise ValueError("counts must be non-negative")
        if self.total < 1:
            raise ValueError("table must hold at least one trial")

    @property
    def total(self) -> int:
        return self.n_o1 + self.n_o2

    @property
    def counts(self) -> dict[Outcome, int]:
        return {Outcome.O1: self.n_o1, Outcome.O2: self.n_o2}

    def frequency(self, outcome: Outcome) -> float:
        return (self.n_o1 if outcome is Outcome.O1 else self.n_o2) / self.total

    def __add__(self, other: "FrequencyTable") -> "FrequencyTable":
        return FrequencyTable(self.n_o1 + other.n_o1, self.n_o2 + other.n_o2)


def sample_break_point(elastic: ElasticSpec, rng: RandomStream) -> float:
    """Draw the snap point, uniform on the breakable segment.

    For epsilon = 0 the segment is the single point d and no randomness is
    consumed.
    """
    if elastic.epsilon == 0.0:
        return elastic.d
    return float(rng.uniform(elastic.break_lower, elastic.break_upper))


def outcome_at_axis(t: float, break_point: float, rng: RandomStream) -> Outcome:
    """Deterministic outcome rule: the particle at coordinate ``t`` goes up
    exactly when the band snaps strictly below it.

    The zero-probability coincidence ``break_point == t`` resolves by a fair
    coin so that runs remain reproducible.
    """
    if break_point < t:
        return Outcome.O1
    if break_point > t:
        return Outcome.O2
    return Outcome.O1 if rng.coin() else Outcome.O2


def hidden_outcome(
    v: Direction, u: Direction, break_point: float, rng: RandomStream
) -> tuple[Outcome, SphereState]:
    """Outcome and post-measurement state once the snap point is fixed.

    Given the break point the process is fully deterministic (up to the
    measure-zero tie): a snap below the particle drags it to u, a snap above
    drags it to -u.
    """
    if not -1.0 <= break_point <= 1.0:
        raise ValueError(f"break point must be in [-1, 1], got {break_point!r}")
    t = axis_coordinate(v, u)
    outcome = outcome_at_axis(t, break_point, rng)
    post = SphereState(u) if outcome is Outcome.O1 else SphereState(-u)
    return outcome, post


def measure(
    v: Direction, u: Direction, elastic: ElasticSpec, rng: RandomStream
) -> tuple[Outcome, SphereState, float]:
    """One full measurement: draw a snap point, resolve the outcome.

    A fresh elastic is used every call; nothing carries over between
    measurements.  Returns ``(outcome, post_state, break_point)``.
    """
    break_point = sample_break_point(elastic, rng)
    outcome, post = hidden_outcome(v, u, break_point, rng)
    return outcome, post, break_point


def _block_lengths(n: int, block_size: int) -> list[int]:
    full, rem = divmod(n, block_size)
    return [block_size] * full + ([rem] if rem else [])


def _map_blocks(block_fn, n: int, seed, workers: int = 1) -> list:
    """``block_fn(root.substream(j), m)`` for each block ``j`` of ``m``
    trials, in block order, run on ``workers`` threads.

    The ``n`` trials fill blocks of ``BLOCK_SIZE``, the last one takes the
    rest; ``seed`` is an int or the root :class:`RandomStream`.
    """
    if n < 1:
        raise ValueError(f"need at least one trial, got {n}")
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    root = seed if isinstance(seed, RandomStream) else RandomStream(seed)

    def run_block(block):
        j, m = block
        return block_fn(root.substream(j), m)

    blocks = list(enumerate(_block_lengths(n, BLOCK_SIZE)))
    if workers == 1:
        return list(map(run_block, blocks))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_block, blocks))


def _snap_points(rs: RandomStream, elastic: ElasticSpec, m: int) -> np.ndarray:
    """``m`` snap points, uniform on [d - eps, d + eps]; at eps = 0 the
    point d itself, and nothing is drawn."""
    if elastic.epsilon == 0.0:
        return np.full(m, elastic.d)
    return rs.uniform(elastic.break_lower, elastic.break_upper, m)


def _resolve(lam: np.ndarray, t, rs: RandomStream) -> np.ndarray:
    """Vectorized outcome rule with fair-coin ties; True means O1.

    ``t`` is a scalar or an array of axis coordinates.  One coin is drawn
    from ``rs`` per exact tie, in index order, and only when ties occur.
    """
    up = lam < t
    ties = np.flatnonzero(lam == t)
    if ties.size:
        up[ties] = rs.random(ties.size) < 0.5
    return up


def _sample_block(rs: RandomStream, m: int, t: float, elastic: ElasticSpec):
    """Vectorized draws for one block: snap points, outcome flags, tie coins.

    Draw order within the block stream is fixed (snap points, then coins for
    however many exact ties occurred), so the result depends only on the
    block stream and ``m``.
    """
    lam = _snap_points(rs, elastic, m)
    return lam, _resolve(lam, t, rs)


def run_trials(
    v: Direction,
    u: Direction,
    elastic: ElasticSpec,
    n: int,
    seed,
    workers: int = 1,
) -> FrequencyTable:
    """Aggregate ``n`` measurements of state v along axis u.

    ``seed`` may be an integer or a :class:`RandomStream`.  The outcome
    counts are identical for any ``workers`` value.
    """
    t = axis_coordinate(v, u)

    def count_block(rs: RandomStream, m: int) -> int:
        return int(np.count_nonzero(_sample_block(rs, m, t, elastic)[1]))

    n1 = sum(_map_blocks(count_block, n, seed, workers))
    return FrequencyTable(n1, n - n1)


def run_recorded(
    v: Direction,
    u: Direction,
    elastic: ElasticSpec,
    n: int,
    seed,
) -> TrialRecords:
    """Like :func:`run_trials` but keeping every trial.

    Uses the same block/substream scheme, so counts agree with
    :func:`run_trials` for the same seed.  The trials are kept as arrays in
    a :class:`TrialRecords`, 9 bytes per trial; prefer :func:`run_trials`
    when only the counts are needed.
    """
    t = axis_coordinate(v, u)
    blocks = _map_blocks(lambda rs, m: _sample_block(rs, m, t, elastic), n, seed)
    lam, is_o1 = (np.concatenate(arrays) for arrays in zip(*blocks))
    return TrialRecords(lam, is_o1, u)
