"""Monte Carlo engine for the elastic-break measurement process.

Randomness contract
-------------------
All sampling goes through :class:`RandomStream`, a ``(seed, spawn_key)``
handle on numpy's counter-based Philox bit generator, keyed via
``SeedSequence``.  ``substream(i)`` appends ``i`` to the spawn key, which
yields statistically independent child streams that are reproducible across
platforms, numpy releases with the same bit generator, and worker counts.
A stream builds its Philox at its first draw, so a root that only hands
out substreams never builds one.  Every draw is a 64-bit Philox word: a
stream hands out words, and the package itself turns them into doubles,
snap points and coins.

Bulk runs partition trials into fixed-size blocks; block ``j`` draws the
words of ``substream(j)`` only.  Three block kernels turn a block's words
into outcomes: :func:`_spin_block` (one wing), :func:`_pair_block`
(rod-coupled pairs) and :func:`_severed_block` (the rod cut).  Each reads
one word source, a callable ``words(k)`` that returns the next ``k`` words,
in order.  Philox is counter-based, so block ``j``'s words are a pure
function of ``(seed, spawn_key + (j,))``: the one dispatcher,
:func:`_map_blocks`, reads them straight from that key's Philox, with no
substream handle.  It runs the blocks on threads, the calling thread one of
them, and sums their results as they finish.  A sum of counts commutes, so
results are bit-identical for any number of workers, and a call holds no
per-block state at any ``n``.

Within a block the draw order is fixed: one word per snap point, then one
coin per exact tie, in trial order, and only when ties occur.  A word ``x``
is the double ``u = k * 2**-53`` with ``k = x >> 11``.  A snap point is
``lo + w * u``, with ``lo = d - eps`` and ``w = (d + eps) - lo``, formed in
two separately rounded steps, in Python floats or in two numpy ufuncs
(:func:`_doubles`), neither of which contracts them into one fused
multiply-add.  Each rounding step is monotone, so the snap point never
decreases in ``k``; where the particle's axis coordinate ``t`` is one
number for the whole call, :func:`_cut` finds once the two draws at which
the snap point reaches ``t`` and passes it.  A cut ``c = K * 2**-53`` is
``u < c`` exactly when ``x < K << 11``, so a block reads its outcomes from
its words directly (:func:`_resolve_cut`) and never builds a double; a tie
coin is ``x < 2**63``, which is ``u < 0.5``.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .geometry import Direction, ElasticSpec, Outcome, SphereState, axis_coordinate

BLOCK_SIZE = 1 << 16


def _philox(seed: int, spawn_key: tuple[int, ...]) -> np.random.Philox:
    """The Philox bit generator of the stream keyed ``(seed, spawn_key)``,
    at its first draw; the caller has checked both."""
    return np.random.Philox(np.random.SeedSequence(seed, spawn_key=spawn_key))


class RandomStream:
    """Deterministic pseudo-random source, splittable into substreams.

    Identified by a non-negative integer seed plus a tuple of non-negative
    spawn-key entries, both checked here; the same (seed, key) always
    reproduces the same word sequence.  The Philox bit generator is built at
    the first draw, so a stream that only hands out substreams costs a
    handle.  Every draw is read from its 64-bit words.  Concurrent tasks
    must not draw from one stream, but they may draw from distinct
    substreams and call ``substream`` on a shared parent.
    """

    __slots__ = ("seed", "spawn_key", "_bits")

    def __init__(self, seed: int, spawn_key: tuple[int, ...] = ()):
        seed = _whole(seed, "seed")
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        spawn_key = tuple(_whole(k, "spawn key entry") for k in spawn_key)
        if any(k < 0 for k in spawn_key):
            raise ValueError(f"spawn key entries must be non-negative, got {spawn_key}")
        self.seed = seed
        self.spawn_key = spawn_key
        self._bits = None

    def words(self, size=None):
        """The next ``size`` raw 64-bit Philox words (uint64), or the next
        one as an int."""
        if self._bits is None:
            self._bits = _philox(self.seed, self.spawn_key)
        return self._bits.random_raw(size)

    def substream(self, index: int) -> "RandomStream":
        """Independent child stream number ``index``."""
        return RandomStream(self.seed, self.spawn_key + (_whole(index, "index"),))

    def uniform(self, low: float, high: float, size=None):
        """Uniform doubles on [low, high), one per word: a float, or an
        array of ``size``."""
        if size is None:
            return low + (high - low) * ((self.words() >> 11) * _STEP)
        return _doubles(self.words(size), low, high)

    def coin(self) -> bool:
        """Single fair coin flip, one word."""
        return self.words() < 2**63


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
    by slice as a list, or by iteration, which with ``in`` and ``count``
    converts the arrays ``_CHUNK`` trials at a time) and share the post
    states ``SphereState(axis)`` and ``SphereState(-axis)``.  Vectorized
    consumers should read the arrays.
    """

    __slots__ = ("break_points", "o1", "axis", "_up", "_down")
    __hash__ = None
    _CHUNK = 1 << 12

    def __init__(self, break_points, o1, axis: Direction):
        self._hold(np.array(break_points, dtype=np.float64), np.array(o1, dtype=bool), axis)

    @classmethod
    def _adopt(cls, break_points: np.ndarray, o1: np.ndarray, axis: Direction):
        """Records over a float64 and a bool array that the caller alone
        holds: they are made read-only and kept, not copied."""
        records = cls.__new__(cls)
        records._hold(break_points, o1, axis)
        return records

    def _hold(self, break_points: np.ndarray, o1: np.ndarray, axis: Direction) -> None:
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

    def _records(self, part: slice):
        """The records of the trials ``part``, built one by one as they are read."""
        return map(
            self._record,
            range(len(self))[part],
            self.break_points[part].tolist(),
            self.o1[part].tolist(),
        )

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self._records(index))
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"trial index {index} out of range for {len(self)} trials")
        return self._record(i, float(self.break_points[i]), bool(self.o1[i]))

    def __iter__(self):
        for start in range(0, len(self), self._CHUNK):
            yield from self._records(slice(start, start + self._CHUNK))

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

    def frequency(self, outcome: Outcome) -> float:
        return (self.n_o1 if outcome is Outcome.O1 else self.n_o2) / self.total


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


def _whole(value, name: str) -> int:
    """``value`` as an int: numpy integers pass, a bool or a float does not."""
    if type(value) is int:
        return value
    if isinstance(value, (bool, np.bool_)) or not hasattr(value, "__index__"):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def _checked(n, workers) -> tuple[int, int]:
    """``n`` and ``workers`` as ints, at least 1 trial and 1 worker."""
    n, workers = _whole(n, "n"), _whole(workers, "workers")
    if n < 1:
        raise ValueError(f"need at least one trial, got {n}")
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    return n, workers


def _threads(work, count: int, workers: int) -> list:
    """``work(claimed)`` on each of ``min(workers, count)`` threads, the
    calling thread first, inline when that is 1, as the list of their
    results: ``claimed`` yields the next unclaimed index of ``range(count)``
    until none is left.  Once a task raises, Ctrl-C too, no thread claims
    another index, and the first exception propagates."""
    threads = min(workers, count)
    if threads <= 1:
        return [work(range(count))]
    claims = itertools.count()  # its ``next`` is atomic under the GIL

    def run():
        nonlocal count
        try:
            return work(itertools.takewhile(lambda i: i < count, claims))
        except BaseException:
            count = 0  # a task failed: no thread claims another index
            raise

    with ThreadPoolExecutor(max_workers=threads - 1) as pool:
        helpers = [pool.submit(run) for _ in range(threads - 1)]
        return [run()] + [task.result() for task in helpers]


def _map_indexed(fn, count: int, workers: int) -> list:
    """``[fn(i) for i in range(count)]`` on the threads of :func:`_threads`,
    each result stored at its task's index."""
    results = [None] * count

    def store(claimed):
        for i in claimed:
            results[i] = fn(i)

    _threads(store, count, workers)
    return results


def _map_blocks(block_fn, n: int, seed, workers: int = 1):
    """The sum of ``block_fn(words, m, start)`` over the blocks of ``n``
    trials, checked by the caller: block ``j`` has ``m = min(BLOCK_SIZE,
    n - start)`` trials from ``start = j * BLOCK_SIZE`` on, and ``words`` is
    the ``random_raw`` of its Philox, the words of ``root.substream(j)``;
    ``seed`` is an int or the root :class:`RandomStream`.  Each thread of
    :func:`_threads` adds up the blocks it claims, so a call holds no state
    per block.
    """
    root = seed if isinstance(seed, RandomStream) else RandomStream(seed)
    seed, key = root.seed, root.spawn_key

    def fold(claimed):
        total = 0
        for j in claimed:
            start = j * BLOCK_SIZE
            words = _philox(seed, key + (j,)).random_raw
            total += block_fn(words, min(BLOCK_SIZE, n - start), start)
        return total

    return sum(_threads(fold, -(-n // BLOCK_SIZE), workers))


def _doubles(x: np.ndarray, low: float, high: float, out=None) -> np.ndarray:
    """``low + (high - low) * u`` for the doubles ``u = (x >> 11) * 2**-53``
    of the words ``x``, which are shifted in place: ``u`` is formed into
    ``out``, or else into the words' own memory, exact through an int64
    view, then scaled in place in two separately rounded steps."""
    x >>= np.uint64(11)
    if out is None:
        out = x.view(np.float64)
    # a cast, then an in-place scale: a ufunc whose ``out`` is its own
    # input's memory under another dtype goes through a temporary copy
    np.copyto(out, x.view(np.int64), casting="unsafe")
    out *= _STEP
    out *= high - low
    out += low
    return out


def _settle(up: np.ndarray, tie: np.ndarray, words) -> np.ndarray:
    """``up`` with its ``k`` ties set, in index order, to fair coins from the
    word source ``words``, drawn only for ``k > 0``: ``words(k) < 2**63``,
    the doubles below 0.5, as :meth:`RandomStream.coin` draws one, True for
    O1.  When every trial ties, the coins are the outcomes."""
    k = np.count_nonzero(tie)
    if k == len(up):
        return words(k) < _HALF
    if k:
        up[tie] = words(k) < _HALF
    return up


# a word x is the double k * 2**-53, k = x >> 11, an integer in [0, 2**53)
_DRAWS = 1 << 53
_STEP = 2.0**-53


def _first_index(lo: float, w: float, target: float, k: int) -> int:
    """Smallest k in [0, 2**53) whose snap point ``lo + w * (k * 2**-53)`` is
    ``>= target``, 2**53 if none; the guess ``k`` must lie in [0, 2**53).

    The snap point never decreases in k, so gallop from the guess until the
    answer is bracketed, then bisect: a guess off by ``e`` costs O(log e)
    steps.
    """
    step = 1
    if lo + w * (k * _STEP) >= target:
        below, above = k - 1, k
        while below >= 0 and lo + w * (below * _STEP) >= target:
            above, step = below, 2 * step
            below = above - step
        if below < 0:
            below = -1
    else:
        below, above = k, k + 1
        while above < _DRAWS and lo + w * (above * _STEP) < target:
            below, step = above, 2 * step
            above = below + step
        if above > _DRAWS:
            above = _DRAWS
    # the snap point at ``above`` reaches target, or above = 2**53; the one
    # at ``below`` falls short, or below = -1
    while above - below > 1:
        mid = (below + above) // 2
        if lo + w * (mid * _STEP) >= target:
            above = mid
        else:
            below = mid
    return above


def _cut(elastic: ElasticSpec, t: float) -> tuple[float, float]:
    """Where the snap points of ``elastic`` cross the axis coordinate ``t``,
    in the stream's draws: ``(below, upto)``.

    A double ``u`` of a word places the snap point ``lo + w * u`` strictly
    below ``t`` exactly when ``u < below``, and on ``t`` exactly when
    ``below <= u < upto``.  Both are ``k * 2**-53`` for the first ``k``
    whose snap point is ``>= t`` and ``> t``, found in O(log) steps from the
    estimate ``(t - lo) / w * 2**53``; rounding is monotone, so the snap
    point never decreases in ``k``.  Where no draw reaches ``t`` the cut is
    1.0, above every draw.  At eps = 0 the band's width is 0 and the cut
    says which side of ``t`` the point d lies.
    """
    lo = elastic.break_lower
    w = elastic.break_upper - lo
    if w == 0.0:
        # every snap point is lo (eps = 0, or eps under half a spacing of d)
        return float(lo < t), float(lo <= t)
    guess = (t - lo) / w * _DRAWS
    guess = int(guess) if 0.0 <= guess < _DRAWS else (0 if guess < 0.0 else _DRAWS - 1)
    below = _first_index(lo, w, t, guess)
    # a double is > t exactly when it is >= the next double above t
    upto = _first_index(lo, w, math.nextafter(t, math.inf), min(below, _DRAWS - 1))
    return below * _STEP, upto * _STEP


# Stand-in words of a rigid band, shared read-only by every block
_NO_DRAWS = np.zeros(BLOCK_SIZE, dtype=np.uint64)
_NO_DRAWS.flags.writeable = False
# a word below 2**63 is a double below 0.5: a tie coin that comes up O1
_HALF = np.uint64(1 << 63)


def _below(x: np.ndarray, c: float) -> np.ndarray:
    """Which words ``x`` are doubles below the cut ``c = K * 2**-53``:
    ``x < K << 11``.  The cuts 0.0 and 1.0 hold no word or every one, so
    they read none.  The bound is passed as an in-range ``np.uint64``, so the
    compare never depends on how numpy promotes Python ints."""
    if c in (0.0, 1.0):
        return np.full(len(x), c == 1.0)
    return x < np.uint64(int(c * _DRAWS) << 11)


def _resolve_cut(x: np.ndarray, cut, words, flip=None, flip_cut=None) -> np.ndarray:
    """The outcome rule on the snap points of the words ``x``, read from the
    words through ``cut = _cut(elastic, t)``; True means O1.

    Where the bool mask ``flip`` is set, ``flip_cut``, the cut of ``-t``,
    applies instead.  One tie coin per exact tie, in trial order, comes from
    the word source ``words`` (``words(k)`` returns the next ``k`` words)
    through :func:`_settle`; the tie mask is built only when a cut has room
    for ties, and a block whose every trial ties takes its coins as its
    outcomes.
    """
    def below(i: int) -> np.ndarray:
        # the words below bound i of the cut, or of flip_cut where flip is set
        mask = _below(x, cut[i])
        if flip is not None:
            mask ^= (mask ^ _below(x, flip_cut[i])) & flip
        return mask

    up = below(0)
    if cut[1] > cut[0] or (flip is not None and flip_cut[1] > flip_cut[0]):
        # a draw below its cut is below its tie bound too
        return _settle(up, below(1) ^ up, words)
    return up


def _spin_block(words, m: int, elastic: ElasticSpec, cut, flip=None, flip_cut=None):
    """One block of ``m`` trials of one wing, drawn from the word source
    ``words``: ``(up, x)``, ``up`` read from the words ``x`` through ``cut``
    by :func:`_resolve_cut`.  At eps = 0 the snap point is d whatever the
    draw, so none is made and zeros stand in."""
    x = _NO_DRAWS[:m] if elastic.epsilon == 0.0 else words(m)
    return _resolve_cut(x, cut, words, flip, flip_cut), x


def _pair_block(words, m: int, elastic: ElasticSpec, cuts):
    """One block of ``m`` rod-coupled pairs from the word source ``words``,
    left wing first: ``(a_up, b_up)``.  ``cuts`` are the left wing's cut at
    0 and the partner's cuts at ``t_ab`` and at ``-t_ab``, where it lands
    after an up outcome; the left band ``(eps, 0)`` differs from
    ``elastic`` only in d, which no draw reads."""
    left_cut, right_cut, flipped_cut = cuts
    a_up = _spin_block(words, m, elastic, left_cut)[0]
    return a_up, _spin_block(words, m, elastic, right_cut, a_up, flipped_cut)[0]


def _severed_block(words, m: int, elastic: ElasticSpec):
    """One block of ``m`` severed-rod pairs, each wing at its own uniform
    surface state: ``(a_up, b_up)``.  The block reads the word source
    ``words`` in a fixed order: the left states, the right states, then
    (eps > 0) the left and right snap points, all in one draw, then one
    coin per exact tie, left wing first.  The states and the snap points
    are formed in the draw's own memory."""
    lo, hi = elastic.break_lower, elastic.break_upper
    rigid = elastic.epsilon == 0.0  # the snap point is d: nothing to draw
    x = words(2 * m if rigid else 4 * m)
    t = _doubles(x[:2 * m], -1.0, 1.0).reshape(2, m)
    lam = (elastic.d,) * 2 if rigid else _doubles(x[2 * m:], lo, hi).reshape(2, m)
    return tuple(_settle(snap < state, snap == state, words) for snap, state in zip(lam, t))


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
    n, workers = _checked(n, workers)
    cut = _cut(elastic, axis_coordinate(v, u))
    root = seed if isinstance(seed, RandomStream) else RandomStream(seed)

    def count(words, m: int, _start: int) -> int:
        return int(np.count_nonzero(_spin_block(words, m, elastic, cut)[0]))

    if cut[0] == cut[1] and cut[0] in (0.0, 1.0):
        # a cut at 0 or 1 with no room for ties: every draw lands on one
        # side, so none is made
        n1 = n if cut[0] else 0
    else:
        n1 = _map_blocks(count, n, root, workers)
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
    n = _checked(n, 1)[0]
    cut = _cut(elastic, axis_coordinate(v, u))
    break_points, o1 = np.empty(n), np.empty(n, dtype=bool)

    def record_block(words, m: int, start: int) -> int:
        o1[start:start + m], x = _spin_block(words, m, elastic, cut)
        lam = break_points[start:start + m]
        if elastic.epsilon == 0.0:
            lam.fill(elastic.d)
        else:
            _doubles(x, elastic.break_lower, elastic.break_upper, out=lam)
        return 0  # the block's trials are kept, not counted

    _map_blocks(record_block, n, seed)
    return TrialRecords._adopt(break_points, o1, u)
