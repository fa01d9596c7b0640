import math
import sys
import threading
import time
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import qmachine.epr
import qmachine.sampler
from qmachine.analytic import epsilon_probabilities, probabilities_from_axis
from qmachine.epr import ChshSetting, chsh_estimate, joint_counts, plane_direction, severed_chsh_scan
from qmachine.geometry import Direction, ElasticSpec, Outcome, SphereState, axis_coordinate
from qmachine.sampler import (
    BLOCK_SIZE,
    FrequencyTable,
    RandomStream,
    TrialRecord,
    TrialRecords,
    _coins,
    _cut,
    _doubles,
    _map_blocks,
    _map_indexed,
    _resolve_cut,
    _severed_block,
    _spin_block,
    hidden_outcome,
    measure,
    outcome_at_axis,
    run_recorded,
    run_trials,
    sample_break_point,
)

Z = Direction(0.0, 0.0, 1.0)


def direction_at(t):
    return Direction(math.sqrt(max(0.0, 1.0 - t * t)), 0.0, t)


def block_plan(n):
    """``(j, m, start)`` of each block of ``n`` trials: ``BLOCK_SIZE`` trials
    from ``start = j * BLOCK_SIZE`` on, the last block the rest."""
    starts = range(0, n, BLOCK_SIZE)
    return [(j, min(BLOCK_SIZE, n - start), start) for j, start in enumerate(starts)]


def eager_generator(seed, key=()):
    """numpy's ``Generator`` on the Philox of the stream keyed (seed, key),
    built at once: its words are the stream's, and its C ``random`` and
    ``uniform`` are the doubles and snap points the package must form."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def resolve(lam, t, gen):
    """The outcome rule on the snap points ``lam``, True for O1, with one
    fair coin ``gen.random() < 0.5`` per exact tie in index order."""
    up, tie = lam < t, lam == t
    up[tie] = gen.random(np.count_nonzero(tie)) < 0.5
    return up


def at_same_word(rs, gen):
    """Whether the stream and its reference stand at the same word."""
    return rs.words() == gen.bit_generator.random_raw()


def stream_at(seed, key):
    """``RandomStream(seed)`` followed down ``key`` by ``substream`` calls."""
    rs = RandomStream(seed)
    for index in key:
        rs = rs.substream(index)
    return rs


SPECIAL_EPSILONS = (1.0, 0.5, 1e-9, 1e-300)


@st.composite
def bands(draw):
    """A valid band: one of the special widths or any, at any offset d."""
    eps = draw(st.one_of(st.sampled_from(SPECIAL_EPSILONS), st.floats(0.0, 1.0)))
    d = draw(st.one_of(st.just(0.0), st.floats(-1.0 + eps, 1.0 - eps)))
    return ElasticSpec(eps, d)


def draw_both(rs, gen, kind, size, band=ElasticSpec(0.5, 0.2)):
    """The same draw from a stream and from its eager reference; a uniform
    one on ``band``."""
    if kind == "words":
        return rs.words(size), gen.bit_generator.random_raw(size)
    if kind == "uniform":
        lo, hi = band.break_lower, band.break_upper
        return rs.uniform(lo, hi, size), gen.uniform(lo, hi, size)
    return rs.coin(), bool(gen.random() < 0.5)


class TestRandomStream:
    def test_reproducible(self):
        a = RandomStream(123).words(100)
        b = RandomStream(123).words(100)
        assert np.array_equal(a, b)

    def test_substreams_reproducible_and_distinct(self):
        a = RandomStream(123).substream(4).words(100)
        b = RandomStream(123).substream(4).words(100)
        c = RandomStream(123).substream(5).words(100)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_nested_substreams(self):
        a = RandomStream(9).substream(1).substream(2).words(10)
        b = RandomStream(9, spawn_key=(1, 2)).words(10)
        assert np.array_equal(a, b)

    def test_large_seed(self):
        RandomStream(2**64 - 1).words()

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            RandomStream(-1)

    def test_rejects_negative_spawn_key_entry_before_any_draw(self):
        with pytest.raises(ValueError):
            RandomStream(5, spawn_key=(-1,))
        with pytest.raises(ValueError):
            RandomStream(5, spawn_key=(3, -2))
        with pytest.raises(ValueError):
            RandomStream(5).substream(-1)
        with pytest.raises(ValueError):
            RandomStream(5).substream(2).substream(-1)

    # a float or bool is not truncated into some other stream's seed or key
    @pytest.mark.parametrize(
        "make, name",
        [
            pytest.param(lambda: RandomStream(5.7), "seed", id="float-seed"),
            pytest.param(lambda: RandomStream(True), "seed", id="bool-seed"),
            pytest.param(
                lambda: RandomStream(5, spawn_key=(1.9,)), "spawn key entry", id="float-key"
            ),
            pytest.param(lambda: RandomStream(5).substream(2.5), "index", id="float-index"),
        ],
    )
    def test_rejects_non_integer_seed_key_and_index(self, make, name):
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            make()

    def test_accepts_numpy_integers(self):
        rs = RandomStream(np.int64(9), spawn_key=(np.uint8(1),)).substream(np.int64(2))
        assert (rs.seed, rs.spawn_key) == (9, (1, 2))
        assert type(rs.seed) is int and all(type(k) is int for k in rs.spawn_key)
        assert np.array_equal(rs.words(10), RandomStream(9, (1, 2)).words(10))

    @pytest.mark.parametrize("key", [(), (0,), (3,), (1, 2), (7, 0, 65), (2**40,)])
    def test_draws_match_eager_reference(self, key):
        rs, gen = stream_at(2024, key), eager_generator(2024, key)
        for kind, size in (("words", 5), ("uniform", 9), ("coin", None), ("uniform", None),
                           ("words", None)):
            mine, reference = draw_both(rs, gen, kind, size)
            assert np.array_equal(mine, reference)

    def test_root_draws_after_handing_out_substreams(self):
        root = RandomStream(77)
        children = [root.substream(j) for j in range(3)]
        grandchild = children[1].substream(4)
        reference = eager_generator(77)
        assert np.array_equal(root.words(8), reference.bit_generator.random_raw(8))
        # a child handed out after the root drew is still keyed by its path
        late = root.substream(5)
        assert np.array_equal(root.uniform(0.0, 2.0, 3), reference.uniform(0.0, 2.0, 3))
        for stream, key in ((grandchild, (1, 4)), (late, (5,)), (children[0], (0,))):
            assert np.array_equal(stream.uniform(0.0, 1.0, 8), eager_generator(77, key).random(8))
        assert root.coin() == bool(reference.random() < 0.5)

    # Interleaved words, coins and band draws, each uniform in its scalar or
    # its array form, against numpy's C path on the same Philox, bit for bit
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        key=st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=3),
        handed_out=st.integers(min_value=0, max_value=3),
        draws=st.lists(
            st.tuples(
                st.sampled_from(("words", "uniform", "coin")),
                st.one_of(st.none(), st.integers(0, 40)),
                bands(),
            ),
            min_size=1, max_size=6,
        ),
    )
    @example(seed=5, key=[2, 7], handed_out=1, draws=[
        ("uniform", None, ElasticSpec(1e-300, 0.3)), ("coin", None, ElasticSpec(1.0, 0.0)),
        ("uniform", 3, ElasticSpec(1e-300, -1.0)), ("uniform", None, ElasticSpec(0.0, 0.5)),
        ("uniform", 5, ElasticSpec(0.0, -0.2)), ("words", 3, ElasticSpec(1.0, 0.0)),
        ("uniform", None, ElasticSpec(1.0, 0.0)),
    ])
    def test_draw_sequence_matches_eager_reference(self, seed, key, handed_out, draws):
        rs, gen = stream_at(seed, key), eager_generator(seed, tuple(key))
        for index in range(handed_out):
            rs.substream(index)
        for kind, size, band in draws:
            mine, reference = draw_both(rs, gen, kind, size, band)
            assert type(mine) is type(reference)
            assert np.asarray(mine).tobytes() == np.asarray(reference).tobytes()

    # the words at any ``offset``, read once ``offset`` words are drawn,
    # are the tail of one long draw, whatever ``offset`` is modulo the four
    # words of a Philox counter step: so the severed block's one draw of 4m
    # words reads what its four draws of m did
    @pytest.mark.parametrize("offset", [0, 1, 2, 3, 4, 5, 6, 10, 2 * 1000 + 3])
    def test_words_at_is_the_tail_of_one_long_draw(self, offset):
        rs = RandomStream(31, spawn_key=(4, 2))
        whole = eager_generator(31, (4, 2)).bit_generator.random_raw(offset + 1000)
        assert np.array_equal(rs.words(offset), whole[:offset])
        assert np.array_equal(rs.words(1000), whole[offset:])

    def test_words_are_the_doubles_of_random(self):
        x = RandomStream(21, spawn_key=(3,)).words(20_000)
        u = eager_generator(21, (3,)).random(20_000)
        assert x.dtype == np.uint64
        doubles = (x >> np.uint64(11)) * 2.0**-53
        assert np.array_equal(doubles.view(np.uint64), u.view(np.uint64))

    def test_word_coins_are_the_double_coins(self):
        coins = RandomStream(22).words(20_000) < np.uint64(1 << 63)
        assert np.array_equal(coins, eager_generator(22).random(20_000) < 0.5)
        assert np.array_equal(_coins(RandomStream(22).words, 20_000), coins)
        assert 9_000 < coins.sum() < 11_000

    def test_words_and_uniform_read_one_sequence(self):
        rs = RandomStream(23, spawn_key=(1, 5))
        whole = eager_generator(23, (1, 5)).random(24)

        def doubles(x):
            return (x >> np.uint64(11)) * 2.0**-53

        assert np.array_equal(doubles(rs.words(7)), whole[:7])
        assert np.array_equal(rs.uniform(0.0, 1.0, 6), whole[7:13])
        assert np.array_equal(doubles(rs.words(5)), whole[13:18])
        assert np.array_equal(rs.uniform(0.0, 1.0, 3), whole[18:21])
        rs.words(1)
        assert rs.uniform(0.0, 1.0) == whole[22]
        assert rs.coin() == (whole[23] < 0.5)

    def test_uniformity(self):
        # 20-bin chi-square on 1e6 doubles; df = 19, 43.8 is the 99.9% point
        draws = RandomStream(55).uniform(0.0, 1.0, 1_000_000)
        counts, _ = np.histogram(draws, bins=20, range=(0.0, 1.0))
        expected = len(draws) / 20
        stat = ((counts - expected) ** 2 / expected).sum()
        assert stat < 43.8


class TestGeneratorBuilds:
    """A stream builds its Philox bit generator at its first draw, so a root
    that only hands out block substreams builds none."""

    @pytest.fixture
    def builds(self, monkeypatch):
        count = [0]
        philox = np.random.Philox

        def counting_philox(*args, **kwargs):
            count[0] += 1
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting_philox)
        return count

    def test_handles_build_nothing(self, builds):
        root = RandomStream(3)
        root.substream(1).substream(2)
        assert builds[0] == 0
        root.words(2)
        root.uniform(0.0, 1.0)
        root.coin()
        assert builds[0] == 1

    @pytest.mark.parametrize("n, expected", [(1000, 1), (2 * BLOCK_SIZE + 7, 3)])
    def test_run_trials_builds_one_per_block(self, builds, n, expected):
        run_trials(direction_at(0.5), Z, ElasticSpec(1.0, 0.0), n, 5)
        assert builds[0] == expected

    @pytest.mark.parametrize("workers", [1, 2])
    def test_joint_counts_builds_one_per_block(self, builds, workers):
        a, b = plane_direction(0.0), plane_direction(1.0)
        joint_counts(a, b, ElasticSpec(1.0, 0.0), 2 * BLOCK_SIZE + 7, RandomStream(9), workers)
        assert builds[0] == 3

    def test_severed_scan_builds_one_per_block(self, builds):
        # 2 x 2 correlation estimates of 2 blocks each
        severed_chsh_scan(ElasticSpec(1.0, 0.0), angles_count=2, n=BLOCK_SIZE + 1)
        assert builds[0] == 8

    def test_certain_outcomes_build_none(self, builds):
        # the band [-0.3, 0.7] lies wholly below 0.8 and above -0.5
        band = ElasticSpec(0.5, 0.2)
        assert run_trials(direction_at(0.8), Z, band, 2 * BLOCK_SIZE, 5).n_o1 == 2 * BLOCK_SIZE
        assert run_trials(direction_at(-0.5), Z, band, 2 * BLOCK_SIZE, 5).n_o1 == 0
        # no uniform snap point reaches the pole
        assert run_trials(Z, Z, ElasticSpec(1.0, 0.0), 1000, 5).n_o1 == 1000
        assert run_trials(direction_at(0.1), Z, ElasticSpec(0.0, 0.0), 1000, 5).n_o1 == 1000
        assert builds[0] == 0
        # a rigid band on its own coordinate draws one coin per trial
        assert 0 < run_trials(direction_at(0.0), Z, ElasticSpec(0.0, 0.0), 1000, 5).n_o1 < 1000
        assert builds[0] == 1

    def test_one_block_call_builds_block_zero_alone(self, monkeypatch):
        keys = []
        philox = qmachine.sampler._philox

        def recording_philox(seed, spawn_key):
            keys.append((seed, spawn_key))
            return philox(seed, spawn_key)

        monkeypatch.setattr(qmachine.sampler, "_philox", recording_philox)
        # no uniform snap point reaches the pole
        assert run_trials(Z, Z, ElasticSpec(1.0, 0.0), 1000, 5).n_o1 == 1000
        assert keys == []
        run_trials(direction_at(0.5), Z, ElasticSpec(1.0, 0.0), 1000, RandomStream(5, (2,)))
        assert keys == [(5, (2, 0))]


class TestSampleBreakPoint:
    def test_rigid_band_is_deterministic(self):
        rng = RandomStream(1)
        band = ElasticSpec(0.0, 0.3)
        assert all(sample_break_point(band, rng) == 0.3 for _ in range(10))

    def test_support_bounds(self):
        rng = RandomStream(2)
        band = ElasticSpec(0.25, 0.5)
        draws = rng.uniform(band.break_lower, band.break_upper, 100_000)
        assert draws.min() >= 0.25 and draws.max() <= 0.75

    def test_uniform_band_moments(self):
        rng = RandomStream(3)
        band = ElasticSpec(1.0, 0.0)
        draws = np.array([sample_break_point(band, rng) for _ in range(200_000)])
        assert abs(draws.mean()) <= 0.005
        assert draws.min() < -0.9999 and draws.max() > 0.9999


class TestHiddenOutcome:
    def test_break_below_pulls_up(self):
        v = direction_at(0.5)
        outcome, post = hidden_outcome(v, Z, 0.2, RandomStream(4))
        assert outcome is Outcome.O1
        assert post == SphereState(Z)

    def test_break_above_pulls_down(self):
        v = direction_at(0.5)
        outcome, post = hidden_outcome(v, Z, 0.8, RandomStream(4))
        assert outcome is Outcome.O2
        assert post == SphereState(-Z)

    def test_particle_at_top(self):
        for lam in (-1.0, -0.5, 0.0, 0.999):
            outcome, _ = hidden_outcome(Z, Z, lam, RandomStream(4))
            assert outcome is Outcome.O1

    def test_tie_uses_fair_coin(self):
        v = Direction(1.0, 0.0, 0.0)  # axis coordinate exactly 0
        outcomes = {
            hidden_outcome(v, Z, 0.0, RandomStream(6).substream(k))[0] for k in range(64)
        }
        assert outcomes == {Outcome.O1, Outcome.O2}

    def test_post_state_matches_outcome(self):
        rng = RandomStream(7)
        v = direction_at(0.1)
        for _ in range(100):
            outcome, post, _ = measure(v, Z, ElasticSpec(1.0, 0.0), rng)
            expected = SphereState(Z) if outcome is Outcome.O1 else SphereState(-Z)
            assert post == expected

    def test_rejects_out_of_band_break_point(self):
        with pytest.raises(ValueError):
            hidden_outcome(Z, Z, 1.5, RandomStream(8))


class TestFrequencyTable:
    def test_counts_sum(self):
        table = FrequencyTable(3, 7)
        assert table.total == 10
        assert table.frequency(Outcome.O1) == 0.3

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            FrequencyTable(-1, 2)
        with pytest.raises(ValueError):
            FrequencyTable(0, 0)


class TestRunTrials:
    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            run_trials(Z, Z, ElasticSpec(1.0, 0.0), 0, 1)

    def test_worker_count_does_not_change_counts(self):
        v = direction_at(0.3)
        band = ElasticSpec(0.7, 0.1)
        serial = run_trials(v, Z, band, 300_000, 99, workers=1)
        threaded = run_trials(v, Z, band, 300_000, 99, workers=8)
        assert serial == threaded

    def test_quantum_band_60_degrees(self):
        v = Direction.from_spherical(math.pi / 3)
        table = run_trials(v, Z, ElasticSpec(1.0, 0.0), 1_000_000, 17)
        assert abs(table.frequency(Outcome.O1) - 0.75) <= 0.002

    def test_quantum_band_orthogonal(self):
        v = direction_at(0.0)
        table = run_trials(v, Z, ElasticSpec(1.0, 0.0), 1_000_000, 18)
        assert abs(table.frequency(Outcome.O1) - 0.5) <= 0.002

    def test_middle_branch_hand_value(self):
        v = direction_at(0.45)
        table = run_trials(v, Z, ElasticSpec(0.5, 0.2), 1_000_000, 19)
        assert abs(table.frequency(Outcome.O1) - 0.75) <= 0.002

    def test_deterministic_regime_above(self):
        v = direction_at(0.8)
        table = run_trials(v, Z, ElasticSpec(0.5, 0.2), 10_000, 20)
        assert table.frequency(Outcome.O1) == 1.0

    def test_rigid_band_below_snap_point(self):
        v = direction_at(-0.1)
        table = run_trials(v, Z, ElasticSpec(0.0, 0.0), 10_000, 21)
        assert table.frequency(Outcome.O2) == 1.0

    # (band, t): a drawn band; its lower end, where only draw 0 ties; every
    # trial a tie coin, with no draw and with one per trial; a biased band
    @pytest.mark.parametrize("band, t", [
        (ElasticSpec(1.0, 0.0), 0.5),
        (ElasticSpec(1.0, 0.0), -1.0),
        (ElasticSpec(0.0, 0.2), 0.2),
        (ElasticSpec(1e-300, 0.2), 0.2),
        (ElasticSpec(0.5, 0.2), 0.6),
    ])
    @pytest.mark.parametrize("n", [1, 7, 1000, BLOCK_SIZE, BLOCK_SIZE + 1])
    def test_one_block_call_reads_block_zero(self, band, t, n):
        """Every block reads its words straight from a Philox; they must be
        the words of ``root.substream(j)``, a call of one block's included."""
        v = direction_at(t)
        cut = _cut(band, axis_coordinate(v, Z))
        seeds = [
            (11, RandomStream(11)),
            (RandomStream(11), RandomStream(11)),
            (RandomStream(11).substream(3), RandomStream(11, (3,))),
        ]
        for seed, root in seeds:
            n_o1 = run_trials(v, Z, band, n, seed).n_o1
            assert n_o1 == int(run_recorded(v, Z, band, n, seed).o1.sum())
            assert n_o1 == sum(
                int(np.count_nonzero(_spin_block(root.substream(j).words, m, band, cut)[0]))
                for j, m, _ in block_plan(n)
            )

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_one_block_call_checks_its_seed(self, seed):
        band = ElasticSpec(1.0, 0.0)
        raised = []
        for n in (10, BLOCK_SIZE + 1):
            with pytest.raises((TypeError, ValueError)) as error:
                run_trials(direction_at(0.3), Z, band, n, seed)
            raised.append((error.type, str(error.value)))
        assert raised[0] == raised[1]

    def test_one_block_call_takes_numpy_seeds(self):
        v, band = direction_at(0.3), ElasticSpec(1.0, 0.0)
        assert run_trials(v, Z, band, 10, np.int64(5)) == run_trials(v, Z, band, 10, 5)

    def test_oracle_agreement_grid(self):
        # |MC - analytic| <= 4 sqrt(p1 p2 / n) across (theta, eps, d)
        n = 100_000
        root = RandomStream(22)
        index = 0
        for t in (-0.9, -0.4, 0.0, 0.35, 0.8):
            v = direction_at(t)
            for band in (
                ElasticSpec(1.0, 0.0),
                ElasticSpec(0.6, 0.2),
                ElasticSpec(0.3, -0.4),
                ElasticSpec(0.0, 0.0),
            ):
                p1 = epsilon_probabilities(v, Z, band).p1
                freq = run_trials(v, Z, band, n, root.substream(index)).frequency(Outcome.O1)
                index += 1
                bound = 4.0 * math.sqrt(p1 * (1.0 - p1) / n)
                assert abs(freq - p1) <= bound, (t, band)


def traced_peak(fn):
    """``fn()`` and the most bytes it held at once, as tracemalloc traces them."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def block_order_records(v, u, elastic, n, seed):
    """One TrialRecord per trial, each block drawing all its snap points and
    then one coin per tie, in index order: the block's own draw order, from
    :func:`snap_points` and :func:`resolve` on numpy's doubles."""
    t = axis_coordinate(v, u)
    records = []
    for j, m, start in block_plan(n):
        gen = eager_generator(seed, (j,))
        lam = snap_points(gen, elastic, m)
        for k, up in enumerate(resolve(lam, t, gen)):
            outcome, post = (Outcome.O1, SphereState(u)) if up else (Outcome.O2, SphereState(-u))
            records.append(TrialRecord(start + k, float(lam[k]), outcome, post))
    return records


def reference_records(v, u, elastic, n, seed):
    """One TrialRecord per trial from the paper's one-trial path: ``measure``
    looped over each block's stream.

    ``measure`` draws a tie's coin right after its snap point, while a block
    draws its tie coins after all its snap points.  So the two paths agree
    when no trial in a block ties, or at eps = 0, where every trial ties
    and no snap point is drawn.
    """
    root = RandomStream(seed)
    records = []
    for j, m, start in block_plan(n):
        rs = root.substream(j)
        for k in range(m):
            outcome, post, break_point = measure(v, u, elastic, rs)
            records.append(TrialRecord(start + k, break_point, outcome, post))
    return records


# (v, band, n, seed) and, from the per-trial implementation, the O1 count,
# the sum of the O1 indices and the exact sum of the break points
RECORDED_CASES = {
    "eps1": (
        direction_at(0.5), ElasticSpec(1.0, 0.0), 200_000, 41,
        150200, 15009013726, 127.22830180852876,
    ),
    "band-two-blocks": (
        direction_at(0.2), ElasticSpec(0.8, 0.1), 70_000, 32,
        39153, 1373682691, 7178.924629392554,
    ),
    "rigid-tie-coins": (
        direction_at(0.0), ElasticSpec(0.0, 0.0), 5_000, 42, 2530, 6314883, 0.0,
    ),
    "rigid-biased": (
        direction_at(0.5), ElasticSpec(0.0, 0.5), 1_000, 43, 1000, 499500, 500.0,
    ),
}


class TestTrialRecords:
    @pytest.mark.parametrize("case", RECORDED_CASES)
    def test_matches_per_trial_reference(self, case):
        v, band, n, seed, n1, index_sum, lam_sum = RECORDED_CASES[case]
        records = run_recorded(v, Z, band, n, seed)
        assert isinstance(records, TrialRecords)
        assert list(records) == reference_records(v, Z, band, n, seed)
        o1_indices = np.flatnonzero(records.o1)
        assert len(o1_indices) == n1
        assert int(o1_indices.sum()) == index_sum
        assert math.fsum(records.break_points.tolist()) == lam_sum

    def test_sequence_access(self):
        v, band = direction_at(0.2), ElasticSpec(0.8, 0.1)
        records = run_recorded(v, Z, band, 70_000, 32)
        reference = reference_records(v, Z, band, 70_000, 32)
        assert len(records) == 70_000
        for i in (0, 1, BLOCK_SIZE - 1, BLOCK_SIZE, 69_999, -1, -70_000):
            assert records[i] == reference[i]
        assert records[-1].index == 69_999
        assert records[np.int64(5)] == reference[5]
        for sl in (slice(65_530, 65_540), slice(None, 10, 3), slice(-5, None), slice(9, 0, -4)):
            assert records[sl] == reference[sl]
        with pytest.raises(IndexError):
            records[70_000]
        with pytest.raises(IndexError):
            records[-70_001]
        with pytest.raises(TypeError):
            records[1.0]

    def test_arrays_are_read_only(self):
        records = run_recorded(direction_at(0.2), Z, ElasticSpec(1.0, 0.0), 1_000, 38)
        assert records.break_points.dtype == np.float64
        assert records.o1.dtype == np.bool_
        with pytest.raises(ValueError):
            records.break_points[0] = 0.0
        with pytest.raises(ValueError):
            records.o1[0] = True

    def test_constructor_copies_its_input(self):
        lam = np.array([-0.5, 0.25])
        records = TrialRecords(lam, lam < 0.0, Z)
        lam[0] = 0.9
        assert records[0].break_point == -0.5
        with pytest.raises(ValueError):
            TrialRecords(lam, [True], Z)

    def test_equality(self):
        v, band = direction_at(0.2), ElasticSpec(0.8, 0.1)
        a = run_recorded(v, Z, band, 2_000, 39)
        assert a == run_recorded(v, Z, band, 2_000, 39)
        assert a != run_recorded(v, Z, band, 2_000, 40)
        assert a != run_recorded(v, -Z, band, 2_000, 39)
        assert a != list(a)
        base = TrialRecords([-0.1, 0.2], [True, False], Z)
        assert base == TrialRecords([-0.1, 0.2], [True, False], Z)
        assert base != TrialRecords([-0.1, 0.3], [True, False], Z)
        assert base != TrialRecords([-0.1, 0.2], [True, True], Z)
        with pytest.raises(TypeError):
            hash(a)

    def test_o1_count_matches_run_trials(self):
        v, band = direction_at(-0.4), ElasticSpec(0.6, -0.2)
        records = run_recorded(v, Z, band, 150_000, 44)
        assert int(records.o1.sum()) == run_trials(v, Z, band, 150_000, 44).n_o1

    @pytest.mark.parametrize("eps, d, t", [
        (1.0, 0.0, 0.5), (0.8, 0.1, 0.2), (1e-9, 0.3, 0.3), (0.5, -0.2, -0.1),
        (0.0, 0.2, 0.2),  # t = d: every trial ties and takes a coin
    ])
    def test_matches_the_scalar_path(self, eps, d, t):
        v, band = direction_at(t), ElasticSpec(eps, d)
        records = run_recorded(v, Z, band, 3_000, 46)
        assert list(records) == reference_records(v, Z, band, 3_000, 46)
        if eps == 0.0:
            assert 0 < records.o1.sum() < 3_000

    # Per trial, over (v, u, eps, d, seed, n).  The paths agree only where a
    # block has no tie, or only ties at eps = 0; other blocks are assumed
    # away, and the forced-tie tests cover them.  An eps > 0 band whose
    # width rounds to 0 at t ties every trial yet draws its snap points, so
    # it is checked against the block's draw order instead (the last
    # example).  ~1.3 s in all, half of it the two-block example.
    @settings(max_examples=50, deadline=None)
    @given(
        theta=st.floats(0.0, math.pi),
        phi=st.floats(0.0, 2.0 * math.pi),
        band=bands(),
        on_axis=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 3000),
    )
    @example(theta=1.1, phi=0.3, band=ElasticSpec(0.6, -0.2), on_axis=False, seed=48,
             n=BLOCK_SIZE + 7)
    @example(theta=1.0, phi=1.0, band=ElasticSpec(1e-300, 1.0), on_axis=False, seed=0, n=3)
    def test_matches_the_scalar_path_per_trial(self, theta, phi, band, on_axis, seed, n):
        v, u = Direction.from_spherical(theta, phi), Direction.from_spherical(phi, theta)
        t = axis_coordinate(v, u)
        if on_axis:  # a rigid band at the axis coordinate: every trial ties
            band = ElasticSpec(0.0, t)
        if band.epsilon > 0.0 and band.break_lower == band.break_upper == t:
            reference = block_order_records(v, u, band, n, seed)
        else:
            reference = reference_records(v, u, band, n, seed)
            for start in range(0, n, BLOCK_SIZE):
                ties = sum(r.break_point == t for r in reference[start:start + BLOCK_SIZE])
                assume(ties == 0 or (band.epsilon == 0.0 and ties == min(BLOCK_SIZE, n - start)))
        assert list(run_recorded(v, u, band, n, seed)) == reference

    def test_iteration_memory_is_bounded(self):
        # converting a whole 2e5-trial run at once peaks at ~7.6 MB
        band = ElasticSpec(1.0, 0.0)
        records = run_recorded(direction_at(0.5), Z, band, 200_000, 41)
        n1, peak = traced_peak(lambda: sum(1 for r in records if r.outcome is Outcome.O1))
        assert n1 == RECORDED_CASES["eps1"][4]
        assert peak <= 1 << 20
        two_blocks = run_recorded(direction_at(0.5), Z, band, 2 * BLOCK_SIZE, 47)
        first, peak = traced_peak(lambda: next(iter(two_blocks)))
        assert first == two_blocks[0]
        assert peak <= 1 << 20

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_iteration_matches_indexing(self, data):
        chunk = TrialRecords._CHUNK
        edges = (1, 2, chunk - 1, chunk, chunk + 1, 2 * chunk, 3 * chunk, 3 * chunk + 1)
        n = data.draw(st.one_of(st.sampled_from(edges), st.integers(1, 3 * chunk + 1)), "n")
        gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), "seed"))
        records = TrialRecords(gen.uniform(-1.0, 1.0, n), gen.random(n) < 0.5, Z)
        listed = list(records)
        assert listed == [records[i] for i in range(n)] == records[:]
        for _ in range(3):
            part = data.draw(st.slices(n), "slice")
            assert listed[part] == records[part]
        up, down = SphereState(Z), SphereState(-Z)
        shared = {}  # the one post state object of each outcome
        for r in listed:
            assert type(r.index) is int and type(r.break_point) is float
            assert r.post_state == (up if r.outcome is Outcome.O1 else down)
            assert r.post_state is shared.setdefault(r.outcome, r.post_state)
        absent = TrialRecord(0, 2.0, Outcome.O1, up)
        for probe in (listed[0], listed[n // 2], listed[-1], absent):
            assert (probe in records) == (probe in listed)
            assert records.count(probe) == listed.count(probe)


class TestRunRecorded:
    def test_bit_identical_reruns(self):
        v = direction_at(0.2)
        band = ElasticSpec(0.8, 0.1)
        a = run_recorded(v, Z, band, 5_000, 31)
        b = run_recorded(v, Z, band, 5_000, 31)
        assert a == b

    def test_matches_run_trials_counts(self):
        v = direction_at(0.2)
        band = ElasticSpec(0.8, 0.1)
        records = run_recorded(v, Z, band, 70_000, 32)
        table = run_trials(v, Z, band, 70_000, 32)
        assert sum(r.outcome is Outcome.O1 for r in records) == table.n_o1

    def test_indices_and_break_points_in_band(self):
        v = direction_at(0.2)
        band = ElasticSpec(0.4, -0.2)
        records = run_recorded(v, Z, band, 3_000, 33)
        assert [r.index for r in records] == list(range(3_000))
        assert all(band.break_lower <= r.break_point <= band.break_upper for r in records)

    def test_conditional_decomposition(self):
        # within any snap-point bin fully on one side of t, the outcome is
        # the deterministic threshold rule
        v = direction_at(0.3)
        t = axis_coordinate(v, Z)
        records = run_recorded(v, Z, ElasticSpec(1.0, 0.0), 50_000, 34)
        for r in records:
            if r.break_point < t:
                assert r.outcome is Outcome.O1
            elif r.break_point > t:
                assert r.outcome is Outcome.O2

    def test_repeatability_of_post_states(self):
        # a post-measurement state at +/-u is in a deterministic regime of
        # every valid band, so remeasuring reproduces the outcome surely
        rng = RandomStream(35)
        for band in (ElasticSpec(1.0, 0.0), ElasticSpec(0.5, 0.3), ElasticSpec(0.0, 0.0)):
            outcome, post, _ = measure(direction_at(0.6), Z, band, rng)
            for again in (ElasticSpec(1.0, 0.0), ElasticSpec(0.4, -0.1), ElasticSpec(0.0, 0.0)):
                table = run_trials(post.position, Z, again, 2_000, 36)
                assert table.frequency(outcome) == 1.0


# draw indices k whose snap point lo + w * (k * 2**-53) serves as t
SPECIAL_INDICES = (0, 1, 2**52, 2**53 - 1)


def t_choices():
    """How to pick the axis coordinate: a value, a snap value of a special
    draw index, or one of the block's own snap points or its negative (a
    real tie at t or at -t)."""
    return st.one_of(
        st.tuples(st.just("value"), st.sampled_from((0.0, -0.0, 1.0, -1.0))),
        st.tuples(st.just("value"), st.floats(-1.0, 1.0)),
        st.tuples(st.just("index"), st.sampled_from(SPECIAL_INDICES)),
        st.tuples(st.sampled_from(("own", "-own")), st.floats(0.0, 1.0, exclude_max=True)),
        st.tuples(st.just("beyond"), st.sampled_from((-1.0, 1.0))),
    )


def snap_points(gen, elastic, m):
    """``m`` snap points drawn by numpy's ``uniform`` from the generator
    ``gen``, as ``sample_break_point`` must draw one; at eps 0, d."""
    lo, hi = elastic.break_lower, elastic.break_upper
    return np.full(m, elastic.d) if elastic.epsilon == 0.0 else gen.uniform(lo, hi, m)


def coordinate_for(band, where, seed, m):
    kind, x = where
    lo, hi = band.break_lower, band.break_upper
    if kind == "value":
        return x
    if kind == "index":
        return lo + (hi - lo) * (x * 2.0**-53)
    if kind in ("own", "-own"):
        lam = snap_points(eager_generator(seed), band, m)
        own = float(lam[int(x * m)])
        return own if kind == "own" else -own
    # just outside the band on either side
    return math.nextafter(hi, math.inf) if x > 0 else math.nextafter(lo, -math.inf)


class TestTieRule:
    @settings(max_examples=200, deadline=None)
    @given(
        t=st.floats(min_value=-1.0, max_value=1.0),
        break_point=st.floats(min_value=-1.0, max_value=1.0),
        tie=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_scalar_rule_matches_vectorized_rule(self, t, break_point, tie, seed):
        if tie:
            break_point = t
        scalar_rs, gen = RandomStream(seed), eager_generator(seed)
        scalar_up = outcome_at_axis(t, break_point, scalar_rs) is Outcome.O1
        assert scalar_up == resolve(np.array([break_point]), t, gen)[0]
        # both consumed the same draws: one coin at a tie, none otherwise
        assert at_same_word(scalar_rs, gen)

    # --- the cut resolver: outcomes read from the draws, no snap points ---

    @settings(max_examples=300, deadline=None)
    @given(
        band=bands(),
        where=t_choices(),
        flip_p=st.sampled_from((None, 0.0, 0.5, 1.0)),
        m=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_cut_matches_snap_points(self, band, where, flip_p, m, seed):
        t = coordinate_for(band, where, seed, m)
        ref, cut_rs = eager_generator(seed), RandomStream(seed)
        lam = snap_points(ref, band, m)
        if flip_p is None:
            expected = resolve(lam, t, ref)
            got = _spin_block(cut_rs.words, m, band, _cut(band, t))[0]
        else:
            flip = np.random.default_rng(seed).random(m) < flip_p
            expected = resolve(lam, np.where(flip, -t, t), ref)
            got = _spin_block(cut_rs.words, m, band, _cut(band, t), flip, _cut(band, -t))[0]
        assert np.array_equal(got, expected)
        # the same number of tie coins: both stand at the same word
        assert at_same_word(cut_rs, ref)

    @settings(max_examples=300, deadline=None)
    @given(band=bands(), where=t_choices(), seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_cut_is_the_first_draw_to_reach_t(self, band, where, seed):
        t = coordinate_for(band, where, seed, 50)
        lo, w = band.break_lower, band.break_upper - band.break_lower
        below, upto = _cut(band, t)
        k_lt, k_le = below * 2.0**53, upto * 2.0**53
        assert k_lt == int(k_lt) and k_le == int(k_le)
        k_lt, k_le = int(k_lt), int(k_le)
        assert 0 <= k_lt <= k_le <= 2**53

        def snap(k):
            return lo + w * (k * 2.0**-53)

        assert k_lt == 0 or snap(k_lt - 1) < t
        assert k_lt == 2**53 or snap(k_lt) >= t
        assert k_le == 0 or snap(k_le - 1) <= t
        assert k_le == 2**53 or snap(k_le) > t

    # the cut against the paper's band law p1 = (t - d + eps) / (2 eps): a
    # draw below the cut goes up and a tie is a fair coin.  Snap points are
    # rounded to the doubles near |d| + eps, so p1 moves in steps of about
    # ulp(|d| + eps) / eps; a rigid band's p1 is exact
    @settings(max_examples=500, deadline=None)
    @given(band=bands(), data=st.data())
    def test_cut_obeys_the_band_law(self, band, data):
        t = data.draw(st.one_of(
            st.floats(-1.0, 1.0),
            st.sampled_from((0.0, -0.0, 1.0, -1.0, band.d, band.break_lower, band.break_upper)),
        ))
        t = min(1.0, max(-1.0, t))
        below, upto = _cut(band, t)
        p1 = probabilities_from_axis(t, band).p1
        eps = band.epsilon
        bound = 0.0 if eps == 0.0 else 2.0**-52 + 2.0 * math.ulp(abs(band.d) + eps) / eps
        assert abs(below + (upto - below) / 2 - p1) <= bound

    def test_zero_width_band_with_draws(self):
        # d - eps and d + eps round to d: every snap point is d, one draw
        # per trial is still taken, and t = d sends every trial to a coin
        band = ElasticSpec(1e-300, 0.3)
        assert band.break_upper - band.break_lower == 0.0
        assert _cut(band, 0.3) == (0.0, 1.0)
        assert _cut(band, 0.5) == (1.0, 1.0) and _cut(band, -0.5) == (0.0, 0.0)
        ref, cut_rs = eager_generator(3), RandomStream(3)
        expected = resolve(snap_points(ref, band, 100), 0.3, ref)
        got = _spin_block(cut_rs.words, 100, band, _cut(band, 0.3))[0]
        assert np.array_equal(got, expected) and 0 < got.sum() < 100
        assert at_same_word(cut_rs, ref)

    def test_rigid_band_draws_nothing(self):
        band = ElasticSpec(0.0, 0.2)
        rs = RandomStream(4)
        assert not _spin_block(rs.words, 10, band, _cut(band, 0.1))[0].any()
        assert _spin_block(rs.words, 10, band, _cut(band, 0.3))[0].all()
        assert at_same_word(rs, eager_generator(4))


class TestEdgeCuts:
    """Cuts of 0.0 and 1.0 through :func:`_resolve_cut`: a cut of 1.0 is
    the word bound 2**64, which no uint64 holds, so it must admit every word
    up to the last one without an out-of-range compare."""

    EXTREMES = np.array([0, 1, (1 << 11) - 1, 1 << 11, 1 << 63, 2**64 - 1], dtype=np.uint64)

    def test_extreme_words(self):
        rs = RandomStream(40)
        assert _resolve_cut(self.EXTREMES, (1.0, 1.0), rs.words).all()
        assert not _resolve_cut(self.EXTREMES, (0.0, 0.0), rs.words).any()
        step = 2.0**-53
        got = _resolve_cut(self.EXTREMES, (step, step), rs.words)
        assert got.tolist() == [True, True, True, False, False, False]
        got = _resolve_cut(self.EXTREMES, (1.0 - step, 1.0 - step), rs.words)
        assert got.tolist() == [True] * 5 + [False]
        flip = np.array([True, False] * 3)
        got = _resolve_cut(self.EXTREMES, (1.0, 1.0), rs.words, flip=flip, flip_cut=(0.0, 0.0))
        assert np.array_equal(got, ~flip)
        # no cut had room for ties, so no coin was drawn
        assert at_same_word(rs, eager_generator(40))

    @pytest.mark.parametrize("eps, d, t, expected", [
        (1.0, 0.0, 1.0, True),  # every snap point lies below t = 1
        (1.0, 0.0, -1.0, False),  # and none below t = -1
        (0.0, 0.2, 0.5, True),  # a rigid band below t
        (0.0, 0.2, -0.5, False),  # and above it
        (0.0, 0.2, 0.2, None),  # and on it: every trial is a coin
    ])
    @pytest.mark.parametrize("flipped", [False, True])
    def test_edge_cuts_match_snap_points(self, eps, d, t, expected, flipped):
        band, m = ElasticSpec(eps, d), 5_000
        ref, cut_rs = eager_generator(41), RandomStream(41)
        lam = snap_points(ref, band, m)
        flip = np.random.default_rng(41).random(m) < 0.5 if flipped else None
        if flip is None:
            expected_up = resolve(lam, t, ref)
            got = _spin_block(cut_rs.words, m, band, _cut(band, t))[0]
        else:
            expected_up = resolve(lam, np.where(flip, -t, t), ref)
            got = _spin_block(cut_rs.words, m, band, _cut(band, t), flip, _cut(band, -t))[0]
        assert np.array_equal(got, expected_up)
        assert at_same_word(cut_rs, ref)
        if expected is None:
            assert 0 < got.sum() < m
        elif flip is None:
            assert got.all() if expected else not got.any()
        else:
            # -t lies on the other side of the band
            assert np.array_equal(got, ~flip if expected else flip)


class TestDrawArithmetic:
    """The cut is exact only if the snap points are lo + w * u with the
    stream's doubles u = k * 2**-53, in two separately rounded steps.  The
    package forms them itself, in Python floats or in two numpy ufuncs;
    numpy's C ``random`` and ``uniform`` are the independent reference."""

    GUARD_BANDS = (
        (-1.0, 1.0), (-0.3, 0.7), (0.25, 0.75), (-0.7, 0.3),
        (0.2 - 1e-9, 0.2 + 1e-9), (0.3 - 1e-300, 0.3 + 1e-300),
    )

    @pytest.mark.parametrize("low, high", GUARD_BANDS)
    def test_uniform_is_two_rounded_steps(self, low, high):
        drawn = RandomStream(11).uniform(low, high, 20_000)
        u = eager_generator(11).random(20_000)
        product = np.multiply(u, high - low)
        assert np.array_equal(drawn, np.add(product, low))
        assert np.array_equal(drawn, eager_generator(11).uniform(low, high, 20_000))
        # and the scalar steps the cut evaluates give the same doubles
        assert all(low + (high - low) * x == y for x, y in zip(u[:500].tolist(), drawn[:500]))
        rs = RandomStream(11)
        assert [rs.uniform(low, high) for _ in range(500)] == drawn[:500].tolist()

    def test_doubles_are_whole_multiples_of_two_to_minus_53(self):
        u = RandomStream(12).uniform(0.0, 1.0, 20_000) * 2.0**53
        assert np.array_equal(u, np.floor(u)) and u.max() < 2.0**53

    @pytest.mark.parametrize("low, high", GUARD_BANDS)
    def test_doubles_in_place_are_the_doubles_into_out(self, low, high):
        words = RandomStream(14).words(20_000)
        u = (words >> np.uint64(11)).view(np.int64) * 2.0**-53
        expected = np.add(np.multiply(u, high - low), low)
        into = _doubles(words.copy(), low, high, out=np.empty(20_000))
        in_place = _doubles(words, low, high)
        assert np.shares_memory(in_place, words)
        assert np.array_equal(in_place.view(np.uint64), into.view(np.uint64))
        assert np.array_equal(in_place.view(np.uint64), expected.view(np.uint64))

    def test_severed_block_holds_its_words_and_little_more(self):
        # its 4m words take 2 MB; forming the doubles through a ufunc whose
        # ``out`` is the words' own memory peaks at ~3.06 MB
        words = RandomStream(15).substream(0).words
        _, peak = traced_peak(lambda: _severed_block(words, BLOCK_SIZE, ElasticSpec(1.0, 0.0)))
        assert peak <= 2.5 * 2**20

    @pytest.mark.parametrize("eps, d", [(1.0, 0.0), (0.5, 0.2), (1e-9, 0.3), (1e-300, 0.3)])
    def test_snap_points_are_the_uniform_draw(self, eps, d):
        band = ElasticSpec(eps, d)
        lam = run_recorded(Z, Z, band, 5_000, 13).break_points
        lo, hi = band.break_lower, band.break_upper
        for drawn in (
            eager_generator(13, (0,)).uniform(lo, hi, 5_000),
            RandomStream(13).substream(0).uniform(lo, hi, 5_000),
        ):
            assert np.array_equal(lam.view(np.uint64), drawn.view(np.uint64))


class TestCutsPerCall:
    """Each kernel call solves its cuts once, not once per block."""

    @pytest.fixture
    def solves(self, monkeypatch):
        count = [0]

        def counting_cut(*args):
            count[0] += 1
            return _cut(*args)

        monkeypatch.setattr(qmachine.sampler, "_cut", counting_cut)
        monkeypatch.setattr(qmachine.epr, "_cut", counting_cut)
        return count

    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_trials(self, solves, workers):
        run_trials(direction_at(0.3), Z, ElasticSpec(1.0, 0.0), 3 * BLOCK_SIZE, 1, workers)
        assert solves[0] == 1

    def test_run_recorded(self, solves):
        run_recorded(direction_at(0.3), Z, ElasticSpec(0.5, 0.1), 2 * BLOCK_SIZE + 1, 2)
        assert solves[0] == 1

    def test_joint_counts(self, solves):
        a, b = plane_direction(0.0), plane_direction(1.0)
        joint_counts(a, b, ElasticSpec(1.0, 0.0), 3 * BLOCK_SIZE, 3, workers=2)
        # the source wing at 0, the partner at +t_ab and at -t_ab
        assert solves[0] == 3


class InlineExecutor:
    """Stands in for ``ThreadPoolExecutor``: records ``max_workers`` and every
    submitted task, and runs each task at once in the calling thread."""

    def __init__(self, made, max_workers):
        self.max_workers = max_workers
        self.tasks = []
        made.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args):
        self.tasks.append(fn)
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


def block_id(seen):
    """A block function that appends ``(first word, m, start)`` of each
    block it runs to ``seen`` and counts the block."""

    def block(words, m, start):
        seen.append((int(words(1)[0]), m, start))
        return 1

    return block


def expected_ids(n, seed=3):
    """What :func:`block_id` records for each block of ``n`` trials, in
    block order: the first word of ``RandomStream(seed).substream(j)``."""
    root = RandomStream(seed)
    return [(int(root.substream(j).words(1)[0]), m, start) for j, m, start in block_plan(n)]


def block_order(seen):
    return sorted(seen, key=lambda record: record[2])


class TestDispatcher:
    """``_map_blocks`` starts one task per thread, never more threads than
    blocks, the calling thread one of them, and no pool for a call that fits
    one thread; it runs every block once, on its own words, and sums the
    blocks' results."""

    @pytest.fixture
    def pools(self, monkeypatch):
        made = []
        monkeypatch.setattr(
            qmachine.sampler, "ThreadPoolExecutor", lambda max_workers: InlineExecutor(made, max_workers)
        )
        return made

    @pytest.mark.parametrize(
        "workers, n, threads",
        [
            (2, 3 * BLOCK_SIZE, 2),
            (3, 2 * BLOCK_SIZE + 1, 3),
            (8, 3 * BLOCK_SIZE, 3),
            (64, 5 * BLOCK_SIZE - 1, 5),
            (10**6, 2 * BLOCK_SIZE, 2),
            (4, 4_000_000, 4),
        ],
    )
    def test_one_task_per_thread(self, pools, workers, n, threads):
        seen = []
        assert _map_blocks(block_id(seen), n, RandomStream(3), workers) == len(block_plan(n))
        assert block_order(seen) == expected_ids(n)
        [pool] = pools
        assert pool.max_workers == threads - 1
        assert len(pool.tasks) == threads - 1

    @pytest.mark.parametrize("workers", [1, 2, 8, 10**6])
    def test_one_block_runs_inline(self, pools, workers):
        seen = []
        assert _map_blocks(block_id(seen), BLOCK_SIZE, 3, workers) == 1
        assert _map_blocks(block_id(seen), 7, 3, workers) == 1
        assert seen == expected_ids(BLOCK_SIZE) + [(expected_ids(7)[0][0], 7, 0)]
        assert pools == []

    def test_one_worker_runs_inline(self, pools):
        seen = []
        assert _map_blocks(block_id(seen), 5 * BLOCK_SIZE, 3) == 5
        assert seen == expected_ids(5 * BLOCK_SIZE)
        assert pools == []

    def test_certain_run_trials_starts_no_pool(self, pools):
        band = ElasticSpec(0.5, 0.2)
        n = 3 * BLOCK_SIZE
        assert run_trials(direction_at(0.8), Z, band, n, 5, workers=8).n_o1 == n
        assert run_trials(direction_at(-0.5), Z, band, n, 5, workers=2).n_o1 == 0
        assert pools == []
        # a draw that decides the outcome takes the threads again
        run_trials(direction_at(0.3), Z, band, n, 5, workers=8)
        assert [pool.max_workers for pool in pools] == [2]

    @pytest.mark.parametrize("workers", [0, -1])
    def test_certain_call_still_checks_workers(self, pools, workers):
        with pytest.raises(ValueError, match="workers must be positive"):
            run_trials(Z, Z, ElasticSpec(1.0, 0.0), 3 * BLOCK_SIZE, 1, workers=workers)
        with pytest.raises(ValueError, match="need at least one trial"):
            run_trials(Z, Z, ElasticSpec(1.0, 0.0), 0, 1, workers=2)
        assert pools == []

    def test_exception_propagates(self, pools):
        def fail_at_one(words, m, start):
            if start == BLOCK_SIZE:
                raise RuntimeError("block 1 failed")
            return m

        with pytest.raises(RuntimeError, match="block 1 failed"):
            _map_blocks(fail_at_one, 3 * BLOCK_SIZE, 3, workers=2)

    def test_threads_return_block_order(self):
        # later blocks finish first; every block still runs once, on its own
        # words, and its result 2**j lands in the sum once
        n = 6 * BLOCK_SIZE
        ran_on, seen = set(), []
        record = block_id(seen)

        def slow_early_blocks(words, m, start):
            ran_on.add(threading.get_ident())
            time.sleep(0.002 * (6 - start // BLOCK_SIZE))
            record(words, m, start)
            return 1 << start // BLOCK_SIZE

        assert _map_blocks(slow_early_blocks, n, 4, workers=3) == 2**6 - 1
        assert block_order(seen) == expected_ids(n, 4)
        assert 1 <= len(ran_on) <= 3

    def test_caller_is_a_worker(self, pools):
        assert _map_indexed(lambda i: i * i, 4, 2) == [0, 1, 4, 9]
        assert [(pool.max_workers, len(pool.tasks)) for pool in pools] == [(1, 1)]
        assert _map_indexed(lambda i: i, 3, 1) == [0, 1, 2]
        assert _map_indexed(lambda i: i, 1, 8) == [0]
        assert len(pools) == 1

    def test_caller_and_pool_thread_run_at_once(self):
        # each task waits until the other has started: one thread alone
        # would time out
        both = threading.Barrier(2, timeout=10)

        def meet(i):
            both.wait()
            return threading.get_ident()

        ran_on = _map_indexed(meet, 2, 2)
        assert threading.get_ident() in ran_on and len(set(ran_on)) == 2

    def test_caller_exception_propagates(self):
        both = threading.Barrier(2, timeout=10)
        caller = threading.get_ident()

        def fail_on_caller(i):
            both.wait()
            if threading.get_ident() == caller:
                raise RuntimeError("caller's task failed")
            return i

        with pytest.raises(RuntimeError, match="caller's task failed"):
            _map_indexed(fail_on_caller, 2, 2)

    def test_failed_task_stops_the_threads(self, monkeypatch):
        # the caller's first task is interrupted while the pool thread holds
        # one; that one ends only once the caller, its failure recorded, is
        # shutting the pool down, and the pool thread claims no other
        caller = threading.get_ident()
        held, stopping = threading.Event(), threading.Event()
        helper_ran = []

        class Pool(qmachine.sampler.ThreadPoolExecutor):
            def shutdown(self, *args, **kwargs):
                stopping.set()
                super().shutdown(*args, **kwargs)

        monkeypatch.setattr(qmachine.sampler, "ThreadPoolExecutor", Pool)

        def interrupted_on_caller(i):
            if threading.get_ident() == caller:
                assert held.wait(10)
                raise KeyboardInterrupt
            held.set()
            assert stopping.wait(10)
            helper_ran.append(i)
            return i

        with pytest.raises(KeyboardInterrupt):
            _map_indexed(interrupted_on_caller, 400, 2)
        assert len(helper_ran) == 1

    def test_every_index_runs_once_under_contention(self):
        # more threads than cores, switching as often as the interpreter
        # allows: a claim taken twice or lost shows in ``ran``
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            ran = []

            def record(i):
                ran.append(i)
                return -i

            assert _map_indexed(record, 3000, 6) == [-i for i in range(3000)]
        finally:
            sys.setswitchinterval(interval)
        assert sorted(ran) == list(range(3000))

    def test_thread_exception_propagates(self):
        def fail_at_last(words, m, start):
            if start == 2 * BLOCK_SIZE:
                raise RuntimeError("block 2 failed")
            return m

        with pytest.raises(RuntimeError, match="block 2 failed"):
            _map_blocks(fail_at_last, 3 * BLOCK_SIZE, 3, workers=2)


class PlanStop(Exception):
    pass


class TestPlanAtAnyN:
    """``_map_blocks`` sizes and keys each block as it claims it and holds
    no per-block state, so a plan of any n starts at once.  A block raises
    to end the run: no test runs such an n to completion."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_first_blocks_of_a_huge_plan(self, workers):
        seen = []

        def block(words, m, start):
            seen.append((m, start, int(words(1)[0])))
            if len(seen) >= 3:
                raise PlanStop
            return m

        with pytest.raises(PlanStop):
            _map_blocks(block, 10**23, 5, workers)
        # the third block raises; a second thread may finish one block more
        assert 3 <= len(seen) <= 2 + workers
        root = RandomStream(5)
        blocks = []
        for m, start, word in seen:
            j, offset = divmod(start, BLOCK_SIZE)
            assert (m, offset) == (BLOCK_SIZE, 0)
            assert word == root.substream(j).words(1)[0]
            blocks.append(j)
        if workers == 1:
            assert blocks == [0, 1, 2]
        else:
            assert len(set(blocks)) == len(blocks) and max(blocks) <= 3

    @pytest.mark.parametrize("workers", [1, 2])
    def test_last_block_takes_the_rest(self, workers):
        seen = []
        assert _map_blocks(block_id(seen), 5 * BLOCK_SIZE - 1, 3, workers) == 5
        assert block_order(seen)[-1][1:] == (BLOCK_SIZE - 1, 4 * BLOCK_SIZE)
        assert [m for _, m, _ in block_order(seen)[:-1]] == [BLOCK_SIZE] * 4


BAND = ElasticSpec(1.0, 0.0)


class TestArgumentTypes:
    """``n`` and ``workers`` must be integers, numpy's included, never bools."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda n, w: run_trials(direction_at(0.3), Z, BAND, n, 1, w),
            lambda n, w: run_trials(Z, Z, BAND, n, 1, w),  # certain
            lambda n, w: joint_counts(plane_direction(0.0), plane_direction(1.0), BAND, n, 1, w),
            lambda n, w: qmachine.epr.severed_correlation_mc(BAND, n, 1, w),
            lambda n, w: chsh_estimate(
                ChshSetting.from_plane_degrees(0.0, 90.0, 225.0, 135.0), BAND, n, 1, w
            ),
        ],
        ids=["run_trials", "run_trials-certain", "joint_counts", "severed", "chsh_estimate"],
    )
    def test_kernels_check_types(self, call):
        for n in (1e3, 1000.0, "1000", "100", True, np.bool_(True), None):
            with pytest.raises(TypeError, match=r"^n must be an integer"):
                call(n, 1)
        for workers in (2.5, 2.0, True, np.bool_(True), "2"):
            with pytest.raises(TypeError, match=r"^workers must be an integer"):
                call(1000, workers)
        assert call(np.int64(1000), np.uint8(2)) == call(1000, 2)

    @pytest.mark.parametrize("n", [np.int64(1000), np.uint16(1000)], ids=["int64", "uint16"])
    def test_numpy_n_gives_python_numbers(self, n):
        a, b = plane_direction(0.0), plane_direction(1.0)
        counts = joint_counts(a, b, BAND, n, 1)
        assert counts == joint_counts(a, b, BAND, 1000, 1)
        assert {type(c) for c in counts.values()} == {int}
        for v in (direction_at(0.3), Z):  # Z: the certain path
            table = run_trials(v, Z, BAND, n, 1)
            assert table == run_trials(v, Z, BAND, 1000, 1)
            assert type(table.n_o1) is type(table.n_o2) is int
        for estimate in (
            lambda n: qmachine.epr.correlation_mc(a, b, BAND, n, 1),
            lambda n: qmachine.epr.severed_correlation_mc(BAND, n, 1),
        ):
            assert type(estimate(n)) is float
            assert estimate(n) == estimate(1000)

    def test_run_recorded_checks_n(self):
        for n in (1e3, True, None):
            with pytest.raises(TypeError, match=r"^n must be an integer"):
                run_recorded(direction_at(0.3), Z, BAND, n, 1)
        with pytest.raises(ValueError, match="need at least one trial"):
            run_recorded(direction_at(0.3), Z, BAND, 0, 1)
        assert run_recorded(direction_at(0.3), Z, BAND, np.int64(10), 1) == run_recorded(
            direction_at(0.3), Z, BAND, 10, 1
        )

    def test_message_names_the_value(self):
        with pytest.raises(TypeError, match=r"n must be an integer, got 1000000\.0"):
            run_trials(direction_at(0.3), Z, BAND, 1e6, 1)
        with pytest.raises(TypeError, match="workers must be an integer, got True"):
            run_trials(direction_at(0.3), Z, BAND, 100, 1, True)
