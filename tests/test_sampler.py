import math
import sys
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings
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
    _block_lengths,
    _coins,
    _cut,
    _draws,
    _map_blocks,
    _map_indexed,
    _resolve,
    _resolve_cut,
    _snap_points,
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


def eager_generator(seed, key=()):
    """The generator a stream keyed (seed, key) must draw from, built at once."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def stream_at(seed, key):
    """``RandomStream(seed)`` followed down ``key`` by ``substream`` calls."""
    rs = RandomStream(seed)
    for index in key:
        rs = rs.substream(index)
    return rs


def draw_both(rs, gen, kind, size):
    """The same draw from a stream and from its eager reference."""
    if kind == "random":
        return rs.random(size), gen.random(size)
    if kind == "uniform":
        return rs.uniform(-0.3, 0.7, size), gen.uniform(-0.3, 0.7, size)
    return rs.coin(), bool(gen.random() < 0.5)


class TestRandomStream:
    def test_reproducible(self):
        a = RandomStream(123).random(100)
        b = RandomStream(123).random(100)
        assert np.array_equal(a, b)

    def test_substreams_reproducible_and_distinct(self):
        a = RandomStream(123).substream(4).random(100)
        b = RandomStream(123).substream(4).random(100)
        c = RandomStream(123).substream(5).random(100)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_nested_substreams(self):
        a = RandomStream(9).substream(1).substream(2).random(10)
        b = RandomStream(9, spawn_key=(1, 2)).random(10)
        assert np.array_equal(a, b)

    def test_large_seed(self):
        RandomStream(2**64 - 1).random()

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
        assert np.array_equal(rs.random(10), RandomStream(9, (1, 2)).random(10))

    @pytest.mark.parametrize("key", [(), (0,), (3,), (1, 2), (7, 0, 65), (2**40,)])
    def test_draws_match_eager_reference(self, key):
        rs, gen = stream_at(2024, key), eager_generator(2024, key)
        for kind, size in (("random", 5), ("uniform", 9), ("coin", None), ("random", None)):
            mine, reference = draw_both(rs, gen, kind, size)
            assert np.array_equal(mine, reference)

    def test_root_draws_after_handing_out_substreams(self):
        root = RandomStream(77)
        children = [root.substream(j) for j in range(3)]
        grandchild = children[1].substream(4)
        reference = eager_generator(77)
        assert np.array_equal(root.random(8), reference.random(8))
        # a child handed out after the root drew is still keyed by its path
        late = root.substream(5)
        assert np.array_equal(root.uniform(0.0, 2.0, 3), reference.uniform(0.0, 2.0, 3))
        assert np.array_equal(grandchild.random(8), eager_generator(77, (1, 4)).random(8))
        assert np.array_equal(late.random(8), eager_generator(77, (5,)).random(8))
        assert np.array_equal(children[0].random(8), eager_generator(77, (0,)).random(8))
        assert root.coin() == bool(reference.random() < 0.5)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        key=st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=3),
        handed_out=st.integers(min_value=0, max_value=3),
        draws=st.lists(
            st.tuples(st.sampled_from(("random", "uniform", "coin")), st.integers(0, 40)),
            min_size=1, max_size=5,
        ),
    )
    def test_draw_sequence_matches_eager_reference(self, seed, key, handed_out, draws):
        rs, gen = stream_at(seed, key), eager_generator(seed, tuple(key))
        for index in range(handed_out):
            rs.substream(index)
        for kind, size in draws:
            mine, reference = draw_both(rs, gen, kind, size)
            assert np.array_equal(mine, reference)

    @pytest.mark.parametrize("offset", [0, 1, 2, 3, 5, 2 * 1000 + 3])
    def test_generator_at_is_the_tail_of_one_long_draw(self, offset):
        rs = RandomStream(31, spawn_key=(4, 2))
        tail = rs.generator_at(offset).random(1000)
        assert np.array_equal(tail, eager_generator(31, (4, 2)).random(offset + 1000)[offset:])
        # the stream's own draws still start at draw 0
        assert np.array_equal(rs.random(5), eager_generator(31, (4, 2)).random(5))

    def test_words_are_the_doubles_of_random(self):
        x = RandomStream(21, spawn_key=(3,)).words(20_000)
        u = RandomStream(21, spawn_key=(3,)).random(20_000)
        assert x.dtype == np.uint64
        doubles = (x >> np.uint64(11)) * 2.0**-53
        assert np.array_equal(doubles.view(np.uint64), u.view(np.uint64))

    def test_word_coins_are_the_double_coins(self):
        coins = RandomStream(22).words(20_000) < np.uint64(1 << 63)
        assert np.array_equal(coins, RandomStream(22).random(20_000) < 0.5)
        assert np.array_equal(_coins(RandomStream(22), 20_000), coins)
        assert 9_000 < coins.sum() < 11_000

    def test_words_random_and_generator_at_read_one_sequence(self):
        rs = RandomStream(23, spawn_key=(1, 5))
        whole = eager_generator(23, (1, 5)).random(23)

        def doubles(x):
            return (x >> np.uint64(11)) * 2.0**-53

        assert np.array_equal(doubles(rs.words(7)), whole[:7])
        assert np.array_equal(rs.random(6), whole[7:13])
        # a generator at draw 13 reads on; the stream stays at draw 13
        assert np.array_equal(rs.generator_at(13).random(9), whole[13:22])
        assert np.array_equal(doubles(rs.words(5)), whole[13:18])
        assert np.array_equal(doubles(rs.generator_at(18).bit_generator.random_raw(2)), whole[18:20])
        assert np.array_equal(rs.random(3), whole[18:21])
        rs.words(1)
        assert rs.random() == whole[22]

    @pytest.mark.parametrize("offset, error, match", [
        (-1, ValueError, "^offset must be non-negative"),
        (True, TypeError, "^offset must be an integer"),
        (2.5, TypeError, "^offset must be an integer"),
        ("3", TypeError, "^offset must be an integer"),
    ])
    def test_generator_at_rejects_bad_offsets(self, offset, error, match):
        with pytest.raises(error, match=match):
            RandomStream(31).generator_at(offset)

    def test_generator_at_takes_numpy_integers(self):
        tail = RandomStream(31).generator_at(np.int64(6)).random(4)
        assert np.array_equal(tail, eager_generator(31).random(10)[6:])

    def test_uniformity(self):
        # 20-bin chi-square on 1e6 doubles; df = 19, 43.8 is the 99.9% point
        draws = RandomStream(55).random(1_000_000)
        counts, _ = np.histogram(draws, bins=20, range=(0.0, 1.0))
        expected = len(draws) / 20
        stat = ((counts - expected) ** 2 / expected).sum()
        assert stat < 43.8


class TestGeneratorBuilds:
    """A stream builds its Philox generator at its first draw, so a root that
    only hands out block substreams builds none."""

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
        root.random(2)
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
        # 2 x 2 correlation estimates of 2 blocks each; a block of a band
        # with eps > 0 builds a second generator for its snap points
        severed_chsh_scan(ElasticSpec(1.0, 0.0), angles_count=2, n=BLOCK_SIZE + 1)
        assert builds[0] == 16

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
        assert post.same_point(SphereState(Z))

    def test_break_above_pulls_down(self):
        v = direction_at(0.5)
        outcome, post = hidden_outcome(v, Z, 0.8, RandomStream(4))
        assert outcome is Outcome.O2
        assert post.same_point(SphereState(-Z))

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
            assert post.same_point(expected)

    def test_rejects_out_of_band_break_point(self):
        with pytest.raises(ValueError):
            hidden_outcome(Z, Z, 1.5, RandomStream(8))


class TestFrequencyTable:
    def test_counts_sum(self):
        table = FrequencyTable(3, 7)
        assert table.total == 10
        assert table.counts == {Outcome.O1: 3, Outcome.O2: 7}
        assert table.frequency(Outcome.O1) == 0.3

    def test_merge(self):
        assert FrequencyTable(1, 2) + FrequencyTable(3, 4) == FrequencyTable(4, 6)

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


def reference_records(v, u, elastic, n, seed):
    """One TrialRecord per trial, built in a loop over each block's draws."""
    root = RandomStream(seed)
    t = axis_coordinate(v, u)
    post_up, post_down = SphereState(u), SphereState(-u)
    records = []
    for j, m in enumerate(_block_lengths(n, BLOCK_SIZE)):
        rs = root.substream(j)
        lam = _snap_points(rs, elastic, m)
        is_o1 = _resolve(lam, t, rs)
        for k in range(m):
            index = j * BLOCK_SIZE + k
            if is_o1[k]:
                records.append(TrialRecord(index, float(lam[k]), Outcome.O1, post_up))
            else:
                records.append(TrialRecord(index, float(lam[k]), Outcome.O2, post_down))
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


SPECIAL_EPSILONS = (1.0, 0.5, 1e-9, 1e-300)
# draw indices k whose snap point lo + w * (k * 2**-53) serves as t
SPECIAL_INDICES = (0, 1, 2**52, 2**53 - 1)


@st.composite
def bands(draw):
    """A valid band: one of the special widths or any, at any offset d."""
    eps = draw(st.one_of(st.sampled_from(SPECIAL_EPSILONS), st.floats(0.0, 1.0)))
    d = draw(st.one_of(st.just(0.0), st.floats(-1.0 + eps, 1.0 - eps)))
    return ElasticSpec(eps, d)


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


def coordinate_for(band, where, seed, m):
    kind, x = where
    lo, hi = band.break_lower, band.break_upper
    if kind == "value":
        return x
    if kind == "index":
        return lo + (hi - lo) * (x * 2.0**-53)
    if kind in ("own", "-own"):
        lam = _snap_points(RandomStream(seed), band, m)
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
        scalar_rs, vector_rs = RandomStream(seed), RandomStream(seed)
        scalar_up = outcome_at_axis(t, break_point, scalar_rs) is Outcome.O1
        assert scalar_up == _resolve(np.array([break_point]), t, vector_rs)[0]
        # both consumed the same draws: one coin at a tie, none otherwise
        assert scalar_rs.random() == vector_rs.random()

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
        ref_rs, cut_rs = RandomStream(seed), RandomStream(seed)
        lam = _snap_points(ref_rs, band, m)
        draws = _draws(cut_rs, band, m)
        if flip_p is None:
            expected = _resolve(lam, t, ref_rs)
            got = _resolve_cut(draws, _cut(band, t), cut_rs)
        else:
            flip = np.random.default_rng(seed).random(m) < flip_p
            expected = _resolve(lam, np.where(flip, -t, t), ref_rs)
            got = _resolve_cut(draws, _cut(band, t), cut_rs, flip=flip, flip_cut=_cut(band, -t))
        assert np.array_equal(got, expected)
        # the same number of tie coins: both streams stand at the same draw
        assert cut_rs.random() == ref_rs.random()

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
        ref_rs, cut_rs = RandomStream(3), RandomStream(3)
        expected = _resolve(_snap_points(ref_rs, band, 100), 0.3, ref_rs)
        got = _resolve_cut(_draws(cut_rs, band, 100), _cut(band, 0.3), cut_rs)
        assert np.array_equal(got, expected) and 0 < got.sum() < 100
        assert cut_rs.random() == ref_rs.random()

    def test_rigid_band_draws_nothing(self):
        band = ElasticSpec(0.0, 0.2)
        rs, fresh = RandomStream(4), RandomStream(4)
        assert not _resolve_cut(_draws(rs, band, 10), _cut(band, 0.1), rs).any()
        assert _resolve_cut(_draws(rs, band, 10), _cut(band, 0.3), rs).all()
        assert rs.random() == fresh.random()


class TestEdgeCuts:
    """Cuts of 0.0 and 1.0 through :func:`_resolve_cut`: a cut of 1.0 is
    the word bound 2**64, which no uint64 holds, so it must admit every word
    up to the last one without an out-of-range compare."""

    EXTREMES = np.array([0, 1, (1 << 11) - 1, 1 << 11, 1 << 63, 2**64 - 1], dtype=np.uint64)

    def test_extreme_words(self):
        rs = RandomStream(40)
        assert _resolve_cut(self.EXTREMES, (1.0, 1.0), rs).all()
        assert not _resolve_cut(self.EXTREMES, (0.0, 0.0), rs).any()
        step = 2.0**-53
        got = _resolve_cut(self.EXTREMES, (step, step), rs)
        assert got.tolist() == [True, True, True, False, False, False]
        got = _resolve_cut(self.EXTREMES, (1.0 - step, 1.0 - step), rs)
        assert got.tolist() == [True] * 5 + [False]
        flip = np.array([True, False] * 3)
        got = _resolve_cut(self.EXTREMES, (1.0, 1.0), rs, flip=flip, flip_cut=(0.0, 0.0))
        assert np.array_equal(got, ~flip)
        # no cut had room for ties, so no coin was drawn
        assert rs.random() == RandomStream(40).random()

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
        ref_rs, cut_rs = RandomStream(41), RandomStream(41)
        lam = _snap_points(ref_rs, band, m)
        flip = np.random.default_rng(41).random(m) < 0.5 if flipped else None
        if flip is None:
            expected_up = _resolve(lam, t, ref_rs)
            got = _resolve_cut(_draws(cut_rs, band, m), _cut(band, t), cut_rs)
        else:
            expected_up = _resolve(lam, np.where(flip, -t, t), ref_rs)
            got = _resolve_cut(
                _draws(cut_rs, band, m), _cut(band, t), cut_rs, flip=flip, flip_cut=_cut(band, -t)
            )
        assert np.array_equal(got, expected_up)
        assert cut_rs.random() == ref_rs.random()
        if expected is None:
            assert 0 < got.sum() < m
        elif flip is None:
            assert got.all() if expected else not got.any()
        else:
            # -t lies on the other side of the band
            assert np.array_equal(got, ~flip if expected else flip)


class TestDrawArithmetic:
    """The cut is exact only if the snap points are lo + w * u with the
    stream's doubles u = k * 2**-53, in two separately rounded steps; a
    numpy build that fused the multiply-add would move outcome bytes."""

    GUARD_BANDS = (
        (-1.0, 1.0), (-0.3, 0.7), (0.25, 0.75), (-0.7, 0.3),
        (0.2 - 1e-9, 0.2 + 1e-9), (0.3 - 1e-300, 0.3 + 1e-300),
    )

    @pytest.mark.parametrize("low, high", GUARD_BANDS)
    def test_uniform_is_two_rounded_steps(self, low, high):
        drawn = RandomStream(11).uniform(low, high, 20_000)
        u = RandomStream(11).random(20_000)
        product = np.multiply(u, high - low)
        assert np.array_equal(drawn, np.add(product, low))
        # and the scalar steps the cut evaluates give the same doubles
        assert all(low + (high - low) * x == y for x, y in zip(u[:500].tolist(), drawn[:500]))

    def test_doubles_are_whole_multiples_of_two_to_minus_53(self):
        u = RandomStream(12).random(20_000) * 2.0**53
        assert np.array_equal(u, np.floor(u)) and u.max() < 2.0**53

    @pytest.mark.parametrize("eps, d", [(1.0, 0.0), (0.5, 0.2), (1e-9, 0.3), (1e-300, 0.3)])
    def test_snap_points_are_the_uniform_draw(self, eps, d):
        band = ElasticSpec(eps, d)
        lam = _snap_points(RandomStream(13), band, 5_000)
        drawn = RandomStream(13).uniform(band.break_lower, band.break_upper, 5_000)
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


def block_id(rs, m, start):
    return rs.spawn_key, m, start


def expected_ids(n):
    return [((j,), m, j * BLOCK_SIZE) for j, m in enumerate(_block_lengths(n, BLOCK_SIZE))]


class TestDispatcher:
    """``_map_blocks`` starts one task per thread, never more threads than
    blocks, the calling thread one of them, and no pool for a call that fits
    one thread."""

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
        assert _map_blocks(block_id, n, RandomStream(3), workers) == expected_ids(n)
        [pool] = pools
        assert pool.max_workers == threads - 1
        assert len(pool.tasks) == threads - 1

    @pytest.mark.parametrize("workers", [1, 2, 8, 10**6])
    def test_one_block_runs_inline(self, pools, workers):
        assert _map_blocks(block_id, BLOCK_SIZE, 3, workers) == expected_ids(BLOCK_SIZE)
        assert _map_blocks(block_id, 7, 3, workers) == [((0,), 7, 0)]
        assert pools == []

    def test_one_worker_runs_inline(self, pools):
        assert _map_blocks(block_id, 5 * BLOCK_SIZE, 3) == expected_ids(5 * BLOCK_SIZE)
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
        def fail_at_one(rs, m, start):
            if rs.spawn_key == (1,):
                raise RuntimeError("block 1 failed")
            return m

        with pytest.raises(RuntimeError, match="block 1 failed"):
            _map_blocks(fail_at_one, 3 * BLOCK_SIZE, 3, workers=2)

    def test_threads_return_block_order(self):
        # later blocks finish first; every result still lands at its index
        n = 6 * BLOCK_SIZE
        ran_on = set()

        def slow_early_blocks(rs, m, start):
            ran_on.add(threading.get_ident())
            time.sleep(0.002 * (6 - rs.spawn_key[0]))
            return block_id(rs, m, start)

        assert _map_blocks(slow_early_blocks, n, 4, workers=3) == expected_ids(n)
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
        def fail_at_last(rs, m, start):
            if rs.spawn_key == (2,):
                raise RuntimeError("block 2 failed")
            return m

        with pytest.raises(RuntimeError, match="block 2 failed"):
            _map_blocks(fail_at_last, 3 * BLOCK_SIZE, 3, workers=2)


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
