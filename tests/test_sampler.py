import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmachine.analytic import epsilon_probabilities
from qmachine.geometry import Direction, ElasticSpec, Outcome, SphereState, axis_coordinate
from qmachine.sampler import (
    BLOCK_SIZE,
    FrequencyTable,
    RandomStream,
    TrialRecord,
    TrialRecords,
    _block_lengths,
    _resolve,
    _sample_block,
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

    def test_uniformity(self):
        # 20-bin chi-square on 1e6 doubles; df = 19, 43.8 is the 99.9% point
        draws = RandomStream(55).random(1_000_000)
        counts, _ = np.histogram(draws, bins=20, range=(0.0, 1.0))
        expected = len(draws) / 20
        stat = ((counts - expected) ** 2 / expected).sum()
        assert stat < 43.8


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
        lam, is_o1 = _sample_block(root.substream(j), m, t, elastic)
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
