"""One sha256 over the outputs of a fixed grid of Monte Carlo kernel calls.

The digest pins every count, break point and outcome flag the kernels give
for these seeds, so a change to a kernel's internals that claims to be
byte-identical is checked here, not only by the statistical tests.  A change
that moves the digest on purpose changes the seed-for-seed output of the
library and must say so.
"""

import hashlib
import math

import numpy as np
import pytest

import qmachine.sampler
from qmachine.epr import joint_counts, plane_direction, severed_correlation_mc
from qmachine.geometry import Direction, ElasticSpec, Outcome, axis_coordinate
from qmachine.sampler import BLOCK_SIZE, RandomStream, run_recorded, run_trials

Z = Direction(0.0, 0.0, 1.0)

# States whose axis coordinates on +z are exactly 1, -1, 0, 0.6, 0.2 and
# -0.3, plus cos 60 deg.  0 is a snap value of every d = 0 band, and 0.2 is
# the snap value of the rigid and the zero-width d = 0.2 bands, where every
# trial ties.
STATES = (
    Z,
    -Z,
    Direction(1.0, 0.0, 0.0),
    Direction(4.0, 0.0, 3.0),
    Direction(math.sqrt(0.96), 0.0, 0.2),
    Direction.from_spherical(math.pi / 3),
    Direction(math.sqrt(0.91), 0.0, -0.3),
)
# (epsilon, d): rigid bands; 1e-300, where d - eps and d + eps round to d,
# so every snap point is d but one draw per trial is still taken; 1e-9, a
# band far narrower than the spacing of the doubles near d; a half band and
# the uniform band
BANDS = (
    (0.0, 0.0), (0.0, 0.2), (1e-300, 0.2), (1e-9, 0.0), (1e-9, 0.2),
    (0.5, 0.0), (0.5, 0.2), (1.0, 0.0),
)
PAIR_EPSILONS = (0.0, 1e-9, 0.5, 1.0)
PAIR_B_DEG = (0.0, 45.0, 90.0, 135.0, 240.0)
SIZES = (1000, BLOCK_SIZE + 1000)  # one block and two blocks
WORKERS = (1, 2)

KERNEL_DIGEST = "48e5f6d37fa3fe88b4cb6d69ea2587d6079a0107c1c0120019ce17ae44f1c0dd"
KERNEL_CALLS = 516


def ordered_joint_counts(a, b, band, n, seed, workers, order):
    """Joint counts keyed (left, right) with the ``order`` wing measured
    first: right-first is the left-first call with the wings relabeled, the
    axes swapped and each key read in reverse."""
    if order == "left":
        return joint_counts(a, b, band, n, seed, workers)
    counts = joint_counts(b, a, band, n, seed, workers)
    return {(x, y): counts[(y, x)] for x, y in counts}


def kernel_digest():
    """(sha256 hex digest, number of calls) over the whole grid."""
    h = hashlib.sha256()
    calls = 0

    def put(label, *parts):
        nonlocal calls
        calls += 1
        h.update(repr(label).encode())
        for part in parts:
            h.update(part if isinstance(part, bytes) else repr(part).encode())

    seed = 0
    for eps, d in BANDS:
        band = ElasticSpec(eps, d)
        for k, v in enumerate(STATES):
            for n in SIZES:
                seed += 1
                for workers in WORKERS:
                    table = run_trials(v, Z, band, n, seed, workers)
                    put(("run_trials", eps, d, k, n, workers), table.n_o1, table.n_o2)
                records = run_recorded(v, Z, band, n, RandomStream(seed).substream(3))
                put(
                    ("run_recorded", eps, d, k, n),
                    records.break_points.astype("<f8").tobytes(),
                    records.o1.tobytes(),
                )
    keys = [(x, y) for x in (Outcome.O1, Outcome.O2) for y in (Outcome.O1, Outcome.O2)]
    a = plane_direction(0.0)
    for eps in PAIR_EPSILONS:
        band = ElasticSpec(eps, 0.0)
        for b_deg in PAIR_B_DEG:
            b = plane_direction(math.radians(b_deg))
            for order in ("left", "right"):
                for n in SIZES:
                    seed += 1
                    for workers in WORKERS:
                        counts = ordered_joint_counts(a, b, band, n, seed, workers, order)
                        put(
                            ("joint_counts", eps, b_deg, order, n, workers),
                            *(counts[key] for key in keys),
                        )
    for eps, d in ((0.0, 0.0), (1e-9, 0.0), (0.5, 0.0), (0.5, 0.2), (1.0, 0.0)):
        band = ElasticSpec(eps, d)
        for n in SIZES:
            seed += 1
            for workers in WORKERS:
                corr = severed_correlation_mc(band, n, seed, workers)
                put(("severed", eps, d, n, workers), corr.hex())
    return h.hexdigest(), calls


def test_kernel_outputs_are_pinned():
    digest, calls = kernel_digest()
    assert calls == KERNEL_CALLS
    assert digest == KERNEL_DIGEST


def test_grid_reaches_ties_and_both_block_counts():
    assert [axis_coordinate(v, Z) for v in STATES[:5]] == [1.0, -1.0, 0.0, 0.6, 0.2]
    assert axis_coordinate(STATES[6], Z) == -0.3
    # a band of zero width on its own axis coordinate sends every trial to
    # a tie coin, with or without a draw per trial
    for eps in (0.0, 1e-300):
        band = ElasticSpec(eps, 0.2)
        assert band.break_lower == band.break_upper == 0.2
        tie = run_trials(STATES[4], Z, band, 1000, 1)
        assert 0 < tie.n_o1 < 1000
    assert min(SIZES) < BLOCK_SIZE < max(SIZES) <= 2 * BLOCK_SIZE


@pytest.mark.parametrize("workers", (3, 8))
def test_worker_counts_give_the_same_bytes(workers, monkeypatch):
    """Over the digest's grid, every kernel gives at ``workers`` the bytes
    it gives on one thread; ``run_recorded``, which has no ``workers``
    argument, runs its blocks on the threads of a patched dispatcher.  A
    five-block size joins the grid's sizes, so that the two counts start
    different numbers of threads."""
    map_blocks = qmachine.sampler._map_blocks

    def recorded(v, band, n, seed):
        monkeypatch.setattr(
            qmachine.sampler, "_map_blocks", lambda fn, n, seed: map_blocks(fn, n, seed, workers)
        )
        threaded = run_recorded(v, Z, band, n, seed)
        monkeypatch.setattr(qmachine.sampler, "_map_blocks", map_blocks)
        return threaded, run_recorded(v, Z, band, n, seed)

    seed = 0
    for eps, d in BANDS:
        band = ElasticSpec(eps, d)
        for v in STATES:
            for n in SIZES + (4 * BLOCK_SIZE + 3,):
                seed += 1
                assert run_trials(v, Z, band, n, seed, workers) == run_trials(v, Z, band, n, seed)
                threaded, serial = recorded(v, band, n, seed)
                assert threaded.break_points.tobytes() == serial.break_points.tobytes()
                assert np.array_equal(threaded.o1, serial.o1)
    a = plane_direction(0.0)
    for eps in PAIR_EPSILONS:
        band = ElasticSpec(eps, 0.0)
        for b_deg in PAIR_B_DEG:
            b = plane_direction(math.radians(b_deg))
            for order in ("left", "right"):
                for n in SIZES + (4 * BLOCK_SIZE + 3,):
                    seed += 1
                    assert ordered_joint_counts(
                        a, b, band, n, seed, workers, order
                    ) == ordered_joint_counts(a, b, band, n, seed, 1, order)
    for eps, d in ((0.0, 0.0), (1e-9, 0.0), (0.5, 0.0), (0.5, 0.2), (1.0, 0.0)):
        band = ElasticSpec(eps, d)
        for n in SIZES + (4 * BLOCK_SIZE + 3,):
            seed += 1
            threaded = severed_correlation_mc(band, n, seed, workers)
            assert threaded.hex() == severed_correlation_mc(band, n, seed).hex()
