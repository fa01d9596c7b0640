"""Built-in verification battery: every release-gating check with its
tolerance pinned, runnable via ``qmachine selftest`` or the test suite.

Each criterion function returns a :class:`CriterionResult`; nothing here
raises on failure so the battery always reports every line.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .analytic import (
    born_probabilities,
    epsilon_probabilities,
    linearity_deviation,
    quantum_probabilities,
    spin_operator,
    spinor_from_direction,
)
from .climit import double_slit_scenario, epsilon_transform, gaussian_grid
from .epr import (
    TSIRELSON_ANGLES_DEG,
    ChshSetting,
    chsh_estimate,
    joint_counts,
    max_chsh,
    plane_direction,
    severed_chsh_scan,
)
from .geometry import Direction, ElasticSpec, Outcome
from .harness import ExperimentConfig, run
from .sampler import RandomStream, _map_indexed, run_trials

ROOT2 = math.sqrt(2.0)
# Threads for the Monte Carlo lines: the smallest count that runs the
# threaded path, one block of memory more, and the same result on any
# machine.  Lines 1, 4 and 7 spread each call's blocks over them; lines 2
# and 6, many calls of a few blocks each, run whole calls on them, one call
# per task, each on its own substream.
WORKERS = 2


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, passed: bool, detail: str) -> CriterionResult:
    return CriterionResult(name, bool(passed), detail)


def _random_direction_pairs(count: int, seed: int = 7):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        vecs = rng.standard_normal((2, 3))
        yield Direction(*vecs[0]), Direction(*vecs[1])


def criterion_1_spin_frequencies() -> CriterionResult:
    """MC frequency matches cos^2(theta/2) within 0.002 at n = 1e6."""
    u = Direction(0.0, 0.0, 1.0)
    elastic = ElasticSpec(1.0, 0.0)
    root = RandomStream(1001)
    worst = 0.0
    for k, deg in enumerate((0, 30, 60, 90, 120, 150, 180)):
        v = Direction.from_spherical(math.radians(deg))
        table = run_trials(v, u, elastic, 1_000_000, root.substream(k), WORKERS)
        p1 = quantum_probabilities(v, u).p1
        worst = max(worst, abs(table.frequency(Outcome.O1) - p1))
    return _result(
        "1-spin-frequencies", worst <= 0.002,
        f"max |freq - cos^2(theta/2)| = {worst:.3g} (tol 0.002)",
    )


def criterion_2_piecewise_band() -> CriterionResult:
    """MC matches the piecewise band law on a 21-point axis grid; the
    deterministic regimes match exactly."""
    n = 200_000
    u = Direction(0.0, 0.0, 1.0)
    root = RandomStream(1002)
    cases = [
        (ElasticSpec(eps, d), Direction(math.sqrt(max(0.0, 1.0 - t * t)), 0.0, t))
        for eps, d in ((0.5, 0.2), (0.3, -0.4), (1.0, 0.0))
        for t in np.linspace(-1.0, 1.0, 21)
    ]

    def frequency(index):
        elastic, v = cases[index]
        return run_trials(v, u, elastic, n, root.substream(index)).frequency(Outcome.O1)

    worst_sigma, exact_ok = 0.0, True
    freqs = _map_indexed(frequency, len(cases), WORKERS)
    for (elastic, v), freq in zip(cases, freqs):
        p1 = epsilon_probabilities(v, u, elastic).p1
        if p1 == 0.0 or p1 == 1.0:
            exact_ok = exact_ok and freq == p1
        else:
            sigma = math.sqrt(p1 * (1.0 - p1) / n)
            worst_sigma = max(worst_sigma, abs(freq - p1) / sigma)
    return _result(
        "2-piecewise-band", exact_ok and worst_sigma <= 4.0,
        f"deterministic regimes exact: {exact_ok}; worst stochastic deviation "
        f"{worst_sigma:.2f} sigma (tol 4)",
    )


def criterion_3_hilbert_correspondence() -> CriterionResult:
    """Born rule reproduces the band probabilities to 1e-12 on 1000 random
    pairs; spin operators have eigenvalues +/-1/2 and the +1/2 eigenvector
    matches the direction spinor up to phase."""
    worst_prob, worst_eig, worst_vec = 0.0, 0.0, 0.0
    for k, (v, u) in enumerate(_random_direction_pairs(1000, seed=1003)):
        born = born_probabilities(spinor_from_direction(v), u)
        exact = quantum_probabilities(v, u)
        worst_prob = max(worst_prob, abs(born.p1 - exact.p1), abs(born.p2 - exact.p2))
        if k < 100:  # operator checks on a subsample; each needs an eigensolve
            op = spin_operator(u)
            eigvals, eigvecs = np.linalg.eigh(op.matrix)
            worst_eig = max(worst_eig, abs(eigvals[0] + 0.5), abs(eigvals[1] - 0.5))
            up = spinor_from_direction(u).as_array()
            inner = np.vdot(eigvecs[:, 1], up)
            aligned = eigvecs[:, 1] * (inner / abs(inner))
            worst_vec = max(worst_vec, float(np.abs(aligned - up).max()))
    passed = worst_prob <= 1e-12 and worst_eig <= 1e-10 and worst_vec <= 1e-10
    return _result(
        "3-hilbert-correspondence", passed,
        f"born vs band {worst_prob:.2g} (tol 1e-12); eigenvalues {worst_eig:.2g} "
        f"(tol 1e-10); eigenvector phase distance {worst_vec:.2g} (tol 1e-10)",
    )


def criterion_4_chsh_quantum() -> CriterionResult:
    """At eps = 1 the settings-optimized S is 2*sqrt(2); MC agrees to 0.02."""
    opt = max_chsh(ElasticSpec(1.0, 0.0))
    analytic_err = abs(opt - 2.0 * ROOT2)
    setting = ChshSetting.from_plane_degrees(*TSIRELSON_ANGLES_DEG)
    est = chsh_estimate(
        setting, ElasticSpec(1.0, 0.0), 1_000_000, RandomStream(1004), WORKERS
    )
    mc_err = abs(est.value - 2.0 * ROOT2)
    return _result(
        "4-chsh-quantum", analytic_err <= 1e-6 and mc_err <= 0.02,
        f"optimum {opt:.10f} (err {analytic_err:.2g}, tol 1e-6); "
        f"MC {est.value:.4f} (err {mc_err:.3f}, tol 0.02)",
    )


def criterion_5a_chsh_classical_max() -> CriterionResult:
    """With a fully deterministic band the optimized |S| reaches 4."""
    opt = max_chsh(ElasticSpec(0.0, 0.0))
    return _result(
        "5a-chsh-classical-max", abs(opt - 4.0) <= 1e-9,
        f"optimum at eps=0 is {opt:.10f} (expected 4)",
    )


def criterion_5b_chsh_intermediate_interval() -> CriterionResult:
    """Checks whether the eps = 0.5 optimum lies strictly inside
    (2*sqrt(2), 4).

    It does not: the optimized |S| equals 4 exactly for every
    eps <= 1/sqrt(2), because settings with all four axis cosines of
    magnitude >= eps saturate every correlation; strict tempering only
    starts above eps = 1/sqrt(2) ~ 0.7071 (where |S| = 2*sqrt(2)/eps).
    The check is kept at its stated bounds and reports the failure.
    """
    opt = max_chsh(ElasticSpec(0.5, 0.0))
    passed = 2.0 * ROOT2 < opt < 4.0
    return _result(
        "5b-chsh-intermediate-interval", passed,
        f"optimum at eps=0.5 is {opt:.10f}; strict interior of "
        f"(2*sqrt(2), 4) is unattainable - the plateau at 4 extends to "
        f"eps = 1/sqrt(2)",
    )


def criterion_5c_chsh_monotone() -> CriterionResult:
    """The optimized |S| never increases with eps."""
    values = [max_chsh(ElasticSpec(eps, 0.0)) for eps in (0.0, 0.25, 0.5, 0.75, 1.0)]
    monotone = all(a >= b - 1e-9 for a, b in zip(values, values[1:]))
    return _result(
        "5c-chsh-monotone", monotone,
        "optimum over eps grid {0, 0.25, 0.5, 0.75, 1}: "
        + ", ".join(f"{v:.6f}" for v in values),
    )


def criterion_6_no_signaling() -> CriterionResult:
    """Wing marginals stay at 1/2 regardless of the remote setting."""
    n = 100_000
    bound = 4.0 * math.sqrt(0.25 / n)
    root = RandomStream(1006)
    a = plane_direction(0.3)
    cases = [(ElasticSpec(eps, 0.0), plane_direction(0.1 + 0.31 * k))
             for eps in (1.0, 0.5) for k in range(10)]

    def counts(index):
        elastic, b = cases[index]
        return joint_counts(a, b, elastic, n, root.substream(index))

    worst = 0.0
    for c in _map_indexed(counts, len(cases), WORKERS):
        left_up = c[(Outcome.O1, Outcome.O1)] + c[(Outcome.O1, Outcome.O2)]
        right_up = c[(Outcome.O1, Outcome.O1)] + c[(Outcome.O2, Outcome.O1)]
        worst = max(worst, abs(left_up / n - 0.5), abs(right_up / n - 0.5))
    return _result(
        "6-no-signaling", worst <= bound,
        f"worst marginal deviation {worst:.4f} (tol {bound:.4f})",
    )


def criterion_7_severed_rod() -> CriterionResult:
    """Without the rod the grid-searched |S| obeys the classical bound."""
    n = 100_000
    best = severed_chsh_scan(
        ElasticSpec(1.0, 0.0), angles_count=8, n=n, seed=1007, workers=WORKERS
    )
    bound = 2.0 + 4.0 * (2.0 / math.sqrt(n))
    return _result(
        "7-severed-rod-bound", best <= bound,
        f"max |S| without the rod = {best:.4f} (tol {bound:.4f})",
    )


def criterion_8_localization_transform() -> CriterionResult:
    """Cut transform of a 2001-point Gaussian: unit mass to 1e-9, nested
    supports, and the eps = 0.01 mean within one cell of the peak."""
    grid = gaussian_grid(2001)
    argmax = grid.positions[int(grid.values.argmax())]
    reports = [epsilon_transform(grid, eps) for eps in (1.0, 0.5, 0.1, 0.01)]
    mass_ok = all(r.mass_error <= 1e-9 for r in reports)
    nested = True
    for wider, narrower in zip(reports, reports[1:]):
        wide = np.zeros(grid.n, dtype=bool)
        for i, j in wider.support:
            wide[i : j + 1] = True
        for i, j in narrower.support:
            nested = nested and wide[i : j + 1].all()
    mean = float((reports[-1].transformed.values * grid.positions).sum()) * grid.dx
    mean_ok = abs(mean - argmax) <= grid.dx
    return _result(
        "8-localization-transform", mass_ok and nested and mean_ok,
        f"mass errors <= 1e-9: {mass_ok}; supports nested: {nested}; "
        f"|mean - argmax| = {abs(mean - argmax):.2g} (tol dx = {grid.dx:.4g})",
    )


def criterion_9_double_slit() -> CriterionResult:
    """Equal peaks keep two clusters at every tested eps down to 1e-3; a 5%
    taller peak collapses the density to one cluster at small eps."""
    eps_values = (0.9, 0.5, 0.1, 0.01, 0.001)
    equal = double_slit_scenario(1.0, eps_values)
    equal_ok = all(row.n_clusters == 2 for row in equal.rows)
    skewed = double_slit_scenario(1.05, eps_values)
    small = skewed.rows[-1]
    large = skewed.rows[0]
    skew_ok = (
        small.n_clusters == 1 and small.taller_survives and large.n_clusters == 2
    )
    return _result(
        "9-double-slit", equal_ok and skew_ok,
        f"equal peaks keep 2 clusters: {equal_ok}; ratio 1.05 collapses at "
        f"eps=0.001 to the taller peak: {skew_ok} "
        f"(collapse threshold {skewed.collapse_threshold:.4f})",
    )


def criterion_10_nonlinearity() -> CriterionResult:
    """The expectation curve is affine only for the uniformly breakable band."""
    dev1 = linearity_deviation(ElasticSpec(1.0, 0.0))
    dev_half = linearity_deviation(ElasticSpec(0.5, 0.0))
    dev_quarter = linearity_deviation(ElasticSpec(0.25, 0.0))
    dev0 = linearity_deviation(ElasticSpec(0.0, 0.0))
    passed = dev1 <= 1e-12 and dev_half > 0.01 and dev_quarter > 0.01 and dev0 > 0.1
    return _result(
        "10-nonlinearity", passed,
        f"deviation at eps 1/0.5/0.25/0: {dev1:.2g}, {dev_half:.3f}, "
        f"{dev_quarter:.3f}, {dev0:.3f} (tol 1e-12 / >0.01 / >0.01 / >0.1)",
    )


def criterion_11_determinism() -> CriterionResult:
    """Rerunning an experiment with the same seed and any worker count
    produces byte-identical CSV output."""
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        for label, workers in (("w1", 1), ("w8", 8), ("w1-again", 1)):
            path = os.path.join(tmp, f"spin-{label}.csv")
            config = ExperimentConfig(
                kind="spin", theta_deg=60.0, epsilon=1.0, d=0.0,
                trials=200_000, seed=9, workers=workers, out=path,
            )
            run(config)
            with open(path, "rb") as fh:
                outputs.append(fh.read())
    identical = outputs[0] == outputs[1] == outputs[2]
    return _result(
        "11-determinism", identical,
        f"byte-identical across worker counts and reruns: {identical}",
    )


ALL_CRITERIA = (
    criterion_1_spin_frequencies,
    criterion_2_piecewise_band,
    criterion_3_hilbert_correspondence,
    criterion_4_chsh_quantum,
    criterion_5a_chsh_classical_max,
    criterion_5b_chsh_intermediate_interval,
    criterion_5c_chsh_monotone,
    criterion_6_no_signaling,
    criterion_7_severed_rod,
    criterion_8_localization_transform,
    criterion_9_double_slit,
    criterion_10_nonlinearity,
    criterion_11_determinism,
)


def run_battery(verbose: bool = False) -> list[CriterionResult]:
    """Run every criterion; optionally print one PASS/FAIL line each."""
    results = []
    for criterion in ALL_CRITERIA:
        result = criterion()
        results.append(result)
        if verbose:
            print(f"{'PASS' if result.passed else 'FAIL'}  {result.name}: {result.detail}")
    return results
