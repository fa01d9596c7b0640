"""Correctness checks and failure accounting for the benchmark.

Every call the benchmark makes into the program (one CLI process, one
``run_trials`` call, one battery criterion) is one operation.  An operation
fails when any of its checks fails.  Two kinds of failure are kept apart:

* a *wrong output*: the program answered, but the answer is off its oracle
  (a count beyond 5 sigma, a ``workers=2`` count that differs from the
  ``workers=1`` count, an output digest that changed between repeats, a
  battery verdict that flipped).  Any wrong output makes the run incorrect.
* a *failed operation* that produced no checked answer: an exit code other
  than the documented one (for example a traceback exit 1 where the
  contract says 2).  It counts toward ``ops_failed_ratio`` but does not by
  itself make the outputs wrong.

The functions here take plain numbers, so they import nothing from the
program and can be tested without it.
"""

from __future__ import annotations

import math

SIGMA_LIMIT = 5.0
CHSH_OPTIMUM_TOL = 1e-9

# The one battery criterion that must FAIL: the optimum at eps = 0.5 sits on
# the plateau at 4, so the strict interior it asks for is unattainable.
EXPECTED_BATTERY_FAILURE = "5b-chsh-intermediate-interval"

# Failures present at the commit that introduced the benchmark.  They are
# counted like any other failure; the list only documents them.
KNOWN_BASELINE_FAILURES = ("cli spin --theta-deg nan: exit 1, expected 2",)


class Tally:
    """Operations attempted, failed, and which failures were wrong outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures: list[str] = []

    def add(self, label: str, wrong=(), exit_problem: str | None = None):
        """Account one operation.  ``wrong`` lists its wrong-output problems,
        with ``None`` for each check that passed."""
        self.attempted += 1
        wrong = [p for p in wrong if p]
        problems = wrong + ([exit_problem] if exit_problem else [])
        if not problems:
            return
        self.failed += 1
        if wrong:
            self.wrong += 1
        self.failures.extend(f"{label}: {p}" for p in problems)

    @property
    def correct(self) -> bool:
        return self.wrong == 0

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def binomial_problem(n1: int, n: int, p1: float) -> str | None:
    """O1 count ``n1`` of ``n`` trials against the oracle probability ``p1``.

    A certain outcome (p1 = 0 or 1) must be met exactly; otherwise the
    frequency must lie within 5 sigma of p1.
    """
    if p1 in (0.0, 1.0):
        return None if n1 == round(p1 * n) else f"{n1}/{n} O1 where p1 = {p1} is certain"
    z = abs(n1 / n - p1) / math.sqrt(p1 * (1.0 - p1) / n)
    return None if z <= SIGMA_LIMIT else f"{n1}/{n} O1 is {z:.2f} sigma off p1 = {p1:.6g}"


def correlation_problem(same: int, n: int, e_exact: float) -> str | None:
    """Pair correlation from ``same`` equal outcomes of ``n`` against the oracle."""
    e_mc = (2 * same - n) / n
    var = 1.0 - e_exact * e_exact
    if var <= 0.0:
        return None if e_mc == e_exact else f"E = {e_mc} where {e_exact} is certain"
    z = abs(e_mc - e_exact) / math.sqrt(var / n)
    return None if z <= SIGMA_LIMIT else f"E = {e_mc:.6g} is {z:.2f} sigma off {e_exact:.6g}"


def chsh_mc_problem(s_mc: float, n: int, correlations: tuple[float, ...]) -> str | None:
    """Monte Carlo S with ``n`` pairs per term against the four exact terms
    E(a,b), E(a,b'), E(a',b), E(a',b')."""
    e1, e2, e3, e4 = correlations
    s_exact = e1 + e2 + e3 - e4
    sigma = math.sqrt(sum((1.0 - e * e) / n for e in correlations))
    if sigma == 0.0:
        return None if s_mc == s_exact else f"S = {s_mc} where {s_exact} is certain"
    z = abs(s_mc - s_exact) / sigma
    return None if z <= SIGMA_LIMIT else f"S = {s_mc:.6g} is {z:.2f} sigma off {s_exact:.6g}"


def chsh_optimum_problem(eps: float, s_analytic: float) -> str | None:
    """Settings-optimized |S| must equal min(4, 2*sqrt(2)/eps)."""
    expected = 4.0 if eps == 0.0 else min(4.0, 2.0 * math.sqrt(2.0) / eps)
    if abs(abs(s_analytic) - expected) <= CHSH_OPTIMUM_TOL:
        return None
    return f"|S| = {abs(s_analytic)!r} at eps = {eps}, expected {expected!r}"


def counts_problem(counts, reference) -> str | None:
    """Counts of a ``workers=2`` call must equal the ``workers=1`` counts."""
    if list(counts) == list(reference):
        return None
    return f"counts {list(counts)} differ from workers=1 counts {list(reference)}"


def digest_problem(digest: str, reference: str) -> str | None:
    """An output must repeat byte for byte within one invocation."""
    if digest == reference:
        return None
    return f"output sha256 {digest[:12]} differs from first run {reference[:12]}"


def exit_problem(code: int, expected: int) -> str | None:
    if code == expected:
        return None
    return f"exit {code}, expected {expected}"


def criterion_problem(name: str, passed: bool) -> str | None:
    """Every battery criterion passes except 5b, which must still fail."""
    if name == EXPECTED_BATTERY_FAILURE:
        return "PASS, but this check must fail (plateau at 4)" if passed else None
    return None if passed else "FAIL"
