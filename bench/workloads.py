"""The benchmark's workloads and every input they feed the program.

All inputs come from the workload seed through ``random.Random``, so one
seed always gives the same inputs, in the parent process and in the
measured worker processes alike.

Each workload is a *home phase* that runs for the requested seconds plus
one cycle of every other phase.  Every run therefore reports every
end-to-end metric, while the home phase's metrics carry most samples.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("cli-oneshot", "mc-bulk", "selftest")

# The in-process phases, in the order a run executes them.  ``mc-bulk``
# runs before ``mc-threads`` because its counts are the workers=1 reference.
# ``mc-threads`` is a phase of every run but not a workload of its own:
# its two cycles per run were as steady as a run built around it.
WORKER_PHASES = ("mc-bulk", "mc-threads", "selftest")

# Wall time of one cycle of each phase, reference work included, on the
# 2-core Xeon box at the commit that added the benchmark.  A run does
# ceil(seconds / nominal) cycles of its home phase, but at least two: the
# repeat is what the output-digest check compares, and a traced run pairs
# an untraced with a traced cycle.  So every run of a workload does the
# same work on every commit, and a faster program finishes sooner instead
# of doing more.
NOMINAL_CYCLE_S = {
    "cli-oneshot": 9.5,
    "mc-bulk": 3.6,
    "selftest": 1.4,
}
MIN_HOME_CYCLES = 2
# Cycles of a phase that is not the run's home phase.  Two give the
# in-process phases a steadier median; a CLI cycle (~9 s) costs too much
# to repeat in every run.
PROBE_CYCLES = {"cli-oneshot": 1, "mc-bulk": 2, "mc-threads": 2, "selftest": 2}


def cycles(phase: str, home: str, seconds: float) -> int:
    """Cycles of ``phase`` in a run of workload ``home``."""
    if phase != home:
        return PROBE_CYCLES[phase]
    return max(MIN_HOME_CYCLES, math.ceil(seconds / NOMINAL_CYCLE_S[phase]))


# --- cli-oneshot -----------------------------------------------------------

OUT_PLACEHOLDER = "{out}"

# (arguments, expected exit code).  The two bad inputs must exit 2 by the
# documented contract; ``--theta-deg nan`` exits 1 with a traceback at the
# commit that added the benchmark and is kept so that the defect shows.
CLI_COMMANDS = (
    (("spin", "-n", "1000"), 0),
    (("spin", "-n", "1000", "--epsilon", "0.5", "--d", "0.2", "--format", "json",
      "--out", OUT_PLACEHOLDER), 0),
    (("sweep", "--theta-grid", "0,45,90,135,180", "--epsilon-grid", "1,0.5,0",
      "-n", "10000"), 0),
    (("chsh", "--mode", "analytic", "--optimal", "--epsilon-grid", "0,0.25,0.5,0.75,1"), 0),
    (("chsh", "--mode", "both", "-n", "100000"), 0),
    (("climit", "--eps-values", "1,0.5,0.1,0.01"), 0),
    (("doubleslit", "--ratio", "1.05", "--eps-values", "0.9,0.5,0.1,0.01,0.001"), 0),
    (("spin", "--epsilon", "2"), 2),
    (("spin", "--theta-deg", "nan"), 2),
)


def cli_argv(seed: int, out_path: str) -> list[tuple[list[str], int]]:
    """Every command line with its own ``--seed``, and its expected exit."""
    rng = random.Random(f"cli:{seed}")
    lines = []
    for args, expected in CLI_COMMANDS:
        argv = [out_path if a == OUT_PLACEHOLDER else a for a in args]
        lines.append((argv + ["--seed", str(rng.randrange(2**31))], expected))
    return lines


def cli_label(argv: list[str]) -> str:
    """Command line without its seed and temp path, stable across runs."""
    shown = [a for a in argv[: argv.index("--seed")]]
    if "--out" in shown:
        shown[shown.index("--out") + 1] = "OUT"
    return "cli " + " ".join(shown)


# --- mc-bulk and mc-threads --------------------------------------------------

BULK_N = 4_000_000
SPIN_THETAS_DEG = tuple(range(0, 181, 30))
# (label, epsilon, d)
SPIN_BANDS = (("eps1", 1.0, 0.0), ("band", 0.5, 0.2), ("eps0", 0.0, 0.0))
PAIR_B_DEG = (45.0, 135.0, 225.0, 315.0)
# At eps = 0 every source trial takes the tie-coin path.
PAIR_EPSILONS = (("eps1", 1.0), ("eps0", 0.0))
RECORDED_N = 200_000
# several calls a cycle: one 0.4 s call is too few samples for a steady median
RECORDED_CALLS = 3
RECORDED_THETA_DEG = 60.0
SMALL_N = 1000
SMALL_CALLS = 400
SMALL_GROUP = 20


def mc_inputs(seed: int) -> dict:
    """Seeds and settings of every Monte Carlo call of one run.

    The same list is repeated in every cycle, so repeats are comparable and
    ``mc-threads`` can check each count against the ``mc-bulk`` count of
    the same call.
    """
    rng = random.Random(f"mc:{seed}")

    def draw() -> int:
        return rng.randrange(2**32)

    return {
        "spin": [
            (label, theta, eps, d, draw())
            for label, eps, d in SPIN_BANDS
            for theta in SPIN_THETAS_DEG
        ],
        "pair": [(label, b, eps, draw()) for label, eps in PAIR_EPSILONS for b in PAIR_B_DEG],
        "recorded": [(RECORDED_THETA_DEG, 1.0, 0.0, draw()) for _ in range(RECORDED_CALLS)],
        "small": [
            (SPIN_THETAS_DEG[k % len(SPIN_THETAS_DEG)], 1.0, 0.0, draw())
            for k in range(SMALL_CALLS)
        ],
    }


# --- per-layer metrics ------------------------------------------------------

CRITERIA = (
    "1-spin-frequencies",
    "2-piecewise-band",
    "3-hilbert-correspondence",
    "4-chsh-quantum",
    "5a-chsh-classical-max",
    "5b-chsh-intermediate-interval",
    "5c-chsh-monotone",
    "6-no-signaling",
    "7-severed-rod-bound",
    "8-localization-transform",
    "9-double-slit",
    "10-nonlinearity",
    "11-determinism",
)
