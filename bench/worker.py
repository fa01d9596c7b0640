"""One measured process of the benchmark.

    python3 bench/worker.py PHASE --seed N --cycles K --run-id ID [--trace]
        [--tmp DIR]

Imports qmachine, makes one warm-up call and prints ``ready``; the parent
times set-up from spawn to that line, then runs its reference process and
writes a line to standard input.  Then the worker runs PHASE and prints one
JSON line: per-cycle timings, the raw outputs the parent checks, and the
recorded spans.  PHASE is ``mc-bulk``, ``mc-threads``, ``selftest`` or
``layers`` (the per-layer suite).

With ``--trace`` the home phase traces every second cycle, so traced and
untraced cycles of the same inputs give the tracing overhead.  Timed
blocks enclose their spans, so traced cycles carry the span cost.  Timings
never include the checks, which the parent runs on the returned outputs.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import statistics
import sys
import time

import workloads as wl
from reference import Clock, kernel_seconds
from spans import Tracer


def set_up():
    import qmachine  # noqa: F401  (package import is part of set-up)
    import qmachine.acceptance  # noqa: F401
    import qmachine.cli  # noqa: F401
    from qmachine import Direction, ElasticSpec, run_trials

    run_trials(Direction(0.0, 0.0, 1.0), Direction(0.0, 0.0, 1.0), ElasticSpec(1.0, 0.0), 1000, 0)


def _direction(theta_deg: float):
    from qmachine import Direction

    return Direction.from_spherical(math.radians(theta_deg))


def _large_calls(inputs: dict, workers: int, tracer: Tracer, clock: Clock) -> dict:
    """The n = 4e6 run_trials and joint_counts calls of one cycle."""
    from qmachine import Direction, ElasticSpec, Outcome, joint_counts, plane_direction, run_trials

    u = Direction(0.0, 0.0, 1.0)
    spin = []
    for label, theta, eps, d, seed in inputs["spin"]:
        v, elastic = _direction(theta), ElasticSpec(eps, d)
        with clock(f"spin.{label}"), tracer.span("sampler.run_trials"):
            table = run_trials(v, u, elastic, wl.BULK_N, seed, workers=workers)
        spin.append([theta, eps, d, wl.BULK_N, table.n_o1])
    pair = []
    a = plane_direction(0.0)
    for label, b_deg, eps, seed in inputs["pair"]:
        b, elastic = plane_direction(math.radians(b_deg)), ElasticSpec(eps, 0.0)
        with clock(f"pair.{label}"), tracer.span("epr.joint_counts"):
            c = joint_counts(a, b, elastic, wl.BULK_N, seed, workers=workers)
        pair.append([b_deg, eps, wl.BULK_N] + [
            c[(x, y)] for x in (Outcome.O1, Outcome.O2) for y in (Outcome.O1, Outcome.O2)
        ])
    return {"spin": spin, "pair": pair}


def _bulk_cycle(inputs: dict, tracer: Tracer, clock: Clock) -> dict:
    from qmachine import Direction, ElasticSpec, Outcome, run_recorded, run_trials

    out = _large_calls(inputs, 1, tracer, clock)
    u = Direction(0.0, 0.0, 1.0)
    out["recorded"] = []
    for theta, eps, d, seed in inputs["recorded"]:
        v, elastic = _direction(theta), ElasticSpec(eps, d)
        with clock("recorded"), tracer.span("sampler.run_recorded"):
            records = run_recorded(v, u, elastic, wl.RECORDED_N, seed)
        n1 = sum(1 for r in records if r.outcome is Outcome.O1)
        out["recorded"].append([theta, eps, d, wl.RECORDED_N, n1, len(records)])
        del records
    calls = [(_direction(t), ElasticSpec(e, dd), s) for t, e, dd, s in inputs["small"]]
    tables = []
    # timed in groups, each bracketed by reference work of similar length
    for start in range(0, len(calls), wl.SMALL_GROUP):
        with clock("small"):
            for v, elastic, seed in calls[start : start + wl.SMALL_GROUP]:
                with tracer.span("sampler.run_trials.small"):
                    tables.append(run_trials(v, u, elastic, wl.SMALL_N, seed))
    out["small"] = [
        [theta, eps, d, wl.SMALL_N, table.n_o1]
        for (theta, eps, d, _), table in zip(inputs["small"], tables)
    ]
    return out


def _selftest_cycle(tracer: Tracer, clock: Clock) -> dict:
    from qmachine.acceptance import ALL_CRITERIA

    results = []
    for criterion in ALL_CRITERIA:
        with clock(f"pass.{criterion.__name__}"), tracer.span("acceptance") as span:
            result = criterion()
            span.name = f"acceptance.{result.name}"
        results.append([result.name, result.passed])
    return {"results": results}


WARM_UP_S = 0.3


def _warm_up(phase: str):
    """Untimed calls of each large kind a phase makes, for WARM_UP_S at least.

    The first large calls of a process pay for growing the heap and, at
    workers=2, ran up to twice as slow on the reference box; a long-lived
    caller pays that once.
    """
    from qmachine import ElasticSpec, joint_counts, plane_direction, run_recorded, run_trials
    from qmachine.acceptance import criterion_1_spin_frequencies

    v, u, eps1 = _direction(60.0), _direction(0.0), ElasticSpec(1.0, 0.0)
    workers = 2 if phase == "mc-threads" else 1
    a, b = plane_direction(0.0), plane_direction(1.0)
    clock = Clock()  # interleaved with reference work, as in a measured cycle
    start = time.perf_counter()
    while time.perf_counter() - start < WARM_UP_S:
        with clock("warm-up"):
            if phase == "selftest":
                criterion_1_spin_frequencies()
                continue
            run_trials(v, u, eps1, wl.BULK_N, 0, workers=workers)
        with clock("warm-up"):
            joint_counts(a, b, eps1, wl.BULK_N, 0, workers=workers)
        if phase == "mc-bulk":
            with clock("warm-up"):
                run_recorded(v, u, eps1, wl.RECORDED_N, 0)


def run_phase(phase: str, seed: int, n_cycles: int, trace: bool, tracer: Tracer) -> list[dict]:
    """Run ``n_cycles`` cycles; each reports its outputs and, per timed key,
    the raw and normalized seconds of every sample (see ``reference.py``)."""
    inputs = wl.mc_inputs(seed)
    cycle = {
        "mc-bulk": lambda clock: _bulk_cycle(inputs, tracer, clock),
        "mc-threads": lambda clock: _large_calls(inputs, 2, tracer, clock),
        "selftest": lambda clock: _selftest_cycle(tracer, clock),
    }[phase]
    _warm_up(phase)
    out = []
    for k in range(n_cycles):
        tracer.enabled = trace and k % 2 == 1
        clock = Clock()
        with tracer.span(f"cycle.{phase}"):
            result = cycle(clock)
        result.update(raw=clock.raw, norm=clock.norm, traced=tracer.enabled)
        out.append(result)
    return out


def layers(seed: int, tmp: str, tracer: Tracer) -> dict:
    """Per-layer suite: time calls into each module's public functions.

    Each call sits in a span named after its metric; a metric is the median
    span duration over its repeats, scaled to its unit.  Derived self times
    subtract the separately measured parts a call is made of.
    """
    from qmachine import (
        ChshSetting, Direction, ElasticSpec, ExperimentConfig, RandomStream,
        born_probabilities, chsh_estimate, double_slit_scenario, epsilon_probabilities,
        epsilon_transform, gaussian_grid, joint_counts, max_chsh, plane_direction,
        run, run_recorded, run_trials, severed_chsh_scan, spinor_from_direction,
    )
    from qmachine.acceptance import ALL_CRITERIA
    from qmachine.cli import build_parser, config_from_args
    from qmachine.sampler import BLOCK_SIZE

    rng = random.Random(f"layers:{seed}")

    def draw() -> int:
        return rng.randrange(2**32)

    def timed(name: str, reps: int, fn) -> float:
        for _ in range(reps):
            with tracer.span(name):
                fn()
        return tracer.median(name)

    u = Direction(0.0, 0.0, 1.0)
    v = _direction(60.0)
    n = wl.BULK_N
    substreams = math.ceil(n / BLOCK_SIZE)
    m = {}

    argvs = [argv for argv, _ in wl.cli_argv(seed, os.path.join(tmp, "parse.json"))]
    m["cli.parse_ms"] = 1e3 / len(argvs) * timed(
        "cli.parse", 20, lambda: [config_from_args(build_parser().parse_args(a)) for a in argvs]
    )

    out = os.path.join(tmp, "layers-spin.csv")
    config = ExperimentConfig(kind="spin", trials=1000, seed=draw(), out=out)
    run_s = timed("harness.run.spin", 50, lambda: run(config))
    eps1 = ElasticSpec(1.0, 0.0)
    inner_s = timed(
        "harness.inner.spin", 50,
        lambda: (run_trials(v, u, eps1, 1000, config.seed), epsilon_probabilities(v, u, eps1)),
    )
    m["harness.spin_run_ms"] = 1e3 * run_s
    m["harness.overhead_ms"] = 1e3 * (run_s - inner_s)

    root = RandomStream(draw())
    index = itertools.count()
    substream_s = timed("sampler.substream", 500, lambda: root.substream(next(index)))
    block = root.substream(0)
    draw_s = timed("sampler.draw", 100, lambda: block.uniform(-1.0, 1.0, BLOCK_SIZE)) / BLOCK_SIZE
    m["sampler.substream_us"] = 1e6 * substream_s
    m["sampler.draw_ns"] = 1e9 * draw_s
    share_s = substream_s * substreams / n

    for label, eps, d in wl.SPIN_BANDS:
        elastic = ElasticSpec(eps, d)
        per = timed(f"sampler.run_trials.{label}", 5, lambda: run_trials(v, u, elastic, n, draw())) / n
        m[f"sampler.run_trials_ns.{label}"] = 1e9 * per
    m["sampler.resolve_ns.eps1"] = m["sampler.run_trials_ns.eps1"] - 1e9 * (draw_s + share_s)
    m["sampler.run_trials_w2_ns.eps1"] = 1e9 / n * timed(
        "sampler.run_trials_w2.eps1", 5, lambda: run_trials(v, u, eps1, n, draw(), workers=2)
    )
    m["sampler.small_call_us"] = 1e6 * timed(
        "sampler.small_call", 200, lambda: run_trials(v, u, eps1, wl.SMALL_N, draw())
    )
    m["sampler.run_recorded_ns"] = 1e9 / wl.RECORDED_N * timed(
        "sampler.run_recorded", 3, lambda: run_recorded(v, u, eps1, wl.RECORDED_N, draw())
    )
    m["sampler.trials"] = n
    m["sampler.substreams"] = substreams

    a, b = plane_direction(0.0), plane_direction(math.radians(45.0))
    for label, eps in wl.PAIR_EPSILONS:
        elastic = ElasticSpec(eps, 0.0)
        m[f"epr.joint_counts_ns.{label}"] = 1e9 / n * timed(
            f"epr.joint_counts.{label}", 3, lambda: joint_counts(a, b, elastic, n, draw())
        )
    m["epr.joint_resolve_ns.eps1"] = m["epr.joint_counts_ns.eps1"] - 1e9 * (2 * draw_s + share_s)
    m["epr.joint_counts_w2_ns.eps1"] = 1e9 / n * timed(
        "epr.joint_counts_w2.eps1", 3, lambda: joint_counts(a, b, eps1, n, draw(), workers=2)
    )
    for label, eps in (("eps1", 1.0), ("eps05", 0.5), ("eps0", 0.0)):
        elastic = ElasticSpec(eps, 0.0)
        m[f"epr.max_chsh_ms.{label}"] = 1e3 * timed(
            f"epr.max_chsh.{label}", 5, lambda: max_chsh(elastic, 1.0)
        )
    setting = ChshSetting.from_plane_degrees(0.0, 90.0, 225.0, 135.0)
    m["epr.chsh_estimate_ms"] = 1e3 * timed(
        "epr.chsh_estimate", 3, lambda: chsh_estimate(setting, eps1, 1_000_000, draw())
    )
    m["epr.severed_chsh_scan_ms"] = 1e3 * timed(
        "epr.severed_chsh_scan", 3, lambda: severed_chsh_scan(eps1, 8, 100_000, draw())
    )

    grid = gaussian_grid(2001)
    m["climit.epsilon_transform_us"] = 1e6 * timed(
        "climit.epsilon_transform", 50, lambda: epsilon_transform(grid, 0.01)
    )
    m["climit.double_slit_scenario_ms"] = 1e3 * timed(
        "climit.double_slit_scenario", 10,
        lambda: double_slit_scenario(1.05, (0.9, 0.5, 0.1, 0.01, 0.001)),
    )

    band = ElasticSpec(0.5, 0.2)
    m["analytic.epsilon_probabilities_us"] = 1e6 * timed(
        "analytic.epsilon_probabilities", 2000, lambda: epsilon_probabilities(v, u, band)
    )
    spinor = spinor_from_direction(v)
    m["analytic.born_probabilities_us"] = 1e6 * timed(
        "analytic.born_probabilities", 2000, lambda: born_probabilities(spinor, u)
    )

    for _ in range(2):
        for criterion in ALL_CRITERIA:
            with tracer.span("acceptance") as span:
                result = criterion()
                span.name = f"acceptance.{result.name}"
    for name in wl.CRITERIA:
        m[f"acceptance.{name}_s"] = tracer.median(f"acceptance.{name}")
    # The machine's speed while the suite ran: per-layer figures are raw.
    m["reference.kernel_ms"] = 1e3 * statistics.median(kernel_seconds() for _ in range(5))
    return m


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("phase", choices=wl.WORKER_PHASES + ("layers",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cycles", type=int, default=1)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tmp", default=None)
    args = parser.parse_args()

    set_up()
    print("ready", flush=True)
    sys.stdin.readline()  # the parent times its reference process meanwhile

    tracer = Tracer(args.run_id, args.phase, enabled=args.phase == "layers")
    result: dict = {"phase": args.phase}
    if args.phase == "layers":
        result["metrics"] = layers(args.seed, args.tmp, tracer)
    else:
        result["cycles"] = run_phase(args.phase, args.seed, args.cycles, args.trace, tracer)
    result["spans"] = tracer.export()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
