"""qmachine benchmark: end-to-end and per-layer metrics for three workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from its
``src/`` directory.  Workloads (see ``bench/RATIONALE.md`` for why each
exists): ``cli-oneshot``, ``mc-bulk``, ``selftest``.

Load comes from this one process, closed loop, one caller at a time.  A
run executes the workload's home phase for about ``--seconds`` and one
cycle of every other phase, checks every output, and prints each metric by
name with its unit and sample count.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics (and the tracing overhead) with ``--trace 1``.  The full result,
the environment record and the spans of a traced run are written to
``bench/.out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import checks
import reference
import workloads as wl
from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = BENCH / ".out"

IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_failed_ratio": "ratio",
    "cli_proc_p50_s": "s",
    "cli_proc_p90_s": "s",
    "spin_trials_per_s": "1/s",
    "pair_trials_per_s": "1/s",
    "recorded_trials_per_s": "1/s",
    "spin_small_calls_per_s": "1/s",
    "spin_w2_trials_per_s": "1/s",
    "pair_w2_trials_per_s": "1/s",
    "selftest_s": "s",
}

_UNIT = re.compile(r"_(ms|us|ns|s|pct)(\.|$)")


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read from its name (``_ms``, ``_ns.eps1``...)."""
    match = _UNIT.search(name)
    if match is None:
        return "count"
    return "%" if match.group(1) == "pct" else match.group(1)


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a failed check)."""


# --- child processes ------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


class Children:
    """Every process the run starts; each is reaped for its peak RSS, and
    any still running when the run stops is killed and waited for."""

    def __init__(self):
        self.env = child_env()
        self.live: set[subprocess.Popen] = set()

    def start(self, argv, stdout, stderr, stdin=subprocess.DEVNULL) -> subprocess.Popen:
        proc = subprocess.Popen(
            argv, stdin=stdin, stdout=stdout, stderr=stderr, env=self.env, cwd=ROOT
        )
        self.live.add(proc)
        proc.watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        proc.watchdog.start()
        return proc

    def reap(self, proc) -> tuple[int, float]:
        """Wait for ``proc``; return its exit code and peak RSS in MB."""
        _, status, usage = os.wait4(proc.pid, 0)
        proc.watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.live.discard(proc)
        return proc.returncode, usage.ru_maxrss / 1024.0

    def stop_all(self):
        for proc in list(self.live):
            proc.kill()
            self.reap(proc)


def reference_process(children: Children) -> float:
    """Wall time of the reference process (see ``reference.py``)."""
    t0 = time.perf_counter()
    proc = children.start(list(reference.PROCESS_ARGV), subprocess.DEVNULL, subprocess.DEVNULL)
    code, _ = children.reap(proc)
    if code != 0:
        raise BenchError(f"reference process exited {code}")
    return time.perf_counter() - t0


def run_worker(children: Children, phase, seed, n_cycles, trace, run_id, tmp):
    """Spawn a measured process; return ((raw, normalized) set-up seconds,
    result, peak RSS MB).  Reference processes bracket the set-up."""
    argv = [
        sys.executable, str(BENCH / "worker.py"), phase, "--seed", str(seed),
        "--cycles", str(n_cycles), "--run-id", run_id, "--tmp", tmp,
    ] + (["--trace"] if trace else [])
    err_path = Path(tmp) / f"{phase}.stderr"
    ref_before = reference_process(children)
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = children.start(argv, subprocess.PIPE, err, stdin=subprocess.PIPE)
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if ready.strip() == b"ready":
            ref_after = reference_process(children)
            proc.stdin.write(b"go\n")
        proc.stdin.close()
        rest = proc.stdout.read()
        proc.stdout.close()
        code, rss_mb = children.reap(proc)
    if ready.strip() != b"ready" or code != 0:
        tail = err_path.read_text(errors="replace")[-2000:]
        raise BenchError(f"worker {phase} exited {code}:\n{tail}")
    norm_s = reference.normalized(setup_s, reference.PROCESS_NOMINAL_S, ref_before, ref_after)
    return (setup_s, norm_s), json.loads(rest), rss_mb


def cli_phase(children: Children, seed, n_cycles, trace, tracer, tmp) -> dict:
    """Fresh ``python -m qmachine`` processes, one at a time, each bracketed
    by reference processes (see ``reference.py``)."""
    out_path = Path(tmp) / "spin-out.json"
    stdout_path = Path(tmp) / "cli.stdout"
    stderr_path = Path(tmp) / "cli.stderr"
    lines = wl.cli_argv(seed, str(out_path))
    procs, cycles = [], []
    ref_s = reference_process(children)
    for k in range(n_cycles):
        tracer.enabled = trace and k % 2 == 1
        t_cycle = time.perf_counter()
        with tracer.span("cycle.cli-oneshot"):
            for argv, expected in lines:
                out_path.unlink(missing_ok=True)
                with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
                    with tracer.span("cli.process"):
                        t0 = time.perf_counter()
                        proc = children.start([sys.executable, "-m", "qmachine", *argv], out, err)
                        code, rss_mb = children.reap(proc)
                        seconds = time.perf_counter() - t0
                ref_before, ref_s = ref_s, reference_process(children)
                written = out_path if "--out" in argv else stdout_path
                output = written.read_bytes() if written.exists() else b""
                procs.append({
                    "label": wl.cli_label(argv), "argv": argv, "expected": expected,
                    "code": code, "raw_s": seconds, "norm_s": reference.normalized(
                        seconds, reference.PROCESS_NOMINAL_S, ref_before, ref_s
                    ),
                    "rss_mb": rss_mb,
                    "output": output.decode(errors="replace"),
                    "digest": hashlib.sha256(output).hexdigest(),
                })
        cycle_procs = procs[-len(lines):]
        cycles.append({
            "raw": {"procs": [p["raw_s"] for p in cycle_procs]},
            "norm": {"procs": [p["norm_s"] for p in cycle_procs]},
            "traced": tracer.enabled,
        })
    return {"procs": procs, "cycles": cycles}


def import_layer(children: Children, tmp) -> dict:
    """Import-time split of ``import qmachine.cli`` from ``-X importtime``."""
    samples = {"import.numpy_ms": [], "import.scipy_optimize_ms": [], "import.qmachine_own_ms": []}
    err_path = Path(tmp) / "importtime.stderr"
    for _ in range(IMPORT_SAMPLES):
        with open(err_path, "wb") as err:
            proc = children.start(
                [sys.executable, "-X", "importtime", "-c", "import qmachine.cli"],
                subprocess.DEVNULL, err,
            )
            code, _ = children.reap(proc)
        if code != 0:
            raise BenchError(f"import qmachine.cli exited {code}")
        cumulative, own_us = {}, 0
        for line in err_path.read_text().splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[0].startswith("import time:"):
                continue
            try:
                self_us, cum_us = int(parts[0].split(":")[1]), int(parts[1])
            except ValueError:
                continue  # the header line
            name = parts[2].strip()
            cumulative.setdefault(name, cum_us)
            if name == "qmachine" or name.startswith("qmachine."):
                own_us += self_us
        samples["import.numpy_ms"].append(cumulative["numpy"] / 1e3)
        samples["import.scipy_optimize_ms"].append(cumulative["scipy.optimize"] / 1e3)
        samples["import.qmachine_own_ms"].append(own_us / 1e3)
    return {name: statistics.median(v) for name, v in samples.items()}


# --- checks -----------------------------------------------------------------------


class Oracle:
    """The program's analytic oracles, cached per setting."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        import qmachine

        if Path(qmachine.__file__).resolve().parent != SRC / "qmachine":
            raise BenchError(f"imported qmachine from {qmachine.__file__}, not from {SRC}")
        self.q = qmachine
        self._cache = {}

    def p1(self, theta_deg: float, eps: float, d: float) -> float:
        key = ("p1", theta_deg, eps, d)
        if key not in self._cache:
            q = self.q
            v = q.Direction.from_spherical(math.radians(theta_deg))
            self._cache[key] = q.epsilon_probabilities(
                v, q.Direction(0.0, 0.0, 1.0), q.ElasticSpec(eps, d)
            ).p1
        return self._cache[key]

    def correlation(self, a_deg: float, b_deg: float, eps: float) -> float:
        key = ("E", a_deg, b_deg, eps)
        if key not in self._cache:
            q = self.q
            self._cache[key] = q.correlation_analytic(
                q.plane_direction(math.radians(a_deg)), q.plane_direction(math.radians(b_deg)),
                q.ElasticSpec(eps, 0.0),
            )
        return self._cache[key]


def spin_row_problem(row, oracle: Oracle):
    theta, eps, d, n, n1 = row[:5]
    return checks.binomial_problem(n1, n, oracle.p1(theta, eps, d))


def pair_row_problem(row, oracle: Oracle):
    b_deg, eps, n, pp, pm, mp, mm = row
    return checks.correlation_problem(pp + mm, n, oracle.correlation(0.0, b_deg, eps))


def check_bulk(cycles, tally: checks.Tally, oracle: Oracle):
    for cycle in cycles:
        for row in cycle["spin"]:
            tally.add("run_trials", [spin_row_problem(row, oracle)])
        for row in cycle["pair"]:
            tally.add("joint_counts", [pair_row_problem(row, oracle)])
        for row in cycle["recorded"]:
            count = None if row[5] == row[3] else f"{row[5]} records for {row[3]} trials"
            tally.add("run_recorded", [spin_row_problem(row, oracle), count])
        for row in cycle["small"]:
            tally.add("run_trials n=1000", [spin_row_problem(row, oracle)])


def check_threads(cycles, reference: dict, tally: checks.Tally, oracle: Oracle):
    """workers=2 counts must equal the workers=1 counts of the same calls."""
    for cycle in cycles:
        for kind, label, row_problem in (
            ("spin", "run_trials workers=2", spin_row_problem),
            ("pair", "joint_counts workers=2", pair_row_problem),
        ):
            for row, ref in zip(cycle[kind], reference[kind]):
                tally.add(label, [row_problem(row, oracle), checks.counts_problem(row, ref)])


def check_selftest(cycles, tally: checks.Tally):
    for cycle in cycles:
        for name, passed in cycle["results"]:
            tally.add(f"criterion {name}", [checks.criterion_problem(name, passed)])


def cli_output_problems(argv, output: str, oracle: Oracle) -> list[str]:
    """Check the rows a successful CLI process printed against the oracles."""
    kind = argv[0]
    try:
        if kind in ("climit", "doubleslit"):
            json.loads(output)
            return []
        if "json" in argv:
            rows = json.loads(output)["rows"]
        else:
            lines = output.splitlines()
            header = lines[0].split(",")
            rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output ({exc})"]
    problems = []
    for row in rows:
        if kind in ("spin", "sweep"):
            n = int(row["n"])
            n1 = round(float(row["freq_o1"]) * n)
            problems.append(spin_row_problem(
                [float(row["theta_deg"]), float(row["epsilon"]), float(row["d"]), n, n1], oracle
            ))
        elif kind == "chsh":
            eps = float(row["epsilon"])
            s_analytic = float(row["S_analytic"])
            if "--optimal" in argv:
                problems.append(checks.chsh_optimum_problem(eps, s_analytic))
            if row["S_mc"] not in ("", None):
                a, a2, b, b2 = (float(row[k]) for k in ("a_deg", "a_prime_deg", "b_deg", "b_prime_deg"))
                terms = tuple(oracle.correlation(x, y, eps) for x, y in ((a, b), (a, b2), (a2, b), (a2, b2)))
                n = int(argv[argv.index("-n") + 1])
                problems.append(checks.chsh_mc_problem(float(row["S_mc"]), n, terms))
    return [p for p in problems if p]


def check_cli(procs, tally: checks.Tally, oracle: Oracle):
    first_digest = {}
    for proc in procs:
        first_digest.setdefault(proc["label"], proc["digest"])
    for proc in procs:
        exit_problem = checks.exit_problem(proc["code"], proc["expected"])
        wrong = [checks.digest_problem(proc["digest"], first_digest[proc["label"]])]
        if proc["code"] == 0 and proc["expected"] == 0:
            wrong += cli_output_problems(proc["argv"], proc["output"], oracle)
        tally.add(proc["label"], wrong, exit_problem)


# --- metrics ----------------------------------------------------------------------


def _untraced(cycles):
    return [c for c in cycles if not c["traced"]] or cycles


def _robust_seconds(cycles, family: str, clock: str) -> float:
    """Time of one cycle's ``family`` blocks, robust to bursts of load.

    Blocks of one key repeat the same work (the same band, the same
    criterion), so each key contributes its blocks per cycle times the
    median of its samples pooled over the untraced cycles.
    """
    cycles = _untraced(cycles)
    pooled = {}
    for c in cycles:
        for key, samples in c[clock].items():
            if key == family or key.startswith(family + "."):
                pooled.setdefault(key, []).extend(samples)
    return sum(len(s) / len(cycles) * statistics.median(s) for s in pooled.values())


def end_to_end_metrics(setup, rss, cli, bulk, threads, selftest, tally) -> dict:
    """Every end-to-end metric as (normalized value, unit, samples, raw value).

    Timings are medians over samples; the raw value is the same figure
    without the reference scaling of ``reference.py``.
    """
    spin_trials = len(wl.SPIN_BANDS) * len(wl.SPIN_THETAS_DEG) * wl.BULK_N
    pair_trials = len(wl.PAIR_EPSILONS) * len(wl.PAIR_B_DEG) * wl.BULK_N

    def timings(clock: str) -> dict:
        proc_s = [p[f"{clock}_s"] for p in cli["procs"]]
        setup_s = [s[0 if clock == "raw" else 1] for s in setup]
        return {
            "setup_s": statistics.median(setup_s),
            "cli_proc_p50_s": statistics.median(proc_s),
            "cli_proc_p90_s": statistics.quantiles(proc_s, n=10, method="inclusive")[8],
            "spin_trials_per_s": spin_trials / _robust_seconds(bulk, "spin", clock),
            "pair_trials_per_s": pair_trials / _robust_seconds(bulk, "pair", clock),
            "recorded_trials_per_s": wl.RECORDED_CALLS * wl.RECORDED_N
            / _robust_seconds(bulk, "recorded", clock),
            "spin_small_calls_per_s": wl.SMALL_CALLS / _robust_seconds(bulk, "small", clock),
            "spin_w2_trials_per_s": spin_trials / _robust_seconds(threads, "spin", clock),
            "pair_w2_trials_per_s": pair_trials / _robust_seconds(threads, "pair", clock),
            "selftest_s": _robust_seconds(selftest, "pass", clock),
        }

    norm, raw = timings("norm"), timings("raw")
    samples = {
        "setup_s": len(setup),
        "cli_proc_p50_s": len(cli["procs"]),
        "cli_proc_p90_s": len(cli["procs"]),
        "spin_w2_trials_per_s": len(threads),
        "pair_w2_trials_per_s": len(threads),
        "selftest_s": len(selftest),
    }
    metrics = {
        "peak_rss_mb": (rss, END_TO_END["peak_rss_mb"], 1, rss),
        "ops_failed_ratio": (tally.failed_ratio, "ratio", tally.attempted, tally.failed_ratio),
    }
    for name, value in norm.items():
        metrics[name] = (value, END_TO_END[name], samples.get(name, len(bulk)), raw[name])
    return {name: metrics[name] for name in END_TO_END}


def tracing_overhead_pct(cycles) -> float:
    """Traced against untraced cycles of the home phase, same inputs."""
    def total(c):
        return sum(sum(samples) for samples in c["norm"].values())

    traced = [total(c) for c in cycles if c["traced"]]
    plain = [total(c) for c in cycles if not c["traced"]]
    return 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)


# --- environment ------------------------------------------------------------------


def _git(*args) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, env=env, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(workload: str, seed: int, trace: bool) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if commit else None

    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": commit,
        "git_dirty": None if status is None else bool(status),
        "cpu_control": "none: no CPU pinning or frequency control is available on this "
                       "host, so every figure carries that noise",
    }


# --- one run ----------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run_id = f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    env = environment(workload, seed, trace)
    env["loadavg_before"] = os.getloadavg()
    oracle = Oracle()  # also warms the file cache and bytecode before timing
    children = Children()
    tracer = Tracer(run_id, "run", enabled=False)
    tally = checks.Tally()
    OUT_DIR.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=BENCH, prefix=".run-") as tmp:
            setup, phases, rss = [], {}, {}
            for phase in wl.WORKER_PHASES:
                t0 = time.perf_counter()
                s, phases[phase], rss[phase] = run_worker(
                    children, phase, seed, wl.cycles(phase, workload, seconds),
                    trace and phase == workload, run_id, tmp,
                )
                env[f"wall_s.{phase}"] = time.perf_counter() - t0
                setup.append(s)
            t0 = time.perf_counter()
            cli = cli_phase(
                children, seed, wl.cycles("cli-oneshot", workload, seconds),
                trace and workload == "cli-oneshot", tracer, tmp,
            )
            env["wall_s.cli-oneshot"] = time.perf_counter() - t0
            rss["cli-oneshot"] = max(p["rss_mb"] for p in cli["procs"])
            layer = None
            if trace:
                layer = run_worker(children, "layers", seed, 1, True, run_id, tmp)[1]
                layer["metrics"].update(import_layer(children, tmp))
    finally:
        children.stop_all()
    env["loadavg_after"] = os.getloadavg()

    bulk = phases["mc-bulk"]["cycles"]
    threads = phases["mc-threads"]["cycles"]
    selftest = phases["selftest"]["cycles"]
    check_cli(cli["procs"], tally, oracle)
    check_bulk(bulk, tally, oracle)
    check_threads(threads, bulk[0], tally, oracle)
    check_selftest(selftest, tally)

    result = {"run_id": run_id, "environment": env, "failures": tally.failures}
    if trace:
        home = cli if workload == "cli-oneshot" else phases[workload]
        layer_metrics = dict(layer["metrics"])
        layer_metrics["trace.overhead_pct"] = tracing_overhead_pct(home["cycles"])
        metrics = {k: (v, layer_unit(k), None, None) for k, v in sorted(layer_metrics.items())}
        spans = tracer.export() + layer["spans"] + [s for p in phases.values() for s in p["spans"]]
        with open(OUT_DIR / f"{run_id}.spans.json", "w") as fh:
            json.dump(spans, fh)
    else:
        metrics = end_to_end_metrics(setup, rss[workload], cli, bulk, threads, selftest, tally)
    result["metrics"] = {
        k: {"value": v, "unit": u, "samples": n, "raw": r} for k, (v, u, n, r) in metrics.items()
    }
    result["summary"] = {
        "correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _, _) in metrics.items()},
    }
    with open(OUT_DIR / f"{run_id}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def report(workload: str, result: dict) -> None:
    summary = result["summary"]
    print(f"== {workload}: {summary['attempted']} operations, {summary['failed']} failed, "
          f"outputs {'correct' if summary['correct'] else 'WRONG'}")
    for failure in result["failures"]:
        print(f"   failed: {failure}")
    for name, m in result["metrics"].items():
        if m["samples"] is not None:
            note = f"n={m['samples']}, raw {m['raw']:.6g}"
        else:
            note = "computed" if m["unit"] == "count" else "median of repeats, raw"
        print(f"   {name:40s} {m['value']:>14.6g} {m['unit']:6s} ({note})")
    print("   environment: " + json.dumps(result["environment"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # so that a terminated run still stops its children (``finally`` below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "qmachine" / "__init__.py").is_file():
        print(f"bench: no qmachine package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            report(name, results[name])
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps({name: r["summary"] for name, r in results.items()}))
    else:
        print(json.dumps(results[args.workload]["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
