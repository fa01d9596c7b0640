"""Tests of the benchmark's own checker and of its output contract.

    PYTHONPATH=src python -m pytest -q bench/test_checks.py

The first group feeds fabricated outputs to the checks and shows that each
kind of bad output is counted as a failure.  The last two run the
benchmark end to end on a short budget (about a minute together).
"""

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import workloads as wl

BENCH = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def oracle():
    return run.Oracle()


def _spin_row(oracle, theta, eps, d, n, sigmas=0.0):
    p1 = oracle.p1(theta, eps, d)
    return [theta, eps, d, n, round((p1 + sigmas * math.sqrt(p1 * (1 - p1) / n)) * n)]


def _pair_row(oracle, b_deg, eps, n):
    e = oracle.correlation(0.0, b_deg, eps)
    same = round((1 + e) / 2 * n)
    return [b_deg, eps, n, same // 2, (n - same) // 2, (n - same) - (n - same) // 2, same - same // 2]


def _bulk_cycle(oracle):
    """A cycle whose every count sits on its oracle's expectation."""
    return {
        "spin": [_spin_row(oracle, t, e, d, wl.BULK_N) for _, t, e, d, _ in wl.mc_inputs(0)["spin"]],
        "pair": [_pair_row(oracle, b, e, wl.BULK_N) for _, b, e, _ in wl.mc_inputs(0)["pair"]],
        "recorded": [_spin_row(oracle, 60.0, 1.0, 0.0, wl.RECORDED_N) + [wl.RECORDED_N]],
        "small": [_spin_row(oracle, 30.0, 1.0, 0.0, wl.SMALL_N)],
    }


def _proc(argv, code=0, expected=0, output="{}"):
    return {
        "label": "cli " + " ".join(argv), "argv": argv, "expected": expected, "code": code,
        "output": output, "digest": hashlib.sha256(output.encode()).hexdigest(),
    }


def test_binomial_check_accepts_4_sigma_and_rejects_6_sigma(oracle):
    row4 = _spin_row(oracle, 60.0, 1.0, 0.0, wl.BULK_N, sigmas=4.0)
    row6 = _spin_row(oracle, 60.0, 1.0, 0.0, wl.BULK_N, sigmas=6.0)
    assert run.spin_row_problem(row4, oracle) is None
    assert "sigma" in run.spin_row_problem(row6, oracle)


def test_clean_bulk_cycle_has_no_failure(oracle):
    tally = checks.Tally()
    run.check_bulk([_bulk_cycle(oracle)], tally, oracle)
    assert tally.attempted == 21 + 8 + 1 + 1
    assert tally.failed == 0 and tally.correct


def test_count_6_sigma_off_is_a_failure(oracle):
    cycle = _bulk_cycle(oracle)
    cycle["spin"][1] = _spin_row(oracle, *cycle["spin"][1][:4], sigmas=-6.0)
    tally = checks.Tally()
    run.check_bulk([cycle], tally, oracle)
    assert tally.failed == 1 and not tally.correct
    assert "sigma" in tally.failures[0]


def test_certain_outcome_must_be_exact(oracle):
    # theta = 0 with the full band: every trial is O1
    assert run.spin_row_problem([0.0, 1.0, 0.0, 1000, 1000], oracle) is None
    assert run.spin_row_problem([0.0, 1.0, 0.0, 1000, 999], oracle) is not None


def test_workers2_count_differing_from_workers1_is_a_failure(oracle):
    reference = _bulk_cycle(oracle)
    threads = {"spin": [list(r) for r in reference["spin"]], "pair": [list(r) for r in reference["pair"]]}
    tally = checks.Tally()
    run.check_threads([threads], reference, tally, oracle)
    assert tally.failed == 0
    threads["pair"][0][3] += 1  # one pair moves from (O1, O2) to (O1, O1)
    threads["pair"][0][4] -= 1
    tally = checks.Tally()
    run.check_threads([threads], reference, tally, oracle)
    assert tally.failed == 1 and not tally.correct
    assert "workers=1" in tally.failures[0]


def test_mismatched_output_digest_is_a_failure(oracle):
    argv = ["climit", "--eps-values", "1"]
    procs = [_proc(argv, output='{"a": 1}'), _proc(argv, output='{"a": 1}'), _proc(argv, output='{"a": 2}')]
    tally = checks.Tally()
    run.check_cli(procs, tally, oracle)
    assert tally.attempted == 3 and tally.failed == 1 and not tally.correct
    assert "sha256" in tally.failures[0]


def test_unexpected_exit_code_is_a_failure(oracle):
    tally = checks.Tally()
    run.check_cli([_proc(["spin", "--theta-deg", "nan"], code=1, expected=2, output="")], tally, oracle)
    assert tally.failed == 1
    assert tally.failures == ["cli spin --theta-deg nan: exit 1, expected 2"]
    # a crash is a failed operation, not a wrong output
    assert tally.correct
    tally = checks.Tally()
    run.check_cli([_proc(["spin", "--epsilon", "2"], code=2, expected=2, output="")], tally, oracle)
    assert tally.failed == 0


def test_wrong_cli_rows_are_failures(oracle):
    header = "theta_deg,epsilon,d,n,seed,freq_o1,analytic_p1,stderr,chi2"
    good = f"{header}\n60,1,0,1000,1,0.75,0.75,0.01,0\n"
    bad = f"{header}\n60,1,0,1000,1,0.95,0.75,0.01,0\n"
    assert run.cli_output_problems(["spin", "-n", "1000"], good, oracle) == []
    assert run.cli_output_problems(["spin", "-n", "1000"], bad, oracle)
    chsh = "epsilon,a_deg,a_prime_deg,b_deg,b_prime_deg,S_analytic,S_mc,stderr\n0.5,0,60,0,300,-3.9,,\n"
    assert run.cli_output_problems(["chsh", "--optimal"], chsh, oracle)


def test_unexpected_5b_pass_is_a_failure():
    names = list(wl.CRITERIA)
    clean = [[n, n != checks.EXPECTED_BATTERY_FAILURE] for n in names]
    tally = checks.Tally()
    run.check_selftest([{"results": clean}], tally)
    assert tally.attempted == 13 and tally.failed == 0
    all_pass = [[n, True] for n in names]
    tally = checks.Tally()
    run.check_selftest([{"results": all_pass}], tally)
    assert tally.failed == 1 and not tally.correct
    assert checks.EXPECTED_BATTERY_FAILURE in tally.failures[0]


def _run_bench(workload: str, trace: int) -> tuple[dict, list[str]]:
    """Last-line result and the failures the run printed."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    failures = [l.split("failed: ", 1)[1] for l in lines if l.startswith("   failed: ")]
    return json.loads(lines[-1]), failures


def _declared(kind: str) -> dict:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_clean_run_fails_only_on_known_baseline_failures():
    result, failures = _run_bench("selftest", 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]
    assert set(failures) <= set(checks.KNOWN_BASELINE_FAILURES)
    assert result["failed"] == len(failures)  # one CLI cycle: each at most once
    ratio = result["metrics"]["ops_failed_ratio"]["value"]
    assert ratio == len(failures) / result["attempted"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("end_to_end")


def test_traced_run_reports_every_per_layer_metric():
    result, failures = _run_bench("selftest", 1)
    assert result["correct"]
    assert set(failures) <= set(checks.KNOWN_BASELINE_FAILURES)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("per_layer")
