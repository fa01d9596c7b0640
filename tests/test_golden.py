"""Byte-pinned CLI outputs.

Each case runs one ``qmachine`` command line in process and compares its
stdout bytes and exit code with ``tests/data/golden/<name>``.  The files are
written only by an explicit regeneration, from the repository root:

    PYTHONPATH=src python tests/test_golden.py --regenerate [NAME ...]

With names (for example ``climit.json``) only those files are written; with
none, all of them.  An unknown name exits non-zero and writes nothing.
Regenerate only for an intended output change, and list every changed row.
"""

import contextlib
import io
import os
import sys

import pytest

from qmachine.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "data", "golden")

EPS_GRID = ",".join(
    ["0", "0.05", "0.1", "0.15", "0.2", "0.25", "0.3", "0.35", "0.4", "0.45", "0.5",
     "0.55", "0.6", "0.65", "0.7", "0.75", "0.8", "0.85", "0.9", "0.95", "1"]
)
OPTIMAL = ("chsh", "--mode", "analytic", "--optimal", "--epsilon-grid", EPS_GRID)
# 70000 trials are two blocks of the sampler, the second one partial.  The
# d grid takes the "=" form: argparse reads a bare "-0.2" as an option.
SWEEP = (
    "sweep", "--theta-grid", "70,90,110", "--epsilon-grid", "0,0.3,0.5",
    "--d-grid=-0.2,0,0.2", "-n", "70000", "--seed", "7", "--workers", "2",
)
FIXED = ("chsh", "--angles", "0,90,45,315", "--epsilon-grid", "0,0.75,1", "-n", "70000", "--seed", "11")

# (file name, argv, exit code)
CASES = [
    ("chsh_optimal.csv", OPTIMAL, 0),
    ("chsh_optimal.json", OPTIMAL + ("--format", "json"), 0),
    ("sweep.csv", SWEEP, 0),
    ("sweep.json", SWEEP + ("--format", "json"), 0),
    ("chsh_both.csv", FIXED + ("--mode", "both"), 0),
    ("chsh_both.json", FIXED + ("--mode", "both", "--format", "json"), 0),
    ("chsh_mc.csv", FIXED + ("--mode", "mc"), 0),
    ("chsh_mc.json", FIXED + ("--mode", "mc", "--format", "json"), 0),
    ("chsh_analytic_90.csv", ("chsh", "--mode", "analytic", "--angles", "0,90,90,270",
                              "--epsilon-grid", "0,0.5,1"), 0),
    ("climit.json", ("climit", "--eps-values", "1,0.5,0.1,0.01"), 0),
    ("doubleslit.json", ("doubleslit", "--ratio", "1.05"), 0),
    # exit 3: battery line 5b reports FAIL by design
    ("selftest.txt", ("selftest",), 3),
]


def run_case(argv) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(list(argv))
    return rc, out.getvalue().encode()


@pytest.mark.parametrize("name,argv,exit_code", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(name, argv, exit_code):
    rc, stdout = run_case(argv)
    assert rc == exit_code
    with open(os.path.join(GOLDEN_DIR, name), "rb") as fh:
        assert stdout == fh.read()


def test_regenerate_writes_only_the_named_cases(tmp_path, monkeypatch):
    with open(os.path.join(GOLDEN_DIR, "chsh_analytic_90.csv"), "rb") as fh:
        expected = fh.read()
    monkeypatch.setitem(globals(), "GOLDEN_DIR", str(tmp_path))
    regenerate(["chsh_analytic_90.csv"])
    assert os.listdir(tmp_path) == ["chsh_analytic_90.csv"]
    assert (tmp_path / "chsh_analytic_90.csv").read_bytes() == expected


def test_regenerate_with_an_unknown_name_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.setitem(globals(), "GOLDEN_DIR", str(tmp_path))
    with pytest.raises(SystemExit, match="unknown golden case"):
        regenerate(["chsh_analytic_90.csv", "no_such_case.csv"])
    assert os.listdir(tmp_path) == []


def regenerate(names=()) -> None:
    """Rewrite the named golden files, or all of them when none is named."""
    unknown = sorted(set(names) - {c[0] for c in CASES})
    if unknown:
        raise SystemExit(f"unknown golden case(s): {', '.join(unknown)}; nothing written")
    outputs = []
    for name, argv, exit_code in CASES:
        if names and name not in names:
            continue
        rc, stdout = run_case(argv)
        if rc != exit_code:
            raise SystemExit(f"{name}: exit {rc}, expected {exit_code}; nothing written")
        outputs.append((name, stdout))
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, stdout in outputs:
        with open(os.path.join(GOLDEN_DIR, name), "wb") as fh:
            fh.write(stdout)
        print(f"wrote {name} ({len(stdout)} bytes)", file=sys.stderr)


if __name__ == "__main__":
    if sys.argv[1:2] != ["--regenerate"]:
        raise SystemExit(
            f"usage: {sys.argv[0]} --regenerate [NAME ...]  (overwrites files in {GOLDEN_DIR})"
        )
    regenerate(sys.argv[2:])
