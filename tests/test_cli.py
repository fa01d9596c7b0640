import json
import math
import os
import subprocess
import sys

import pytest

from qmachine.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_spin.csv")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(*args):
    return main(list(args))


class TestSpinCommand:
    def test_matches_golden_file(self, tmp_path):
        out = tmp_path / "spin.csv"
        rc = run_cli(
            "spin", "--theta-deg", "60", "--epsilon", "1", "--d", "0",
            "-n", "10000", "--seed", "42", "--out", str(out),
        )
        assert rc == 0
        with open(GOLDEN, "rb") as fh:
            assert out.read_bytes() == fh.read()

    def test_byte_identical_across_worker_counts(self, tmp_path):
        outputs = []
        for name, workers in (("a", "1"), ("b", "8"), ("c", "1")):
            out = tmp_path / f"{name}.csv"
            rc = run_cli(
                "spin", "--theta-deg", "47.5", "--epsilon", "0.6", "--d", "0.1",
                "-n", "300000", "--seed", "11", "--workers", workers, "--out", str(out),
            )
            assert rc == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_stdout_output(self, capsys):
        rc = run_cli("spin", "-n", "2000", "--seed", "1")
        assert rc == 0
        assert capsys.readouterr().out.startswith("theta_deg,")


class TestConfigFile:
    def test_config_file_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theta_deg": 90.0, "trials": 5000, "seed": 3}))
        out = tmp_path / "out.csv"
        rc = run_cli("spin", "--config", str(cfg), "--out", str(out))
        assert rc == 0
        assert ",90," not in out.read_text()  # theta is first column
        assert out.read_text().splitlines()[1].startswith("90,")

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theta_deg": 90.0, "trials": 5000}))
        out = tmp_path / "out.csv"
        rc = run_cli("spin", "--config", str(cfg), "--theta-deg", "30", "--out", str(out))
        assert rc == 0
        assert out.read_text().splitlines()[1].startswith("30,")

    def test_malformed_config_is_validation_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        rc = run_cli("spin", "--config", str(cfg))
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"


class TestChshCommand:
    def test_analytic_tsirelson_value(self, tmp_path):
        out = tmp_path / "chsh.csv"
        rc = run_cli("chsh", "--mode", "analytic", "--out", str(out))
        assert rc == 0
        line = out.read_text().splitlines()[1]
        assert "2.8284271247461903" in line

    def test_custom_angles(self, tmp_path):
        out = tmp_path / "chsh.csv"
        rc = run_cli(
            "chsh", "--mode", "analytic", "--angles", "0,90,45,315", "--out", str(out)
        )
        assert rc == 0
        s = float(out.read_text().splitlines()[1].split(",")[5])
        assert s == pytest.approx(-2.0 * math.sqrt(2.0), abs=1e-12)

    def test_optimal_search_over_grid(self, tmp_path):
        out = tmp_path / "chsh.csv"
        rc = run_cli(
            "chsh", "--mode", "analytic", "--optimal",
            "--epsilon-grid", "0,1", "--out", str(out),
        )
        assert rc == 0
        rows = out.read_text().splitlines()[1:]
        assert abs(float(rows[0].split(",")[5])) == pytest.approx(4.0, abs=1e-9)
        assert abs(float(rows[1].split(",")[5])) == pytest.approx(
            2.0 * math.sqrt(2.0), abs=1e-9
        )

    def test_subnormal_epsilon_writes_nothing_to_stderr(self):
        # a fresh process with the default warning filters, as a user runs it
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-m", "qmachine", "chsh", "--mode", "analytic",
             "--optimal", "--epsilon", "5e-324"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout.splitlines()[1].split(",")[5] == "4"


class TestClimitCommand:
    def test_fixture_json(self, tmp_path):
        out = tmp_path / "climit.json"
        rc = run_cli(
            "climit", "--eps-values", "1,0.1", "--out", str(out)
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["source"] == "fixture:gaussian"
        assert [r["epsilon"] for r in payload["reports"]] == [1.0, 0.1]

    @pytest.mark.parametrize(
        "rows", ["0,1\n1,-1\n2,1\n", "0,1\n1,1\n3,1\n"], ids=["negative", "non-uniform"]
    )
    def test_bad_density_file_exits_2_with_json_error(self, rows, tmp_path, capsys):
        density = tmp_path / "density.csv"
        density.write_text("x,value\n" + rows)
        rc = run_cli("climit", "--density", str(density))
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"
        assert "density file" in err["message"]

    def test_missing_density_file_is_io_error(self, tmp_path, capsys):
        rc = run_cli("climit", "--density", str(tmp_path / "absent.csv"))
        assert rc == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "io"


class TestDoubleslitCommand:
    def test_report_json(self, tmp_path):
        out = tmp_path / "slit.json"
        rc = run_cli(
            "doubleslit", "--ratio", "1.05", "--eps-values", "0.9,0.001",
            "--out", str(out),
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert [r["n_clusters"] for r in payload["rows"]] == [2, 1]


class TestValidationFailures:
    def test_bad_epsilon_exits_2_with_json_error(self, capsys):
        rc = run_cli("spin", "--epsilon", "1.5")
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"

    def test_bad_band_bias(self, capsys):
        rc = run_cli("spin", "--epsilon", "0.5", "--d", "0.9")
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "validation"

    @pytest.mark.parametrize(
        "argv",
        [
            ("spin", "--theta-deg", "nan"),
            ("spin", "--theta-deg", "inf"),
            ("chsh", "--angles", "0,nan,45,90"),
            ("doubleslit", "--ratio", "nan"),
        ],
        ids=["spin-theta-nan", "spin-theta-inf", "chsh-angle-nan", "doubleslit-ratio-nan"],
    )
    def test_non_finite_value_exits_2_with_json_error(self, argv, capsys):
        rc = run_cli(*argv)
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"
        assert "finite" in err["message"]

    @pytest.mark.parametrize(
        "fields",
        [
            {"trials": "100"},
            {"seed": "5"},
            {"trials": 100.5},
            {"trials": True},
            {"workers": True},
        ],
        ids=["trials-str", "seed-str", "trials-float", "trials-bool", "workers-bool"],
    )
    def test_mistyped_config_integer_exits_2_with_json_error(self, fields, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(fields))
        rc = run_cli("spin", "--config", str(cfg))
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"
        assert next(iter(fields)) in err["message"]

    @pytest.mark.parametrize(
        "kind,fields",
        [
            ("sweep", {"theta_grid": ["a"]}),
            ("sweep", {"theta_grid": 5}),
            ("chsh", {"angles_deg": [0, None, 1, 2]}),
            ("chsh", {"resolution_deg": "x"}),
        ],
        ids=["grid-str-item", "grid-int", "angles-null-item", "resolution-str"],
    )
    def test_malformed_config_number_exits_2_with_json_error(
        self, kind, fields, tmp_path, capsys
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(fields))
        rc = run_cli(kind, "--config", str(cfg))
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"
        assert next(iter(fields)) in err["message"]
