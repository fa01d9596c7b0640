import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from qmachine.cli import build_parser, config_from_args, main
from qmachine.harness import ExperimentConfig, ValidationError, run

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

    # a band whose width rounds to 0 at d ties there like the rigid band
    @pytest.mark.parametrize("epsilon", ["1e-300", "0"], ids=["zero-width", "rigid"])
    def test_tie_at_d_is_a_fair_coin(self, epsilon, capsys):
        rc = run_cli("spin", "--theta-deg", "0", "--epsilon", epsilon, "--d", "1", "-n", "10000")
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[1].split(",")[6] == "0.5"

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

    def test_seed_defaults_to_42_without_flag_or_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 1000}))
        outputs = []
        for name, extra in (("bare", ()), ("config", ("--config", str(cfg))),
                            ("flag", ("--seed", "42"))):
            out = tmp_path / f"{name}.csv"
            assert run_cli("spin", "-n", "1000", *extra, "--out", str(out)) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0].decode().splitlines()[1].split(",")[4] == "42"

    def test_malformed_config_is_validation_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        rc = run_cli("spin", "--config", str(cfg))
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"

    def test_non_utf8_config_is_validation_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b"\xff\xfe{}")  # a UTF-16 byte-order mark
        rc = run_cli("spin", "--config", str(cfg))
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "validation"
        assert "UTF-8" in err["message"]

    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.binary(max_size=16))
    @example(data=b"\xef\xbb\xbf{}")  # a UTF-8 byte-order mark
    def test_bytes_that_are_no_json_object_exit_2(self, data, tmp_path, capsys):
        try:
            is_object = isinstance(json.loads(data.decode("utf-8")), dict)
        except ValueError:  # UnicodeDecodeError and JSONDecodeError alike
            is_object = False
        assume(not is_object)
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(data)
        rc = run_cli("spin", "--config", str(cfg))
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "validation"


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

    @pytest.mark.parametrize("absolute", [False, True], ids=["relative", "absolute"])
    def test_out_naming_a_density_file_exits_2_and_writes_nothing(
        self, absolute, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        out = str(tmp_path / "p_eps0.5.csv") if absolute else "./p_eps0.5.csv"
        rc = run_cli("climit", "--eps-values", "1,0.5", "--out", out, "--out-prefix", "p")
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "validation"
        assert "p_eps0.5.csv" in err["message"]
        assert list(tmp_path.iterdir()) == []

    def test_out_beside_the_density_files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = run_cli("climit", "--eps-values", "0.5", "--out", "p_eps0.25.csv", "--out-prefix", "p")
        assert rc == 0
        report = json.loads((tmp_path / "p_eps0.25.csv").read_text())
        assert [r["epsilon"] for r in report["reports"]] == [0.5]
        assert (tmp_path / "p_eps0.5.csv").read_text().startswith("x,value\n")

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
            ("sweep", {"theta_grid": "60"}),
            ("chsh", {"angles_deg": "1234"}),
            ("spin", {"out": True}),
            ("spin", {"out": 7}),
            ("climit", {"density_path": 5}),
            ("climit", {"out_prefix": ["a"]}),
            ("spin", {"epsilon": True}),
            ("spin", {"theta_deg": True}),
            ("selftest", {"trials": "x", "workers": True}),
            ("sweep", {"theta_grid": ["60"]}),
            ("sweep", {"theta_grid": [True, 60]}),
            ("climit", {"eps_values": [True]}),
            ("climit", {"eps_values": ["0.5"]}),
            ("spin", {"theta_deg": 10**400}),
            ("sweep", {"theta_grid": [10**400]}),
            ("chsh", {"angles_deg": None}),
            ("chsh", {"epsilon_grid": []}),
        ],
        ids=["grid-str-item", "grid-int", "angles-null-item", "resolution-str",
             "grid-str", "angles-str", "out-bool", "out-int", "density-path-int",
             "out-prefix-list", "epsilon-bool",
             "theta-bool", "selftest-trials-str", "grid-numeric-str-item",
             "grid-bool-item", "eps-values-bool-item", "eps-values-str-item",
             "theta-int-overflows-float", "grid-int-overflows-float", "angles-null",
             "chsh-grid-empty"],
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

    @pytest.mark.parametrize(
        "argv,needle",
        [
            (("climit", "--eps-values", "1e-19"), "eps 1e-19"),
            (("doubleslit", "--eps-values", "1e-300"), "eps 1e-300"),
            (("doubleslit", "--ratio", "1e308"), "ratio 1e+308"),
        ],
        ids=["climit-eps-cap-rounds-away", "doubleslit-eps-cap-rounds-away",
             "doubleslit-ratio-overflows"],
    )
    def test_degenerate_density_exits_2_with_json_error(self, argv, needle, capsys):
        rc = run_cli(*argv)
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "validation"
        assert needle in err["message"]

    def test_resolution_flag_is_unknown(self, capsys):
        # the optimum is closed-form: there is no grid step to set
        with pytest.raises(SystemExit) as exc:
            run_cli("chsh", "--mode", "analytic", "--optimal", "--resolution-deg", "7")
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_resolution_config_field_is_unknown(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"resolution_deg": 7}))
        rc = run_cli("chsh", "--mode", "analytic", "--optimal", "--config", str(cfg))
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "validation"
        assert "unknown config fields" in err["message"]

    # --optimal names the setting that --angles would; climit has one fixture
    @pytest.mark.parametrize(
        "kind,fields",
        [("chsh", {"optimize": True}), ("climit", {"fixture": "gaussian"})],
        ids=["optimize", "fixture"],
    )
    def test_retired_config_field_is_unknown(self, kind, fields, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(fields))
        rc = run_cli(kind, "--config", str(cfg))
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "validation"
        assert f"unknown config fields: [{next(iter(fields))!r}]" in err["message"]

    @pytest.mark.parametrize(
        "argv",
        [("climit", "--fixture", "gaussian"), ("chsh", "--optimal", "--angles", "1,2,3,4"),
         ("chsh", "--mode", "mc"), ("climit", "--workers", "2"),
         ("doubleslit", "--workers", "2")],
        ids=["climit-fixture", "chsh-optimal-with-angles", "chsh-mode-mc",
             "climit-workers", "doubleslit-workers"],
    )
    def test_retired_or_conflicting_flag_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_retired_chsh_mode_in_config_exits_2(self, tmp_path, capsys):
        # "mc" printed the same rows as "both"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"chsh_mode": "mc"}))
        rc = run_cli("chsh", "-n", "100", "--config", str(cfg))
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "validation"
        assert err["message"] == "chsh_mode must be one of 'analytic', 'both', got 'mc'"

    # an empty entry is no float, as a config file's list cannot hold one
    @pytest.mark.parametrize("text", ["1,,2", "1,2,", ","])
    @pytest.mark.parametrize(
        "kind, flag",
        [("sweep", "--theta-grid"), ("chsh", "--angles"), ("climit", "--eps-values")],
    )
    def test_empty_list_entry_exits_2(self, kind, flag, text, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(kind, flag, text)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"not a comma-separated float list: {text!r}" in captured.err

    @pytest.mark.parametrize(
        "argv", [("spin", "--theta-deg", "nan"), ("spin", "--epsilon", "2")],
        ids=["theta-nan", "epsilon-2"],
    )
    def test_parsing_leaves_scalar_checks_to_run(self, argv):
        # parsing alone must not raise: the benchmark times it on these argvs
        config = config_from_args(build_parser().parse_args(argv))
        with pytest.raises(ValidationError):
            run(config)


# Arbitrary JSON field values, lists kept at three entries or fewer.  Strings
# draw from digits, signs and the letters of nan, inf and true, so that some
# look like numbers.
TEXT = st.text("0159.e-+nafitru", max_size=4)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.floats(0, 1)
    | st.sampled_from([1e308, -1e308]) | TEXT
    | st.sampled_from(["csv", "json", "analytic", "mc", "both", "gaussian"]),
    lambda inner: st.lists(inner, max_size=3) | st.lists(st.floats(0, 1), min_size=1, max_size=3)
    | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=6,
)
NON_INTS = JSON_VALUES.filter(lambda v: type(v) is not int)
NON_STRINGS = JSON_VALUES.filter(lambda v: not isinstance(v, str))
# Bounded where a valid draw could start a large run; path fields name a
# file in the working directory (density.csv is a valid density of unit
# mass, so no draw warns that it was renormalized).
FIELD_VALUES = {
    f.name: JSON_VALUES for f in fields(ExperimentConfig) if f.name != "kind"
} | {
    "trials": NON_INTS | st.integers(1, 2000),
    "workers": NON_INTS | st.integers(1, 3),
    "out": NON_STRINGS | st.just("out.txt"),
    "density_path": NON_STRINGS | st.just("density.csv"),
    "out_prefix": NON_STRINGS | st.just("prefix"),
}
# trials always, so that no draw runs the default million; up to three more fields
CONFIGS = st.lists(
    st.sampled_from(sorted(set(FIELD_VALUES) - {"trials"})), unique=True, max_size=3
).flatmap(
    lambda names: st.fixed_dictionaries({n: FIELD_VALUES[n] for n in ["trials", *names]})
)
KINDS = ("spin", "sweep", "chsh", "climit", "doubleslit", "selftest")
PARSER = build_parser()


class TestExitCodeContract:
    @settings(
        max_examples=120, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(kind=st.sampled_from(KINDS), config=CONFIGS)
    def test_any_json_config_lands_on_a_documented_exit_code(
        self, kind, config, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "density.csv").write_text("x,value\n0,0.25\n1,0.5\n2,0.25\n")
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = [kind, "--config", "cfg.json"]
        try:
            config_from_args(PARSER.parse_args(argv)).validate()
            valid = True
        except ValidationError:
            valid = False
        if kind == "selftest":
            return  # the battery is not run here
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv)
        assert rc in (0, 2, 3, 4)
        if not valid:
            assert rc == 2
            assert out.getvalue() == ""

    def test_interrupt_exits_130_with_one_json_line(self, monkeypatch, capsys):
        def interrupted(config):
            raise KeyboardInterrupt

        monkeypatch.setattr("qmachine.cli.run", interrupted)
        assert run_cli("spin", "-n", "100000000000000000") == 130
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert json.loads(captured.err)["error"] == "interrupted"
