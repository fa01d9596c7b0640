import csv
import json
import math
from dataclasses import fields

import pytest

from qmachine.analytic import ProbabilityPair
import qmachine.harness
from qmachine.epr import (
    TSIRELSON_ANGLES_DEG,
    ChshEstimate,
    ChshSetting,
    chsh_analytic,
    chsh_sigma,
)
from qmachine.geometry import ElasticSpec
from qmachine.harness import (
    _FIELD_TYPES,
    CHSH_COLUMNS,
    EXIT_OK,
    EXIT_RUNTIME,
    SPIN_COLUMNS,
    ExperimentConfig,
    StatReport,
    ValidationError,
    chi_square,
    run,
)
from qmachine.sampler import FrequencyTable


class TestChiSquare:
    def test_exact_match_is_zero(self):
        report = chi_square(FrequencyTable(750, 250), ProbabilityPair(0.75, 0.25))
        assert report.chi_square == 0.0
        assert report.chi_square_df == 1
        assert report.consistent

    def test_hand_value(self):
        report = chi_square(FrequencyTable(500_500, 499_500), ProbabilityPair(0.5, 0.5))
        assert report.chi_square == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_expectation_exact_check(self):
        ok = chi_square(FrequencyTable(1000, 0), ProbabilityPair(1.0, 0.0))
        assert ok.exact_check and ok.consistent and ok.chi_square is None
        bad = chi_square(FrequencyTable(999, 1), ProbabilityPair(1.0, 0.0))
        assert bad.exact_check and not bad.consistent

    def test_small_samples_inapplicable(self):
        report = chi_square(FrequencyTable(30, 20), ProbabilityPair(0.5, 0.5))
        assert not report.chi_square_applicable
        assert report.chi_square is None

    def test_tiny_expected_counts_inapplicable(self):
        report = chi_square(FrequencyTable(998, 2), ProbabilityPair(0.999, 0.001))
        assert not report.chi_square_applicable

    def test_confidence_interval_formula(self):
        report = chi_square(FrequencyTable(600, 400), ProbabilityPair(0.5, 0.5))
        assert report.freq_o1 + report.freq_o2 == pytest.approx(1.0, abs=1e-12)
        expected = 1.96 * math.sqrt(0.6 * 0.4 / 1000)
        assert report.ci_half_width == pytest.approx(expected, abs=1e-15)
        assert report.ci_low == pytest.approx(0.6 - expected, abs=1e-15)

    def test_report_rejects_bad_frequencies(self):
        with pytest.raises(ValueError):
            StatReport(10, 0.5, 0.6, 0.0, 0.0, 0.0, 0.0, None, None, False, False, True)


class TestExperimentConfig:
    def test_round_trip_idempotent(self):
        config = ExperimentConfig(kind="sweep", theta_grid=(0.0, 30.0), trials=1000)
        once = config.to_dict()
        again = ExperimentConfig.from_dict(once).to_dict()
        assert once == again

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValidationError):
            ExperimentConfig.from_dict({"kind": "spin", "bogus": 1})

    def test_requires_kind(self):
        with pytest.raises(ValidationError):
            ExperimentConfig.from_dict({"trials": 10})

    @pytest.mark.parametrize(
        "fields",
        [{"theta_grid": ["a"]}, {"theta_grid": 5}, {"angles_deg": [0, None, 1, 2]},
         {"theta_grid": "60"}, {"angles_deg": "1234"}, {"theta_grid": {"60": 1}},
         {"theta_grid": ["60"]}, {"theta_grid": [True, 60]}, {"eps_values": [True]},
         {"eps_values": ["0.5"]}, {"theta_grid": [10**400]}],
    )
    def test_rejects_non_numeric_sequence(self, fields):
        with pytest.raises(ValidationError):
            ExperimentConfig.from_dict({"kind": "sweep", **fields})

    @pytest.mark.parametrize(
        "config",
        [
            ExperimentConfig(kind="warp"),
            ExperimentConfig(kind="spin", epsilon=1.5),
            ExperimentConfig(kind="spin", epsilon=0.5, d=0.9),
            ExperimentConfig(kind="spin", trials=0),
            ExperimentConfig(kind="spin", seed=-1),
            ExperimentConfig(kind="spin", workers=0),
            ExperimentConfig(kind="spin", output_format="xml"),
            ExperimentConfig(kind="sweep", epsilon_grid=()),
            ExperimentConfig(kind="sweep", epsilon_grid=(0.5,), d_grid=(0.9,)),
            ExperimentConfig(kind="chsh", chsh_mode="maybe"),
            ExperimentConfig(kind="chsh", angles_deg=(0.0, 1.0, 2.0)),
            ExperimentConfig(kind="climit", eps_values=(1.5,)),
            ExperimentConfig(kind="climit", eps_values=()),
            ExperimentConfig(kind="climit", density_path=5),
            ExperimentConfig(kind="climit", eps_values=(0.0,)),
            ExperimentConfig(kind="doubleslit", peak_ratio=0.5),
            ExperimentConfig(kind="spin", theta_deg=float("nan")),
            ExperimentConfig(kind="spin", theta_deg=float("-inf")),
            ExperimentConfig(kind="spin", theta_deg="60"),
            ExperimentConfig(kind="spin", d=float("nan")),
            ExperimentConfig(kind="sweep", theta_grid=(0.0, float("inf"))),
            ExperimentConfig(kind="sweep", d_grid=(0.0, float("nan"))),
            ExperimentConfig(kind="chsh", epsilon_grid=(1.0, float("nan"))),
            ExperimentConfig(kind="chsh", angles_deg=(0.0, 90.0, float("inf"), 135.0)),
            ExperimentConfig(kind="doubleslit", peak_ratio=float("inf")),
            ExperimentConfig(kind="spin", trials="100"),
            ExperimentConfig(kind="spin", seed="5"),
            ExperimentConfig(kind="spin", trials=100.5),
            ExperimentConfig(kind="spin", trials=True),
            ExperimentConfig(kind="spin", workers=True),
            ExperimentConfig(kind="spin", epsilon=True),
            ExperimentConfig(kind="spin", theta_deg=True),
            ExperimentConfig(kind="selftest", trials="x", workers=True),
            ExperimentConfig(kind="sweep", theta_grid=("60",)),
            ExperimentConfig(kind="sweep", theta_grid=(True, 60)),
            ExperimentConfig(kind="climit", eps_values=(True,)),
            ExperimentConfig(kind="climit", eps_values=("0.5",)),
            ExperimentConfig(kind="spin", theta_deg=10**400),
            ExperimentConfig(kind="sweep", theta_grid=(10**400,)),
            ExperimentConfig(kind="chsh", angles_deg=None),
            ExperimentConfig(kind="chsh", epsilon_grid=()),
            # the JSON report and a cut density would share one file
            ExperimentConfig(kind="climit", eps_values=(0.5,),
                             out="p_eps0.5.csv", out_prefix="p"),
            ExperimentConfig(kind="climit", eps_values=(1.0, 0.25),
                             out="./q/../p_eps0.25.csv", out_prefix="p"),
        ],
    )
    def test_validation_rejects(self, config):
        with pytest.raises(ValidationError):
            config.validate()

    def test_validation_accepts_defaults(self):
        for kind in ("spin", "sweep", "chsh", "climit", "doubleslit", "selftest"):
            ExperimentConfig(kind=kind).validate()

    def test_field_table_covers_every_field(self):
        assert set(_FIELD_TYPES) == {f.name for f in fields(ExperimentConfig)}


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [dict(zip(rows[0], r)) for r in rows[1:]]


class TestRunSpin:
    def test_csv_schema_and_values(self, tmp_path):
        out = tmp_path / "spin.csv"
        config = ExperimentConfig(
            kind="spin", theta_deg=60.0, epsilon=1.0, d=0.0,
            trials=1_000_000, seed=42, out=str(out),
        )
        assert run(config) == EXIT_OK
        header, rows = read_csv(out)
        assert tuple(header) == SPIN_COLUMNS
        row = rows[0]
        assert row["analytic_p1"] == "0.75"
        assert row["n"] == "1000000"
        assert row["seed"] == "42"
        assert abs(float(row["freq_o1"]) - 0.75) <= 0.002
        assert float(row["chi2"]) >= 0.0

    def test_json_format(self, tmp_path):
        out = tmp_path / "spin.json"
        config = ExperimentConfig(
            kind="spin", trials=10_000, out=str(out), output_format="json"
        )
        run(config)
        payload = json.loads(out.read_text())
        assert set(payload["rows"][0]) == set(SPIN_COLUMNS)

    def test_stdout_when_no_path(self, capsys):
        run(ExperimentConfig(kind="spin", trials=5_000))
        captured = capsys.readouterr().out
        assert captured.splitlines()[0] == ",".join(SPIN_COLUMNS)


class TestRunSweep:
    def test_grid_rows_in_order(self, tmp_path):
        out = tmp_path / "sweep.csv"
        config = ExperimentConfig(
            kind="sweep", theta_grid=(0.0, 90.0), epsilon_grid=(1.0, 0.5),
            d_grid=(0.0,), trials=20_000, out=str(out),
        )
        assert run(config) == EXIT_OK
        _, rows = read_csv(out)
        assert [(r["theta_deg"], r["epsilon"]) for r in rows] == [
            ("0", "1"), ("0", "0.5"), ("90", "1"), ("90", "0.5"),
        ]

    def test_deterministic_rows(self, tmp_path):
        config = dict(
            kind="sweep", theta_grid=(30.0, 120.0), epsilon_grid=(0.8,),
            trials=50_000, seed=7,
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(ExperimentConfig(**config, out=str(a)))
        run(ExperimentConfig(**config, out=str(b), workers=4))
        assert a.read_bytes() == b.read_bytes()


class TestRunChsh:
    def test_analytic_row(self, tmp_path):
        out = tmp_path / "chsh.csv"
        config = ExperimentConfig(kind="chsh", chsh_mode="analytic", out=str(out))
        assert run(config) == EXIT_OK
        header, rows = read_csv(out)
        assert tuple(header) == CHSH_COLUMNS
        assert rows[0]["S_analytic"] == "2.8284271247461903"
        assert rows[0]["S_mc"] == ""

    def test_both_modes_fill_mc_columns(self, tmp_path):
        out = tmp_path / "chsh.csv"
        config = ExperimentConfig(
            kind="chsh", chsh_mode="both", trials=100_000, out=str(out)
        )
        assert run(config) == EXIT_OK
        _, rows = read_csv(out)
        s_mc = float(rows[0]["S_mc"])
        assert abs(s_mc - 2.0 * math.sqrt(2.0)) <= 0.05
        assert float(rows[0]["stderr"]) > 0.0

    # every pair of a term agrees at n = 1, and often at n = 2, so the
    # sample stderr is 0; the 5-sigma test uses the exact terms' sigma
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("trials", [1, 2])
    def test_tiny_trial_counts_pass(self, tmp_path, trials, seed):
        out = tmp_path / "chsh.csv"
        config = ExperimentConfig(kind="chsh", trials=trials, seed=seed, out=str(out))
        assert run(config) == EXIT_OK
        _, rows = read_csv(out)
        if trials == 1:
            assert rows[0]["stderr"] == "0"

    @pytest.mark.parametrize("sigmas,code", [(10.0, EXIT_RUNTIME), (4.9, EXIT_OK)])
    def test_five_sigma_bound(self, tmp_path, monkeypatch, sigmas, code):
        band = ElasticSpec(1.0, 0.0)
        setting = ChshSetting.from_plane_degrees(*TSIRELSON_ANGLES_DEG)
        off = chsh_analytic(setting, band) + sigmas * chsh_sigma(setting, band, 100)

        def estimate(*args):
            return ChshEstimate(off, 0.0, (0.0, 0.0, 0.0, 0.0))

        monkeypatch.setattr(qmachine.harness, "chsh_estimate", estimate)
        config = ExperimentConfig(kind="chsh", trials=100, out=str(tmp_path / "chsh.csv"))
        assert run(config) == code

    def test_optimized_sweep_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        config = ExperimentConfig(
            kind="chsh", chsh_mode="analytic", angles_deg=TSIRELSON_ANGLES_DEG,
            epsilon_grid=(0.0, 0.75, 1.0), out=str(out),
        )
        run(config)
        _, rows = read_csv(out)
        values = [abs(float(r["S_analytic"])) for r in rows]
        assert values[0] == pytest.approx(4.0, abs=1e-9)
        assert values[1] == pytest.approx(2.0 * math.sqrt(2.0) / 0.75, abs=1e-6)
        assert values[2] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)


class TestRunClimit:
    def test_fixture_reports(self, tmp_path):
        out = tmp_path / "climit.json"
        prefix = tmp_path / "density"
        config = ExperimentConfig(
            kind="climit", eps_values=(1.0, 0.01),
            out=str(out), out_prefix=str(prefix),
        )
        assert run(config) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["source"] == "fixture:gaussian"
        assert len(payload["reports"]) == 2
        assert payload["reports"][1]["epsilon"] == 0.01
        assert payload["reports"][1]["mass_error"] <= 1e-9

        from qmachine.climit import load_density_csv

        transformed = load_density_csv(tmp_path / "density_eps0.01.csv")
        assert transformed.mass() == pytest.approx(1.0, abs=1e-9)

    def test_eps_sharing_a_file_name_is_rejected_before_any_work(self, tmp_path):
        out = tmp_path / "climit.json"
        prefix = tmp_path / "p"
        config = ExperimentConfig(
            kind="climit", eps_values=(0.1, 0.1000001),
            out=str(out), out_prefix=str(prefix),
        )
        with pytest.raises(ValidationError, match=r"0\.1 and 0\.1000001"):
            run(config)
        assert list(tmp_path.iterdir()) == []
        # without a prefix no file is written, and a repeated eps is one file
        run(ExperimentConfig(kind="climit", eps_values=(0.1, 0.1000001), out=str(out)))
        repeated = ExperimentConfig(
            kind="climit", eps_values=(0.1, 0.1, 0.5),
            out=str(out), out_prefix=str(prefix),
        )
        assert run(repeated) == EXIT_OK
        assert sorted(p.name for p in tmp_path.glob("p_*")) == ["p_eps0.1.csv", "p_eps0.5.csv"]

    def test_density_file_input(self, tmp_path):
        from qmachine.climit import gaussian_grid, save_density_csv

        src = tmp_path / "in.csv"
        save_density_csv(gaussian_grid(301), src)
        out = tmp_path / "out.json"
        config = ExperimentConfig(
            kind="climit", density_path=str(src), eps_values=(0.5,), out=str(out)
        )
        assert run(config) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["points"] == 301


class TestRunDoubleslit:
    def test_report(self, tmp_path):
        out = tmp_path / "slit.json"
        config = ExperimentConfig(
            kind="doubleslit", peak_ratio=1.05, eps_values=(0.9, 0.001), out=str(out)
        )
        assert run(config) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["rows"][0]["n_clusters"] == 2
        assert payload["rows"][1]["n_clusters"] == 1
        assert payload["collapse_threshold"] > 0.001


def test_run_validates_before_work():
    with pytest.raises(ValidationError):
        run(ExperimentConfig(kind="spin", epsilon=2.0))
