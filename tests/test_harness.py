import csv
import json
import math
from dataclasses import fields
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    ValidationError,
    chi_square,
    run,
)
from qmachine.sampler import FrequencyTable


def retired_chi_square(observed, expected):
    """``(stderr, chi^2, consistent)`` by the rules of the ``chi_square`` that
    returned a StatReport, kept as an oracle for the spin row: an exact check
    where p is 0 or 1, else the 5-sigma bound on the frequency."""
    n = observed.total
    f1 = observed.n_o1 / n
    f2 = observed.n_o2 / n
    stderr = math.sqrt(f1 * f2 / n)
    p1, p2 = expected.p1, expected.p2
    if p1 == 0.0 or p1 == 1.0:
        consistent = observed.n_o2 == 0 if p1 == 1.0 else observed.n_o1 == 0
        return stderr, None, consistent
    e1, e2 = n * p1, n * p2
    applicable = n >= 100 and e1 >= 5.0 and e2 >= 5.0
    stat = ((observed.n_o1 - e1) ** 2 / e1 + (observed.n_o2 - e2) ** 2 / e2) if applicable else None
    consistent = abs(f1 - p1) <= 5.0 * math.sqrt(p1 * p2 / n)
    return stderr, stat, consistent


def spin_row_for(table, expected):
    """``_spin_row`` and its verdict with the sampled counts and the closed
    form replaced by ``table`` and ``expected``."""
    with mock.patch.object(qmachine.harness, "run_trials", lambda *args: table), \
            mock.patch.object(qmachine.harness, "epsilon_probabilities", lambda *args: expected):
        return qmachine.harness._spin_row(60.0, 1.0, 0.0, table.total, 0, None, 1)


@st.composite
def counts_and_expectations(draw):
    """A table and an outcome distribution, p1 = 0 and 1 among them, with
    counts near the expected ones or anywhere."""
    p1 = draw(st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0)))
    n = draw(st.integers(1, 10**7))
    mean, spread = round(n * p1), 6 * math.ceil(math.sqrt(n * p1 * (1.0 - p1))) + 2
    n_o1 = draw(st.one_of(
        st.integers(max(0, mean - spread), min(n, mean + spread)), st.integers(0, n)
    ))
    return FrequencyTable(n_o1, n - n_o1), ProbabilityPair(p1, 1.0 - p1)


class TestChiSquare:
    def test_exact_match_is_zero(self):
        assert chi_square(FrequencyTable(750, 250), ProbabilityPair(0.75, 0.25)) == 0.0

    def test_hand_value(self):
        stat = chi_square(FrequencyTable(500_500, 499_500), ProbabilityPair(0.5, 0.5))
        assert stat == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_expectation_exact_check(self):
        # no statistic; the 5-sigma rule at sigma = 0 asks for every trial
        assert chi_square(FrequencyTable(1000, 0), ProbabilityPair(1.0, 0.0)) is None
        assert spin_row_for(FrequencyTable(1000, 0), ProbabilityPair(1.0, 0.0))[1]
        assert not spin_row_for(FrequencyTable(999, 1), ProbabilityPair(1.0, 0.0))[1]
        assert spin_row_for(FrequencyTable(0, 1000), ProbabilityPair(0.0, 1.0))[1]
        assert not spin_row_for(FrequencyTable(1, 999), ProbabilityPair(0.0, 1.0))[1]

    def test_small_samples_inapplicable(self):
        assert chi_square(FrequencyTable(30, 20), ProbabilityPair(0.5, 0.5)) is None

    def test_tiny_expected_counts_inapplicable(self):
        assert chi_square(FrequencyTable(998, 2), ProbabilityPair(0.999, 0.001)) is None

    @settings(max_examples=300, deadline=None)
    @given(case=counts_and_expectations())
    @example(case=(FrequencyTable(999, 1), ProbabilityPair(1.0, 0.0)))
    @example(case=(FrequencyTable(0, 7), ProbabilityPair(0.0, 1.0)))
    def test_row_follows_the_stat_report_rules(self, case):
        table, expected = case
        row, ok = spin_row_for(table, expected)
        stderr, stat, consistent = retired_chi_square(table, expected)
        # repr tells floats apart bit for bit, and None from a float
        assert repr(row["stderr"]) == repr(stderr)
        assert repr(row["chi2"]) == repr(stat)
        assert ok == consistent


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
            # retired: it printed the rows of "both"
            ExperimentConfig(kind="chsh", chsh_mode="mc"),
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

    # every term saturates at the Tsirelson setting for eps <= 1/sqrt(2), so
    # sigma is 0 and the row passes only if S_mc is S_analytic bit for bit
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("eps", [0.0, 1e-9, 0.25, 0.5, 0.7])
    def test_saturated_rows_hit_the_closed_form_exactly(self, tmp_path, eps, seed):
        setting = ChshSetting.from_plane_degrees(*TSIRELSON_ANGLES_DEG)
        assert chsh_sigma(setting, ElasticSpec(eps, 0.0), 1000) == 0.0
        out = tmp_path / "chsh.json"
        config = ExperimentConfig(
            kind="chsh", epsilon=eps, trials=1000, seed=seed, out=str(out),
            output_format="json",
        )
        assert run(config) == EXIT_OK
        row = json.loads(out.read_text())["rows"][0]
        assert repr(row["S_mc"]) == repr(row["S_analytic"])
        assert row["stderr"] == 0.0

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
        assert float(transformed.values.sum()) * transformed.dx == pytest.approx(1.0, abs=1e-9)

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
