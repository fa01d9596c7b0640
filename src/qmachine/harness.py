"""Experiment orchestration: validated configs, outcome statistics, and
CSV/JSON emission for plotting.

Exit code contract: 0 success, 2 validation error, 3 statistical-assertion
failure, 4 I/O error.  All floating output uses 17 significant digits so
emitted files are byte-stable across reruns.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, fields

from .analytic import ProbabilityPair, epsilon_probabilities
from .climit import (
    double_slit_scenario,
    epsilon_transform,
    gaussian_grid,
    load_density_csv,
    save_density_csv,
)
from .epr import (
    TSIRELSON_ANGLES_DEG,
    ChshSetting,
    chsh_analytic,
    chsh_estimate,
    chsh_sigma,
)
from .geometry import Direction, ElasticSpec, Outcome
from .sampler import FrequencyTable, RandomStream, run_trials

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3
EXIT_IO = 4

# Fixed so that bare invocations are reproducible.
DEFAULT_SEED = 42

SPIN_COLUMNS = (
    "theta_deg", "epsilon", "d", "n", "seed", "freq_o1", "analytic_p1", "stderr", "chi2",
)
CHSH_COLUMNS = (
    "epsilon", "a_deg", "a_prime_deg", "b_deg", "b_prime_deg",
    "S_analytic", "S_mc", "stderr",
)


class ValidationError(ValueError):
    """Configuration rejected before any work started."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment run.

    Only the fields relevant to ``kind`` are consulted, but ``validate``
    checks every field against its type in ``_FIELD_TYPES`` before any work
    starts, then the ranges of the fields ``kind`` uses.
    """

    kind: str
    theta_deg: float = 60.0
    epsilon: float = 1.0
    d: float = 0.0
    trials: int = 1_000_000
    seed: int = DEFAULT_SEED
    workers: int = 1
    out: str | None = None
    output_format: str = "csv"
    # sweep
    theta_grid: tuple[float, ...] | None = None
    epsilon_grid: tuple[float, ...] | None = None
    d_grid: tuple[float, ...] | None = None
    # chsh
    angles_deg: tuple[float, float, float, float] = TSIRELSON_ANGLES_DEG
    chsh_mode: str = "both"
    # climit / doubleslit
    density_path: str | None = None
    eps_values: tuple[float, ...] = (1.0, 0.5, 0.1, 0.01)
    out_prefix: str | None = None
    peak_ratio: float = 1.0

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValidationError(f"unknown config fields: {sorted(unknown)}")
        if "kind" not in data:
            raise ValidationError("config must name an experiment 'kind'")
        coerced = dict(data)
        # lists become float tuples; scalars are left to ``validate``
        for name, field_type in _FIELD_TYPES.items():
            if field_type in (_REALS, _GRID) and coerced.get(name) is not None:
                _check(name, coerced[name])
                coerced[name] = tuple(float(x) for x in coerced[name])
        return cls(**coerced)

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    def validate(self) -> None:
        for name in _FIELD_TYPES:
            _check(name, getattr(self, name))
        if self.kind == "spin":
            self._elastic(self.epsilon, self.d)
        elif self.kind == "sweep":
            for eps in self.epsilon_grid or (self.epsilon,):
                for d in self.d_grid or (self.d,):
                    self._elastic(eps, d)
        elif self.kind == "chsh":
            if len(self.angles_deg) != 4:
                raise ValidationError("chsh needs exactly four setting angles")
            for eps in self.epsilon_grid or (self.epsilon,):
                self._elastic(eps, 0.0)
        elif self.kind == "climit":
            self._eps_values()
            if self.out_prefix is not None:
                files = {}  # a cut density is written to PREFIX_eps{eps:g}.csv
                for eps in self.eps_values:
                    path = f"{self.out_prefix}_eps{eps:g}.csv"
                    other = files.setdefault(path, eps)
                    if other != eps:
                        raise ValidationError(f"cut eps {other!r} and {eps!r} share a file name")
                    if self.out is not None and os.path.abspath(path) == os.path.abspath(self.out):
                        raise ValidationError(f"the report and the cut eps {eps!r} density share {path}")
        elif self.kind == "doubleslit":
            if self.peak_ratio < 1.0:
                raise ValidationError(f"peak ratio must be >= 1, got {self.peak_ratio}")
            self._eps_values()

    def _eps_values(self) -> None:
        for eps in self.eps_values:
            if not 0.0 < eps <= 1.0:
                raise ValidationError(f"cut eps must be in (0, 1], got {eps}")

    @staticmethod
    def _elastic(eps: float, d: float) -> ElasticSpec:
        try:
            return ElasticSpec(eps, d)
        except ValueError as exc:
            raise ValidationError(str(exc)) from None


def chi_square(observed: FrequencyTable, expected: ProbabilityPair) -> float | None:
    """Pearson's chi^2 of observed counts against an expected outcome
    distribution, one degree of freedom; None where it does not apply: under
    100 trials or an expected count under 5, a degenerate p = 0 or 1 among them.
    """
    n = observed.total
    e1, e2 = n * expected.p1, n * expected.p2
    if n < 100 or e1 < 5.0 or e2 < 5.0:
        return None
    return (observed.n_o1 - e1) ** 2 / e1 + (observed.n_o2 - e2) ** 2 / e2


def _within_5_sigma(mc: float, exact: float, sigma: float) -> bool:
    """The verdict on a Monte Carlo value: within 5 sigma of its closed form,
    which at sigma = 0 it must hit exactly."""
    return abs(mc - exact) <= 5.0 * sigma


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".17g")


def _emit_rows(columns, rows, config, ok: bool, failure: str) -> int:
    """Write rows as CSV or JSON to config.out (stdout when None); the exit
    status is 0, or 3 with ``failure`` on stderr unless every row is ``ok``."""
    if config.output_format == "json":
        _write_text(config.out, json.dumps({"rows": rows}, indent=2) + "\n")
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])
        _write_text(config.out, buf.getvalue())
    if not ok:
        _error("statistical", failure)
        return EXIT_RUNTIME
    return EXIT_OK


def _write_text(path, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _spin_row(theta_deg, eps, d, trials, seed_label, stream, workers):
    u = Direction(0.0, 0.0, 1.0)
    v = Direction.from_spherical(math.radians(theta_deg))
    elastic = ElasticSpec(eps, d)
    table = run_trials(v, u, elastic, trials, stream, workers)
    expected = epsilon_probabilities(v, u, elastic)
    f1, f2 = table.frequency(Outcome.O1), table.frequency(Outcome.O2)
    row = {
        "theta_deg": theta_deg,
        "epsilon": eps,
        "d": d,
        "n": trials,
        "seed": seed_label,
        "freq_o1": f1,
        "analytic_p1": expected.p1,
        "stderr": math.sqrt(f1 * f2 / trials),
        "chi2": chi_square(table, expected),
    }
    sigma = math.sqrt(expected.p1 * expected.p2 / trials)
    return row, _within_5_sigma(f1, expected.p1, sigma)


def _run_spin(config: ExperimentConfig) -> int:
    row, ok = _spin_row(
        config.theta_deg, config.epsilon, config.d, config.trials,
        config.seed, RandomStream(config.seed), config.workers,
    )
    return _emit_rows(
        SPIN_COLUMNS, [row], config, ok, f"spin frequency off by more than 5 sigma: {row}"
    )


def _run_sweep(config: ExperimentConfig) -> int:
    thetas = config.theta_grid or (config.theta_deg,)
    epsilons = config.epsilon_grid or (config.epsilon,)
    ds = config.d_grid or (config.d,)
    root = RandomStream(config.seed)
    rows, all_ok = [], True
    index = 0
    for theta in thetas:
        for eps in epsilons:
            for d in ds:
                row, ok = _spin_row(
                    theta, eps, d, config.trials, config.seed,
                    root.substream(index), config.workers,
                )
                rows.append(row)
                all_ok = all_ok and ok
                index += 1
    return _emit_rows(
        SPIN_COLUMNS, rows, config, all_ok, "one or more sweep rows off by more than 5 sigma"
    )


def _run_chsh(config: ExperimentConfig) -> int:
    epsilons = config.epsilon_grid or (config.epsilon,)
    root = RandomStream(config.seed)
    angles = tuple(float(x) for x in config.angles_deg)
    setting = ChshSetting.from_plane_degrees(*angles)
    rows, all_ok = [], True
    for index, eps in enumerate(epsilons):
        elastic = ElasticSpec(eps, 0.0)
        s_analytic = chsh_analytic(setting, elastic)
        s_mc = stderr = None
        if config.chsh_mode == "both":
            est = chsh_estimate(
                setting, elastic, config.trials, root.substream(index), config.workers
            )
            s_mc, stderr = est.value, est.stderr
            # sigma of the exact terms: the sample stderr is 0 at small n
            # whenever every pair of each term agrees
            sigma = chsh_sigma(setting, elastic, config.trials)
            all_ok = _within_5_sigma(s_mc, s_analytic, sigma) and all_ok
        rows.append({
            "epsilon": eps,
            "a_deg": angles[0],
            "a_prime_deg": angles[1],
            "b_deg": angles[2],
            "b_prime_deg": angles[3],
            "S_analytic": s_analytic,
            "S_mc": s_mc,
            "stderr": stderr,
        })
    return _emit_rows(
        CHSH_COLUMNS, rows, config, all_ok,
        "Monte Carlo CHSH off the analytic value by more than 5 sigma",
    )


def _run_climit(config: ExperimentConfig) -> int:
    if config.density_path is not None:
        try:
            grid = load_density_csv(config.density_path)
        except ValueError as exc:
            raise ValidationError(f"density file {config.density_path}: {exc}") from None
        source = config.density_path
    else:
        grid = gaussian_grid()
        source = "fixture:gaussian"
    try:
        reports = [epsilon_transform(grid, eps) for eps in config.eps_values]
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    payload = {
        "source": source,
        "points": grid.n,
        "x0": grid.x0,
        "dx": grid.dx,
        "reports": [r.to_json_dict() for r in reports],
    }
    _write_text(config.out, json.dumps(payload, indent=2) + "\n")
    if config.out_prefix is not None:
        for report in reports:
            save_density_csv(
                report.transformed, f"{config.out_prefix}_eps{report.epsilon:g}.csv"
            )
    return EXIT_OK


def _run_doubleslit(config: ExperimentConfig) -> int:
    try:
        report = double_slit_scenario(config.peak_ratio, config.eps_values)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    _write_text(config.out, json.dumps(report.to_json_dict(), indent=2) + "\n")
    return EXIT_OK


def _run_selftest(config: ExperimentConfig) -> int:
    from .acceptance import run_battery

    results = run_battery(verbose=True)
    return EXIT_OK if all(r.passed for r in results) else EXIT_RUNTIME


def _error(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")


_RUNNERS = {
    "spin": _run_spin,
    "sweep": _run_sweep,
    "chsh": _run_chsh,
    "climit": _run_climit,
    "doubleslit": _run_doubleslit,
    "selftest": _run_selftest,
}


def _is_real(x) -> bool:
    """A finite float or int, never a bool: an int beyond the float range is not finite."""
    if isinstance(x, float):
        return math.isfinite(x)
    return type(x) is int and abs(x) <= sys.float_info.max


def _is_reals(x) -> bool:
    return isinstance(x, (list, tuple)) and len(x) > 0 and all(map(_is_real, x))


def _int_from(low: int):
    return f"an integer >= {low}", lambda x: type(x) is int and x >= low


def _one_of(*choices):
    return "one of " + ", ".join(map(repr, choices)), lambda x: x in choices


# Field types as (what the error message asks for, test of a value).
_REAL = ("a finite number", _is_real)
_REALS = ("a non-empty list of finite numbers", _is_reals)
_GRID = ("null or a non-empty list of finite numbers", lambda x: x is None or _is_reals(x))
_PATH = ("a path string or null", lambda x: x is None or isinstance(x, str))

# Every ExperimentConfig field, in declaration order; ``validate`` checks them all.
# It follows ``_RUNNERS``, whose keys are the kinds.
_FIELD_TYPES = {
    "kind": _one_of(*_RUNNERS), "theta_deg": _REAL, "epsilon": _REAL, "d": _REAL,
    "trials": _int_from(1), "seed": _int_from(0), "workers": _int_from(1),
    "out": _PATH, "output_format": _one_of("csv", "json"),
    # sweep
    "theta_grid": _GRID, "epsilon_grid": _GRID, "d_grid": _GRID,
    # chsh
    "angles_deg": _REALS, "chsh_mode": _one_of("analytic", "both"),
    # climit / doubleslit
    "density_path": _PATH, "eps_values": _REALS, "out_prefix": _PATH, "peak_ratio": _REAL,
}


def _check(name: str, value) -> None:
    want, fits = _FIELD_TYPES[name]
    if not fits(value):
        raise ValidationError(f"{name} must be {want}, got {value!r}")


def run(config: ExperimentConfig) -> int:
    """Validate and execute an experiment; returns the exit status.

    Raises :class:`ValidationError` for bad configs and density files and
    for a cut eps or peak ratio that leaves no finite density, and lets I/O
    errors propagate; the CLI maps both onto their exit codes.
    """
    config.validate()
    return _RUNNERS[config.kind](config)
