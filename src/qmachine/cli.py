"""Command-line front end.

Subcommands: spin, sweep, chsh, climit, doubleslit, selftest.  Each accepts
--config pointing at a JSON file of :class:`ExperimentConfig` fields;
explicit flags override config-file values.  Errors are emitted as JSON on
stderr with the exit codes documented in :mod:`qmachine.harness`.
"""

from __future__ import annotations

import argparse
import json
import sys

from .epr import TSIRELSON_ANGLES_DEG
from .harness import (
    EXIT_IO,
    EXIT_VALIDATION,
    ExperimentConfig,
    ValidationError,
    run,
)


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmachine",
        description="Sphere-and-elastic measurement machine experiments",
    )
    sub = parser.add_subparsers(dest="kind", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file with config defaults")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--seed", type=int, dest="seed")
        p.add_argument("--workers", type=int, dest="workers")

    spin = sub.add_parser("spin", help="single measurement experiment")
    common(spin)
    spin.add_argument("--theta-deg", type=float, dest="theta_deg")
    spin.add_argument("--epsilon", type=float, dest="epsilon")
    spin.add_argument("--d", type=float, dest="d")
    spin.add_argument("-n", "--trials", type=int, dest="trials")
    spin.add_argument("--format", choices=("csv", "json"), dest="output_format")

    sweep = sub.add_parser("sweep", help="grid over theta x epsilon x d")
    common(sweep)
    sweep.add_argument("--theta-grid", type=_float_list, dest="theta_grid")
    sweep.add_argument("--epsilon-grid", type=_float_list, dest="epsilon_grid")
    sweep.add_argument("--d-grid", type=_float_list, dest="d_grid")
    sweep.add_argument("-n", "--trials", type=int, dest="trials")
    sweep.add_argument("--format", choices=("csv", "json"), dest="output_format")

    chsh = sub.add_parser("chsh", help="rod-coupled pair CHSH values")
    common(chsh)
    chsh.add_argument("--epsilon", type=float, dest="epsilon")
    chsh.add_argument("--epsilon-grid", type=_float_list, dest="epsilon_grid")
    angles = chsh.add_mutually_exclusive_group()
    angles.add_argument(
        "--angles", type=_float_list, dest="angles_deg",
        help="a,a',b,b' in degrees (coplanar settings)",
    )
    angles.add_argument(
        "--optimal", action="store_const", const=TSIRELSON_ANGLES_DEG, dest="angles_deg",
        help="use the settings maximizing |S|",
    )
    chsh.add_argument("--mode", choices=("analytic", "mc", "both"), dest="chsh_mode")
    chsh.add_argument("-n", "--trials", type=int, dest="trials")
    chsh.add_argument("--format", choices=("csv", "json"), dest="output_format")

    climit = sub.add_parser("climit", help="cut-and-renormalize a density")
    common(climit)
    climit.add_argument("--density", dest="density_path", help="two-column (x,value) CSV")
    climit.add_argument("--eps-values", type=_float_list, dest="eps_values")
    climit.add_argument(
        "--out-prefix", dest="out_prefix",
        help="also write transformed densities to PREFIX_eps*.csv",
    )

    slit = sub.add_parser("doubleslit", help="two-peak density cluster scan")
    common(slit)
    slit.add_argument("--ratio", type=float, dest="peak_ratio")
    slit.add_argument("--eps-values", type=_float_list, dest="eps_values")

    selftest = sub.add_parser("selftest", help="run the verification battery")
    selftest.add_argument("--config", help=argparse.SUPPRESS)

    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    data: dict = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValidationError(f"config file is not valid UTF-8 JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ValidationError("config file must hold a JSON object")
    data["kind"] = args.kind
    for key, value in vars(args).items():
        if key in ("kind", "config") or value is None:
            continue
        data[key] = value
    return ExperimentConfig.from_dict(data)


def _error(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        return run(config)
    except ValidationError as exc:
        _error("validation", str(exc))
        return EXIT_VALIDATION
    except OSError as exc:
        _error("io", str(exc))
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
