"""Command-line front end: bounds tables, analytic predictions, seeded
Monte Carlo runs, (N, phi) sweeps, and the property-check suites.

Output is CSV with a commented manifest header (or a JSON mirror via
--format json).  Angles are printed in degrees with 2 decimals; correlation
sums and bounds with 4 decimals.  Exit codes: 0 success, 1 usage, config
or input error, 2 property-check failure, 3 degenerate data.  The argument
parser is built once per process, on the first call of main.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import io
import json
import math
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, _checks, inequality, quantum, simulate
from .simulate import DegenerateDataError, ExperimentConfig, derive_seed
from .sphere import PlaneFrame, UnitVector, default_frames

__all__ = ["main", "ConfigError", "load_config", "read_manifest"]

_MANIFEST_PREFIX = "# nlvtest-manifest "


class ConfigError(ValueError):
    """A configuration file or state spec could not be parsed."""


# ---------------------------------------------------------------------------
# configuration files


_CONFIG_KEYS = {
    "pair_rate",
    "accidental_rate",
    "integration_time",
    "state",
    "visibilities",
    "seed",
    "subtract_accidentals",
    "plane1_normal",
    "plane1_seed",
    "plane2_normal",
    "plane2_seed",
}


def _parse_vector(text: str) -> UnitVector:
    parts = [float(s) for s in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"expected three components, got {len(parts)}")
    return UnitVector(*parts)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse a flat key = value config file into an ExperimentConfig."""
    values: dict[str, str] = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = value.strip()
    return config_from_values(values, source=str(path))


def config_from_values(values: dict[str, str], source: str) -> ExperimentConfig:
    if "state" in values and "visibilities" in values:
        raise ConfigError(f"{source}: 'state' and 'visibilities' are mutually exclusive")
    kwargs: dict = {}
    try:
        for key in ("pair_rate", "accidental_rate", "integration_time"):
            if key in values:
                kwargs[key] = float(values[key])
        if "state" in values:
            quantum.parse_state(values["state"])  # validate early
            kwargs["state"] = values["state"]
        if "visibilities" in values:
            spec = "visibilities:" + values["visibilities"]
            quantum.parse_state(spec)
            kwargs["state"] = spec
        if "seed" in values:
            kwargs["rng_seed"] = int(values["seed"])
        if "subtract_accidentals" in values:
            kwargs["subtract_accidentals"] = _parse_bool(values["subtract_accidentals"])
        if any(key.startswith("plane") for key in values):
            kwargs["frames"] = tuple(
                PlaneFrame(
                    normal=_parse_vector(values[f"plane{i}_normal"]) if f"plane{i}_normal" in values else d.normal,
                    seed=_parse_vector(values[f"plane{i}_seed"]) if f"plane{i}_seed" in values else d.seed,
                )
                for i, d in enumerate(default_frames(), start=1)
            )
        return ExperimentConfig(**kwargs)
    except (ValueError, TypeError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{source}: {exc}") from None


# ---------------------------------------------------------------------------
# manifests and output


def _vector_text(v: UnitVector) -> str:
    return f"{v.x!r},{v.y!r},{v.z!r}"


def build_manifest(command: str, args: argparse.Namespace,
                   config: ExperimentConfig | None) -> dict[str, str]:
    """Provenance block attached to every output: tool version, the Python
    and numpy versions (seeded draws rest on numpy's Poisson algorithm),
    command, seed, config snapshot, and timestamp, sufficient to reproduce
    the data section bit-exactly."""
    manifest = {
        "tool": "nlvtest",
        "version": __version__,
        "format": "1",  # bumped whenever a printed cell or JSON field changes
        "python": platform.python_version(),
        "numpy": np.__version__,
        "command": command,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    for key in ("n", "runs"):
        if getattr(args, key, None) is not None:
            manifest[key] = str(getattr(args, key))
    if getattr(args, "n_list", None):
        manifest["n_list"] = ",".join(str(n) for n in args.n_list)
    if getattr(args, "phi", None) is not None:
        manifest["phi_deg"] = repr(args.phi)
    if getattr(args, "phi_range", None) is not None:
        manifest["phi_range_deg"] = f"{args.phi_range[0]!r}:{args.phi_range[1]!r}"
        manifest["step_deg"] = repr(args.step)
    if getattr(args, "state", None):
        manifest["state"] = args.state
    if config is not None:
        manifest["seed"] = str(config.rng_seed)
        manifest["config.pair_rate"] = repr(config.pair_rate)
        manifest["config.accidental_rate"] = repr(config.accidental_rate)
        manifest["config.integration_time"] = repr(config.integration_time)
        manifest["config.state"] = config.state
        manifest["config.subtract_accidentals"] = str(config.subtract_accidentals).lower()
        manifest["config.plane1_normal"] = _vector_text(config.frames[0].normal)
        manifest["config.plane1_seed"] = _vector_text(config.frames[0].seed)
        manifest["config.plane2_normal"] = _vector_text(config.frames[1].normal)
        manifest["config.plane2_seed"] = _vector_text(config.frames[1].seed)
    return manifest


def read_manifest(path: str | Path) -> dict[str, str]:
    """Recover the manifest embedded in a CSV output file."""
    manifest = {}
    for line in Path(path).read_text().splitlines():
        if line.startswith(_MANIFEST_PREFIX):
            key, _, value = line[len(_MANIFEST_PREFIX):].partition("=")
            manifest[key] = value
    return manifest


def _emit(args: argparse.Namespace, manifest: dict[str, str], columns: list[str],
          rows: list[list[str]]) -> None:
    if args.format == "json":
        payload = {
            "manifest": manifest,
            "records": [dict(zip(columns, row)) for row in rows],
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        buf = io.StringIO()
        for key, value in manifest.items():
            buf.write(f"{_MANIFEST_PREFIX}{key}={value}\n")
        buf.write(",".join(columns) + "\n")
        for row in rows:
            buf.write(",".join(row) + "\n")
        text = buf.getvalue()
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def _fmt_deg(x: float) -> str:
    return f"{x:.2f}"


def _fmt4(x: float) -> str:
    return f"{x:.4f}"


def _fmt_opt(x: float | None, spec: str) -> str:
    """``x`` formatted by ``spec``, or a blank cell for an undefined value."""
    return "" if x is None else format(x, spec)


def _phi_grid_deg(args: argparse.Namespace) -> list[float]:
    if getattr(args, "phi", None) is not None:
        return [args.phi]
    lo, hi = args.phi_range
    if args.step is None or args.step <= 0.0:
        raise ConfigError("--phi-range requires a positive --step")
    spans = (hi - lo) / args.step + 1e-9  # inf when the step is tiny against the range
    if spans >= 1_000_000:  # over 1000000 angles, refused before anything is allocated
        raise ConfigError(f"--phi-range with --step {args.step!r} gives over 1000000 angles")
    return [lo + k * args.step for k in range(math.floor(spans) + 1)]


# ---------------------------------------------------------------------------
# subcommands


def cmd_bounds(args: argparse.Namespace) -> int:
    grid = _phi_grid_deg(args)
    columns = ["phi_deg"] + [f"bound_n{n}" for n in args.n_list] + ["singlet_l"]
    rows = []
    for deg in grid:
        phi = math.radians(deg)
        row = [_fmt_deg(deg)]
        row += [_fmt4(inequality.nlv_bound(n, phi)) for n in args.n_list]
        row.append(_fmt4(quantum.singlet_L(phi)))
        rows.append(row)
    _emit(args, build_manifest("bounds", args, None), columns, rows)
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    if args.state:
        config = dataclasses.replace(config, state=args.state)
    state = config.resolve_state()
    phi = math.radians(args.phi)
    report = inequality.l_n(state, config.frames, args.n, phi)
    best_phi, best_violation = inequality.max_violation_phi(state, config.frames, args.n)
    columns = [
        "n", "phi_deg", "l_value", "bound", "violation",
        "best_phi_deg", "best_violation",
    ]
    rows = [[
        str(args.n),
        _fmt_deg(args.phi),
        _fmt4(report.l_value),
        _fmt4(report.bound),
        _fmt4(report.violation),
        _fmt_deg(math.degrees(best_phi)),
        _fmt4(best_violation),
    ]]
    _emit(args, build_manifest("predict", args, config), columns, rows)
    return 0


_SIM_COLUMNS = [
    "run", "n", "phi_deg", "l_exp", "sigma", "bound", "violation_sigmas",
    "seed", "status", "std_l", "std_over_sigma",
]


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    phi = math.radians(args.phi)
    summary = simulate.replicate(config, args.n, phi, args.runs)
    n, deg = str(args.n), _fmt_deg(args.phi)
    rows = []
    for run_idx, outcome in enumerate(summary.outcomes):
        seed_text = "-".join(str(s) for s in derive_seed(config.rng_seed, run_idx))
        if isinstance(outcome, DegenerateDataError):
            rows.append([str(run_idx), n, deg, "", "", "", "", seed_text,
                         f"degenerate-data ({outcome})", "", ""])
        else:
            rows.append([
                str(run_idx), n, deg, _fmt4(outcome.l_value), _fmt4(outcome.sigma),
                _fmt4(outcome.bound), _fmt_opt(outcome.violation_sigmas, ".2f"),
                seed_text, "ok", "", "",
            ])
    if summary.reports:
        rows.append([
            "summary", n, deg, _fmt4(summary.mean_l), _fmt4(summary.mean_sigma),
            _fmt4(inequality.nlv_bound(args.n, phi)), _fmt_opt(summary.mean_violation, ".2f"),
            "", "summary", _fmt_opt(summary.std_l, ".4f"),
            _fmt_opt(summary.std_over_sigma, ".3f"),
        ])
    _emit(args, build_manifest("simulate", args, config), _SIM_COLUMNS, rows)
    if not summary.reports:
        print("error: every run produced degenerate data", file=sys.stderr)
        return 3
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    state = config.resolve_state()
    grid = _phi_grid_deg(args)
    columns = [
        "n", "phi_deg", "bound", "analytic_l", "singlet_l",
        "mean_l_exp", "std_l", "mean_sigma", "mean_violation", "runs", "status",
    ]
    rows = []
    any_success = False
    for n in args.n_list:
        analytic_reports = inequality.l_n(state, config.frames, n, [math.radians(d) for d in grid])
        for phi_idx, (deg, analytic) in enumerate(zip(grid, analytic_reports)):
            cell_config = dataclasses.replace(
                config, rng_seed=derive_seed(config.rng_seed, n, phi_idx)
            )
            summary = simulate.replicate(cell_config, n, analytic.phi, args.runs)
            succeeded = len(summary.reports)
            failures = summary.runs - succeeded
            any_success = any_success or succeeded > 0
            rows.append([
                str(n), _fmt_deg(deg), _fmt4(analytic.bound),
                _fmt4(analytic.l_value), _fmt4(quantum.singlet_L(analytic.phi)),
                _fmt_opt(summary.mean_l, ".4f"), _fmt_opt(summary.std_l, ".4f"),
                _fmt_opt(summary.mean_sigma, ".4f"),
                _fmt_opt(summary.mean_violation, ".2f"), str(succeeded),
                "ok" if failures == 0 else f"degenerate-data x{failures}",
            ])
    _emit(args, build_manifest("sweep", args, config), columns, rows)
    return 0 if any_success else 3


def cmd_check(args: argparse.Namespace) -> int:
    results = []
    if args.suite in ("lemma", "all"):
        results += _checks.lemma_suite(trials=args.trials, seed=args.seed)
    if args.suite in ("leggett", "all"):
        results += _checks.leggett_suite(
            trials=args.trials,
            seed=args.seed,
            ensembles=args.ensembles,
            grid_deg=args.grid_deg,
        )
    failed = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        if not result.passed:
            failed += 1
        print(f"{status} {result.name}: {result.detail}")
    print(f"{len(results) - failed}/{len(results)} properties passed")
    return 2 if failed else 0


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    config = load_config(args.config) if args.config else ExperimentConfig()
    if getattr(args, "seed", None) is not None:
        config = dataclasses.replace(config, rng_seed=args.seed)
    if getattr(args, "subtract_accidentals", False):
        config = dataclasses.replace(config, subtract_accidentals=True)
    return config


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _checked(convert, valid, need: str):
    """Argparse type: ``convert`` the text, then require ``valid(value)``."""
    def parse(text: str):
        try:
            value = convert(text)
            if valid(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"need {need}, got {text!r}")
    return parse


_positive_int = _checked(int, lambda n: n >= 1, "a positive integer")
_non_negative_int = _checked(int, lambda n: n >= 0, "a non-negative integer")
_finite_float = _checked(float, math.isfinite, "a finite number")
_non_negative_float = _checked(float, lambda x: 0.0 <= x < math.inf,
                               "a non-negative finite number")


def _parse_n_list(text: str) -> list[int]:
    values = [_positive_int(s) for s in text.split(",") if s.strip()]
    if not values:
        raise argparse.ArgumentTypeError(f"need positive setting counts, got {text!r}")
    return values


def _parse_phi_range(text: str) -> tuple[float, float]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"bad angle range {text!r}, expected LO:HI")
    lo_f, hi_f = _finite_float(lo), _finite_float(hi)
    if hi_f < lo_f:
        raise argparse.ArgumentTypeError(f"empty angle range {text!r}")
    return (lo_f, hi_f)


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--output", metavar="PATH", default=None)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The nlvtest parser, built on the first call and shared after it."""
    parser = _Parser(
        prog="nlvtest",
        description="Finite-setting inequality tests of non-local-variable models",
    )
    parser.add_argument("--version", action="version", version=f"nlvtest {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    bounds = subs.add_parser("bounds", help="tabulate the model bound and singlet curve")
    bounds.add_argument("--n-list", type=_parse_n_list, required=True)
    group = bounds.add_mutually_exclusive_group(required=True)
    group.add_argument("--phi", type=_finite_float, help="difference angle in degrees")
    group.add_argument("--phi-range", type=_parse_phi_range, metavar="LO:HI")
    bounds.add_argument("--step", type=_finite_float, default=None, help="grid step in degrees")
    _add_output_flags(bounds)
    bounds.set_defaults(func=cmd_bounds)

    predict = subs.add_parser("predict", help="analytic prediction for a state")
    predict.add_argument("--state", default=None,
                         help="state spec, e.g. singlet or werner:0.96")
    predict.add_argument("--config", metavar="PATH", default=None)
    predict.add_argument("--n", type=_positive_int, required=True)
    predict.add_argument("--phi", type=_finite_float, required=True, help="degrees")
    _add_output_flags(predict)
    predict.set_defaults(func=cmd_predict)

    sim = subs.add_parser("simulate", help="seeded Monte Carlo counting runs")
    sim.add_argument("--config", metavar="PATH", default=None)
    sim.add_argument("--n", type=_positive_int, required=True)
    sim.add_argument("--phi", type=_finite_float, required=True, help="degrees")
    sim.add_argument("--runs", type=_positive_int, default=1)
    sim.add_argument("--seed", type=_non_negative_int, default=None)
    sim.add_argument("--subtract-accidentals", action="store_true")
    _add_output_flags(sim)
    sim.set_defaults(func=cmd_simulate)

    sweep = subs.add_parser("sweep", help="grid of simulations over (N, phi)")
    sweep.add_argument("--config", metavar="PATH", default=None)
    sweep.add_argument("--n-list", type=_parse_n_list, required=True)
    sweep.add_argument("--phi-range", type=_parse_phi_range, required=True, metavar="LO:HI")
    sweep.add_argument("--step", type=_finite_float, required=True, help="degrees")
    sweep.add_argument("--runs", type=_positive_int, default=10)
    sweep.add_argument("--seed", type=_non_negative_int, default=None)
    sweep.add_argument("--subtract-accidentals", action="store_true")
    _add_output_flags(sweep)
    sweep.set_defaults(func=cmd_sweep)

    check = subs.add_parser("check", help="run the property suites")
    check.add_argument("suite", choices=("lemma", "leggett", "all"))
    check.add_argument("--trials", type=_positive_int, default=100_000)
    check.add_argument("--ensembles", type=_positive_int, default=100)
    check.add_argument("--grid-deg", type=_non_negative_float, default=0.0,
                       help="also scan the two-setting schedule at this resolution")
    check.add_argument("--seed", type=_non_negative_int, default=0)
    check.set_defaults(func=cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits for usage errors, --help, --version
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:  # ConfigError and the library's input checks
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DegenerateDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
