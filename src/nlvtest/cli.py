"""Command-line front end: bounds tables, analytic predictions, seeded
Monte Carlo runs, (N, phi) sweeps, and the property-check suites.

Output is CSV with a commented manifest header (or a JSON mirror via
--format json); a float cell prints the decimals ``_DECIMALS`` gives its
column, 4 if it names none.  Exit codes: 0 success, 1 usage, config or
input error, 2 property-check failure, 3 degenerate data.  The argument
parser is built once per process, on the first call of main.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, _checks, inequality, quantum, simulate
from .simulate import ExperimentConfig
from .sphere import default_frames, plane_settings, row_setting

__all__ = ["main", "ConfigError", "load_config", "read_manifest"]

_MANIFEST_PREFIX = "# nlvtest-manifest "


class ConfigError(ValueError):
    """A configuration file, state spec, flag or output path was refused."""


# ---------------------------------------------------------------------------
# configuration files


def _parse_vector(text: str) -> tuple[float, float, float]:
    parts = tuple(float(s) for s in text.split(","))
    if len(parts) != 3:
        raise ValueError(f"expected three components, got {len(parts)}")
    return parts


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _vector_text(row: np.ndarray) -> str:
    return ",".join(repr(x) for x in row.tolist())


def _parse_state(text: str) -> str:
    quantum.parse_state(text)  # refused at its line; the config parses it again
    return text


# One row per config-file key: the ExperimentConfig field it sets (a plane
# key sets one (plane, row) of ``frames``), how its text parses, and how the
# manifest prints the stored value.  The manifest writes every key as
# ``config.KEY``, so its config lines, prefix stripped, are a config file; a
# flag of the same name (--seed, --state, --subtract-accidentals) overrides
# its key.
_FIELDS = {
    "pair_rate": ("pair_rate", float, repr),
    "accidental_rate": ("accidental_rate", float, repr),
    "integration_time": ("integration_time", float, repr),
    "state": ("state", _parse_state, str),
    "seed": ("rng_seed", int, str),
    "subtract_accidentals": ("subtract_accidentals", _parse_bool, lambda b: str(b).lower()),
    **{f"plane{plane + 1}_{name}": ((plane, row), _parse_vector, _vector_text)
       for plane in range(2) for row, name in enumerate(("normal", "seed"))},
}
# The command flags a manifest records, in its order: the manifest key, the
# flag's attribute and how its value prints; a flag not given is left out.
_COMMAND_KEYS = (
    ("n", "n", str),
    ("runs", "runs", str),
    ("n_list", "n_list", lambda ns: ",".join(str(n) for n in ns)),
    ("phi_deg", "phi", repr),
    ("phi_range_deg", "phi_range", lambda r: f"{r[0]!r}:{r[1]!r}"),
    ("step_deg", "step", repr),
)


def _fields(values: dict[str, object]) -> dict[str, object]:
    """ExperimentConfig keyword arguments setting each key of ``values`` to
    its parsed value; plane keys replace rows of the default frames."""
    kwargs: dict = {}
    for key, value in values.items():
        field = _FIELDS[key][0]
        if isinstance(field, tuple):  # a (plane, row) of the frames
            kwargs.setdefault("frames", default_frames().tolist())[field[0]][field[1]] = value
        else:
            kwargs[field] = value
    return kwargs


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse a flat key = value config file into an ExperimentConfig, in
    one pass that refuses the first bad line where it stands."""
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    given: set[str] = set()
    parsed = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        if name not in _FIELDS and name != "visibilities":
            raise ConfigError(f"{path}:{lineno}: unknown key {name!r}")
        if name in given:
            raise ConfigError(f"{path}:{lineno}: duplicate key {name!r}")
        given.add(name)
        if {"state", "visibilities"} <= given:
            raise ConfigError(f"{path}:{lineno}: 'state' and 'visibilities' are mutually exclusive")
        key = name
        if name == "visibilities":  # an input alias of state = visibilities:V1,V2,V3
            key, value = "state", "visibilities:" + value
        try:
            parsed[key] = _FIELDS[key][1](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {name}: {exc}") from None
    try:
        return ExperimentConfig(**_fields(parsed))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# manifests and output


def build_manifest(args: argparse.Namespace, config: ExperimentConfig | None) -> dict[str, str]:
    """Provenance block attached to every output: tool version, the Python
    and numpy versions (seeded draws rest on numpy's Poisson algorithm),
    command, timestamp, the command's flags and every config key as
    ``config.KEY``, sufficient to reproduce the data section bit-exactly."""
    manifest = {
        "tool": "nlvtest",
        "version": __version__,
        "format": "5",  # bumped whenever a printed cell or JSON field changes
        "python": platform.python_version(),
        "numpy": np.__version__,
        "command": args.subcommand,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    for key, attr, show in _COMMAND_KEYS:
        if (value := getattr(args, attr, None)) is not None:
            manifest[key] = show(value)
    if config is not None:
        for key, (field, _, show) in _FIELDS.items():
            stored = config.frames[field] if isinstance(field, tuple) else getattr(config, field)
            manifest["config." + key] = show(stored)
    return manifest


def read_manifest(path: str | Path) -> dict[str, str]:
    """Recover the manifest embedded in a CSV output file."""
    manifest = {}
    for line in Path(path).read_text().splitlines():
        if line.startswith(_MANIFEST_PREFIX):
            key, _, value = line[len(_MANIFEST_PREFIX):].partition("=")
            manifest[key] = value
    return manifest


# The float columns not printed to 4 decimals: angles and sigma counts 2, std_over_sigma 3
_DECIMALS = {"phi_deg": 2, "best_phi_deg": 2, "violation_sigmas": 2, "mean_violation": 2,
             "std_over_sigma": 3}


def _cell(value, column: str) -> str:
    """One data cell's text: text and ints as they are, a blank for None or
    NaN, a float to its column's decimals and unsigned if it rounds to zero
    (Python 3.10 has no "z" format option, so round first and add 0.0)."""
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        digits = _DECIMALS.get(column, 4)
        return f"{round(value, digits) + 0.0:.{digits}f}"
    return "" if value is None else str(value)


def _emit(args: argparse.Namespace, config: ExperimentConfig | None, columns: list[str],
          rows: list[list]) -> None:
    """Write the command's manifest and ``rows`` of values under ``columns``."""
    manifest = build_manifest(args, config)
    # text needs no call: most of a simulate run row is text formatted once per op
    rows = [[value if isinstance(value, str) else _cell(value, column)
             for column, value in zip(columns, row)] for row in rows]
    if args.format == "json":
        records = [dict(zip(columns, row)) for row in rows]
        text = json.dumps({"manifest": manifest, "records": records}, indent=2) + "\n"
    else:
        lines = [f"{_MANIFEST_PREFIX}{key}={value}" for key, value in manifest.items()]
        lines += [",".join(row) for row in [columns, *rows]]
        text = "\n".join(lines) + "\n"
    if args.output:
        try:
            Path(args.output).write_text(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output {args.output}: {exc}") from None
    else:
        sys.stdout.write(text)


def _phi_grid_deg(args: argparse.Namespace) -> list[float]:
    if getattr(args, "phi", None) is not None:
        if args.step is not None:  # it would be ignored
            raise ConfigError("--step applies to --phi-range, not --phi")
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
    phis = [math.radians(deg) for deg in grid]
    bounds = [inequality.nlv_bound(n, phis).tolist() for n in args.n_list]
    rows = [[deg, *cells, quantum.singlet_L(phi)] for deg, phi, *cells in zip(grid, phis, *bounds)]
    _emit(args, None, columns, rows)
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    state = config.two_qubit_state
    # one set of setting rows for the search and L: the config has checked its frames
    rows = plane_settings(config.frames, args.n)
    best_phi = inequality._max_violation_phi(state, *rows, args.n)
    phis = [math.radians(args.phi), best_phi]
    l_value, best_l = inequality._l_n(state, *rows, phis)
    bound, best_bound = inequality.nlv_bound(args.n, phis).tolist()
    columns = [
        "n", "phi_deg", "l_value", "bound", "violation",
        "best_phi_deg", "best_violation",
    ]
    rows = [[args.n, args.phi, l_value, bound, l_value - bound, math.degrees(best_phi),
             best_l - best_bound]]
    _emit(args, config, columns, rows)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    phi = math.radians(args.phi)
    summary = simulate.replicate(config, args.n, phi, args.runs)
    columns = [
        "run", "n", "phi_deg", "l_exp", "sigma", "bound", "violation_sigmas",
        "seed", "status", "std_l", "std_over_sigma",
    ]
    n, deg = _cell(args.n, "n"), _cell(args.phi, "phi_deg")  # per-op constants, formatted once
    bound = _cell(inequality.nlv_bound(args.n, phi), "bound")
    rows = []
    for run_idx, (l_value, sigma, z, empty_row) in enumerate(zip(
            summary.l_values.tolist(), summary.sigmas.tolist(),
            summary.violation_sigmas.tolist(), summary.empty_rows.tolist())):
        status = "ok" if empty_row < 0 else (  # a run without data: L, sigma and z are NaN
            "degenerate-data (no counts at plane {}, setting {}, theta={})".format(
                *row_setting(args.n, empty_row)))
        rows.append([run_idx, n, deg, l_value, sigma, bound if empty_row < 0 else None, z,
                     f"{config.rng_seed}-{run_idx}", status, "", ""])
    if summary.mean_l is not None:
        rows.append(["summary", n, deg, summary.mean_l, summary.mean_sigma, bound,
                     summary.mean_violation, "", "summary", summary.std_l, summary.std_over_sigma])
    _emit(args, config, columns, rows)
    return 0 if summary.mean_l is not None else 3


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    state = config.two_qubit_state
    grid = _phi_grid_deg(args)
    columns = [
        "n", "phi_deg", "bound", "analytic_l", "singlet_l",
        "mean_l_exp", "std_l", "mean_sigma", "mean_violation", "runs", "status",
    ]
    rows = []
    phis = [math.radians(d) for d in grid]
    for n in args.n_list:
        analytic = inequality.l_n(state, config.frames, n, phis).tolist()
        bounds = inequality.nlv_bound(n, phis).tolist()
        for phi_idx, (deg, phi, l_value, bound) in enumerate(zip(grid, phis, analytic, bounds)):
            summary = simulate.replicate(config, n, phi, args.runs, cell=(n, phi_idx))
            failures = int(np.count_nonzero(summary.empty_rows >= 0))
            rows.append([
                n, deg, bound, l_value, quantum.singlet_L(phi), summary.mean_l, summary.std_l,
                summary.mean_sigma, summary.mean_violation, summary.runs - failures,
                "ok" if failures == 0 else f"degenerate-data x{failures}",
            ])
    _emit(args, config, columns, rows)
    return 0 if any(row[-2] for row in rows) else 3  # the runs column: a cell had data


def cmd_check(args: argparse.Namespace) -> int:
    # the leggett suite's own flags, as given; the suite's defaults fill the rest
    given = {name: value for name, value in (("ensembles", args.ensembles), ("grid_deg", args.grid_deg))
             if value is not None}
    if args.suite == "lemma" and given:
        flag = "--" + next(iter(given)).replace("_", "-")
        raise ValueError(f"{flag} applies to the leggett suite, which check lemma does not run")
    results = []
    if args.suite in ("lemma", "all"):
        results += _checks.lemma_suite(trials=args.trials, seed=args.seed)
    if args.suite in ("leggett", "all"):
        results += _checks.leggett_suite(trials=args.trials, seed=args.seed, **given)
    for result in results:
        print(f"{'PASS' if result.passed else 'FAIL'} {result.name}: {result.detail}")
    failed = sum(not result.passed for result in results)
    print(f"{len(results) - failed}/{len(results)} properties passed")
    return 2 if failed else 0


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The --config file's config, or the defaults, under the flags named
    after config keys."""
    given = _fields({key: value for key in _FIELDS
                     if (value := getattr(args, key, None)) is not None})
    if not args.config:
        return ExperimentConfig(**given)
    config = load_config(args.config)
    return dataclasses.replace(config, **given) if given else config


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
    for i, n in enumerate(values):
        if n in values[:i]:  # a repeated N would print its columns or cells twice
            raise argparse.ArgumentTypeError(f"setting count {n} repeated in {text!r}")
    return values


def _parse_phi_range(text: str) -> tuple[float, float]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"bad angle range {text!r}, expected LO:HI")
    lo_f, hi_f = _finite_float(lo), _finite_float(hi)
    if hi_f < lo_f:
        raise argparse.ArgumentTypeError(f"empty angle range {text!r}")
    return (lo_f, hi_f)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The nlvtest parser, built on the first call and shared after it."""
    parser = _Parser(
        prog="nlvtest",
        description="Finite-setting inequality tests of non-local-variable models",
    )
    parser.add_argument("--version", action="version", version=f"nlvtest {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    # the flags two or more subcommands share, each declared once
    output, config, point, seeded = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    output.add_argument("--format", choices=("csv", "json"), default="csv")
    output.add_argument("--output", metavar="PATH", default=None)
    config.add_argument("--config", metavar="PATH", default=None)
    point.add_argument("--n", type=_positive_int, required=True)
    point.add_argument("--phi", type=_finite_float, required=True, help="degrees")
    seeded.add_argument("--seed", type=_non_negative_int, default=None)
    seeded.add_argument("--subtract-accidentals", action="store_true", default=None)

    bounds = subs.add_parser("bounds", parents=[output],
                             help="tabulate the model bound and singlet curve")
    bounds.add_argument("--n-list", type=_parse_n_list, required=True)
    group = bounds.add_mutually_exclusive_group(required=True)
    group.add_argument("--phi", type=_finite_float, help="difference angle in degrees")
    group.add_argument("--phi-range", type=_parse_phi_range, metavar="LO:HI")
    bounds.add_argument("--step", type=_finite_float, default=None, help="grid step in degrees")
    bounds.set_defaults(func=cmd_bounds)

    predict = subs.add_parser("predict", parents=[config, point, output],
                              help="analytic prediction for a state")
    predict.add_argument("--state", default=None,
                         help="state spec, e.g. singlet or werner:0.96")
    predict.set_defaults(func=cmd_predict)

    sim = subs.add_parser("simulate", parents=[config, point, seeded, output],
                          help="seeded Monte Carlo counting runs")
    sim.add_argument("--runs", type=_positive_int, default=1)
    sim.set_defaults(func=cmd_simulate)

    sweep = subs.add_parser("sweep", parents=[config, seeded, output],
                            help="grid of simulations over (N, phi)")
    sweep.add_argument("--n-list", type=_parse_n_list, required=True)
    sweep.add_argument("--phi-range", type=_parse_phi_range, required=True, metavar="LO:HI")
    sweep.add_argument("--step", type=_finite_float, required=True, help="degrees")
    sweep.add_argument("--runs", type=_positive_int, default=10)
    sweep.set_defaults(func=cmd_sweep)

    check = subs.add_parser("check", help="run the property suites")
    check.add_argument("suite", choices=("lemma", "leggett", "all"))
    check.add_argument("--trials", type=_positive_int, default=100_000)
    check.add_argument("--ensembles", type=_positive_int, default=None,
                       help="local ensembles of the leggett suite (default 100)")
    check.add_argument("--grid-deg", type=_non_negative_float, default=None,
                       help="leggett suite: also scan the two-setting schedule at this resolution")
    check.add_argument("--seed", type=_non_negative_int, default=0)
    check.set_defaults(func=cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits for usage errors, --help, --version
        return int(exc.code or 0)
    try:
        code = args.func(args)
    except ValueError as exc:  # ConfigError and the library's input checks
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if code == 3:  # simulate and sweep have printed what data they had
        print("error: every run produced degenerate data", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
