"""Command-line interface: configuration loading and CSV/JSON emission.

Subcommands
-----------
roots   Locate the characteristic zero pair for given (alpha, tau, theta).
kernel  Regularized solution kernel K_eps on a space-time grid.
solve   Displacement field from configured initial data.
limits  General assembly next to a closed-form limit, side by side.
oracle  Spectral kernel value vs. independent Bromwich inversion at (rho, t).

Exit codes: 0 success, 1 stdout closed by its reader before all output was
written (piped into ``head``, say; no traceback is printed), 2
validation/usage failure (including an --out path that cannot be opened for
writing), 3 numerical non-convergence. Data goes to --out (or stdout);
diagnostics go to stderr only, so redirected output stays machine-readable.
Field CSV uses the header ``x,t,u``, one row per sample, row-major in t then
x, values printed with 17 significant digits (which round-trip float64
exactly). Rows are streamed one t at a time, and only
after the whole field is computed, so a numerical failure leaves no partial
output. Running the same configuration twice produces byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from .charfun import CharParams, theta_of_rho
from .errors import NumericsError, ValidationError
from .kernel import (
    Field,
    _check_grids,
    delta_eps,
    kernel_classical,
    kernel_eps,
    kernel_time_fractional,
    spectral_kernel,
    spectral_kernel_alpha0,
)
from .laplace_oracle import bromwich_invert
from .params import DEFAULT_EPSILON, ModelParams, _require_in, _require_reals
from .rootfinder import find_zero_pair
from .solver import InitialData, solve_field

__all__ = ["RunConfig", "run_command", "main"]

# the model of a run that sets no order, ratio or width (the paper's)
_MODEL_DEFAULTS = {"alpha": 0.25, "beta": 0.45, "tau": 0.1, "epsilon": DEFAULT_EPSILON}
# the near-limit orders each `limits` case runs the general assembly at, under
# any order that the config file or a flag sets
_LIMIT_PROBES = {"beta0": {"beta": 1e-3}, "beta1": {"beta": 0.99}, "alpha0": {"alpha": 1e-3},
                 "classical": {"alpha": 1e-3, "beta": 0.99}}
# most x points a grid may ask for, refused before the grid exists. No route's
# memory grows much with x below it: the beta = 1 x-space mollifier sum of
# `limits --case beta1` works in fixed _CHUNK x _CHUNK blocks per t row in
# progress (peak RSS 70 MB at 5,000 x and at 24,000 x, one t)
_NX_MAX = 24_000
# shortest run of all-zero points that the CSV writer copies as text: a
# shorter run costs more as its own piece than its values cost to format
_ZERO_RUN = 16


@dataclass(frozen=True)
class GridSpec:
    """Uniform x-grid plus output times, checked when constructed; the grid
    itself is built only by :meth:`x_grid`."""

    x_min: float = -4.0
    x_max: float = 4.0
    nx: int = 801
    t_list: tuple = (1.0,)

    def __post_init__(self) -> None:
        x_min = _require_in("x_min", self.x_min, "(-inf, inf)")
        x_max = _require_in("x_max", self.x_max, f"({x_min!r}, inf)")
        nx_range = f"[3, {_NX_MAX}] (an integer)"
        if not isinstance(self.nx, int):
            raise ValidationError("nx", self.nx, nx_range)
        _require_in("nx", self.nx, nx_range)
        # the grid's two ends stand in for the grid, which is not built here
        object.__setattr__(self, "t_list", _check_grids((x_min, x_max), self.t_list)[1])

    def x_grid(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)


@dataclass(frozen=True)
class OutputSpec:
    path: str | None = None
    format: str = "csv"

    def __post_init__(self) -> None:
        if self.format not in ("csv", "json"):
            raise ValidationError("format", self.format, "one of {'csv', 'json'}")
        if self.path is not None and not isinstance(self.path, str):
            raise ValidationError("path", self.path, "a file path string or null")


@dataclass(frozen=True)
class RunConfig:
    """Everything one invocation needs: model, grid, data, output."""

    model: ModelParams
    grid: GridSpec
    initial: dict
    output: OutputSpec

    def __post_init__(self) -> None:
        u0 = self.initial.get("u0")
        v0 = self.initial.get("v0")
        if set(self.initial) != {"u0", "v0"} or not all(
            isinstance(d, InitialData) for d in (u0, v0)
        ):
            raise ValidationError(
                "initial", sorted(self.initial), "a dict {'u0': InitialData, 'v0': InitialData}"
            )


def _section(name: str, value, keys) -> dict:
    """``value``, one section of a config file, if it is a JSON object whose
    keys are all in ``keys``: the fields of the dataclass the section fills,
    or names."""
    allowed = sorted(k if isinstance(k, str) else k.name for k in keys)
    if not isinstance(value, dict):
        raise ValidationError(name, value, f"an object with keys from {allowed}")
    unknown = sorted(set(value) - set(allowed))
    if unknown:
        raise ValidationError(name, unknown, f"keys from {allowed}")
    return value


def _given(args: argparse.Namespace, **keys: str) -> dict:
    """The flags set in ``args``, each under the config key it overrides."""
    return {key: getattr(args, flag) for flag, key in keys.items()
            if getattr(args, flag, None) is not None}


def _initial_from_mapping(name: str, d: dict | None) -> InitialData:
    if d is None:
        return InitialData.zero()
    _section(name, d, fields(InitialData))
    kwargs = {k: d[k] for k in ("center", "width", "height") if k in d}
    kind = d.get("kind")
    # a key the kind does not use would otherwise be dropped without a word
    if kind != "sampled" and "samples" in d:
        raise ValidationError(f"{name}.samples", "<samples>", "no samples unless kind is sampled")
    if kind == "dirac" and "width" in d:
        raise ValidationError(f"{name}.width", d["width"], "absent for dirac data (a point)")
    if kind == "sampled":
        for key in ("center", "width"):
            if key in d:
                raise ValidationError(
                    f"{name}.{key}", d[key], "absent for sampled data (its samples place it)"
                )
        s = _section(f"{name}.samples", d.get("samples"), ("grid", "values"))
        grid, values = (_require_reals(f"{name}.samples.{key}", s.get(key), "(-inf, inf)")
                        for key in ("grid", "values"))
        return InitialData.sampled(grid, values, height=kwargs.get("height", 1.0))
    return InitialData(kind=kind, samples=None, **kwargs)


def _config_from_sources(file_cfg, args: argparse.Namespace,
                         probes: dict | None = None) -> RunConfig:
    """Merge config-file values with flag overrides and fill defaults, with
    ``probes`` over the default model."""
    cfg = _section("config", file_cfg, fields(RunConfig))
    model = ModelParams(**{**_MODEL_DEFAULTS, **(probes or {}),
                           **_section("model", cfg.get("model", {}), fields(ModelParams)),
                           **_given(args, alpha="alpha", beta="beta", tau="tau", eps="epsilon")})
    grid_d = {**_section("grid", cfg.get("grid", {}), fields(GridSpec)),
              **_given(args, x_min="x_min", x_max="x_max", nx="nx")}
    t_flag = getattr(args, "t_list", None)
    if t_flag is not None:
        grid_d["t_list"] = _parse_t_list(t_flag)
    grid = GridSpec(**grid_d)
    initial_d = _section("initial", cfg.get("initial", {}), ("u0", "v0"))
    initial = {
        "u0": _initial_from_mapping("u0", initial_d.get("u0", {"kind": "dirac"})),
        "v0": _initial_from_mapping("v0", initial_d.get("v0")),
    }
    output = OutputSpec(**{**_section("output", cfg.get("output", {}), fields(OutputSpec)),
                           **_given(args, out="path", format="format")})
    return RunConfig(model, grid, initial, output)


def _load_config_file(path: str | None):
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ValidationError("config", path, f"an existing JSON file ({path} not found)")
    except (OSError, UnicodeDecodeError) as e:
        raise ValidationError("config", path, f"a readable UTF-8 JSON file ({e})")
    except (ValueError, RecursionError) as e:  # a JSONDecodeError, or an int past the digit limit
        raise ValidationError("config", path, f"valid JSON ({e})")
    return cfg


def _parse_t_list(text: str) -> tuple:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise ValidationError("t_list", text, "comma-separated numbers, e.g. '0.5,1,2'")


# ---------------------------------------------------------------------------
# Output writers
# ---------------------------------------------------------------------------


def _field_json(field: Field) -> str:
    doc = {
        "x": field.x_grid.tolist(),
        "t": list(field.t_list),
        "u": field.values.tolist(),
        "meta": field.meta,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _grid_csv(header: str, x, ts, *values):
    """Yield the header, then one chunk of rows per t: ``x,t,v1,...`` for every x.

    Each entry of ``values`` has shape (len(ts), len(x)). Every number is
    printed with 17 significant digits; each x is formatted once. A t row is
    cut into runs of points that are, or are not, +0.0 in every column. A
    zero run is one join of its x strings around the fixed text ``t,0,...``;
    any other run's values go through a single ``%`` on a template holding
    the x and t strings.
    """
    yield header + "\n"
    xs = ["%.17g," % v for v in np.asarray(x, dtype=float).tolist()]
    cells = ",%.17g" * len(values) + "\n"
    zeros = ",0" * len(values) + "\n"
    table = np.stack(values, axis=-1).astype(float, copy=False)
    # the bit pattern, not ==, so that -0.0 (printed "-0") takes the template
    blank = ~np.any(table.view(np.uint64), axis=-1)
    for t, row, zero in zip(np.asarray(ts, dtype=float).tolist(), table, blank):
        line, zero_line = "%.17g" % t + cells, "%.17g" % t + zeros
        # [start, end) of each zero run long enough to be worth its own piece
        runs = np.flatnonzero(np.diff(zero, prepend=False, append=False)).reshape(-1, 2)
        runs = runs[runs[:, 1] - runs[:, 0] >= _ZERO_RUN].tolist()
        done = 0
        for a, b in runs + [[len(xs), len(xs)]]:
            if a > done:
                yield (line.join(xs[done:a]) + line) % tuple(row[done:a].ravel().tolist())
            if b > a:
                yield zero_line.join(xs[a:b]) + zero_line
            done = b


def _emit(chunks, path: str | None) -> None:
    if path is None:
        sys.stdout.writelines(chunks)
        return
    try:
        fh = open(path, "w", encoding="utf-8", newline="\n")
    except OSError:
        raise ValidationError("out", path, "a writable file path")
    with fh:
        fh.writelines(chunks)


def _emit_field(field: Field, output: OutputSpec) -> None:
    if output.format == "csv":
        chunks = _grid_csv("x,t,u", field.x_grid, field.t_list, field.values)
    else:
        chunks = [_field_json(field)]
    _emit(chunks, output.path)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _fmt_root_part(v: float) -> str:
    s = f"{v:.6f}"
    return "0" if s in ("0.000000", "-0.000000") else s


def _cmd_roots(args: argparse.Namespace) -> int:
    alpha, beta, tau = (_MODEL_DEFAULTS[k] if getattr(args, k) is None else getattr(args, k)
                        for k in ("alpha", "beta", "tau"))
    if args.theta is not None:
        theta = args.theta
    elif args.rho is not None:
        theta = float(theta_of_rho(args.rho, beta))
    else:
        theta = 1.0
    pair = find_zero_pair(CharParams(alpha=alpha, tau=tau, theta=theta))
    s = pair.s_z
    print(f"s_z = {_fmt_root_part(s.real)} + {s.imag:.6f}i")
    print(f"conjugate = {_fmt_root_part(s.real)} - {s.imag:.6f}i", file=sys.stderr)
    return 0


def _cmd_kernel(args: argparse.Namespace) -> int:
    cfg = _config_from_sources(_load_config_file(args.config), args)
    field = kernel_eps(cfg.grid.x_grid(), cfg.grid.t_list, cfg.model)
    _emit_field(field, cfg.output)
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    cfg = _config_from_sources(_load_config_file(args.config), args)
    field = solve_field(
        cfg.initial["u0"], cfg.initial["v0"],
        cfg.grid.x_grid(), cfg.grid.t_list, cfg.model,
    )
    _emit_field(field, cfg.output)
    return 0


def _cmd_limits(args: argparse.Namespace) -> int:
    cfg = _config_from_sources(_load_config_file(args.config), args, _LIMIT_PROBES[args.case])
    m, x, ts = cfg.model, cfg.grid.x_grid(), cfg.grid.t_list
    # the general assembly at the near-limit model, next to the dedicated
    # closed form / limit route
    gen = kernel_eps(x, ts, m)
    if args.case == "beta0":
        row = np.asarray(delta_eps(x, m.epsilon))
        limit = np.vstack([row for _ in ts])
    elif args.case == "beta1":
        limit = kernel_time_fractional(x, ts, m.alpha, m.tau, m.epsilon).values
    elif args.case == "alpha0":
        limit = kernel_eps(x, ts, ModelParams(0.0, m.beta, m.tau, m.epsilon)).values
    else:
        limit = kernel_classical(x, ts, m.tau, m.epsilon).values

    chunks = _grid_csv("x,t,u_general,u_limit,abs_diff", x, ts,
                       gen.values, limit, np.abs(gen.values - limit))
    _emit(chunks, cfg.output.path)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    cfg = _config_from_sources(_load_config_file(args.config), args)
    rho = args.rho if args.rho is not None else 1.0
    t = args.t if args.t is not None else 1.0
    m = cfg.model
    if m.alpha == 0.0:
        spectral = float(spectral_kernel_alpha0(rho, t, m.beta, m.tau))
    else:
        spectral = spectral_kernel(rho, t, m).total
    oracle = bromwich_invert(rho, t, m)
    chunks = _grid_csv("rho,t,s_spectral,s_oracle,abs_diff", [rho], [t],
                       [[spectral]], [[oracle]], [[abs(spectral - oracle)]])
    _emit(chunks, cfg.output.path)
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


def _add_model_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--alpha", type=float, default=None, help="time-memory order in [0, 1)")
    sp.add_argument("--beta", type=float, default=None, help="space-memory order in [0, 1]")
    sp.add_argument("--tau", type=float, default=None, help="relaxation ratio in (0, 1)")
    sp.add_argument("--eps", type=float, default=None, help="regularization width (default 0.01)")


def _add_grid_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--x-min", dest="x_min", type=float, default=None)
    sp.add_argument("--x-max", dest="x_max", type=float, default=None)
    sp.add_argument("--nx", type=int, default=None, help="number of x samples (>= 3)")
    sp.add_argument("--t-list", dest="t_list", type=str, default=None,
                    help="comma-separated output times, e.g. '0.5,1,2'")


def _add_io_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", type=str, default=None, help="JSON run configuration")
    sp.add_argument("--out", type=str, default=None, help="output file (default: stdout)")
    sp.add_argument("--format", type=str, default=None, choices=("csv", "json"))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fzwave",
        description="Wave fields with fractional time and space memory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("roots", help="characteristic zero pair for (alpha, tau, theta)")
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--tau", type=float, default=None)
    sp.add_argument("--theta", type=float, default=None, help="spectral weight (default 1)")
    sp.add_argument("--rho", type=float, default=None, help="wave number: derive theta via beta")
    sp.add_argument("--beta", type=float, default=None)
    sp.set_defaults(func=_cmd_roots)

    sp = sub.add_parser("kernel", help="regularized kernel K_eps on a grid")
    _add_model_flags(sp)
    _add_grid_flags(sp)
    _add_io_flags(sp)
    sp.set_defaults(func=_cmd_kernel)

    sp = sub.add_parser("solve", help="displacement field from initial data")
    _add_model_flags(sp)
    _add_grid_flags(sp)
    _add_io_flags(sp)
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("limits", help="general assembly next to a closed-form limit")
    sp.add_argument("--case", required=True, choices=tuple(_LIMIT_PROBES))
    _add_model_flags(sp)
    _add_grid_flags(sp)
    _add_io_flags(sp)
    sp.set_defaults(func=_cmd_limits)

    sp = sub.add_parser("oracle", help="spectral kernel vs Bromwich inversion at (rho, t)")
    _add_model_flags(sp)
    sp.add_argument("--rho", type=float, default=None, help="wave number (default 1)")
    sp.add_argument("--t", type=float, default=None, help="time (default 1)")
    _add_io_flags(sp)
    sp.set_defaults(func=_cmd_oracle)

    return parser


def run_command(argv) -> int:
    """Parse ``argv`` (no program name) and execute; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as e:
        # argparse already printed usage/help; 2 for bad usage, 0 for --help
        return int(e.code) if e.code is not None else 0
    try:
        return args.func(args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericsError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


def main() -> None:
    try:
        code = run_command(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early: point stdout at devnull (the Python docs'
        # recipe), so the flush at shutdown has nothing to complain about
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":  # pragma: no cover - python -m fzwave.cli
    # not an entry point: the launcher must run before NumPy loads
    print("error: run `python -m fzwave` or the `fzwave` script", file=sys.stderr)
    sys.exit(2)
