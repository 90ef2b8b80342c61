"""Workload inputs, operations and correctness checks for the fzwave benchmark.

Every workload is a closed loop: one client, one operation at a time. Seed 0
gives the fixed inputs listed in README.md; any other seed jitters the sizes
the cost depends on (x half-width, output times, Gaussian centre and width)
inside narrow stated ranges, so the cost per operation stays within a few per
cent of seed 0 while the computed numbers differ.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import fzwave
import fzwave.cli

WORKLOADS = ("solve_data", "cli_export")
PAPER = (0.25, 0.45, 0.1, 0.01)  # alpha, beta, tau, epsilon
# QuadratureConfig.abs_tol: an output may drift from its reference by at most
# TOL * max(1, |ref|_inf) in the L-inf norm.
TOL = 1e-8
REF_FILE = Path(__file__).resolve().parent / "ref_seed0.npz"
OUT_DIR = Path(__file__).resolve().parent / "out"  # CLI output files land here

# Relative jitter of sizes and absolute jitter of times for seeds other than 0.
HALF_WIDTH_JITTER = 0.02
T_JITTER = 0.01
CENTER_JITTER = 0.05
WIDTH_JITTER = 0.02
B_STEP_JITTER = 0.01


class CheckFailed(Exception):
    """An operation returned a result that misses its correctness check."""


def inputs(name: str, seed: int) -> dict:
    """Plain-number description of one workload's inputs for ``seed``."""
    rng = random.Random(seed)

    def rel(v, spread):
        return v if seed == 0 else round(v * (1.0 + rng.uniform(-spread, spread)), 6)

    def times(ts):
        return list(ts) if seed == 0 else [round(t + rng.uniform(-T_JITTER, T_JITTER), 6)
                                           for t in ts]

    if name == "solve_data":
        return {"half_width": rel(1.0, HALF_WIDTH_JITTER), "nx": 41, "t": times((0.5,)),
                "center": 0.0 if seed == 0 else round(rng.uniform(-CENTER_JITTER,
                                                                  CENTER_JITTER), 6),
                "width": rel(0.1, WIDTH_JITTER)}
    if name == "cli_export":
        # A: the paper's model, every spectral layer at work; B: formatting
        a = {"half_width": rel(1.0, HALF_WIDTH_JITTER), "nx": 201,
             "t": times((0.25, 0.5, 0.75, 1.0))}
        step = rel(0.08, B_STEP_JITTER)
        b = {"half_width": rel(4.0, HALF_WIDTH_JITTER), "nx": 10001,
             "t": [round(k * step, 6) for k in range(1, 26)]}
        return {"a": a, "b": b, "argv_a": _argv(a, seed, []),
                "argv_b": _argv(b, seed, ["--alpha", "0", "--beta", "1"])}
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def _argv(grid: dict, seed: int, model: list) -> list:
    """``fzwave kernel`` argv; seed 0 writes its round numbers short."""
    fmt = (lambda v: f"{v:g}") if seed == 0 else repr
    return ["kernel", *model, "--nx", str(grid["nx"]),
            "--x-min", fmt(-grid["half_width"]), "--x-max", fmt(grid["half_width"]),
            "--t-list", ",".join(fmt(t) for t in grid["t"])]


def x_grid(grid: dict) -> np.ndarray:
    return np.linspace(-grid["half_width"], grid["half_width"], grid["nx"])


@dataclass
class Case:
    """One workload at one seed: the operation and the check of its output."""

    name: str
    seed: int
    spec: dict
    run: Callable[[], object]
    check: Callable[[object], float]


def make_case(name: str, seed: int, in_process: bool = False, refs: dict | None = None) -> Case:
    """Build inputs and bind the operation and its check.

    ``in_process`` runs the CLI through run_command instead of a process;
    ``refs`` replaces the stored seed-0 references (make_refs.py passes none).
    """
    spec = inputs(name, seed)
    if refs is None:
        refs = _load_refs() if seed == 0 else {}

    if name == "solve_data":
        x, ts, p = x_grid(spec), tuple(spec["t"]), fzwave.ModelParams(*PAPER)
        u0 = fzwave.InitialData.gaussian(spec["center"], spec["width"])
        v0 = fzwave.InitialData.gaussian(spec["center"], spec["width"], 0.5)
        run = lambda: fzwave.solve_field(u0, v0, x, ts, p).values
        # off-centre data is not even in x, so only the reference can judge it
        check = lambda out: _kernel_check(out, refs.get("solve_data"), even=False)
    elif name == "cli_export":
        runner = _run_in_process if in_process else _run_subprocess
        OUT_DIR.mkdir(exist_ok=True)
        outs = OUT_DIR / "cli-a.csv", OUT_DIR / "cli-b.csv"
        run = lambda: [runner(spec["argv_a"], outs[0]), runner(spec["argv_b"], outs[1])]
        check = lambda out: _cli_check(out, spec, refs.get("cli_a"))
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    return Case(name, seed, spec, run, check)


def _load_refs() -> dict:
    with np.load(REF_FILE) as data:
        return {k: data[k] for k in data.files}


# ---------------------------------------------------------------------------
# CLI operations
# ---------------------------------------------------------------------------


def _run_subprocess(argv: list, path: Path) -> Path:
    """``python -m fzwave <argv>`` with stdout to ``path``.

    The output goes to a file rather than through this process, and is read
    back in blocks, so that this process stays smaller than the CLI processes:
    on Linux a child's peak RSS includes its parent's peak at spawn time.
    """
    # started as a user would: FZWAVE_THREADS unset, so the CLI uses every core
    env = {k: v for k, v in os.environ.items() if k != "FZWAVE_THREADS"}
    with open(path, "wb") as out:
        proc = subprocess.Popen([sys.executable, "-m", "fzwave", *argv], env=env,
                                stdout=out, stderr=subprocess.PIPE)
        try:
            _, err = proc.communicate(timeout=150)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    if proc.returncode != 0:
        raise CheckFailed(f"fzwave {argv[0]} exited {proc.returncode}: "
                          f"{err.decode(errors='replace').strip()[-200:]}")
    return path


def _run_in_process(argv: list, path: Path) -> Path:
    """The same command through ``fzwave.cli.run_command``, stdout to ``path``."""
    saved = os.environ.pop("FZWAVE_THREADS", None)
    stdout = sys.stdout
    try:
        with open(path, "w", encoding="ascii") as sys.stdout:
            code = fzwave.cli.run_command(argv)
    finally:
        sys.stdout = stdout
        if saved is not None:
            os.environ["FZWAVE_THREADS"] = saved
    if code != 0:
        raise CheckFailed(f"run_command({argv[0]}) returned {code}")
    return path


# ---------------------------------------------------------------------------
# Checks (run outside the timed window)
# ---------------------------------------------------------------------------


def _finite(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise CheckFailed("non-finite output")


def drift_check(values: np.ndarray, ref: np.ndarray) -> float:
    """L-inf distance from ``ref``; fails beyond TOL * max(1, |ref|_inf)."""
    _finite(values)
    if values.shape != ref.shape:
        raise CheckFailed(f"output shape {values.shape}, reference {ref.shape}")
    drift = float(np.max(np.abs(values - ref)))
    limit = TOL * max(1.0, float(np.max(np.abs(ref))))
    if drift > limit:
        raise CheckFailed(f"drift {drift:.3e} from the reference exceeds {limit:.3e}")
    return drift


def even_check(values: np.ndarray) -> float:
    """Rows on a symmetric x grid must be even; returns the largest asymmetry."""
    _finite(values)
    skew = float(np.max(np.abs(values - values[:, ::-1])))
    limit = TOL * max(1.0, float(np.max(np.abs(values))))
    if skew > limit:
        raise CheckFailed(f"row asymmetry {skew:.3e} exceeds {limit:.3e}")
    return skew


def _kernel_check(values, ref, even: bool = True) -> float:
    values = np.asarray(values)
    if ref is not None:
        return drift_check(values, ref)
    if even:
        return even_check(values)
    _finite(values)
    return 0.0


def read_field_csv(path: Path, grid: dict) -> np.ndarray:
    """Values of an ``x,t,u`` CSV file as (nt, nx), after checking its x and t columns."""
    blocks, tail = [], b""
    with open(path, "rb") as fh:
        if fh.readline() != b"x,t,u\n":
            raise CheckFailed(f"{path.name} does not start with the header x,t,u")
        while block := fh.read(1 << 22):
            block = tail + block
            cut = block.rfind(b"\n") + 1
            tail = block[cut:]
            if cut:
                lines = block[:cut].decode("ascii").splitlines()
                blocks.append(np.loadtxt(lines, delimiter=",", ndmin=2))
    if tail:
        raise CheckFailed(f"{path.name} does not end with a newline")
    nt, nx = len(grid["t"]), grid["nx"]
    table = np.concatenate(blocks) if blocks else np.empty((0, 3))
    if table.shape != (nt * nx, 3):
        raise CheckFailed(f"CSV has shape {table.shape}, expected {(nt * nx, 3)}")
    table = table.reshape(nt, nx, 3)
    if not (np.array_equal(table[0, :, 0], x_grid(grid))
            and np.array_equal(table[:, 0, 1], np.array(grid["t"], dtype=float))):
        raise CheckFailed("CSV x or t column differs from the requested grid")
    return table[:, :, 2]


def classical_pair(grid: dict, tau: float = PAPER[2], eps: float = PAPER[3]) -> np.ndarray:
    """Closed form at alpha = 0, beta = 1: (delta_eps(x - ct) + delta_eps(x + ct)) / 2."""
    x, c = x_grid(grid), math.sqrt(2.0 / (1.0 + tau))
    t = np.array(grid["t"], dtype=float)[:, None]
    bump = lambda z: np.exp(-np.square(z / eps)) / (eps * math.sqrt(math.pi))
    return 0.5 * (bump(x - c * t) + bump(x + c * t))


def _cli_check(out, spec: dict, ref) -> float:
    path_a, path_b = out
    drift_a = _kernel_check(read_field_csv(path_a, spec["a"]), ref)
    drift_b = drift_check(read_field_csv(path_b, spec["b"]), classical_pair(spec["b"]))
    return max(drift_a, drift_b)
