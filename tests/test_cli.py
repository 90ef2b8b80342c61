"""End-to-end tests of the command-line interface.

Everything goes through run_command (the same entry main() wraps), so exit
codes and stream contents are asserted exactly as a shell user would see them.
"""

import ast
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fzwave
from fzwave.cli import _ZERO_RUN, _grid_csv, run_command
from fzwave.errors import ValidationError
from fzwave.kernel import kernel_eps
from fzwave.params import ModelParams
from fzwave.solver import InitialData


def run(capsys, *argv):
    rc = run_command(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# -------------------------------------------------------------------- roots


def test_roots_alpha_zero_closed_form(capsys):
    rc, out, err = run(capsys, "roots", "--alpha", "0", "--tau", "0.1", "--theta", "1")
    assert rc == 0
    assert out == "s_z = 0 + 1.348400i\n"
    assert err == "conjugate = 0 - 1.348400i\n"


def test_roots_defaults_to_the_model_the_other_commands_use(capsys):
    plain = run(capsys, "roots", "--rho", "2")
    flagged = run(capsys, "roots", "--rho", "2", "--alpha", "0.25", "--beta", "0.45",
                  "--tau", "0.1")
    assert plain[0] == 0 and plain == flagged


def test_roots_experiment_parameters(capsys):
    rc, out, _ = run(capsys, "roots", "--alpha", "0.25", "--tau", "0.1", "--theta", "1")
    assert rc == 0
    assert out == "s_z = -0.119470 + 1.355246i\n"


def test_roots_with_neither_theta_nor_rho_take_theta_one(capsys):
    assert run(capsys, "roots") == run(capsys, "roots", "--theta", "1")


def test_roots_accepts_rho_beta_spelling(capsys):
    rc, out, _ = run(
        capsys, "roots", "--alpha", "0.25", "--tau", "0.1", "--rho", "1", "--beta", "0.45"
    )
    assert rc == 0
    assert out.startswith("s_z = -")


def test_main_exits_with_the_command_code(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["fzwave", "roots"])
    with pytest.raises(SystemExit) as exc:
        fzwave.cli.main()
    assert exc.value.code == 0
    assert capsys.readouterr().out == "s_z = -0.119470 + 1.355246i\n"


class _ClosedPipe:
    """A stdout whose reader has gone: writes are kept, flush raises."""

    def __init__(self, fd):
        self.fd, self.text = fd, []

    def write(self, s):
        self.text.append(s)
        return len(s)

    def flush(self):
        raise BrokenPipeError

    def fileno(self):
        return self.fd


def test_main_exits_1_when_the_reader_has_gone(monkeypatch, tmp_path):
    # main points the broken stdout's descriptor at devnull: here a temp file's, never fd 1
    with open(tmp_path / "stdout", "w") as fh:
        pipe = _ClosedPipe(fh.fileno())
        monkeypatch.setattr(sys, "stdout", pipe)
        monkeypatch.setattr(sys, "argv", ["fzwave", "roots"])
        with pytest.raises(SystemExit) as exc:
            fzwave.cli.main()
    assert exc.value.code == 1
    assert "".join(pipe.text) == "s_z = -0.119470 + 1.355246i\n"


# --------------------------------------------------------------- exit codes


def test_unknown_flag_exits_two(capsys):
    rc, _, err = run(capsys, "roots", "--frobnicate", "1")
    assert rc == 2
    assert "usage" in err.lower()


def test_missing_config_exits_two_and_names_file(capsys):
    rc, _, err = run(capsys, "kernel", "--config", "/nonexistent/cfg.json")
    assert rc == 2
    assert "/nonexistent/cfg.json" in err


def test_unreadable_config_exits_two_and_names_config(capsys, tmp_path):
    # a directory, and a file that is not UTF-8: usage errors, never a traceback
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"model": {"tau": 0.1}} # caf\xe9'.encode("latin-1"))
    # and JSON nested deeper than the parser's recursion limit
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    for path in (tmp_path, latin1, deep):
        rc, out, err = run(capsys, "kernel", "--config", str(path))
        assert rc == 2
        assert out == ""
        assert err.startswith("error: config=")


def test_validation_error_exits_two(capsys):
    rc, _, err = run(capsys, "kernel", "--alpha", "1.5", "--nx", "11")
    assert rc == 2
    assert err != ""


def test_numerics_error_exits_three(capsys):
    # at t = 50 the oracle's tail bound asks for a line past its start-node budget
    rc, _, err = run(capsys, "oracle", "--t", "50")
    assert rc == 3
    assert "p_max" in err


def test_oracle_past_the_exponential_range_exits_three(capsys):
    rc, out, err = run(capsys, "oracle", "--rho", "1", "--t", "800")
    assert (rc, out) == (3, "")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_help_exits_zero(capsys):
    rc, out, _ = run(capsys, "--help")
    assert rc == 0


# ------------------------------------------------------------------- kernel


def test_kernel_csv_round_trips_exactly(capsys):
    rc, out, _ = run(
        capsys, "kernel", "--alpha", "0.25", "--beta", "0.45", "--tau", "0.1",
        "--x-min", "-1", "--x-max", "1", "--nx", "21", "--t-list", "0.5,1",
    )
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,t,u"
    assert len(lines) == 1 + 21 * 2
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    # row-major in t, then x
    assert list(rows[:21, 1]) == [0.5] * 21
    assert list(rows[21:, 1]) == [1.0] * 21
    field = kernel_eps(
        np.linspace(-1.0, 1.0, 21), [0.5, 1.0], ModelParams(0.25, 0.45, 0.1)
    )
    # %.17g preserves doubles exactly
    np.testing.assert_array_equal(rows[:21, 2], field.values[0])
    np.testing.assert_array_equal(rows[21:, 2], field.values[1])


def test_kernel_json_output(capsys, tmp_path):
    path = tmp_path / "field.json"
    rc, _, _ = run(
        capsys, "kernel", "--nx", "11", "--x-min", "-1", "--x-max", "1",
        "--t-list", "1", "--format", "json", "--out", str(path),
    )
    assert rc == 0
    doc = json.loads(path.read_text())
    assert sorted(doc) == ["meta", "t", "u", "x"]
    assert doc["meta"]["model"]["alpha"] == 0.25  # default model
    assert len(doc["x"]) == 11 and len(doc["u"]) == 1
    field = kernel_eps(np.linspace(-1.0, 1.0, 11), [1.0], ModelParams(0.25, 0.45, 0.1))
    assert doc["u"] == field.values.tolist()


def _sampled(grid, values):
    return {"initial": {"u0": {"kind": "sampled", "samples": {"grid": grid, "values": values}}}}


BEYOND_FLOATS = [10**400, -(10**400)]  # JSON integers that no float holds
NON_NUMERIC_CONFIGS = [
    ({"grid": {"t_list": ["a"]}}, "t_list"),
    ({"grid": {"t_list": [[0.5, 1.0]]}}, "t_list"),
    ({"grid": {"x_min": "a"}}, "x_min"),
    ({"quadrature": {"rel_tol": "a"}}, "config"),
    ({"quadrature": {"rho_max": [860.0]}}, "config"),
    ({"quadrature": {"abs_tol": True}}, "config"),
    # JSON true/false where numbers belong: Python would take them for 1 and 0
    ({"grid": {"x_min": True}}, "x_min"),
    ({"grid": {"x_max": False}}, "x_max"),
    ({"grid": {"t_list": [True, 2.0]}}, "t_list"),
    ({"grid": {"t_list": True}}, "t_list"),
    (_sampled([-0.5, 0.0, True], [0.0, 1.0, 0.0]), "u0.samples.grid"),
    (_sampled([-0.5, 0.0, 0.5], [False, True, False]), "u0.samples.values"),
    *[({"initial": {"u0": {"kind": "gaussian", key: big}}}, key)
      for key in ("center", "width", "height") for big in BEYOND_FLOATS],
    *[({"grid": {key: big}}, key) for key in ("x_min", "x_max") for big in BEYOND_FLOATS],
    *[({"grid": {"t_list": [big]}}, "t_list") for big in BEYOND_FLOATS],
    *[(_sampled([-1.0, big, 1.0], [0.0, 1.0, 0.0]), "u0.samples.grid") for big in BEYOND_FLOATS],
    *[(_sampled([-1.0, 0.0, 1.0], [0.0, big, 0.0]), "u0.samples.values")
      for big in BEYOND_FLOATS],
    # a section that is not a JSON object
    ({"model": [1, 2]}, "model"),
    ({"grid": "ab"}, "grid"),
    ({"output": 5}, "output"),
    ({"grid": [["nx", 5]]}, "grid"),
    # a count that is not an integer, an output setting of the wrong kind
    ({"grid": {"nx": 10.5}}, "nx"),
    ({"output": {"format": "xml"}}, "format"),
    ({"output": {"path": 5}}, "path"),
]


@pytest.mark.parametrize("cfg, field", NON_NUMERIC_CONFIGS,
                         ids=[f"cfg{i}" for i in range(len(NON_NUMERIC_CONFIGS))])
def test_non_numeric_config_value_exits_two(capsys, tmp_path, cfg, field):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc, out, err = run(capsys, "kernel", "--config", str(cfg_path))
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: {field}=")


def test_non_numeric_t_list_flag_exits_two(capsys):
    rc, out, err = run(capsys, "kernel", "--t-list", "0.5,a")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: t_list='0.5,a' is invalid")


def test_run_config_needs_both_initial_data():
    with pytest.raises(ValidationError) as exc:
        fzwave.cli.RunConfig(ModelParams(0.25, 0.45, 0.1), fzwave.cli.GridSpec(),
                             {"u0": InitialData.zero()}, fzwave.cli.OutputSpec())
    assert exc.value.field == "initial"


@pytest.mark.parametrize("source", ["config", "flag"])
@pytest.mark.parametrize("nx", [10**400, fzwave.cli._NX_MAX + 1],
                         ids=["beyond-floats", "cap+1"])
def test_nx_past_its_cap_exits_two_before_a_grid_exists(monkeypatch, capsys, tmp_path, nx,
                                                         source):
    linspace = np.linspace

    def small_linspace(start, stop, num=50, *args, **kwargs):
        if num > fzwave.cli._NX_MAX:
            raise AssertionError(f"a {num}-point linspace was requested")
        return linspace(start, stop, num, *args, **kwargs)

    monkeypatch.setattr(np, "linspace", small_linspace)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"grid": {"nx": nx}}))
    argv = ["--config", str(cfg_path)] if source == "config" else ["--nx", str(nx)]
    rc, out, err = run(capsys, "kernel", *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: nx=")
    # the cap itself is admitted, and nothing is allocated until a grid is asked for
    assert fzwave.cli.GridSpec(nx=fzwave.cli._NX_MAX).nx == fzwave.cli._NX_MAX


@pytest.mark.parametrize("cfg, field", [
    ({"grid": {"nx": 10**400}}, "nx"),
    (_sampled(np.linspace(-1.0, 1.0, 1201).tolist(), [0.0] * 600 + [10**400] + [0.0] * 600),
     "u0.samples.values"),
], ids=["nx-beyond-floats", "1201-samples"])
def test_a_refused_long_value_makes_one_short_error_line(capsys, tmp_path, cfg, field):
    # the message shows the head of the value's repr and its full length
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc, out, err = run(capsys, "solve", "--config", str(cfg_path))
    assert rc == 2 and out == ""
    assert err.startswith(f"error: {field}=") and err.count("\n") == 1
    assert len(err) < 200
    assert "characters)" in err


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this Python reads ints of any length")
def test_an_int_past_the_digit_limit_is_invalid_json(capsys, tmp_path):
    # json raises a plain ValueError for an int of more than 4,300 digits
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"grid": {"nx": 1' + "0" * 5000 + "}}")
    rc, out, err = run(capsys, "solve", "--config", str(cfg_path))
    assert rc == 2 and out == ""
    assert err.startswith("error: config=") and err.count("\n") == 1
    assert "valid JSON" in err


@pytest.mark.parametrize("key", ["panels_per_period", "q_max", "rho_max", "rel_tol", "abs_tol"])
def test_removed_quadrature_setting_exits_two(capsys, tmp_path, key):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"quadrature": {key: 8}}))
    rc, _, err = run(capsys, "kernel", "--config", str(cfg_path))
    assert rc == 2
    assert err.startswith("error: config=['quadrature']")


@pytest.mark.parametrize("eps", [0.0, -1.0, float("nan"),
                                 pytest.param(10**400, id="int-beyond-floats")])
@pytest.mark.parametrize("command", [["kernel"], ["solve"], ["limits", "--case", "beta0"],
                                     ["oracle"]])
def test_bad_epsilon_exits_two_and_names_epsilon(capsys, tmp_path, command, eps):
    # by flag and by config file: a usage error, never a traceback
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": {"epsilon": eps}}))
    for source in (["--eps", repr(eps)], ["--config", str(cfg_path)]):
        rc, _, err = run(capsys, *command, *source)
        assert rc == 2
        assert err.startswith("error: epsilon=")


EDGE_VALUES = [0.1, -0.0, 5e-324, 1e22, 1.0 / 3.0, 2.0, -1.5e-300, 123456789.0]


def test_grid_csv_matches_per_value_formatting():
    # every edge value appears as an x, a t and in each value column
    n = len(EDGE_VALUES)
    u = np.array([[EDGE_VALUES[(i + j) % n] for j in range(n)] for i in range(n)])
    v = u[::-1]
    want = "x,t,u,v\n" + "".join(
        f"{x:.17g},{t:.17g},{u[i, j]:.17g},{v[i, j]:.17g}\n"
        for i, t in enumerate(EDGE_VALUES) for j, x in enumerate(EDGE_VALUES)
    )
    assert "".join(_grid_csv("x,t,u,v", EDGE_VALUES, EDGE_VALUES, u, v)) == want


def _table_csv(header: str, columns: list) -> str:
    """One row per index, formatted row by row: the writer's reference."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    return header + "\n" + "".join(row % tuple(r) for r in np.column_stack(columns).tolist())


@settings(derandomize=True, max_examples=60, deadline=None)
@given(nx=st.integers(1, 30), nt=st.integers(1, 5), n_values=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_grid_csv_matches_row_by_row_table(nx, nt, n_values, seed):
    rng = np.random.default_rng(seed)
    special = np.array([np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, 1e22, -1.5e-300])

    def draw(*shape):
        a = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        pick = rng.random(shape) < 0.2
        a[pick] = rng.choice(special, int(pick.sum()))
        return a

    x, ts = draw(nx), draw(nt)
    values = [draw(nt, nx) for _ in range(n_values)]
    header = ",".join(["x", "t"] + [f"v{k}" for k in range(n_values)])
    want = _table_csv(header, [np.tile(x, nt), np.repeat(ts, nx)] + [v.ravel() for v in values])
    assert "".join(_grid_csv(header, x, ts, *values)) == want


def test_grid_csv_copies_zero_runs_exactly():
    nx = 120
    x = np.linspace(-1.0, 1.0, nx)
    ts = [0.0, 0.25, 0.5, 1.0, 2.0]
    rng = np.random.default_rng(3)
    u, v = rng.standard_normal((2, len(ts), nx))
    u[0] = v[0] = 0.0  # an all-zero row
    u[1, :40] = v[1, :40] = 0.0  # a long zero run from the row's start ...
    u[1, 20] = -0.0  # ... with -0.0, which prints "-0", inside it
    u[1, 50:50 + _ZERO_RUN] = v[1, 50:50 + _ZERO_RUN] = 0.0  # runs at the threshold
    u[1, 80:80 + _ZERO_RUN - 1] = v[1, 80:80 + _ZERO_RUN - 1] = 0.0  # and one short of it
    u[2] = 0.0  # u zero everywhere, v not: no point is zero
    # row 3 has no zeros
    u[4, -50:] = v[4, -50:] = 0.0  # a long zero run to the row's end
    header = "x,t,u,v"
    want = _table_csv(header, [np.tile(x, len(ts)), np.repeat(ts, nx), u.ravel(), v.ravel()])
    got = "".join(_grid_csv(header, x, ts, u, v))
    assert got == want
    assert f"\n{x[20]:.17g},0.25,-0,0\n" in got
    # one value column
    want = _table_csv("x,t,u", [np.tile(x, len(ts)), np.repeat(ts, nx), u.ravel()])
    assert "".join(_grid_csv("x,t,u", x, ts, u)) == want


class _RecordingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


def test_csv_is_streamed_one_t_row_at_a_time(monkeypatch, tmp_path):
    nx, ts = 10001, [round(0.08 * k, 6) for k in range(1, 26)]
    args = ["kernel", "--alpha", "0", "--beta", "1", "--nx", str(nx), "--x-min", "-4",
            "--x-max", "4", "--t-list", ",".join(map(str, ts))]
    stdout = _RecordingStdout()
    with monkeypatch.context() as m:
        m.setattr(sys, "stdout", stdout)
        assert run_command(args) == 0
    text = stdout.getvalue()
    lines = text.splitlines(keepends=True)
    assert len(lines) == 1 + nx * len(ts)
    longest_row = max(sum(map(len, lines[1 + k * nx:1 + (k + 1) * nx])) for k in range(len(ts)))
    assert max(stdout.sizes) <= len(lines[0]) + longest_row
    path = tmp_path / "field.csv"
    assert run_command([*args, "--out", str(path)]) == 0
    assert path.read_bytes() == text.encode()


def test_unwritable_out_exits_two(capsys, tmp_path):
    path = tmp_path / "missing" / "x.csv"
    rc, out, err = run(capsys, "kernel", "--alpha", "0", "--beta", "1", "--nx", "11",
                       "--out", str(path))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: out=") and str(path) in err


def test_import_loads_no_scipy():
    # a fresh interpreter, given only the directory fzwave was imported from
    pkg_root = str(Path(fzwave.__file__).resolve().parents[1])
    code = ("import sys, fzwave, fzwave.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run(
        [sys.executable, "-B", "-c", code], env={"PATH": "/usr/bin:/bin", "PYTHONPATH": pkg_root},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# serve the public API and the acceptance criteria, never a field or a CLI run
_OFF_ROUTE = ("numpy.polynomial", "fzwave.fracops", "fzwave.specfun")
# serve only --config, --format json and the oracle, never a kernel or solve run from flags
_CLI_OFF_ROUTE = ("json", "fzwave.laplace_oracle")


def test_solve_route_loads_no_off_route_module(tmp_path):
    # every initial-data kind as u0 and as v0, on the spectral route and at
    # beta = 1, and both kernels, in a fresh interpreter
    pkg_root = str(Path(fzwave.__file__).resolve().parents[1])
    code = ("import sys, numpy as np, fzwave; D = fzwave.InitialData; "
            "x, ts, y = np.linspace(-1, 1, 21), [0.5], np.linspace(-0.5, 0.5, 11); "
            "data = [D.gaussian(0, 0.1), D.box(0, 0.3), "
            "D.sampled(y, np.sin(np.pi * (y + 0.5)) ** 2), D.dirac()]; "
            "[fzwave.solve_field(u0, v0, x, ts, fzwave.ModelParams(0.25, beta, 0.1)) "
            "for beta in (0.45, 1.0) for u0, v0 in zip(data, data[::-1])]; "
            "p = fzwave.ModelParams(0.25, 0.45, 0.1); "
            "fzwave.kernel_eps(x, ts, p); fzwave.kernel_eps_time_integrated(x, ts, p); "
            f"print(sorted(m for m in sys.modules if m.startswith({_OFF_ROUTE!r})))")
    proc = subprocess.run(
        [sys.executable, "-B", "-c", code], env={"PATH": "/usr/bin:/bin", "PYTHONPATH": pkg_root},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    # imported at start-up, before fzwave: reports the process's modules once, as
    # it ends, from os._exit (the launcher's end, which runs no atexit hook) or at exit
    watched = _OFF_ROUTE + _CLI_OFF_ROUTE
    (tmp_path / "sitecustomize.py").write_text(
        "import atexit, os, sys\n"
        "def _report():\n"
        f"    print(sorted(m for m in sys.modules if m.startswith({watched!r})),\n"
        "          file=sys.stderr, flush=True)\n"
        "def _exit(code, _exit=os._exit):\n"
        "    _report()\n"
        "    _exit(code)\n"
        "os._exit = _exit\n"
        "atexit.register(_report)\n"
    )
    y = np.linspace(-0.5, 0.5, 11)
    cfg_path = tmp_path / "sampled.json"
    cfg_path.write_text(json.dumps({
        "grid": {"nx": 21, "t_list": [0.5]},
        "initial": {"u0": {"kind": "sampled", "samples": {
            "grid": y.tolist(), "values": (np.sin(np.pi * (y + 0.5)) ** 2).tolist()}},
            "v0": {"kind": "box", "width": 0.3}},
    }))
    for argv in (["kernel", "--nx", "21", "--t-list", "0.5"],
                 ["solve", "--nx", "21", "--t-list", "0.5"],
                 ["solve", "--config", str(cfg_path)]):
        proc = subprocess.run(
            [sys.executable, "-B", "-m", "fzwave", *argv],
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": f"{tmp_path}{os.pathsep}{pkg_root}"},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("x,t,u\n")
        loaded = ast.literal_eval(proc.stderr)
        # a config file is JSON: only a run that reads one loads json
        assert ("json" in loaded) == ("--config" in argv)
        assert [m for m in loaded if m.split(".")[0] != "json"] == []


def test_import_loads_no_thread_pool():
    # every field computes its t rows on the calling thread: the spectral
    # kernel, the x-space time-fractional sum and the beta = 1 cut route start
    # no thread and load no concurrent module
    pkg_root = str(Path(fzwave.__file__).resolve().parents[1])
    code = ("import sys, threading, numpy as np, fzwave, fzwave.cli; started = []; "
            "start = threading.Thread.start; "
            "threading.Thread.start = lambda self: (started.append(self), start(self)); "
            "x, ts = np.linspace(-1, 1, 21), [0.25, 0.5]; "
            "fzwave.kernel_eps(x, ts, fzwave.ModelParams(0.25, 0.45, 0.1)); "
            "fzwave.kernel_time_fractional(x, ts, 0.25, 0.1, 0.01); "
            "fzwave.solve_field(fzwave.InitialData.zero(), fzwave.InitialData.dirac(), x, ts, "
            "fzwave.ModelParams(0.25, 1.0, 0.1)); "
            "print(len(started), sorted(m for m in sys.modules if m.split('.')[0] == 'concurrent'))")
    proc = subprocess.run(
        [sys.executable, "-B", "-c", code],
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": pkg_root},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 []\n"


def test_kernel_run_loads_no_masked_arrays():
    # numpy.ma costs ~15 ms and 1.2 MB to import, and np.unique pulls it in
    pkg_root = str(Path(fzwave.__file__).resolve().parents[1])
    code = ("import sys, numpy as np, fzwave; "
            "fzwave.kernel_eps(np.linspace(-1, 1, 41), [0.5], fzwave.ModelParams(0.25, 0.45, 0.1)); "
            "print('numpy.ma' in sys.modules)")
    proc = subprocess.run(
        [sys.executable, "-B", "-c", code], env={"PATH": "/usr/bin:/bin", "PYTHONPATH": pkg_root},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_reader_closing_early_exits_1_without_a_traceback():
    # as in `fzwave kernel ... | head -1`: about 1 MB of CSV, one line read
    pkg_root = str(Path(fzwave.__file__).resolve().parents[1])
    argv = ["kernel", "--alpha", "0", "--beta", "1", "--nx", "10001", "--t-list", "0.5,1"]
    proc = subprocess.Popen(
        [sys.executable, "-B", "-m", "fzwave", *argv],
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": pkg_root},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        assert proc.stdout.readline() == b"x,t,u\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 1
    finally:
        proc.kill()
        proc.wait()
    # no traceback, and no "Exception ignored" notice from the flush at shutdown
    assert err == ""


# -------------------------------------------------------------------- solve


def test_solve_writes_deterministic_csv(capsys, tmp_path):
    args = (
        "solve", "--beta", "0.45", "--nx", "41", "--x-min", "-2", "--x-max", "2",
        "--t-list", "0.5,1",
    )
    outputs = []
    for run_no in (1, 2):
        path = tmp_path / f"run{run_no}.csv"
        rc, _, _ = run(capsys, *args, "--out", str(path))
        assert rc == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]


def test_sampled_solve_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the beta = 1 velocity term's cut transform is a BLAS matrix product, as
    # is the transform of the sampled data (criterion 11 runs a sampled u0)
    y = np.linspace(-0.6, 0.6, 1201)
    noise = 1.0 + 0.1 * np.random.default_rng(0).standard_normal(y.size)
    samples = {"grid": y.tolist(), "values": ((1.0 - (y / 0.6) ** 2) ** 2 * noise).tolist()}
    pkg_root = str(Path(fzwave.__file__).resolve().parents[1])
    cfg_path = tmp_path / "v0.json"
    cfg_path.write_text(json.dumps({
        "grid": {"x_min": -1.0, "x_max": 1.0, "nx": 401, "t_list": [0.25, 0.5, 1.0]},
        "initial": {"u0": None, "v0": {"kind": "sampled", "samples": samples}},
    }))
    blobs = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-B", "-m", "fzwave", "solve", "--config", str(cfg_path),
             "--beta", "1"],
            env={"OPENBLAS_NUM_THREADS": threads, "PATH": "/usr/bin:/bin",
                 "PYTHONPATH": pkg_root},
            capture_output=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        blobs.append(proc.stdout)
    assert blobs[0] == blobs[1]


def test_solve_reads_sampled_data_from_the_config(capsys, tmp_path):
    y = np.linspace(-0.3, 0.3, 61)
    values = (1.0 - (y / 0.3) ** 2) ** 2
    cfg = {**_sampled(y.tolist(), values.tolist()),
           "grid": {"x_min": -1.0, "x_max": 1.0, "nx": 21, "t_list": [0.5]},
           "output": {"format": "json"}}
    cfg["initial"]["u0"]["height"] = 2.0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc, out, _ = run(capsys, "solve", "--config", str(cfg_path))
    assert rc == 0
    want = fzwave.solve_field(InitialData.sampled(y, values, height=2.0), InitialData.zero(),
                              np.linspace(-1.0, 1.0, 21), [0.5], ModelParams(0.25, 0.45, 0.1))
    assert json.loads(out)["u"] == want.values.tolist()


def test_solve_honours_config_file_with_flag_override(capsys, tmp_path):
    cfg = {
        "model": {"alpha": 0.25, "beta": 0.0, "tau": 0.1, "epsilon": 0.01},
        "grid": {"x_min": -1.0, "x_max": 1.0, "nx": 9, "t_list": [1.0]},
        "initial": {"u0": {"kind": "dirac"}},
        "output": {"format": "json"},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / "sol.json"
    rc, _, _ = run(
        capsys, "solve", "--config", str(cfg_path), "--tau", "0.2", "--out", str(out_path)
    )
    assert rc == 0
    doc = json.loads(out_path.read_text())
    assert doc["meta"]["model"]["beta"] == 0.0  # from file
    assert doc["meta"]["model"]["tau"] == 0.2  # flag wins over file
    assert doc["meta"]["initial"]["u0"]["kind"] == "dirac"


def test_config_rejects_unknown_sections(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"modle": {"alpha": 0.3}}))
    rc, _, err = run(capsys, "solve", "--config", str(cfg_path), "--nx", "9")
    assert rc == 2
    assert "modle" in err


# ------------------------------------------------------------------- limits


@pytest.mark.parametrize("case", ["beta0", "alpha0", "classical", "beta1"])
def test_limits_cases_emit_comparison_table(capsys, case):
    rc, out, _ = run(
        capsys, "limits", "--case", case, "--nx", "21", "--x-min", "-2",
        "--x-max", "2", "--t-list", "1",
    )
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,t,u_general,u_limit,abs_diff"
    assert len(lines) == 1 + 21
    gaps = [float(ln.split(",")[4]) for ln in lines[1:]]
    assert all(g >= 0.0 for g in gaps)


def test_limits_beta0_pinches_to_mollifier(capsys):
    rc, out, _ = run(
        capsys, "limits", "--case", "beta0", "--beta", "1e-4", "--nx", "11",
        "--x-min", "-1", "--x-max", "1", "--t-list", "0.5",
    )
    assert rc == 0
    lines = out.strip().split("\n")[1:]
    u_gen = np.array([float(ln.split(",")[2]) for ln in lines])
    u_lim = np.array([float(ln.split(",")[3]) for ln in lines])
    assert np.max(np.abs(u_gen - u_lim)) <= 0.02 * np.max(np.abs(u_lim))


def test_limits_honours_config_file_order(capsys, tmp_path):
    # an order from the config file counts as set, like its flag
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": {"beta": 1e-4}}))
    x = np.linspace(-1.0, 1.0, 11)
    rc, out, _ = run(
        capsys, "limits", "--case", "beta0", "--config", str(cfg_path), "--nx", "11",
        "--x-min", "-1", "--x-max", "1", "--t-list", "0.5",
    )
    assert rc == 0
    u_gen = np.array([float(ln.split(",")[2]) for ln in out.strip().split("\n")[1:]])
    want = kernel_eps(x, [0.5], ModelParams(0.25, 1e-4, 0.1, 0.01)).values[0]
    np.testing.assert_array_equal(u_gen, want)


@pytest.mark.parametrize("case, model, flags, order", [
    ("beta0", {}, [], (0.25, 1e-3)),
    ("beta0", {"alpha": 0.3}, [], (0.3, 1e-3)),
    ("beta1", {}, [], (0.25, 0.99)),
    ("beta1", {}, ["--alpha", "0.3"], (0.3, 0.99)),
    ("alpha0", {}, [], (1e-3, 0.45)),
    ("alpha0", {}, ["--beta", "0.6"], (1e-3, 0.6)),
    ("classical", {}, [], (1e-3, 0.99)),
    ("classical", {"alpha": 0.3}, [], (0.3, 0.99)),
    ("classical", {}, ["--beta", "0.6"], (1e-3, 0.6)),
])
def test_limits_unset_order_takes_the_case_probe(capsys, tmp_path, case, model, flags, order):
    # an order set by neither the config file nor a flag takes the case's probe
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": model}))
    rc, out, _ = run(
        capsys, "limits", "--case", case, "--config", str(cfg_path), *flags, "--nx", "11",
        "--x-min", "-1", "--x-max", "1", "--t-list", "0.5",
    )
    assert rc == 0
    u_gen = np.array([float(ln.split(",")[2]) for ln in out.strip().split("\n")[1:]])
    want = kernel_eps(np.linspace(-1.0, 1.0, 11), [0.5], ModelParams(*order, 0.1, 0.01))
    np.testing.assert_array_equal(u_gen, want.values[0])


# ------------------------------------------------------------------- oracle


def test_oracle_cross_checks_spectral_value(capsys):
    rc, out, _ = run(capsys, "oracle", "--rho", "1", "--t", "1")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "rho,t,s_spectral,s_oracle,abs_diff"
    rho, t, s_spec, s_orac, diff = (float(v) for v in lines[1].split(","))
    assert (rho, t) == (1.0, 1.0)
    assert diff == abs(s_spec - s_orac)
    assert diff <= 1e-5


def test_oracle_at_alpha_zero_takes_the_closed_form(capsys):
    rc, out, _ = run(capsys, "oracle", "--alpha", "0")
    assert rc == 0
    _, _, s_spec, s_orac, _ = (float(v) for v in out.strip().split("\n")[1].split(","))
    # S = cos(t omega), omega = sqrt(2 theta/(1 + tau)), theta = sin(0.45 pi/2) at rho = 1
    want = math.cos(math.sqrt(2.0 * math.sin(0.45 * math.pi / 2.0) / 1.1))
    assert s_spec == pytest.approx(want, abs=1e-12)
    assert s_orac == pytest.approx(want, abs=1e-5)


@pytest.mark.parametrize("name", ["u0", "v0"])
@pytest.mark.parametrize("data, field", [
    ({"kind": "gaussian", "samples": {"grid": [0.0, 1.0], "values": [0.0, 0.0]}}, "samples"),
    ({"kind": "sampled", "center": 3.0,
      "samples": {"grid": [-1.0, 0.0, 1.0], "values": [0.0, 1.0, 0.0]}}, "center"),
    ({"kind": "sampled", "width": 0.5,
      "samples": {"grid": [-1.0, 0.0, 1.0], "values": [0.0, 1.0, 0.0]}}, "width"),
    ({"kind": "dirac", "width": 0.3}, "width"),
])
def test_config_data_key_the_kind_does_not_use_exits_two(capsys, tmp_path, name, data, field):
    # such a key used to be dropped without a word, and the run exited 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": {"beta": 0.0}, "initial": {name: data},
                                    "grid": {"nx": 5, "t_list": [1.0]}}))
    rc, out, err = run(capsys, "solve", "--config", str(cfg_path))
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: {name}.{field}=")
