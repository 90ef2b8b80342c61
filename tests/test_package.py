"""The lazy package namespace and the CLI launcher.

``import fzwave`` loads nothing until a name is used; ``python -m fzwave`` and
the ``fzwave`` script both start through ``fzwave.__main__.main``, which asks
OpenBLAS for one thread unless the caller has chosen a count, imports the CLI
with the garbage collector paused, and ends the process with ``os._exit``
once stdout and stderr are flushed. In process, ``os._exit`` is patched.
"""

import ast
import gc
import importlib
import io
import os
import re
import runpy
import subprocess
import sys
import types
from pathlib import Path

import pytest

import fzwave
import fzwave.__main__ as launcher
import fzwave.cli

PKG_ROOT = str(Path(fzwave.__file__).resolve().parents[1])


def test_import_loads_neither_numpy_nor_a_submodule():
    code = ("import sys, fzwave; "
            "print(sorted(m for m in sys.modules "
            "if m == 'numpy' or m.startswith(('numpy.', 'fzwave.')))); "
            "print(fzwave.kernel.kernel_eps.__module__)")
    proc = subprocess.run(
        [sys.executable, "-B", "-c", code], env={"PATH": "/usr/bin:/bin", "PYTHONPATH": PKG_ROOT},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # a submodule is reachable as an attribute after a bare import
    assert proc.stdout == "[]\nfzwave.kernel\n"


def test_every_public_name_resolves_and_is_listed():
    listed = dir(fzwave)
    for name in fzwave.__all__:
        value = getattr(fzwave, name)
        # the submodule's own object, kept in the package after the first lookup
        assert getattr(sys.modules[value.__module__], name) is value
        assert vars(fzwave)[name] is value
        assert name in listed
    namespace = {}
    exec("from fzwave import *", namespace)
    assert set(fzwave.__all__) <= set(namespace)
    # SampledSignal lives in params; fracops, whose operators take it, still names it
    assert fzwave.fracops.SampledSignal is fzwave.SampledSignal


def test_a_submodule_is_an_attribute_of_the_package(monkeypatch):
    # as after a bare ``import fzwave``: the package dict does not hold it yet
    monkeypatch.delattr(fzwave, "kernel")
    assert fzwave.kernel is sys.modules["fzwave.kernel"]
    assert vars(fzwave)["kernel"] is fzwave.kernel


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fzwave.no_such_name
    assert not hasattr(fzwave, "no_such_name")


@pytest.mark.parametrize("preset", [None, "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                    "OMP_NUM_THREADS"])
def test_launcher_pins_blas_only_when_no_count_is_set(monkeypatch, preset):
    for var in launcher._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    if preset is not None:
        monkeypatch.setenv(preset, "3")
    monkeypatch.setattr(fzwave.cli, "main", lambda: None)
    exits = []
    monkeypatch.setattr(launcher.os, "_exit", exits.append)
    launcher.main()
    assert exits == [0]
    want = {None: "1", "OPENBLAS_NUM_THREADS": "3"}.get(preset)
    assert os.environ.get("OPENBLAS_NUM_THREADS") == want


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
@pytest.mark.parametrize("blas_env, tasks", [({}, 1), ({"OPENBLAS_NUM_THREADS": "2"}, 2)])
def test_cli_process_runs_on_the_blas_threads_asked_for(tmp_path, blas_env, tasks):
    if tasks > len(os.sched_getaffinity(0)):
        pytest.skip("OpenBLAS starts no more threads than there are usable cores")
    # imported at start-up, before fzwave: reports the process's threads when
    # the launcher ends it (os._exit runs no atexit hook)
    (tmp_path / "sitecustomize.py").write_text(
        "import os, sys\n"
        "def _exit(code, _exit=os._exit):\n"
        "    print(len(os.listdir('/proc/self/task')), file=sys.stderr, flush=True)\n"
        "    _exit(code)\n"
        "os._exit = _exit\n"
    )
    proc = subprocess.run(
        [sys.executable, "-B", "-m", "fzwave", "kernel", "--nx", "5", "--t-list", "0.5"],
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": f"{tmp_path}{os.pathsep}{PKG_ROOT}",
             **blas_env},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("x,t,u\n")
    assert proc.stderr == f"{tasks}\n"


def test_python_m_fzwave_runs_the_launcher(monkeypatch, capsys):
    # a BLAS count is set, so the launcher leaves this process's environment alone
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(sys, "argv", ["fzwave", "roots"])
    # runpy warns when the module it runs is already imported
    monkeypatch.delitem(sys.modules, "fzwave.__main__")
    # the launcher ends the process; here it only records the code
    exits = []
    monkeypatch.setattr(os, "_exit", exits.append)
    runpy.run_module("fzwave", run_name="__main__")
    assert exits == [0]
    assert capsys.readouterr().out == "s_z = -0.119470 + 1.355246i\n"


class _Stream(io.StringIO):
    """A stdout or stderr that counts the characters written since its last
    flush. A broken one's first flush raises BrokenPipeError, as a pipe whose
    reader has gone does until main points its descriptor at devnull."""

    def __init__(self, fd=None, broken=False):
        super().__init__()
        self.fd, self.broken, self.unflushed = fd, broken, 0

    def write(self, s):
        self.unflushed += len(s)
        return super().write(s)

    def flush(self):
        if self.broken:
            self.broken = False
            raise BrokenPipeError
        self.unflushed = 0

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("argv, broken, code, out, err", [
    (["roots"], False, 0, "s_z = -0.119470 + 1.355246i\n", "conjugate ="),
    (["roots"], True, 1, "s_z = -0.119470 + 1.355246i\n", "conjugate ="),
    (["roots", "--frobnicate"], False, 2, "", "unrecognized arguments"),
    (["oracle", "--rho", "1", "--t", "800"], False, 3, "", "numerical failure"),
])
def test_launcher_flushes_both_streams_then_exits_with_the_code(monkeypatch, tmp_path, argv,
                                                                broken, code, out, err):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(sys, "argv", ["fzwave", *argv])
    exits = []
    monkeypatch.setattr(os, "_exit", lambda code: exits.append(
        (code, sys.stdout.unflushed, sys.stderr.unflushed, gc.isenabled())))
    # a broken stdout's descriptor is pointed at devnull: here a temp file's, never fd 1
    with open(tmp_path / "stdout", "w") as fh:
        monkeypatch.setattr(sys, "stdout", _Stream(fh.fileno(), broken))
        monkeypatch.setattr(sys, "stderr", _Stream())
        launcher.main()
        assert exits == [(code, 0, 0, True)]
        assert sys.stdout.getvalue() == out
        assert err in sys.stderr.getvalue()


def test_launcher_pauses_the_collector_only_while_importing(monkeypatch):
    seen = []

    class Cli(types.ModuleType):
        """fzwave.cli as the launcher's import finds it: it notes whether the
        collector runs when main is imported and when it is called."""

        @property
        def main(self):
            seen.append(("import", gc.isenabled()))
            return lambda: seen.append(("run", gc.isenabled()))

    monkeypatch.setitem(sys.modules, "fzwave.cli", Cli("fzwave.cli"))
    monkeypatch.setattr(os, "_exit", lambda code: seen.append(("exit", code)))
    assert gc.isenabled()
    launcher.main()
    assert seen == [("import", False), ("run", True), ("exit", 0)]
    assert gc.isenabled()


def test_cli_module_is_not_an_entry_point(monkeypatch, capsys):
    # it would load NumPy before the launcher could pin BLAS; it must not pass silently
    monkeypatch.setattr(sys, "argv", ["fzwave.cli", "kernel", "--nx", "5"])
    monkeypatch.delitem(sys.modules, "fzwave.cli")
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("fzwave.cli", run_name="__main__")
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "python -m fzwave" in captured.err


def test_script_target_is_the_launcher():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = re.search(r'^fzwave = "([\w.]+):(\w+)"$', pyproject.read_text(), re.MULTILINE)
    assert target is not None
    module, func = target.groups()
    assert getattr(importlib.import_module(module), func) is launcher.main


def test_only_the_serial_product_calls_blas():
    # _quad._serial_product keeps the bits of every matrix product independent
    # of BLAS's thread count, so no other line may hand BLAS a product: no
    # matmul, dot, tensordot, inner or vdot call, no @, and no einsum with
    # optimize (einsum without it does not call BLAS)
    blas = {"matmul", "dot", "tensordot", "inner", "vdot"}
    calls = []  # (module, line, name, whether inside _quad._serial_product)
    for path in sorted(Path(fzwave.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        serial = {id(node) for func in tree.body if path.name == "_quad.py"
                  and getattr(func, "name", None) == "_serial_product" for node in ast.walk(func)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if not (name in blas or name == "einsum"
                        and any(kw.arg == "optimize" for kw in node.keywords)):
                    continue
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                name = "@"
            else:
                continue
            calls.append((path.name, node.lineno, name, id(node) in serial))
    assert [call for call in calls if not call[-1]] == []
    assert any(inside for *_, inside in calls)
