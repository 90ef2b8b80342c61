"""The lazy package namespace and the CLI launcher.

``import fzwave`` loads nothing until a name is used; ``python -m fzwave`` and
the ``fzwave`` script both start through ``fzwave.__main__.main``, which asks
OpenBLAS for one thread unless the caller has chosen a count.
"""

import importlib
import os
import re
import subprocess
import sys
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
        [sys.executable, "-c", code], env={"PATH": "/usr/bin:/bin", "PYTHONPATH": PKG_ROOT},
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
    launcher.main()
    want = {None: "1", "OPENBLAS_NUM_THREADS": "3"}.get(preset)
    assert os.environ.get("OPENBLAS_NUM_THREADS") == want


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
@pytest.mark.parametrize("blas_env, tasks", [({}, 1), ({"OPENBLAS_NUM_THREADS": "2"}, 2)])
def test_cli_process_runs_on_the_blas_threads_asked_for(tmp_path, blas_env, tasks):
    if tasks > len(os.sched_getaffinity(0)):
        pytest.skip("OpenBLAS starts no more threads than there are usable cores")
    # imported at start-up, before fzwave: reports the process's threads at exit
    (tmp_path / "sitecustomize.py").write_text(
        "import atexit, os, sys\n"
        "atexit.register(lambda: print(len(os.listdir('/proc/self/task')), file=sys.stderr))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "fzwave", "kernel", "--nx", "5", "--t-list", "0.5"],
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": f"{tmp_path}{os.pathsep}{PKG_ROOT}",
             **blas_env},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("x,t,u\n")
    assert proc.stderr == f"{tasks}\n"


def test_cli_module_is_not_an_entry_point():
    # it would load NumPy before the launcher could pin BLAS; it must not pass silently
    proc = subprocess.run(
        [sys.executable, "-m", "fzwave.cli", "kernel", "--nx", "5"],
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": PKG_ROOT},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "python -m fzwave" in proc.stderr


def test_script_target_is_the_launcher():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = re.search(r'^fzwave = "([\w.]+):(\w+)"$', pyproject.read_text(), re.MULTILINE)
    assert target is not None
    module, func = target.groups()
    assert getattr(importlib.import_module(module), func) is launcher.main
