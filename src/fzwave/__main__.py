"""The one entry point of the ``fzwave`` script and of ``python -m fzwave``.

OpenBLAS starts its thread pool when NumPy loads, and that pool costs a CLI
process more start-up time than it ever saves: every large product on the
CLI's routes is already blocked onto one BLAS thread so that CSV bytes stay
deterministic. ``main`` therefore asks OpenBLAS for one thread, before NumPy
is imported, unless the caller has set any variable OpenBLAS reads. Only the
CLI process is affected; ``import fzwave`` leaves the environment alone.

A CLI process pays only for its answer. The garbage collector is paused while
``fzwave.cli`` and NumPy are imported (the modules live until exit, so the
collections it would run there free nothing) and turned back on before the
command runs. Once ``cli.main`` has exited and stdout and stderr are flushed,
the process ends with ``os._exit``, skipping the interpreter's teardown: no
``atexit`` hook runs after a command.
"""

import gc
import os
import sys

# the variables OpenBLAS reads for its thread count
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def main() -> None:
    if not any(var in os.environ for var in _BLAS_THREAD_VARS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    gc.disable()
    try:
        from .cli import main as cli_main
    finally:
        gc.enable()
    try:
        cli_main()
        code = 0
    except SystemExit as e:
        code = e.code
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
