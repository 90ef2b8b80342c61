"""One benchmark process: set up a workload, then time its operations.

Started by run.py in a fresh interpreter, so that set-up (importing fzwave and
building the inputs) is paid here and timed from outside. Prints ``ready``
once set up, then, unless ``--mode setup``, one JSON line with the results.

    --mode ops    closed loop of operations, untraced; for end-to-end metrics
    --mode trace  alternates untraced and traced operations; per-layer metrics,
                  with the spans written to perfbench/out/spans-<workload>-seed<n>.json
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback

import workloads  # imports fzwave: part of the timed set-up

case_args = argparse.ArgumentParser()
case_args.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
case_args.add_argument("--seed", type=int, required=True)
case_args.add_argument("--seconds", type=float, required=True)
case_args.add_argument("--mode", required=True, choices=("setup", "ops", "trace"))


class Loop:
    """Runs and checks operations, recording wall times, drifts and failures."""

    def __init__(self, case):
        self.case = case
        self.ops: list[dict] = []
        self.drifts: list[float] = []
        self.errors: list[str] = []
        self.last = None

    def attempt(self, kind: str = "op") -> bool:
        """One operation; its wall time excludes the check, which runs after it."""
        start = time.perf_counter()
        passed = True
        try:
            out = self.last = self.case.run()
            wall = time.perf_counter() - start
            self.drifts.append(self.case.check(out))
        except Exception as exc:  # a failed operation is counted, not fatal
            wall, passed = time.perf_counter() - start, False
            self.errors.append("".join(traceback.format_exception_only(exc)).strip())
        self.ops.append({"kind": kind, "wall": wall, "passed": passed})
        return passed

    def walls(self, kind: str = "op") -> list[float]:
        """Wall times of the passed operations of one kind (of all, if none passed)."""
        ops = [op for op in self.ops if op["kind"] == kind]
        return [op["wall"] for op in ops if op["passed"]] or [op["wall"] for op in ops]

    def result(self) -> dict:
        return {"attempted": len(self.ops), "drifts": self.drifts, "errors": self.errors}


def fits(started: float, cycle: list[float], seconds: float) -> bool:
    """Whether one more cycle, at the median length so far, ends inside the window."""
    return not cycle or time.perf_counter() - started + statistics.median(cycle) <= seconds


def run_ops(case, seconds: float) -> dict:
    loop, cycle = Loop(case), []
    if case.name != "cli_export":
        # A process's first operation runs up to ~20 % slower, so a library
        # run checks it but times only the ones after it. Every CLI operation
        # starts fresh processes and so pays that cost alike.
        loop.attempt("warmup")
    started = time.perf_counter()
    while fits(started, cycle, seconds):
        t = time.perf_counter()
        loop.attempt()
        cycle.append(time.perf_counter() - t)
    # the CLI workload's program runs in child processes, all reaped by now
    who = resource.RUSAGE_CHILDREN if case.name == "cli_export" else resource.RUSAGE_SELF
    return {**loop.result(), "walls": loop.walls(),
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024}


def run_trace(case, seconds: float) -> dict:
    import tracing

    before = tracing.originals()
    loop, cycle, layers, tracers, overheads = Loop(case), [], [], [], []
    loop.attempt("warmup")  # kept out of the traced/untraced comparison, as in run_ops
    started = time.perf_counter()
    while fits(started, cycle, seconds):
        t = time.perf_counter()
        plain_passed = loop.attempt("plain")
        tracer = tracing.Tracer(op=len(tracers))
        with tracing.installed(tracer):
            passed = loop.attempt("traced")
        tracers.append(tracer)
        if passed:
            if case.name == "cli_export":
                tracer.counts["cli.bytes"] = sum(path.stat().st_size for path in loop.last)
            layers.append(tracing.layer_metrics(tracer))
            if plain_passed:
                # adjacent operations share the host's momentary speed
                overheads.append(loop.ops[-1]["wall"] / loop.ops[-2]["wall"] - 1.0)
        cycle.append(time.perf_counter() - t)
    restored = all(getattr(m, a) is o for m, a, o in before)
    workloads.OUT_DIR.mkdir(exist_ok=True)
    spans = [vars(s) for tr in tracers for s in tr.spans]
    (workloads.OUT_DIR / f"spans-{case.name}-seed{case.seed}.json").write_text(json.dumps(spans))
    return {**loop.result(), "plain": loop.walls("plain"), "traced": loop.walls("traced"),
            "overheads": overheads, "layers": layers, "restored": restored}


def main(argv=None) -> int:
    args = case_args.parse_args(argv)
    case = workloads.make_case(args.workload, args.seed, in_process=args.mode == "trace")
    print("ready", flush=True)
    if args.mode == "setup":
        return 0
    if args.mode == "ops":
        result = run_ops(case, args.seconds)
    else:
        result = run_trace(case, args.seconds)
    import numpy, scipy
    result["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
