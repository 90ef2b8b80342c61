"""fzwave benchmark: end-to-end times, set-up, memory and failures per workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload solve_data --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 60 --trace 1

``--trace 0`` reports wall_s, setup_s and peak_rss_mb; ``--trace 1`` reports
the per-layer metrics of tracing.py. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the lines
before it name every metric with its unit, fail_frac included. A run record
with quartiles, sample counts and the environment goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 5  # fresh interpreters per run; the ops worker is one of them
DEADLINE_S = 170  # a run must end within 180 s
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not produce a result (not an operation failure)."""


def quartiles(values: list[float]) -> dict:
    """Median, quartiles, count and the highest percentile with >= 10 samples beyond it."""
    vals = sorted(values)
    n = len(vals)
    q1, med, q3 = statistics.quantiles(vals, n=4) if n > 1 else (vals[0],) * 3
    tail = None
    for pct in (99.9, 99.0, 95.0, 90.0):
        if n * (1 - pct / 100) >= 10:
            tail = {"pct": pct, "value": statistics.quantiles(vals, n=1000)[int(pct * 10) - 1]}
            break
    return {"median": med, "q1": q1, "q3": q3, "n": n, "tail": tail}


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    env["FZWAVE_THREADS"] = "1"  # library workloads run on one thread
    return env


def spawn(args: list, deadline: float) -> tuple[float, dict | None]:
    """Start a worker; return seconds until it was set up, and its result line."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} did not finish in time") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode} before a result")
    lines = rest.strip().splitlines()
    return setup, json.loads(lines[-1]) if lines else None


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, read without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return None


def source_digest() -> str:
    """sha256 over src/fzwave/*.py, which identifies the code where git cannot."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fzwave").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; returns the run record."""
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    setups = []
    if trace:
        _, res = spawn(common + ["--mode", "trace"], deadline)
    else:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(spawn(common + ["--mode", "setup"], deadline)[0])
        setup, res = spawn(common + ["--mode", "ops"], deadline)
        setups.append(setup)

    failed = len(res["errors"])
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "attempted": res["attempted"], "failed": failed,
        "fail_frac": failed / res["attempted"], "errors": res["errors"],
        "git_commit": git_commit(), "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "env": {k: worker_env().get(k) for k in ("FZWAVE_THREADS", *BLAS_ENV)},
        "cli_env": {"FZWAVE_THREADS": None} if workload == "cli_export" else None,
        "versions": res["versions"], "samples": {},
    }
    drift = max(res["drifts"], default=0.0)
    if trace:
        if not res["restored"]:
            raise BenchError("a traced module attribute was not restored")
        if not res["overheads"]:
            raise BenchError("no untraced and traced pair of operations passed")
        names = list(res["layers"][0])
        record["samples"] = {n: [layer[n] for layer in res["layers"]] for n in names}
        record["samples"]["trace.overhead"] = res["overheads"]
        record["samples"]["check.max_drift"] = [drift]
        record["samples"]["wall_s.untraced"] = res["plain"]
        record["samples"]["wall_s.traced"] = res["traced"]
    else:
        record["samples"] = {"wall_s": res["walls"], "setup_s": setups,
                             "peak_rss_mb": [res["peak_rss_mb"]]}
        record["check.max_drift"] = drift
    record["stats"] = {k: quartiles(v) for k, v in record["samples"].items()}
    return record


def result_line(record: dict, declared: dict) -> dict:
    """The contract's last line: every declared metric of this run's kind, as medians."""
    key = "per_layer" if record["trace"] else "end_to_end"
    metrics = {m["name"]: {"value": record["stats"][m["name"]]["median"], "unit": m["unit"]}
               for m in declared[key]}
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def summary(record: dict, declared: dict) -> str:
    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in declared[key]}
    lines = [f"{record['workload']} seed={record['seed']} trace={record['trace']} "
             f"attempted={record['attempted']} failed={record['failed']}"]
    lines.append(f"  fail_frac = {record['fail_frac']:.6g} ratio (failed / attempted)")
    if "check.max_drift" in record:
        lines.append(f"  check.max_drift = {record['check.max_drift']:.6g} abs")
    for name, st in record["stats"].items():
        tail = "" if st["tail"] is None else f" p{st['tail']['pct']:g} {st['tail']['value']:.6g}"
        lines.append(f"  {name} = {st['median']:.6g} {units.get(name, 's')} "
                     f"(q1 {st['q1']:.6g}, q3 {st['q3']:.6g}, n={st['n']}{tail})")
    for err in record["errors"][:3]:
        lines.append(f"  error: {err}")
    return "\n".join(lines)


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = tuple(w["name"] for w in declared["workloads"])
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring window per run: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fzwave" / "__init__.py").is_file():
        print(f"error: no fzwave sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    names = workloads if args.workload == "all" else (args.workload,)
    lines = {}
    try:
        for name in names:
            record = measure(name, args.seed, args.seconds, bool(args.trace))
            OUT.mkdir(exist_ok=True)
            (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
                json.dumps(record, indent=1))
            print(summary(record, declared), flush=True)
            lines[name] = result_line(record, declared)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
