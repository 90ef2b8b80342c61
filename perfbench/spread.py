"""Steadiness proof: run the benchmark over several seeds and report each spread.

    python3 perfbench/spread.py --workload solve_data --seeds 1-10

For every end-to-end metric it prints the median of the per-run values and
the distance between their first and third quartiles as a share of that
median (statistics.quantiles(values, n=4)), next to the metric's bound from
BENCHMARK.json. A spread under a third of the bound is the target.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, action="append",
                        choices=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="e.g. 1-10")
    args = parser.parse_args()

    report = {}
    for workload in args.workload:
        runs = []
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                 str(seed), "--seconds", str(declared["run_seconds"]), "--trace", "0"],
                cwd=HERE.parent, capture_output=True, text=True, check=True)
            line = json.loads(out.stdout.strip().splitlines()[-1])
            runs.append(line)
            print(workload, seed, {k: round(v["value"], 4) for k, v in line["metrics"].items()},
                  f"failed={line['failed']}/{line['attempted']}", flush=True)
        report[workload] = {}
        for metric in declared["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            report[workload][metric["name"]] = {
                "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                "bound": metric["bound"], "values": values}
            print(f"  {workload} {metric['name']}: median {med:.6g}, spread "
                  f"{(q3 - q1) / med:.4f}, bound {metric['bound']}", flush=True)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    name = "spread-" + "-".join(args.workload) + f"-seeds{args.seeds[0]}-{args.seeds[-1]}.json"
    (out_dir / name).write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
