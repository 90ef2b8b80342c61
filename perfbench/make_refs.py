"""Regenerate ref_seed0.npz, the seed-0 outputs every later run is checked against.

    PYTHONPATH=src FZWAVE_THREADS=1 python3 perfbench/make_refs.py

Run it only at a commit whose outputs are trusted: a reference made from a
wrong program turns the benchmark's correctness check into a check of sameness.
CLI process A is computed here through the library call it wraps; process B
is compared with its closed form and needs no reference.
"""

import numpy as np

import fzwave
import workloads

if __name__ == "__main__":
    a = workloads.inputs("cli_export", 0)["a"]
    refs = {"solve_data": np.asarray(workloads.make_case("solve_data", 0, refs={}).run()),
            "cli_a": fzwave.kernel_eps(workloads.x_grid(a), tuple(a["t"]),
                                       fzwave.ModelParams(*workloads.PAPER)).values}
    np.savez(workloads.REF_FILE, **refs)
    for name, values in refs.items():
        print(name, values.shape, float(np.max(np.abs(values))))
