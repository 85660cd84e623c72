"""Regenerate golden.json: SHA-256 of every output of every workload, per workload seed.

Run from the repository root, only when a change is meant to alter output bytes:

    python3 bench/pin.py

The pipelines run in-process through swapsim.cli.main, which writes the same
bytes as the command line, one worker process per CPU; the benchmark's gate
checks the subprocess outputs against these digests on every run.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil

import run
import workloads


def pin_seed(seed: int) -> dict:
    package = run.import_swapsim()
    digests = {}
    for workload in workloads.WORKLOADS.values():
        workdir = run.fresh_dir(run.WORK_ROOT / f"pin-{seed}" / workload.name)
        run.clear_caches(package)
        results = run.run_in_process(package, workload, seed, workdir)
        pinned = {}
        for index, (_, exit_code, stdout) in enumerate(results):
            if exit_code != 0:
                raise RuntimeError(f"{workload.name} seed {seed} command {index + 1} exited {exit_code}")
            pinned.update(workloads.output_digests(index, workload.steps[index], stdout, workdir))
        digests[workload.name] = pinned
    shutil.rmtree(run.WORK_ROOT / f"pin-{seed}")
    return digests


def main() -> None:
    seeds = range(workloads.GOLDEN_SEEDS)
    with multiprocessing.get_context("spawn").Pool(os.cpu_count()) as pool:
        pinned = pool.map(pin_seed, seeds)
    golden = {
        "n_trials": workloads.N_TRIALS,
        "digests": {str(seed): digests for seed, digests in zip(seeds, pinned)},
    }
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
