#!/usr/bin/env python3
"""Regenerate perfbench/golden.json: the stored outputs every benchmark run checks.

    python3 perfbench/make_golden.py

Run it only in a change that alters seeded numbers on purpose, commit the new
golden.json in that change, and say in its description why the numbers
moved. The pools below are the inputs the workload seed picks from; their
sizes bound how many distinct inputs a run sees.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run  # noqa: F401  (pins BLAS threads before numpy loads)

run.import_program()

import numpy as np  # noqa: E402

from thzbsa import cli, config, harness  # noqa: E402

import workloads  # noqa: E402

POOL = {"desk": 128, "paper": 24, "desk_users_sweep": 16}


def pool_seeds(index: int, size: int) -> list[int]:
    rng = np.random.default_rng([2209, 12097, index])
    return [int(s) for s in rng.integers(1, 2**31, size=size)]


def trial_entries(profile: str, index: int) -> list[dict]:
    cfg = config.build_config(profile)
    entries = []
    for seed in pool_seeds(index, POOL[profile]):
        result = harness.run_trial(cfg, seed)
        entries.append({
            "seed": seed,
            "redraws": result.redraws,
            "sum_rate": {m: r.sum_rate for m, r in result.reports.items()},
        })
        print(f"{profile} seed {seed}: {entries[-1]['sum_rate']}", file=sys.stderr)
    return entries


def sweep_entries(index: int) -> list[dict]:
    workloads.OUT.mkdir(exist_ok=True)
    out = workloads.OUT / "golden-sweep.json"
    entries = []
    for seed in pool_seeds(index, POOL["desk_users_sweep"]):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(workloads.sweep_argv(seed, out))
        if code != 0:
            raise SystemExit(f"sweep seed {seed} exited with {code}")
        rows = harness.load_sweep_json(out).rows
        entries.append({
            "master_seed": seed,
            "rows": [[r.axis_value, r.method, r.mean_sum_rate, r.std_sum_rate, r.redraws]
                     for r in rows],
        })
        print(f"sweep seed {seed}: {entries[-1]['rows']}", file=sys.stderr)
    out.unlink()
    return entries


def main() -> int:
    golden = {
        "desk": trial_entries("desk", 0),
        "paper": trial_entries("paper", 1),
        "desk_users_sweep": sweep_entries(2),
    }
    workloads.GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {workloads.GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
