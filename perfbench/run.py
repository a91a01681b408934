#!/usr/bin/env python3
"""thzbsa benchmark: timed, golden-checked trials and sweeps, and per-module traces.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload desk_trial --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones from a run that alternates traced and untraced blocks. The last line of
standard output is one JSON object; the lines above it and
``perfbench/out/`` hold the readable report, the environment and, when
traced, every span. See perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# one BLAS thread: the pool never oversubscribes the two cores, and the
# trials stay deterministic to the last bit
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

PROBE_TIMEOUT_S = 60


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set the workload up once and exit (timed by the parent run)")
    return ap.parse_args(argv)


def import_program():
    """Import thzbsa from this checkout's src/, refusing any other copy."""
    if not (SRC / "thzbsa" / "__init__.py").is_file():
        sys.exit(f"perfbench: no thzbsa sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import thzbsa
    if not Path(thzbsa.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported thzbsa from {thzbsa.__file__}, not {SRC}")


def git_commit() -> str:
    # a checkout that is not a git repository must not report an enclosing one
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed: int, sizes: dict) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(),
        "workload_seed": seed,
        "sizes": sizes,
    }


def tail(values: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it, and a note
    naming that percentile and the sample count.

    With ten samples or fewer no percentile qualifies; the maximum is
    returned and the note says so.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = max(n - 10, 1) if n > 10 else n
    return ordered[rank - 1], f"p{100.0 * rank / n:.1f} of {n} trials, {n - rank} beyond"


def time_setups(args, workload, probe) -> tuple[list[float], list[float]]:
    """Time from starting a fresh process until it has imported, configured
    and warmed up; the process reports its own end on the system-wide
    monotonic clock, so interpreter exit and wait polling are not counted.

    Returns (raw seconds, reference-speed seconds) per repeat.
    """
    import speed
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    raw, scaled = [], []
    before = probe.kernel_s()
    for _ in range(workload.setup_repeats):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up probe exited with {proc.returncode}")
        wall = float(proc.stdout.split()[-1]) - start
        after = probe.kernel_s()
        raw.append(wall)
        scaled.append(wall * speed.factor(before, after))
        before = after
    return raw, scaled


def measure(workload, args, probe, traced: bool):
    """Closed loop of units for ``args.seconds``; under ``--trace 1`` every
    other block of units runs with spans installed, and the run goes on until
    at least one traced input has recurred, so its call counts were compared."""
    import spans
    import speed
    units, block = [], workload.trace_block
    start = time.perf_counter()
    before = probe.kernel_s()
    i = 0
    while True:
        trace_this = traced and (i // block) % 2 == 1
        if trace_this:
            spans.install(spans.Tracer())
        try:
            unit = workload.unit(i)
        finally:
            spans.uninstall()
        after = probe.kernel_s()
        unit.factor = speed.factor(before, after)
        unit.traced = trace_this
        before = after
        for problem in unit.problems:
            print(f"perfbench: FAILED CHECK {problem}", file=sys.stderr)
        units.append(unit)
        i += 1
        # a traced run needs an untraced block, a traced one and a recurrence
        if time.perf_counter() - start >= args.seconds and (
                not traced or (i >= 2 * block and workload.counts.repeats > 0)):
            return units


def end_to_end(units, setup_scaled, list_len: int | None, peak_rss_mb) -> dict:
    """``list_len`` is the input list of a serial trial workload; None for a sweep."""
    trial_ms = [t * u.factor * 1e3 for u in units for t in u.trial_s]
    if list_len is not None:
        tail_ms, tail_note = tail(trial_ms)
        # a serial pass over the workload's input list: per input, its median
        by_input: dict[int, list[float]] = {}
        for i, u in enumerate(units):
            by_input.setdefault(i % list_len, []).append(u.wall_s * u.factor)
        sweep_s = statistics.mean(statistics.median(v) for v in by_input.values()) * list_len
    else:
        # Stragglers are judged within the sweep the pool waits on: the tail
        # of each sweep's trials, median over sweeps. Pooled over a whole run,
        # the top ten of ~700 trials are the ~1 in 60 redrawn ones, and
        # whether a run holds more or fewer than ten depends on which sweeps
        # it drew.
        tails = [tail([t * u.factor * 1e3 for t in u.trial_s]) for u in units if u.trial_s]
        tails = tails or [(0.0, "no sweep completed")]
        tail_ms = statistics.median(value for value, _ in tails)
        tail_note = f"median over {len(units)} sweeps of each sweep's {tails[0][1]}"
        sweep_s = statistics.median(u.wall_s * u.factor for u in units)
    return {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "trials_per_s": (len(trial_ms) / sum(u.wall_s * u.factor for u in units), "1/s"),
        "trial_ms_p50": (statistics.median(trial_ms), "ms"),
        "trial_ms_tail": (tail_ms, "ms", tail_note),
        "sweep_s": (sweep_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(units, setup_spans, workers: int) -> dict:
    import spans
    traced = [u for u in units if u.traced]
    plain = [u for u in units if not u.traced]
    tables = [(t, u.factor) for u in traced for t in u.trial_tables]

    def ms(name: str, own: bool = False) -> float:
        col = 1 if own else 0
        return statistics.median(t.get(name, (0.0, 0.0, 0))[col] * f * 1e3 for t, f in tables)

    def calls(name: str) -> float:
        return statistics.median(t.get(name, (0.0, 0.0, 0))[2] for t, _ in tables)

    def sweep_level(name: str, own: bool = False) -> list[float]:
        out = []
        for u in traced:
            selfs = spans.self_times(u.spans)
            out += [(selfs[j] if own else s[2] - s[1]) * u.factor
                    for j, s in enumerate(u.spans) if s[0] == name]
        return out

    build_config_s = sweep_level("config.build_config") or [
        (s[2] - s[1]) * traced[0].factor for s in setup_spans if s[0] == "config.build_config"]
    run_trial_s = sum(t.get("harness.run_trial", (0.0,))[0] for t, _ in tables)
    self_sum_s = sum(v[1] for t, _ in tables for v in t.values())
    # trial time taken outside the tracer: around run_trial, or around each pool task
    outside_s = sum(sum(u.trial_s) for u in traced)
    if workers > 1:
        busy = [sum(u.trial_s) / (workers * (s[2] - s[1]))
                for u in traced for s in u.spans if s[0] == "harness.run_sweep"]
        pool_busy = statistics.median(busy)
    else:
        pool_busy = run_trial_s / sum(u.wall_s for u in traced)

    def tps(group):
        return sum(len(u.trial_s) for u in group) / sum(u.wall_s * u.factor for u in group)

    draws = sum(u.draws for u in units)
    metrics = {"config.build_config_ms": (statistics.median(build_config_s) * 1e3, "ms")}
    for name in ("channel.draw_paths", "channel.generate_channel",
                 "phase_ops.scale_analog_matrix", "omp.build_dictionaries",
                 "omp.unconstrained_precoders", "omp.unconstrained_combiners",
                 "omp.omp_select", "omp.effective_channel", "omp.baseband_zf",
                 "bsa.apply_bsa", "bsa.sd_oracle_beamformers", "metrics.sum_rate",
                 "metrics.sum_rate_sd_analog", "metrics.fully_digital_yardstick",
                 "harness.run_trial"):
        metrics[f"{name}_ms"] = (ms(name), "ms")
    for name in ("phase_ops.scale_analog_matrix", "omp.build_dictionaries", "omp.baseband_zf"):
        metrics[f"{name}_calls"] = (calls(name), "count")
    metrics["omp.omp_select_self_ms"] = (ms("omp.omp_select", own=True), "ms")
    metrics["harness.run_trial_self_ms"] = (ms("harness.run_trial", own=True), "ms")
    metrics["harness.redraw_frac"] = (sum(u.redraws for u in units) / draws, "ratio")
    metrics["harness.pool_busy_frac"] = (pool_busy, "ratio")
    emit_s = sweep_level("harness.emit")
    cli_self_s = sweep_level("cli.main", own=True)
    metrics["harness.emit_ms"] = (statistics.median(emit_s) * 1e3 if emit_s else 0.0, "ms")
    metrics["cli.self_ms"] = (statistics.median(cli_self_s) * 1e3 if cli_self_s else 0.0, "ms")
    metrics["trace.overhead_frac"] = (1.0 - tps(traced) / tps(plain), "ratio")
    metrics["trace.self_sum_frac"] = (self_sum_s / outside_s, "ratio")
    return metrics


def setup_probe(args) -> None:
    import workloads
    problems = workloads.make(args.workload, workloads.load_golden(), args.seed).setup()
    if problems:
        sys.exit("perfbench: set-up failed: " + "; ".join(problems))
    print(time.clock_gettime(time.CLOCK_MONOTONIC))


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    if args.setup_probe:
        setup_probe(args)
        return 0
    import spans
    import speed
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    workloads.OUT.mkdir(exist_ok=True)
    workload = workloads.make(args.workload, workloads.load_golden(), args.seed)
    # the sweep keeps both cores busy, so its speed is sampled on both
    probe = speed.PairedSpeedProbe() if workload.workers > 1 else speed.SpeedProbe()
    try:
        setup_raw, setup_scaled = time_setups(args, workload, probe)
        tracer = spans.Tracer()
        if args.trace:
            spans.install(tracer)
        try:
            setup_problems = workload.setup()
        finally:
            spans.uninstall()
        for problem in setup_problems:
            print(f"perfbench: FAILED CHECK in set-up: {problem}", file=sys.stderr)
        units = measure(workload, args, probe, traced=bool(args.trace))
    finally:
        if isinstance(probe, speed.PairedSpeedProbe):
            probe.close()

    sizes = workload.sizes()
    env = environment(args.seed, sizes)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + max(u.worker_rss_kb for u in units)
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    problems = setup_problems + [p for u in units for p in u.problems]
    if args.trace:
        metrics = per_layer(units, tracer.spans, workload.workers)
    else:
        serial = isinstance(workload, workloads.TrialWorkload)
        metrics = end_to_end(units, setup_scaled, len(workload.entries) if serial else None,
                             peak_kb / 1024)

    factors = [u.factor for u in units]
    raw_trial_ms = [t * 1e3 for u in units for t in u.trial_s]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "env": env, "attempted": attempted, "failed": failed, "problems": problems,
        "speed_factor": {"min": min(factors), "median": statistics.median(factors),
                         "max": max(factors)},
        "raw": {"setup_s": setup_raw, "trial_ms_p50": statistics.median(raw_trial_ms),
                "unit_wall_s": [u.wall_s for u in units]},
        "metrics": {k: {"value": v[0], "unit": v[1], **({"note": v[2]} if len(v) > 2 else {})}
                    for k, v in metrics.items()},
    }
    (workloads.OUT / f"result-{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
    if args.trace:
        with open(workloads.OUT / f"spans-{stem}.jsonl", "w") as fh:
            for j, u in enumerate(units):
                for name, begin, end, parent, trial in u.spans:
                    fh.write(json.dumps({"unit": j, "name": name, "start": begin, "end": end,
                                         "parent": parent, "trial": trial}) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env))
    print(f"speed factor median {statistics.median(factors):.3f} "
          f"(1 = reference speed; times below are at reference speed)")
    for name, (value, unit, *note) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit:6s} {note[0] if note else ''}")
    print(f"  {'failed_frac':36s} {failed / attempted:14.6g} ratio  {failed} of {attempted}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
