"""The benchmark's workloads, their inputs from the workload seed, and golden checks.

Every workload is a closed loop in one process: the next unit of work starts
when the previous one returned. A unit is one ``harness.run_trial`` call on
the trial workloads and one ``thzbsa.cli.main`` sweep on the sweep workload.
Inputs come from pools of trial seeds (or sweep master seeds) whose outputs
are stored in ``golden.json``; the workload seed only picks and orders them,
so every unit can be checked against stored values.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from thzbsa import cli, config, harness

import spans

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
OUT = HERE / "out"

RTOL = 1e-9                      # golden sum rates, as ROADMAP sets for refactors
POWER_TOL = 1e-9                 # power_constraint_residual of the hybrid methods
HYBRID = ("omp", "bsa_omp", "sd_oracle")
# call counts that must repeat exactly whenever a traced input recurs in a run
COUNTED = ("phase_ops.scale_analog_matrix", "omp.build_dictionaries", "omp.baseband_zf")

SWEEP_VALUES = "2,4,8"
SWEEP_METHODS = "omp,fully_digital"
SWEEP_WORKERS = 2


@dataclass
class Unit:
    """One timed unit of work and what its checks found."""

    wall_s: float
    trial_s: list[float]             # per-trial time inside the unit
    attempted: int
    problems: list[str] = field(default_factory=list)
    failed: int = 0
    draws: int = 0
    redraws: int = 0
    spans: list[list] = field(default_factory=list)          # traced only
    trial_tables: list[dict] = field(default_factory=list)   # traced only
    worker_rss_kb: int = 0
    factor: float = 1.0              # speed.factor around the unit
    traced: bool = False


def _close(value: float, golden: float) -> bool:
    return math.isfinite(value) and abs(value - golden) <= RTOL * abs(golden)


class CountLedger:
    """Call counts per input, from traced units; an input's counts must be the
    same every time it recurs within a run, or hidden nondeterminism is at work.

    The counts are not stored golden values: a change that merges or caches
    calls moves them on purpose without changing any result.
    """

    def __init__(self) -> None:
        self.first: dict[int, dict] = {}
        self.repeats = 0          # recurrences checked so far

    def check(self, key: int, tables: list[dict]) -> list[str]:
        counts = {name: sum(t.get(name, (0, 0, 0))[2] for t in tables) for name in COUNTED}
        first = self.first.setdefault(key, counts)
        if first is counts:
            return []
        self.repeats += 1
        return [] if counts == first else [f"call counts {counts} != {first} at its first run"]


class TrialWorkload:
    """Serial ``harness.run_trial`` on one profile, all four methods."""

    workers = 1
    trace_block = 8          # units per traced or untraced block under --trace 1
    setup_repeats = 9        # fresh processes timed for setup_s

    def __init__(self, profile: str, golden: dict, seed: int, list_len: int) -> None:
        self.profile = profile
        pool = golden[profile]
        order = np.random.default_rng(seed).permutation(len(pool))[:list_len]
        self.entries = [pool[i] for i in order]
        self.cfg = None
        self.counts = CountLedger()

    def setup(self) -> list[str]:
        """Configure and run one warm-up trial; return its failed checks."""
        self.cfg = config.build_config(self.profile)
        return self.unit(-1).problems

    def sizes(self) -> dict:
        c = self.cfg
        return {"K": c.K, "M": c.M, "N_T": c.N_T, "N_R": c.N_R, "trials_per_unit": 1,
                "H_bytes": c.K * c.M * c.N_R * c.N_T * 16}

    def unit(self, i: int) -> Unit:
        entry = self.entries[i % len(self.entries)]
        tracer = spans.active()
        if tracer is not None:
            tracer.trial = i
        start = time.perf_counter()
        try:
            result = harness.run_trial(self.cfg, entry["seed"])
        except Exception as err:     # any raise is a failed trial, counted and reported
            wall = time.perf_counter() - start
            return Unit(wall, [wall], 1, [f"seed {entry['seed']}: {err!r}"], failed=1, draws=1)
        wall = time.perf_counter() - start
        problems = []
        if result.redraws != entry["redraws"]:
            problems.append(f"redraws {result.redraws} != golden {entry['redraws']}")
        for method, golden_rate in entry["sum_rate"].items():
            report = result.reports[method]
            if not _close(report.sum_rate, golden_rate):
                problems.append(f"{method} sum rate {report.sum_rate!r} != golden {golden_rate!r}")
            if method in HYBRID and not report.power_residual <= POWER_TOL:
                problems.append(f"{method} power residual {report.power_residual:.3e}")
        unit = Unit(wall, [wall], 1, draws=1 + result.redraws, redraws=result.redraws)
        if tracer is not None:
            unit.spans = tracer.spans
            unit.trial_tables = list(spans.per_trial(tracer.spans).values())
            problems += self.counts.check(entry["seed"], unit.trial_tables)
        unit.problems = [f"seed {entry['seed']}: {p}" for p in problems]
        unit.failed = int(bool(problems))
        return unit


def sweep_argv(master_seed: int, out: Path, values: str = SWEEP_VALUES,
               trials: int | None = None) -> list[str]:
    argv = ["simulate", "--sweep", "users", "--values", values, "--methods", SWEEP_METHODS,
            "--workers", str(SWEEP_WORKERS), "--format", "json", "--out", str(out),
            "--seed", str(master_seed)]
    return argv + (["--trials", str(trials)] if trials is not None else [])


class SweepWorkload:
    """In-process ``thzbsa simulate --sweep users`` with a 2-worker pool.

    It bypasses ``bsa`` and the SD oracle, so a bsa-only change predicts no
    change here.
    """

    points = len(SWEEP_VALUES.split(","))
    workers = SWEEP_WORKERS
    trace_block = 1
    setup_repeats = 7

    def __init__(self, golden: dict, seed: int, list_len: int) -> None:
        pool = golden["desk_users_sweep"]
        order = np.random.default_rng(seed).permutation(len(pool))[:list_len]
        self.entries = [pool[i] for i in order]
        self.out = OUT / f"sweep-{os.getpid()}.json"
        self.cfg = None
        self.counts = CountLedger()

    def setup(self) -> list[str]:
        """Configure and run one small warm-up sweep; return its failed checks."""
        self.cfg = config.build_config("desk")
        OUT.mkdir(exist_ok=True)
        # warm-up: imports on the CLI path, one pool start, one trial per worker
        with spans.pool_recording(traced=False), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(sweep_argv(self.entries[0]["master_seed"], self.out,
                                       values="2", trials=SWEEP_WORKERS))
        self.out.unlink(missing_ok=True)
        return [] if code == 0 else [f"warm-up sweep exited with {code}"]

    def sizes(self) -> dict:
        c = self.cfg
        k_max = max(int(v) for v in SWEEP_VALUES.split(","))
        return {"K": SWEEP_VALUES, "M": c.M, "N_T": c.N_T, "N_R": c.N_R,
                "trials_per_unit": self.points * config.PROFILE_TRIALS["desk"],
                "workers": SWEEP_WORKERS, "H_bytes": k_max * c.M * c.N_R * c.N_T * 16}

    def unit(self, i: int) -> Unit:
        entry = self.entries[i % len(self.entries)]
        tracer = spans.active()
        with (spans.pool_recording(traced=tracer is not None) as record,
              contextlib.redirect_stdout(io.StringIO())):
            start = time.perf_counter()
            try:
                if tracer is not None:
                    code = tracer.span("cli.main", cli.main, sweep_argv(entry["master_seed"], self.out))
                else:
                    code = cli.main(sweep_argv(entry["master_seed"], self.out))
            except Exception as err:     # a raise fails every point of the sweep
                code = repr(err)
            wall = time.perf_counter() - start
        unit = Unit(wall, list(record.busy_s), self.points,
                    worker_rss_kb=sum(record.worker_rss_kb.values()))
        if code != 0:
            self.out.unlink(missing_ok=True)
            unit.problems.append(f"sweep seed {entry['master_seed']}: exit {code}")
            unit.failed = self.points
            return unit
        text = self.out.read_text()
        loaded = harness.load_sweep_json(self.out)
        self.out.unlink()
        if harness.emit(loaded, "json") != text:
            unit.problems.append("sweep JSON does not round-trip through load_sweep_json")
            unit.failed = self.points
        bad_points = set()
        golden_rows = {(r[0], r[1]): r for r in entry["rows"]}
        for row in loaded.rows:
            want = golden_rows.pop((row.axis_value, row.method), None)
            if want is None or not (_close(row.mean_sum_rate, want[2])
                                    and _close(row.std_sum_rate, want[3])
                                    and row.redraws == want[4]):
                unit.problems.append(f"sweep seed {entry['master_seed']}: row {row} != golden {want}")
                bad_points.add(row.axis_value)
        bad_points.update(key[0] for key in golden_rows)
        unit.failed = max(unit.failed, len(bad_points))
        # a point's redraw count is repeated on each of its method rows
        unit.redraws = sum({row.axis_value: row.redraws for row in loaded.rows}.values())
        unit.draws = self.points * config.PROFILE_TRIALS["desk"] + unit.redraws
        if tracer is not None:
            unit.spans = tracer.spans + spans.spans_with_offset(record.spans, len(tracer.spans))
            unit.trial_tables = list(spans.per_trial(record.spans).values())
            repeat_problems = self.counts.check(entry["master_seed"], unit.trial_tables)
            if repeat_problems:
                unit.problems += [f"sweep seed {entry['master_seed']}: {p}" for p in repeat_problems]
                unit.failed = self.points
        return unit


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


def make(name: str, golden: dict, seed: int):
    if name == "desk_trial":
        return TrialWorkload("desk", golden, seed, list_len=64)
    if name == "paper_trial":
        workload = TrialWorkload("paper", golden, seed, list_len=16)
        workload.trace_block = 1
        return workload
    if name == "desk_users_sweep":
        # 8 of the 16 pooled sweeps, so that inputs recur within a traced run
        return SweepWorkload(golden, seed, list_len=8)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("desk_trial", "paper_trial", "desk_users_sweep")
