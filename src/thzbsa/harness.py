"""Seeded Monte-Carlo campaigns: single trials, axis sweeps, CSV/JSON output.

A trial draws one channel realization, designs the hybrid beamformers once
and evaluates every requested method on it (paired comparison). A sweep's
spec derives one config per axis value from the ``AXES`` table; the sweep
aggregates mean/std sum rates over trials, with sub-seeds split
deterministically from the master seed. Degenerate draws
(rank-deficient effective channel) are redrawn up to a cap and counted.
"""

from __future__ import annotations

import csv
import io
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .bsa import apply_bsa, sd_oracle_beamformers
from .channel import draw_paths, generate_channel
from .config import ConfigError, SystemConfig, checked_int, checked_real, config_hash
from .metrics import RateReport, fully_digital_yardstick, sum_rate, sum_rate_sd_analog
from .omp import DegenerateChannelError, build_dictionaries, omp_hybrid_beamformer

METHODS = ("omp", "bsa_omp", "sd_oracle", "fully_digital")
HYBRID_METHODS = ("omp", "bsa_omp", "sd_oracle")

# axis -> (CLI --sweep name, CLI default values, config change for one value)
AXES = {
    "snr_db": ("snr", (-10.0, -5.0, 0.0, 5.0, 10.0), lambda v: {"sigma_n2": 10.0 ** (-v / 10.0)}),
    "bandwidth_hz": ("bandwidth", (1e9, 10e9, 30e9, 50e9, 70e9), lambda v: {"B": v}),
    "num_users": ("users", (2.0, 4.0, 8.0), lambda v: {"K": int(v)}),
}

MAX_REDRAWS = 10        # degenerate draws retried per trial before giving up

CSV_COLUMNS = ("axis", "axis_value", "method", "mean_sum_rate", "std_sum_rate",
               "per_subcarrier_avg", "trials", "seed", "config_hash")


class RedrawExhausted(RuntimeError):
    """Every redraw attempt produced a degenerate channel."""


def _check_methods(methods: tuple[str, ...]) -> None:
    """Reject an empty method list, a repeated method or an unknown one."""
    if not methods or len(set(methods)) != len(methods):
        raise ConfigError(f"methods must be a non-empty list without repeats, "
                          f"got {list(methods)}")
    unknown = set(methods) - set(METHODS)
    if unknown:
        raise ConfigError(f"unknown methods {sorted(unknown)}; choose from {METHODS}")


@dataclass(frozen=True)
class SweepSpec:
    """One sweep campaign: an axis, its values, and the trial budget; checked on construction.

    ``configs``, one per axis value, is derived when the spec is built, so a
    point that cannot form a config raises ConfigError here, not in ``run_sweep``.
    """

    axis: str
    values: tuple[float, ...]
    trials: int = 20
    methods: tuple[str, ...] = METHODS
    base_config: SystemConfig = field(default_factory=SystemConfig)
    seed: int = 1
    workers: int = 1
    configs: tuple[SystemConfig, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("trials", "seed", "workers"):
            object.__setattr__(self, name, checked_int(name, getattr(self, name)))
        # tuples, so the checked values and methods cannot change after construction
        object.__setattr__(self, "values", tuple(checked_real("axis values", v)
                                                 for v in self.values))
        object.__setattr__(self, "methods", tuple(self.methods))
        self.validate()
        object.__setattr__(self, "configs", tuple(
            config_for_axis_value(self.base_config, self.axis, v) for v in self.values))

    def validate(self) -> "SweepSpec":
        if self.axis not in AXES:
            raise ConfigError(f"axis must be one of {tuple(AXES)}, got {self.axis!r}")
        if len(self.values) == 0:
            raise ConfigError("sweep needs at least one axis value")
        values = np.asarray(self.values)
        if self.axis == "num_users" and np.any(values != np.round(values)):
            raise ConfigError(f"num_users values must be integers, got {self.values}")
        diffs = np.diff(values)
        if len(diffs) and not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ConfigError("axis values must be strictly monotone")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        cpus = os.cpu_count() or 1
        if not 1 <= self.workers <= cpus:
            raise ConfigError(f"workers must be in 1..{cpus} (the CPU count), "
                              f"got {self.workers}")
        _check_methods(self.methods)
        return self


@dataclass
class SweepRow:
    axis_value: float
    method: str
    mean_sum_rate: float
    std_sum_rate: float
    per_subcarrier_avg: float
    trials: int
    seed: int
    config_hash: str
    redraws: int = 0


@dataclass
class SweepResult:
    axis: str
    rows: list[SweepRow]
    base_config: dict = field(default_factory=dict)


@dataclass
class TrialResult:
    """Method -> RateReport map for one realization, plus redraw bookkeeping."""

    reports: dict[str, RateReport]
    redraws: int = 0


def run_trial(cfg: SystemConfig, trial_seed: int,
              methods: tuple[str, ...] = METHODS) -> TrialResult:
    """Evaluate all requested methods on one seeded channel realization.

    Raises ConfigError on a bad method list, and FloatingPointError naming the
    trial seed as soon as the channel draw overflows or a sum rate is non-finite.
    """
    _check_methods(methods)
    hybrid_needed = any(m in HYBRID_METHODS for m in methods)
    dictionary = build_dictionaries(cfg) if hybrid_needed else None
    last_error: Exception | None = None
    for attempt in range(MAX_REDRAWS + 1):
        rng = np.random.default_rng(np.random.SeedSequence([trial_seed, attempt]))
        try:
            with np.errstate(over="raise", invalid="raise"):   # a valid config can still overflow
                channels = generate_channel(cfg, draw_paths(cfg, rng))
            reports: dict[str, RateReport] = {}
            if hybrid_needed:
                bf = omp_hybrid_beamformer(cfg, channels, dictionary)
            if "omp" in methods:
                reports["omp"] = sum_rate(bf, cfg.sigma_n2, cfg.sinr_convention)
            if "bsa_omp" in methods or "sd_oracle" in methods:
                # one SD-oracle precoder is both the bsa target and the oracle itself
                sd = sd_oracle_beamformers(channels, bf)
            if "bsa_omp" in methods:
                reports["bsa_omp"] = sum_rate(apply_bsa(bf, sd), cfg.sigma_n2, cfg.sinr_convention)
            if "sd_oracle" in methods:
                reports["sd_oracle"] = sum_rate_sd_analog(sd, cfg.sigma_n2, cfg.sinr_convention)
            if "fully_digital" in methods:
                reports["fully_digital"] = fully_digital_yardstick(channels, cfg.sigma_n2)
            for method, report in reports.items():
                if not np.isfinite(report.sum_rate):
                    raise FloatingPointError(f"non-finite {method} sum rate")
            return TrialResult(reports=reports, redraws=attempt)
        except DegenerateChannelError as err:
            last_error = err.with_traceback(None)   # frees the failed draw's frames
        except FloatingPointError as err:
            raise FloatingPointError(f"{err} in trial seed {trial_seed}") from None
    raise RedrawExhausted(
        f"no usable channel after {MAX_REDRAWS + 1} attempts (seed {trial_seed}): {last_error}"
    )


def config_for_axis_value(base: SystemConfig, axis: str, value: float) -> SystemConfig:
    """``base`` with the change ``AXES`` states for one axis value (SNR = 1 / sigma_n2).

    ConfigError names a value no config can be formed from.
    """
    if axis not in AXES:
        raise ValueError(f"unknown axis {axis!r}")
    try:
        return base.replace(**AXES[axis][2](value))
    except (ConfigError, OverflowError) as err:    # only the SNR conversion can overflow
        reason = err if isinstance(err, ConfigError) else "sigma_n2 = 10^(-SNR/10) overflows"
        raise ConfigError(f"{axis} value {value}: {reason}") from None


def _trial_seed(master_seed: int, axis_index: int, trial_index: int) -> int:
    ss = np.random.SeedSequence([master_seed, axis_index, trial_index])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _sweep_task(args) -> TrialResult:
    _, _, cfg, seed, methods = args     # leads with (axis index, trial index) for pool records
    return run_trial(cfg, seed, methods)


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Run the campaign on the spec's configs and aggregate per (axis value, method).

    Channel draws are shared by all methods within a trial and independent
    across axis values. Trial outcomes stay in task order, axis value then
    trial index, so worker-pool execution cannot change the result.
    """
    tasks = [(ai, ti, cfg, _trial_seed(spec.seed, ai, ti), spec.methods)
             for ai, cfg in enumerate(spec.configs) for ti in range(spec.trials)]
    if spec.workers > 1:
        with ProcessPoolExecutor(max_workers=spec.workers) as pool:
            outcomes = list(pool.map(_sweep_task, tasks))
    else:
        outcomes = list(map(_sweep_task, tasks))

    rows: list[SweepRow] = []
    for ai, (value, cfg) in enumerate(zip(spec.values, spec.configs)):
        point = outcomes[ai * spec.trials:(ai + 1) * spec.trials]
        chash = config_hash(cfg)
        redraws = sum(res.redraws for res in point)
        for method in spec.methods:
            rates = np.array([res.reports[method].sum_rate for res in point])
            std = float(np.std(rates, ddof=1)) if spec.trials > 1 else 0.0
            rows.append(SweepRow(
                axis_value=value,
                method=method,
                mean_sum_rate=float(rates.mean()),
                std_sum_rate=std,
                per_subcarrier_avg=float(rates.mean() / cfg.M),
                trials=spec.trials,
                seed=spec.seed,
                config_hash=chash,
                redraws=redraws,
            ))
    return SweepResult(axis=spec.axis, rows=rows,
                       base_config=spec.base_config.to_dict())


def emit(result: SweepResult, fmt: str) -> str:
    """Serialize a sweep to CSV or JSON text."""
    rows = [{"axis": result.axis, **asdict(row)} for row in result.rows]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, CSV_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
        return buf.getvalue()
    if fmt == "json":
        payload = {"axis": result.axis, "config": result.base_config, "rows": rows}
        return json.dumps(payload, indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r}; use 'csv' or 'json'")


def load_sweep_json(source: str | Path) -> SweepResult:
    """Re-parse a JSON emission back into an equal SweepResult."""
    payload = json.loads(Path(source).read_text())
    rows = [SweepRow(**{k: v for k, v in r.items() if k != "axis"})
            for r in payload["rows"]]
    return SweepResult(axis=payload["axis"], rows=rows, base_config=payload["config"])
