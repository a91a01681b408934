"""Command-line front-end.

Subcommands:
  simulate     run a Monte-Carlo sweep (snr / bandwidth / users) and emit
               CSV or JSON
  array-gain   emit the wideband array-gain curve of a steering beamformer
               over a probe-direction grid
  show-config  print the fully resolved configuration

Exit codes: 0 success, 2 configuration error (sizes whose arrays memory
cannot hold included), 3 numerical failure (the redraw cap was reached, the
draw or the channel's Gram core overflowed, or a sum rate was non-finite).
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import os
import sys
from pathlib import Path

import numpy as np

from . import channel
from .config import (ConfigError, PROFILE_TRIALS, PROFILES, build_config,
                     parse_config_file)
from .harness import AXES, METHODS, SweepSpec, emit, run_sweep
from .omp import DegenerateChannelError

SWEEPS = {sweep: axis for axis, (sweep, _, _) in AXES.items()}


def _add_config_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None,
                        help="flat key = value config file")
    parser.add_argument("--profile", choices=sorted(PROFILES), default="desk",
                        help="parameter preset (desk: CI scale, paper: full scale)")


def _resolve_config(args: argparse.Namespace):
    return build_config(args.profile, parse_config_file(args.config) if args.config else None)


def _split_list(raw: str, flag: str) -> list[str]:
    """Stripped entries of a comma list; a blank one among others is a stray comma."""
    entries = [v.strip() for v in raw.split(",")]
    if any(entries) and "" in entries:
        raise ConfigError(f"{flag} {raw!r} has an empty entry")
    return [v for v in entries if v]


def _parse_values(raw: str) -> list[float]:
    entries = _split_list(raw, "--values")
    try:
        return [float(v) for v in entries]
    except ValueError:
        raise ConfigError(f"cannot parse sweep values {raw!r}") from None


def _write(text: str, out: Path | None) -> None:
    """Result text to ``out``, or to stdout when no file is given."""
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)
        print(f"wrote {out}", file=sys.stderr)


def _check_out(out: Path) -> None:
    """Raise, before a sweep starts, the error that writing ``out`` after it would raise."""
    if out.is_dir():
        code = errno.EISDIR
    elif not out.parent.is_dir():
        code = errno.ENOTDIR if out.parent.exists() else errno.ENOENT
    else:
        return
    raise OSError(code, os.strerror(code), str(out))


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    axis = SWEEPS[args.sweep]
    values = AXES[axis][1] if args.values is None else _parse_values(args.values)
    trials = args.trials if args.trials is not None else PROFILE_TRIALS[args.profile]
    spec = SweepSpec(
        axis=axis,
        values=values,
        trials=trials,
        methods=tuple(_split_list(args.methods, "--methods")),
        base_config=cfg,
        seed=args.seed,
        workers=args.workers,
    )
    if args.out is not None:
        _check_out(args.out)
    _write(emit(run_sweep(spec), args.format), args.out)
    return 0


def cmd_array_gain(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    if not 1 <= args.subcarrier <= cfg.M:
        raise ConfigError(f"--subcarrier must be in 1..{cfg.M}")
    if not -1.0 <= args.phi <= 1.0:      # NaN and +-inf fail it too
        raise ConfigError(f"--phi must be finite and in [-1, 1], got {args.phi}")
    if args.grid_points is not None and args.grid_points < 1:
        raise ConfigError(f"--grid-points must be >= 1, got {args.grid_points}")
    grid = np.linspace(-1.0, 1.0, args.grid_points or 16 * cfg.N_T + 1)
    # |a(eta_m phi)^H a(phi_bar)|^2 from phi itself: a(-1) = a(+1), so a vector loses the sign
    eta_m = channel.frequency_ratios(cfg)[args.subcarrier - 1]
    gains = np.abs(channel.steering_kernel(cfg.N_T, eta_m * args.phi, grid)) ** 2
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["phi_bar", "gain"])
    for phi_bar, gain in zip(grid, gains):
        writer.writerow([repr(float(phi_bar)), repr(float(gain))])
    _write(buf.getvalue(), args.out)
    return 0


def cmd_show_config(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    for key, value in cfg.to_dict().items():
        print(f"{key} = {value}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thzbsa",
        description="Wideband THz hybrid beamforming simulator with "
                    "beam-split-aware baseband correction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a Monte-Carlo sweep")
    _add_config_options(sim)
    sim.add_argument("--sweep", choices=sorted(SWEEPS), required=True)
    defaults = "; ".join(f"{sweep} " + ",".join(f"{v:g}" for v in values)
                         for sweep, values, _ in AXES.values())
    sim.add_argument("--values", type=str, default=None,
                     help=f"comma-separated axis values (default per sweep: {defaults})")
    sim.add_argument("--trials", type=int, default=None,
                     help="Monte-Carlo trials per axis value (default per profile)")
    sim.add_argument("--methods", type=str, default=",".join(METHODS))
    sim.add_argument("--seed", type=int, default=1, help="master seed of the sweep")
    sim.add_argument("--out", type=Path, default=None)
    sim.add_argument("--format", choices=("csv", "json"), default="csv")
    sim.add_argument("--workers", type=int, default=1,
                     help="trial worker processes, 1 to the CPU count "
                          "(results independent of this)")
    sim.set_defaults(func=cmd_simulate)

    gain = sub.add_parser("array-gain", help="emit the array-gain curve")
    _add_config_options(gain)
    gain.add_argument("--phi", type=float, required=True,
                      help="beamformer design direction (sine space)")
    gain.add_argument("--subcarrier", type=int, required=True,
                      help="subcarrier index (1-based)")
    gain.add_argument("--grid-points", type=int, default=None,
                      help="probe grid size (default 16x oversampled)")
    gain.add_argument("--out", type=Path, default=None)
    gain.set_defaults(func=cmd_array_gain)

    show = sub.add_parser("show-config", help="print the resolved config")
    _add_config_options(show)
    show.set_defaults(func=cmd_show_config)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # fold "--values -10,0,10" into one token so negative lists parse
    for i, token in enumerate(argv[:-1]):
        if token == "--values":
            argv[i : i + 2] = [f"--values={argv[i + 1]}"]
            break
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (DegenerateChannelError, FloatingPointError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 2
    except MemoryError as err:      # NumPy's message names the size and shape asked for
        print(f"config error: {args.command} needs more memory than is available"
              + (f": {err}" if str(err) else ""), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
