"""Machine-speed reference: a fixed NumPy + interpreter kernel timed between units.

On a shared 2-vCPU host the same desk trial takes 58 ms in one minute and
110 ms in the next; CPU time tracks wall time, so the host is slower, not the
process preempted. The kernel below does the same kind of work as a trial
(small complex arrays, phase unwrapping, a Python loop over columns) but
calls no thzbsa code, so no change to the program moves it. Each timed unit
of work is rescaled by ``REF_S / kernel time`` measured around it, which
reports the unit's time at the reference speed: the kernel's fastest time on
the host where the baseline was recorded.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

REF_S = 0.0111
ITERATIONS = 20


class SpeedProbe:
    """Times the reference kernel; holds its fixed inputs.

    A sample runs the kernel ``repeats`` times and returns the time of one.
    """

    def __init__(self, repeats: int = 1) -> None:
        rng = np.random.default_rng(0)
        self.a = np.exp(1j * rng.uniform(0.0, 6.0, (64, 128)))
        self.repeats = repeats

    def kernel_s(self) -> float:
        a = self.a
        start = time.perf_counter()
        acc = 0.0
        for _ in range(ITERATIONS * self.repeats):
            steps = np.diff(np.angle(a), axis=0)
            phases = np.cumsum(np.mod(steps + np.pi, 2 * np.pi) - np.pi, axis=0)
            acc += float(np.abs(np.exp(1j * phases * 1.01)[:, :8].T @ a[:63, :8]).sum())
            for col in range(8):
                acc += float(np.ptp(np.abs(a[:, col])))
        elapsed = time.perf_counter() - start
        if not np.isfinite(acc):
            raise RuntimeError("reference kernel produced a non-finite value")
        return elapsed / self.repeats


class PairedSpeedProbe(SpeedProbe):
    """Times the kernel on both cores at once, for a unit that keeps both busy.

    A helper process (this file run as a script), idle between samples, runs
    the kernel while this process does; a sample is the mean of the two
    timings. Units here are seconds long, so each sample runs the kernel four
    times. ``close`` ends the helper and waits for it.
    """

    REPEATS = 4

    def __init__(self) -> None:
        super().__init__(self.REPEATS)
        self.helper = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                       stdout=subprocess.PIPE, text=True)
        self._request()
        self.helper.stdout.readline()     # answered: the helper has imported NumPy

    def _request(self) -> None:
        self.helper.stdin.write("\n")
        self.helper.stdin.flush()

    def kernel_s(self) -> float:
        self._request()
        mine = super().kernel_s()
        return 0.5 * (mine + float(self.helper.stdout.readline()))

    def close(self) -> None:
        self.helper.stdin.close()
        try:
            self.helper.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.helper.kill()
            self.helper.wait()
        self.helper.stdout.close()


def factor(before_s: float, after_s: float) -> float:
    """Scale for a unit timed between two kernel samples."""
    return REF_S / (0.5 * (before_s + after_s))


if __name__ == "__main__":
    # helper of PairedSpeedProbe: one kernel sample per line read, until EOF
    helper_probe = SpeedProbe(PairedSpeedProbe.REPEATS)
    for _ in sys.stdin:
        print(helper_probe.kernel_s(), flush=True)
