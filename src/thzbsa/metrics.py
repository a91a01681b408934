"""Rate and SINR evaluation plus power-constraint diagnostics.

Every hybrid method is scored by its stored coupling H_eff[m] F_BB[m]; the
fully-digital bound reads the largest singular values of the channel's
path-factor dominant mode. Unit transmit power is split equally over the K
streams: the SINR of user k at subcarrier m has the desired term
(1/K) |w_k^H H_k F f_k|^2 and, under ``physical`` (default), the leakage
Sum_{i != k} |w_k^H H_k F f_i|^2 of the other users' columns through user k's
link; ``as_printed`` sums the other users' desired terms |w_i^H H_i F f_i|^2
instead. The sum rate is Sum_m Sum_k log2(1 + gamma).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet
from .config import SINR_CONVENTIONS
from .omp import BeamformerSet, analog_power


@dataclass
class RateReport:
    """Per-user-per-subcarrier rates and their total for one method."""

    per_user_rate: np.ndarray        # (K, M), bits/s/Hz
    sum_rate: float
    power_residual: float


def _sinr_from_coupling(T: np.ndarray, sigma_n2: float, convention: str) -> np.ndarray:
    """gamma[m, k] from an (M, K, K) coupling stack under either convention."""
    if convention not in SINR_CONVENTIONS:
        raise ValueError(f"unknown sinr convention {convention!r}")
    K = T.shape[1]
    powers = np.abs(T) ** 2                       # (M, K, K)
    desired = np.einsum("mkk->mk", powers)
    if convention == "physical":
        interference = powers.sum(axis=2) - desired
    else:
        interference = desired.sum(axis=1, keepdims=True) - desired
    with np.errstate(over="ignore"):     # run_trial rejects the non-finite rate
        return (1 / K) * desired / ((1 / K) * interference + sigma_n2)


def power_constraint_residual(F_RF: np.ndarray, F_BB: np.ndarray,
                              R_RF: np.ndarray | None = None) -> float:
    """Relative deviation of Sum_m ||F_RF F_BB[m]||_F^2 from MK (``R_RF``, the QR factor
    of a single ``F_RF``, as in :func:`~thzbsa.omp.analog_power`)."""
    M, _, K = F_BB.shape
    total = float(analog_power(F_RF, F_BB, R_RF).sum())
    return abs(total - M * K) / (M * K)


def sum_rate(bf: BeamformerSet, sigma_n2: float, convention: str = "physical") -> RateReport:
    """Multi-user sum rate of one hybrid precoder.

    T[m, k, i] = w_k^H H_k[m] F_RF F_BB[m] e_i = (H_eff[m] F_BB[m])[k, i] is
    the coupling all hybrid methods are scored by.
    """
    T = bf.H_eff @ bf.F_BB
    per_user = np.log2(1.0 + _sinr_from_coupling(T, sigma_n2, convention)).T   # (K, M)
    return RateReport(
        per_user_rate=per_user,
        sum_rate=float(per_user.sum()),
        power_residual=power_constraint_residual(bf.F_RF, bf.F_BB, bf.R_RF),
    )


# the SD oracle is scored like any precoder; the benchmark traces it under this name
sum_rate_sd_analog = sum_rate


def fully_digital_yardstick(channels: ChannelSet, sigma_n2: float) -> RateReport:
    """Interference-free dominant-singular-mode bound with equal power split.

    R = Sum_m Sum_k log2(1 + (1/K) sigma_max^2(H_k[m]) / sigma_n2), with
    sigma_max from ``channels.dominant_mode``; the power residual is zero.
    """
    s_max = channels.dominant_mode[0]     # sigma_max, (K, M)
    K = s_max.shape[0]
    with np.errstate(over="ignore"):     # run_trial rejects the non-finite rate
        per_user = np.log2(1.0 + (1 / K) * s_max**2 / sigma_n2)
    return RateReport(
        per_user_rate=per_user,
        sum_rate=float(per_user.sum()),
        power_residual=0.0,
    )
