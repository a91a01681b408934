"""Rate and SINR evaluation plus power-constraint diagnostics.

The SINR of user k at subcarrier m uses the desired term
(P/K) |w_k^H H_k F f_k|^2. Two interference conventions are supported:
``physical`` (default) sums the leakage of the other users' precoder columns
through user k's own link, Sum_{i != k} |w_k^H H_k F f_i|^2; ``as_printed``
sums the other users' desired-signal terms |w_i^H H_i F f_i|^2 instead,
which makes the denominator independent of cross-precoder leakage. The sum
rate is Sum_m Sum_k log2(1 + gamma).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet
from .config import SINR_CONVENTIONS
from .omp import BeamformerSet, effective_channel


@dataclass
class RateReport:
    """Per-user-per-subcarrier rates and their total for one method."""

    per_user_rate: np.ndarray        # (K, M), bits/s/Hz
    sum_rate: float
    method_tag: str
    power_residual: float
    seed: int | None = None


def _sinr_from_coupling(T: np.ndarray, P: float, sigma_n2: float,
                        convention: str) -> np.ndarray:
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
        return (P / K) * desired / ((P / K) * interference + sigma_n2)


def sinr(channels: ChannelSet, W_RF: np.ndarray, F_RF: np.ndarray,
         F_BB_m: np.ndarray, k: int, m: int, P: float, sigma_n2: float,
         convention: str = "physical") -> float:
    """SINR of user k at subcarrier m (0-based indices) for one precoder."""
    K = F_BB_m.shape[1]
    if not 0 <= k < K:
        raise ValueError(f"user index {k} outside 0..{K - 1}")
    if not 0 <= m < channels.M:
        raise ValueError(f"subcarrier index {m} outside 0..{channels.M - 1}")
    T = effective_channel(channels, W_RF, F_RF)[m] @ F_BB_m
    return float(_sinr_from_coupling(T[None], P, sigma_n2, convention)[0, k])


def power_constraint_residual(F_RF: np.ndarray, F_BB: np.ndarray) -> float:
    """Relative deviation of Sum_m ||F_RF F_BB[m]||_F^2 from MK."""
    M, _, K = F_BB.shape
    total = float(np.sum(np.abs(F_RF @ F_BB) ** 2))
    return abs(total - M * K) / (M * K)


def _hybrid_report(channels: ChannelSet, W_RF: np.ndarray, F_RF: np.ndarray,
                   F_BB: np.ndarray, P: float, sigma_n2: float, convention: str,
                   method_tag: str, seed: int | None) -> RateReport:
    """Rates of one hybrid precoder; ``F_RF`` is fixed or per-subcarrier.

    T[m, k, i] = w_k^H H_k[m] F_RF F_BB[m] e_i is the coupling all hybrid
    methods are scored by.
    """
    T = effective_channel(channels, W_RF, F_RF) @ F_BB
    per_user = np.log2(1.0 + _sinr_from_coupling(T, P, sigma_n2, convention)).T   # (K, M)
    return RateReport(
        per_user_rate=per_user,
        sum_rate=float(per_user.sum()),
        method_tag=method_tag,
        power_residual=power_constraint_residual(F_RF, F_BB),
        seed=seed,
    )


def sum_rate(channels: ChannelSet, bf: BeamformerSet, which: str,
             P: float, sigma_n2: float, convention: str = "physical",
             seed: int | None = None) -> RateReport:
    """Multi-user sum rate for the plain or BSA-corrected baseband."""
    F_BB = bf.baseband(which)
    tag = {"plain": "omp", "bsa": "bsa_omp"}[which]
    return _hybrid_report(channels, bf.W_RF, bf.F_RF, F_BB, P, sigma_n2, convention,
                          tag, seed)


def sum_rate_sd_analog(channels: ChannelSet, W_RF: np.ndarray, F_bar: np.ndarray,
                       F_BB: np.ndarray, P: float, sigma_n2: float,
                       convention: str = "physical", seed: int | None = None) -> RateReport:
    """Sum rate with a per-subcarrier analog stack (the ideal-hardware ceiling)."""
    return _hybrid_report(channels, W_RF, F_bar, F_BB, P, sigma_n2, convention,
                          "sd_oracle", seed)


def fully_digital_yardstick(channels: ChannelSet, P: float, sigma_n2: float,
                            seed: int | None = None) -> RateReport:
    """Interference-free dominant-singular-mode bound with equal power split.

    R = Sum_m Sum_k log2(1 + (P/K) sigma_max^2(H_k[m]) / sigma_n2); no
    precoder is involved, so the power residual is reported as zero.
    """
    H = channels.H
    K = H.shape[0]
    s_max = np.linalg.svd(H, compute_uv=False)[..., 0]     # (K, M)
    with np.errstate(over="ignore"):     # run_trial rejects the non-finite rate
        per_user = np.log2(1.0 + (P / K) * s_max**2 / sigma_n2)
    return RateReport(
        per_user_rate=per_user,
        sum_rate=float(per_user.sum()),
        method_tag="fully_digital",
        power_residual=0.0,
        seed=seed,
    )
