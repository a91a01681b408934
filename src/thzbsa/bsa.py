"""Beam-split-aware baseband correction.

A single subcarrier-independent analog beamformer is kept; for each
subcarrier the ideal subcarrier-dependent analog beamformer is constructed
virtually by phase rescaling, and the baseband precoder is replaced with the
least-squares match of the fixed-analog hybrid product to that ideal, so the
split compensation lives entirely in the digital stage. The match is exact
iff the analog beamformer has a true left inverse (N_RF = N_T); otherwise
the correction is the orthogonal projection onto the analog column space.
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelSet
from .omp import BeamformerSet, DegenerateChannelError, baseband_zf, effective_channel, with_bsa
from .phase_ops import scale_analog_matrix


def sd_analog(F_RF: np.ndarray, eta) -> np.ndarray:
    """Virtual subcarrier-dependent analog beamformer (phase-rescaled columns).

    An array of ratios gives the (M, N_T, N_RF) stack from one unwrap.
    """
    return scale_analog_matrix(F_RF, eta)


def _left_inverse_factors(F_RF: np.ndarray, rcond: float = 1e-12):
    """Reduced QR of F_RF; raises on (near-)dependent columns."""
    q, r = np.linalg.qr(F_RF)
    diag = np.abs(np.diag(r))
    if diag.min() < rcond * max(diag.max(), 1e-300):
        raise DegenerateChannelError("analog beamformer columns are rank-deficient")
    return q, r


def _least_squares_match(F_RF: np.ndarray, target: np.ndarray,
                         normalize: bool = True) -> np.ndarray:
    """argmin_X ||F_RF X - target||_F for one (N_T, K) target or an (M, N_T, K) stack.

    Uses the reduced QR of F_RF and one solve over the whole stack. With
    ``normalize`` each result is rescaled so that ||F_RF X||_F^2 = K.
    """
    q, r = _left_inverse_factors(F_RF)
    corrected = np.linalg.solve(r, q.conj().T @ target)
    if normalize:
        K = target.shape[-1]
        corrected *= np.sqrt(K) / np.linalg.norm(F_RF @ corrected, axis=(-2, -1),
                                                 keepdims=True)
    return corrected


def bsa_baseband(F_RF: np.ndarray, F_BB_m: np.ndarray, eta_m: float,
                 normalize: bool = True,
                 F_bar_m: np.ndarray | None = None) -> np.ndarray:
    """Least-squares corrected baseband for one subcarrier.

    Solves min_X ||F_RF X - F_bar[m] F_BB[m]||_F via the pseudo-inverse,
    computed from a reduced QR factorization of F_RF for conditioning. With
    ``normalize`` the result is rescaled to the same per-subcarrier power
    convention as the zero-forcing stage (||F_RF X||_F^2 = K); disable it to
    inspect the raw minimizer.
    """
    if F_bar_m is None:
        F_bar_m = sd_analog(F_RF, eta_m)
    return _least_squares_match(F_RF, F_bar_m @ F_BB_m, normalize)


def apply_bsa(channels: ChannelSet, bf: BeamformerSet,
              recompute_target: bool = True,
              target: tuple[np.ndarray, np.ndarray] | None = None) -> BeamformerSet:
    """Fill the corrected baseband stack for every subcarrier.

    The matching target is the ideal subcarrier-dependent hybrid pair
    (F_bar, F_BB_sd) of :func:`sd_oracle_beamformers`: the dilated analog
    stack and the zero-forcing baseband recomputed on its effective channel
    (the target the virtual SD beamformer would actually deploy). A caller
    that already holds that pair passes it as ``target`` and nothing is
    recomputed; otherwise it is built here. Without ``target``,
    ``recompute_target=False`` matches the existing baseband from the
    greedy design instead; that variant leaves the rates essentially
    unchanged and is kept for comparison. All subcarriers are corrected by
    one batched solve.
    """
    if target is not None:
        F_bar, target_bb = target
    elif recompute_target:
        F_bar, target_bb = sd_oracle_beamformers(channels, bf)
    else:
        F_bar, target_bb = sd_analog(bf.F_RF, channels.eta), bf.F_BB
    return with_bsa(bf, _least_squares_match(bf.F_RF, F_bar @ target_bb))


def sd_oracle_beamformers(channels: ChannelSet, bf: BeamformerSet
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Ideal (hardware-infeasible) per-subcarrier analog stack and its ZF baseband.

    Returns (F_bar, F_BB_sd) with F_bar of shape (M, N_T, N_RF), built by
    one batched rescaling; used by the harness both as the performance
    ceiling and as the target :func:`apply_bsa` matches.
    """
    F_bar = sd_analog(bf.F_RF, channels.eta)
    H_eff_sd = effective_channel(channels, bf.W_RF, F_bar)
    return F_bar, baseband_zf(H_eff_sd, F_bar)
