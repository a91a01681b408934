"""Beam-split-aware baseband correction.

The subcarrier-independent analog beamformer is kept, and each subcarrier's
baseband is replaced with the least-squares match of the fixed-analog hybrid
product to the ideal (phase-rescaled) per-subcarrier hybrid precoder, so the
split compensation lives in the digital stage: exact iff the analog matrix
has a left inverse (N_RF = N_T), else the projection onto its column space.
That ideal's per-subcarrier analog stack (the SD oracle's) is the fixed
analog matrix dilated once: one rescaling of its leading sub-array by two
ratios per subcarrier, since a long steering vector is the Kronecker product
of two short ones.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .channel import ChannelSet
from .omp import (BeamformerSet, baseband_zf, effective_channel, pseudo_inverse,
                  unit_power)
from .phase_ops import scale_analog_matrix


# the virtual SD analog beamformer is the one dilation; the acceptance suite imports this name
sd_analog = scale_analog_matrix


def bsa_baseband(F_RF: np.ndarray, F_BB_m: np.ndarray, eta_m: float,
                 normalize: bool = True) -> np.ndarray:
    """Least-squares corrected baseband for one subcarrier.

    Solves min_X ||F_RF X - F_bar[m] F_BB[m]||_F with the pseudo-inverse of
    F_RF, of any shape. With ``normalize`` the
    result is rescaled to its per-subcarrier power convention
    (||F_RF X||_F^2 = K); disable it to inspect the raw minimizer.
    """
    corrected = pseudo_inverse(F_RF) @ (scale_analog_matrix(F_RF, eta_m) @ F_BB_m)
    return unit_power(F_RF, corrected) if normalize else corrected


def apply_bsa(bf: BeamformerSet, target: BeamformerSet) -> BeamformerSet:
    """Replace the baseband of ``bf`` with the corrected stack for every subcarrier.

    ``target`` is the SD oracle of :func:`sd_oracle_beamformers` (what the
    virtual SD beamformer would deploy). One pseudo-inverse of the analog
    beamformer matches every subcarrier, applied to the target's analog stack
    first, so the products are (M, N_RF, N_RF); the analog stage, its stored QR
    factor ``R_RF`` and ``H_eff`` stay.
    """
    corrected = (pseudo_inverse(bf.F_RF) @ target.F_RF) @ target.F_BB
    return replace(bf, F_BB=unit_power(bf.R_RF, corrected))


def _dilated_stack(F_RF: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """The (M, N, N_RF) stack a_N(eta_m psi) of a steering matrix F_RF = a_N(psi).

    With Q = ceil(sqrt(N)) and P = ceil(N / Q) <= Q, entry n = q + Q p of a_N(x) is
    (Q / sqrt(N)) a_Q(x)[q] a_Q(Q x)[p]: one dilation of the first Q rows by the
    (2, M) ratios (eta, Q eta) gives both factors (exact for psi in (-1, 1], whose
    slope the unwrap reads), so the stack takes 2 M Q N_RF exponentials, not M N N_RF.
    """
    N = F_RF.shape[0]
    Q = math.isqrt(N - 1) + 1                    # ceil(sqrt(N)) in exact integers
    P = -(-N // Q)
    inner, outer = scale_analog_matrix(F_RF[:Q], np.stack([eta, Q * eta]))  # (M, Q, N_RF) each
    stack = outer[:, :P, None, :] * (inner[:, None, :, :] * (Q / math.sqrt(N)))  # (M, P, Q, N_RF)
    return stack.reshape(len(eta), P * Q, -1)[:, :N]


def sd_oracle_beamformers(channels: ChannelSet, bf: BeamformerSet) -> BeamformerSet:
    """Ideal (hardware-infeasible) per-subcarrier analog stack and its ZF baseband.

    The fixed analog stage dilated once: ``F_RF`` and its power factor ``R_RF`` become the
    (M, N_T, N_RF) stack a_N(eta_m psi_t) of :func:`_dilated_stack`; ``psi_t`` stays the
    fixed stage's (N_RF,) directions, which the stack dilates per subcarrier. Used by the
    harness both as the performance ceiling and as the target :func:`apply_bsa` matches.
    """
    F_bar = _dilated_stack(bf.F_RF, channels.eta)
    H_eff = effective_channel(channels, bf.psi_r, np.multiply.outer(channels.eta, bf.psi_t))
    return replace(bf, F_RF=F_bar, H_eff=H_eff, F_BB=baseband_zf(H_eff, F_bar), R_RF=F_bar)
