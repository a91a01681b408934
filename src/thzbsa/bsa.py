"""Beam-split-aware baseband correction.

The subcarrier-independent analog beamformer is kept, and each subcarrier's
baseband is replaced with the least-squares match of the fixed-analog hybrid
product to the ideal (phase-rescaled) per-subcarrier hybrid precoder, so the
split compensation lives in the digital stage: exact iff the analog matrix
has a left inverse (N_RF = N_T), else the projection onto its column space.
That ideal's per-subcarrier analog stack (the SD oracle's) is the fixed
analog matrix dilated once: one rescaling of its first two rows per
subcarrier gives z = exp(-j pi eta_m psi), and entry n of a dilated steering
vector is z^n / sqrt(N), so the rest of the stack is powers of z.
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

    Entry n of a_N(x) is z^n / sqrt(N) with z = exp(-j pi x). One dilation of the first
    two rows by the (M,) ratios gives z (exact for psi in (-1, 1], whose slope the unwrap
    reads); the rows then fill in doubling slabs, rows s..2s-1 being rows 0..s-1 times
    z^s, with z^s by repeated squaring. Each power is rescaled to unit modulus, so every
    modulus stays within a few ulp of 1 / sqrt(N) (the stack is its own power factor),
    while the phase error grows as about N eps, as the exponentials' did. So the stack
    takes the exponentials of two rows, 2 M N_RF, not M N N_RF.
    """
    N = F_RF.shape[0]
    z = scale_analog_matrix(F_RF[:2], eta)[:, -1]                          # (M, N_RF)
    z /= np.abs(z)
    stack = np.empty((len(eta), N, F_RF.shape[1]), dtype=complex)
    stack[:, 0] = 1.0 / math.sqrt(N)
    s = 1
    while s < N:
        width = min(s, N - s)
        np.multiply(stack[:, :width], z[:, None], out=stack[:, s:s + width])
        s += width
        if s < N:
            z = z * z
            z /= np.abs(z)
    return stack


def sd_oracle_beamformers(channels: ChannelSet, bf: BeamformerSet) -> BeamformerSet:
    """Ideal (hardware-infeasible) per-subcarrier analog stack and its ZF baseband.

    The fixed analog stage dilated once: ``F_RF`` and its power factor ``R_RF`` become the
    (M, N_T, N_RF) stack a_N(eta_m psi_t) of :func:`_dilated_stack`; ``psi_t`` stays the
    fixed stage's (N_RF,) directions, which the stack dilates per subcarrier. Used by the
    harness both as the performance ceiling and as the target :func:`apply_bsa` matches.
    Its effective channel comes first, so the (K, N_RF, L, M) couplings are freed before the
    stack exists, then the stack, then its ZF baseband.
    """
    H_eff = effective_channel(channels, bf.psi_r, np.multiply.outer(channels.eta, bf.psi_t))
    F_bar = _dilated_stack(bf.F_RF, channels.eta)
    return replace(bf, F_RF=F_bar, H_eff=H_eff, F_BB=baseband_zf(H_eff, F_bar), R_RF=F_bar)
