"""Beam-split-aware baseband correction.

The subcarrier-independent analog beamformer is kept, and each subcarrier's
baseband is replaced with the least-squares match of the fixed-analog hybrid
product to the ideal (phase-rescaled) per-subcarrier hybrid precoder, so the
split compensation lives in the digital stage: exact iff the analog matrix
has a left inverse (N_RF = N_T), else the projection onto its column space.
"""

from __future__ import annotations

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
    first, so the products are (M, N_RF, N_RF); the analog stage and ``H_eff`` stay.
    """
    corrected = (pseudo_inverse(bf.F_RF) @ target.F_RF) @ target.F_BB
    return replace(bf, F_BB=unit_power(bf.F_RF, corrected))


def sd_oracle_beamformers(channels: ChannelSet, bf: BeamformerSet) -> BeamformerSet:
    """Ideal (hardware-infeasible) per-subcarrier analog stack and its ZF baseband.

    The returned set has ``F_RF`` of shape (M, N_T, N_RF), built by one
    batched rescaling, at the directions eta_m psi_t; used by the harness both
    as the performance ceiling and as the target :func:`apply_bsa` matches.
    """
    F_bar = scale_analog_matrix(bf.F_RF, channels.eta)
    psi_bar = np.multiply.outer(channels.eta, bf.psi_t)
    H_eff = effective_channel(channels, bf.psi_r, psi_bar)
    return replace(bf, F_RF=F_bar, psi_t=psi_bar, H_eff=H_eff, F_BB=baseband_zf(H_eff, F_bar))
