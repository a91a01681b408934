"""Beam-split-aware baseband correction.

The subcarrier-independent analog beamformer is kept, and each subcarrier's
baseband is replaced with the least-squares match of the fixed-analog hybrid
product to the ideal (phase-rescaled) per-subcarrier hybrid precoder, so the
split compensation lives in the digital stage: exact iff the analog matrix
has a left inverse (N_RF = N_T), else the projection onto its column space.
That ideal's per-subcarrier analog stack (the SD oracle's) is the fixed
analog matrix dilated once: one rescaling of its first two rows per
subcarrier gives z = exp(-j pi eta_m psi), and entry n of a dilated steering
vector is z^n / sqrt(N), so the rest of the stack is powers of z. The stack is
never held whole: :func:`sd_oracle_beamformers` fills it a block of
subcarriers at a time and takes from each block all that the SD oracle and
the correction read.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .channel import ChannelSet
from .omp import BeamformerSet, baseband_zf, effective_channel, pseudo_inverse, unit_power
from .phase_ops import scale_analog_matrix


_BLOCK_ENTRIES = 32768      # complex stack entries of one block of the SD pass (512 KiB)


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

    ``target`` is the SD oracle of :func:`sd_oracle_beamformers` on ``bf`` (what the
    virtual SD beamformer would deploy), which carries the (M, N_RF, N_RF) products
    pinv(F_RF) F_bar[m] of the one pseudo-inverse of the analog beamformer and its
    dilated stack; they match every subcarrier's target baseband. The analog stage, its
    stored QR factor ``R_RF`` and ``H_eff`` stay.
    """
    corrected = target.projection @ target.F_BB
    return replace(bf, F_BB=unit_power(bf.R_RF, corrected))


def _phase_steps(F_RF: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """z = exp(-j pi eta_m psi) of a steering matrix F_RF = a_N(psi), (M, N_RF): one
    dilation of its first two rows by the (M,) ratios (exact for psi in (-1, 1], whose
    slope the unwrap reads), rescaled to unit modulus."""
    z = scale_analog_matrix(F_RF[:2], eta)[:, -1]
    z /= np.abs(z)
    return z


def _fill_powers(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill an (m, N, N_RF) ``out`` with the stack a_N(eta psi), z^n / sqrt(N), from the
    (m, N_RF) :func:`_phase_steps` z. The rows fill in doubling slabs, rows s..2s-1 being
    rows 0..s-1 times z^s, with z^s by repeated squaring. Each power is rescaled to unit
    modulus, so every modulus stays within a few ulp of 1 / sqrt(N), while the phase error
    grows as about N eps, as the exponentials' did. Each subcarrier's entries depend on its
    own z alone, so a block fills bit for bit as in the whole stack."""
    N = out.shape[1]
    out[:, 0] = 1.0 / math.sqrt(N)
    s = 1
    while s < N:
        width = min(s, N - s)
        np.multiply(out[:, :width], z[:, None], out=out[:, s:s + width])
        s += width
        if s < N:
            z = z * z
            z /= np.abs(z)
    return out


def _dilated_stack(F_RF: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """The whole (M, N, N_RF) stack a_N(eta_m psi) of a steering matrix F_RF = a_N(psi),
    built on request (no trial holds it): :func:`_fill_powers` of its :func:`_phase_steps`.
    It takes the exponentials of two rows, 2 M N_RF, not M N N_RF."""
    z = _phase_steps(F_RF, eta)
    return _fill_powers(z, np.empty((len(eta), F_RF.shape[0], F_RF.shape[1]), dtype=complex))


def _real_form(X: np.ndarray) -> np.ndarray:
    """The (..., 2n, 2k) real B of complex (..., n, k) X with A.view(float) @ B =
    (A @ X).view(float) for any complex A: row 2i is X[i] as (re, im) pairs, and row
    2i + 1 is j X[i], which an imaginary part of A meets."""
    n, k = X.shape[-2:]
    B = np.empty(X.shape[:-2] + (n, 2, k, 2))
    B[..., 0, :, :] = X.view(float).reshape(X.shape + (2,))
    np.negative(X.imag, out=B[..., 1, :, 0])
    B[..., 1, :, 1] = X.real
    return B.reshape(X.shape[:-2] + (2 * n, 2 * k))


def _block_norms(Y: np.ndarray) -> np.ndarray:
    """||Y[m]||_F^2 of each matrix of a C-contiguous real stack, one dot product each."""
    rows = Y.reshape(len(Y), 1, -1)
    return (rows @ rows.transpose(0, 2, 1))[:, 0, 0]


def sd_oracle_beamformers(channels: ChannelSet, bf: BeamformerSet) -> BeamformerSet:
    """Ideal (hardware-infeasible) per-subcarrier analog stack and its ZF baseband.

    The fixed analog stage dilated per subcarrier, F_bar[m] = a_N(eta_m psi_t), in one pass
    over blocks of at most ``_BLOCK_ENTRIES`` stack entries (one subcarrier if a single one
    holds more), each filled by :func:`_fill_powers` into one reused buffer. Each block
    gives the ZF power ||F_bar[m] H_eff[m]^-1||_F^2 and so the baseband, the measured power
    ||F_bar[m] F_BB[m]||_F^2 of that final baseband and the projection pinv(F_RF) F_bar[m]
    that :func:`apply_bsa` reads; the three products run on the block's real view
    (:func:`_real_form`). The set keeps ``bf``'s ``F_RF``, ``R_RF``, directions and receive
    coupling, which its effective channel reuses. Used by the harness both as the
    performance ceiling and as the target :func:`apply_bsa` matches.
    """
    eta = channels.eta
    H_eff = effective_channel(channels, bf.receive, np.multiply.outer(eta, bf.psi_t))
    H_inv = baseband_zf(H_eff)                                         # (M, N_RF, K)
    z = _phase_steps(bf.F_RF, eta)
    pinv = pseudo_inverse(bf.F_RF)
    pinv = np.concatenate([pinv.real, pinv.imag])                      # (2 N_RF, N_T)
    (M, N_RF, K), N_T = H_inv.shape, bf.F_RF.shape[0]
    block = max(1, _BLOCK_ENTRIES // (N_T * N_RF))
    stack = np.empty((min(block, M), N_T, N_RF), dtype=complex)
    F_BB = np.empty_like(H_inv)
    power = np.empty(M)
    projection = np.empty((M, N_RF, N_RF), dtype=complex)
    for m in range(0, M, block):
        blk = slice(m, m + block)
        steps = z[blk]
        F_bar = _fill_powers(steps, stack[:len(steps)]).view(float)     # (m, N_T, 2 N_RF)
        B = _real_form(H_inv[blk])
        scale = np.sqrt(K / _block_norms(F_bar @ B))[:, None, None]
        F_BB[blk] = H_inv[blk] * scale
        power[blk] = _block_norms(F_bar @ (B * scale))   # B * scale is F_BB's real form, exactly
        parts = pinv @ F_bar                                            # (m, 2 N_RF, 2 N_RF)
        proj = projection[blk].view(float)
        np.subtract(parts[:, :N_RF, 0::2], parts[:, N_RF:, 1::2], out=proj[..., 0::2])
        np.add(parts[:, :N_RF, 1::2], parts[:, N_RF:, 0::2], out=proj[..., 1::2])
    return replace(bf, H_eff=H_eff, F_BB=F_BB, power=power, projection=projection)
