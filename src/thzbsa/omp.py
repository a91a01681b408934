"""Greedy hybrid beamformer design from steering-vector dictionaries.

Pipeline: unconstrained precoders (dominant right singular vectors) and
MMSE-style combiners as coordinates on the L path steering vectors, joint
transmit/receive atom selection by summed closed-form correlation with the
frequency-dilated atoms, then the per-subcarrier zero-forcing baseband on
the effective channel, normalized to the MK total power constraint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .channel import ChannelSet, dirichlet_sinc, steering_vector
from .config import SystemConfig
from .phase_ops import scale_analog_matrix


_RCOND = 1e-12
_EXACT = 1e-3      # |sin(pi d/2)| below which the atom kernel is evaluated from d itself


class DegenerateChannelError(RuntimeError):
    """Effective channel lost rank; the draw should be retried."""


@dataclass
class Dictionary:
    """Steering-atom dictionaries over uniform sine-space grids."""

    D_F: np.ndarray        # (N_T, N_F) transmit atoms
    D_W: np.ndarray        # (N_R, N_W) receive atoms
    grid_f: np.ndarray     # (N_F,) in [-1, 1]
    grid_w: np.ndarray     # (N_W,) in [-1, 1]
    psi_f: np.ndarray      # (N_F,) the direction each atom dilates from, as unwrap_phases
    psi_w: np.ndarray      # (N_W,) reads it: the grid, with a(-1) = a(+1) read as +1


@dataclass
class BeamformerSet:
    """One hybrid precoder (omp, bsa_omp or the SD oracle) for one realization.

    ``F_RF`` is a single (N_T, N_RF) matrix or the SD oracle's
    (M, N_T, N_RF) stack; ``H_eff`` is the effective channel ``F_BB`` was
    solved on, so every method is scored by the coupling H_eff[m] F_BB[m].
    """

    F_RF: np.ndarray        # (N_T, N_RF) or (M, N_T, N_RF), constant modulus
    W_RF: np.ndarray        # (N_R, K), constant-modulus columns
    H_eff: np.ndarray       # (M, K, N_RF)
    F_BB: np.ndarray        # (M, N_RF, K)
    selected_atoms: list[tuple[int, int]] = field(default_factory=list)


def build_dictionaries(cfg: SystemConfig) -> Dictionary:
    """Uniform [-1, 1] grids with N_F / N_W steering atoms.

    Only the carrier atoms are stored: :func:`omp_select` correlates their
    dilations in closed form, and :func:`sd_dictionary` gives one dilated
    dictionary on its own.
    """
    if cfg.N_F < 1 or cfg.N_W < 1:
        raise ValueError("dictionary grid sizes must be >= 1")
    grid_f = np.linspace(-1.0, 1.0, cfg.N_F)
    grid_w = np.linspace(-1.0, 1.0, cfg.N_W)
    return Dictionary(
        D_F=steering_vector(cfg.N_T, grid_f),
        D_W=steering_vector(cfg.N_R, grid_w),
        grid_f=grid_f,
        grid_w=grid_w,
        psi_f=np.where(grid_f == -1.0, 1.0, grid_f),
        psi_w=np.where(grid_w == -1.0, 1.0, grid_w),
    )


# a dilated dictionary is the one dilation; the acceptance suite imports this name
sd_dictionary = scale_analog_matrix


def unconstrained_precoders(channels: ChannelSet) -> np.ndarray:
    """Dominant right singular vectors v = A_T x, as the path coordinates x (K, M, L)."""
    return channels.dominant_mode[1]


def unconstrained_combiners(channels: ChannelSet, sigma_n2: float) -> np.ndarray:
    """MMSE-scaled matched-filter combiners w = A_R y, as the path coordinates y (K, M, L).

    w_k[m] = s / (s^2 + sigma^2) u = (||H_k v||^2 + sigma^2)^{-1} H_k[m] v at unit power,
    for the dominant mode (s, u, v) of H_k[m]: a positive multiple of the matched filter.
    """
    s, _, y = channels.dominant_mode
    return y * (s / (s**2 + sigma_n2))[..., None]


class _AtomTables(NamedTuple):
    """One dictionary's frequency-dilated atoms a_N(eta_m psi_p), as the sine and
    cosine of alpha = pi eta_m psi_p / 2 and of N alpha, each (M, P); every user
    shares them."""

    N: int
    psi: np.ndarray
    eta: np.ndarray
    sin_a: np.ndarray
    cos_a: np.ndarray
    sin_na: np.ndarray
    cos_na: np.ndarray

    @classmethod
    def build(cls, N: int, psi: np.ndarray, eta: np.ndarray) -> _AtomTables:
        alpha = (0.5 * np.pi) * np.multiply.outer(eta, psi)
        return cls(N, psi, eta, np.sin(alpha), np.cos(alpha), np.sin(N * alpha), np.cos(N * alpha))


def _atom_correlations(atoms: _AtomTables, paths: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """|a_N(eta_m psi_p)^H sum_l coords_l a_N(paths_l)| as (M, P), for one user.

    By the steering kernel this is |sum_l coords_l exp(-j pi (N-1) paths_l / 2) D_N(d/2)|,
    d = eta_m psi_p - paths_l, once the p-dependent unit phase drops out. With
    beta = pi paths_l / 2, angle addition gives sin(pi d/2) = sin(alpha - beta) and
    sin(N pi d/2) = sin(N alpha - N beta) from the shared tables, so only the
    (M, L) path factors take new sines. The kernel is laid out (L, M, P), atom
    axis contiguous, one (M, P) slice per path. Where |sin(pi d/2)| < ``_EXACT``
    the difference cancels (on-grid paths, grating lobes at |d| = 2, N = 1);
    those entries are evaluated from d itself by :func:`dirichlet_sinc`.
    """
    N, psi, eta = atoms.N, atoms.psi, atoms.eta
    beta = (0.5 * np.pi) * paths.T                                       # (L, M)
    sin_b, cos_b, sin_nb, cos_nb = (v[..., None] for v in
                                    (np.sin(beta), np.cos(beta), np.sin(N * beta), np.cos(N * beta)))
    weights = (coords * np.exp(-0.5j * np.pi * (N - 1) * paths)).T / N  # (L, M)
    kernel = np.empty(beta.shape + atoms.sin_a.shape[1:])                # (L, M, P), N D_N
    for l, ker in enumerate(kernel):
        den = atoms.sin_a * cos_b[l]
        den -= atoms.cos_a * sin_b[l]
        np.multiply(atoms.sin_na, cos_nb[l], out=ker)
        ker -= atoms.cos_na * sin_nb[l]
        near = np.flatnonzero(np.abs(den) < _EXACT)
        den.flat[near] = 1.0            # those entries are replaced below
        ker /= den
        if near.size:
            m, p = np.divmod(near, den.shape[1])
            ker.flat[near] = N * dirichlet_sinc((eta[m] * psi[p] - paths[m, l]) / 2.0, N)
    re = np.einsum("lmp,lm->mp", kernel, weights.real)
    im = np.einsum("lmp,lm->mp", kernel, weights.imag)
    re *= re
    im *= im
    re += im
    return np.sqrt(re, out=re)


def omp_select(channels: ChannelSet, x: np.ndarray, y: np.ndarray,
               dictionary: Dictionary) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int]]]:
    """Per-user joint atom selection against the dilated dictionaries.

    ``x`` / ``y`` are the path coordinates of the unconstrained precoders
    f_k[m] = A_T x and combiners w_k[m] = A_R y. For user k the pair (p*, q*)
    maximizes sum_m |d_{p,q}[m]^H g_k[m]| with d the Kronecker dictionary
    atom and g_k[m] = conj(f_k[m]) kron w_k[m], which factors as
    conj(atom_F^H f) * (atom_W^H w). Both factors are closed-form Dirichlet
    kernels over sin/cos tables of the dilated atoms, built once per call and
    shared by every user; only entries with |sin(pi d/2)| < ``_EXACT`` are
    evaluated from d directly. Ties resolve to the smallest (p, then q). A
    transmit atom is never reused across users (a duplicate would make the
    effective channel singular); the plain atoms form F_RF / W_RF.
    """
    K = x.shape[0]
    if K > min(dictionary.D_F.shape[1], dictionary.D_W.shape[1]):
        raise ValueError(f"need K <= min(N_F, N_W), got K={K}")
    tx = _AtomTables.build(channels.N_T, dictionary.psi_f, channels.eta)
    rx = _AtomTables.build(channels.N_R, dictionary.psi_w, channels.eta)
    selected: list[tuple[int, int]] = []
    for k in range(K):
        corr_f = _atom_correlations(tx, channels.vartheta[k], x[k])
        corr_w = _atom_correlations(rx, channels.theta[k], y[k])
        objective = corr_f.T @ corr_w
        objective[[p for p, _ in selected], :] = -np.inf
        selected.append(divmod(int(np.argmax(objective)), objective.shape[1]))
    p_star, q_star = zip(*selected)
    return dictionary.D_F[:, p_star], dictionary.D_W[:, q_star], selected


def effective_channel(channels: ChannelSet, W_RF: np.ndarray,
                      F_RF: np.ndarray) -> np.ndarray:
    """Per-subcarrier K x N_RF effective channel, row k = w_k^H H_k[m] F_RF.

    ``F_RF`` may be a single (N_T, N_RF) matrix or an (M, N_T, N_RF) stack
    of subcarrier-dependent beamformers; either multiplies the shared
    W_RF^H H stack of :meth:`ChannelSet.combined`.
    """
    K = channels.gain.shape[0]
    if W_RF.shape != (channels.N_R, K):
        raise ValueError(f"W_RF must be (N_R, K) = {(channels.N_R, K)}, got {W_RF.shape}")
    return channels.combined(W_RF) @ F_RF


def pseudo_inverse(A: np.ndarray) -> np.ndarray:
    """Moore-Penrose inverse of one matrix or of each slice of an (M, r, c) stack.

    One batched SVD under the one ``_RCOND`` rank rule. Raises
    DegenerateChannelError when a matrix is rank-deficient, naming the
    first such subcarrier of a stack.
    """
    u, s, vh = np.linalg.svd(A, full_matrices=False)
    degenerate = np.flatnonzero((s[..., 0] == 0) | (s[..., -1] < _RCOND * s[..., 0]))
    if degenerate.size:
        where = "" if A.ndim == 2 else f" at subcarrier {degenerate[0]}"
        s_bad = s.reshape(-1, s.shape[-1])[degenerate[0]]
        raise DegenerateChannelError(
            f"matrix{where} is rank-deficient "
            f"(singular values {s_bad.min():.3e} .. {s_bad.max():.3e})"
        )
    return (np.swapaxes(vh.conj(), -1, -2) / s[..., None, :]) @ np.swapaxes(u.conj(), -1, -2)


def unit_power(F_RF: np.ndarray, F_BB: np.ndarray) -> np.ndarray:
    """Scale each subcarrier's baseband so that ||F_RF F_BB[m]||_F^2 = K."""
    K = F_BB.shape[-1]
    return F_BB * (np.sqrt(K) / np.linalg.norm(F_RF @ F_BB, axis=(-2, -1), keepdims=True))


def baseband_zf(H_eff: np.ndarray, F_RF: np.ndarray) -> np.ndarray:
    """Zero-forcing baseband: pseudo-inverse of each H_eff[m], scaled so that
    ||F_RF F_BB[m]||_F^2 = K (MK in total). Raises DegenerateChannelError,
    naming the first such subcarrier, when an effective channel is rank-deficient.
    """
    return unit_power(F_RF, pseudo_inverse(H_eff))


def omp_hybrid_beamformer(cfg: SystemConfig, channels: ChannelSet,
                          dictionary: Dictionary | None = None) -> BeamformerSet:
    """Run the full greedy design on one channel realization."""
    if dictionary is None:
        dictionary = build_dictionaries(cfg)
    x = unconstrained_precoders(channels)
    y = unconstrained_combiners(channels, cfg.sigma_n2)
    F_RF, W_RF, selected = omp_select(channels, x, y, dictionary)
    H_eff = effective_channel(channels, W_RF, F_RF)
    F_BB = baseband_zf(H_eff, F_RF)
    return BeamformerSet(F_RF=F_RF, W_RF=W_RF, H_eff=H_eff, F_BB=F_BB, selected_atoms=selected)
