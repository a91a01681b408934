"""Greedy hybrid beamformer design from steering-vector dictionaries.

Pipeline: per-subcarrier unconstrained precoders (dominant right singular
vectors) and MMSE-style combiners, joint transmit/receive atom selection by
summed correlation against frequency-dilated dictionaries, then the
per-subcarrier zero-forcing baseband precoder on the effective channel with
a per-subcarrier power normalization enforcing the MK total constraint.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelSet, steering_vector
from .config import SystemConfig
from .phase_ops import rescale_phases, scale_analog_matrix, unwrap_analog_matrix


_RCOND = 1e-12


class DegenerateChannelError(RuntimeError):
    """Effective channel lost rank; the draw should be retried."""


@dataclass
class Dictionary:
    """Steering-atom dictionaries over uniform sine-space grids."""

    D_F: np.ndarray        # (N_T, N_F) transmit atoms
    D_W: np.ndarray        # (N_R, N_W) receive atoms
    grid_f: np.ndarray     # (N_F,) in [-1, 1]
    grid_w: np.ndarray     # (N_W,) in [-1, 1]


@dataclass
class BeamformerSet:
    """Hybrid beamformers for one channel realization.

    ``F_BB`` is the per-subcarrier zero-forcing baseband stack (M, N_RF, K);
    ``F_BB_bsa`` is filled by the beam-split-aware correction.
    """

    F_RF: np.ndarray                     # (N_T, N_RF), constant modulus
    W_RF: np.ndarray                     # (N_R, K), constant-modulus columns
    F_BB: np.ndarray                     # (M, N_RF, K)
    F_BB_bsa: np.ndarray | None = None   # (M, N_RF, K)
    selected_atoms: list[tuple[int, int]] = field(default_factory=list)

    def baseband(self, which: str) -> np.ndarray:
        if which == "plain":
            return self.F_BB
        if which == "bsa":
            if self.F_BB_bsa is None:
                raise ValueError("BSA baseband not computed; run apply_bsa first")
            return self.F_BB_bsa
        raise ValueError(f"unknown baseband variant {which!r}")


def build_dictionaries(cfg: SystemConfig) -> Dictionary:
    """Uniform [-1, 1] grids with N_F / N_W steering atoms.

    Only the carrier atoms are stored. :func:`omp_select` unwraps their
    phases once per call and dilates them one subcarrier at a time, so no
    (M, N, grid) stack is ever held; :func:`sd_dictionary` gives one
    dilated dictionary on its own.
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
    )


def sd_dictionary(D: np.ndarray, eta_m: float) -> np.ndarray:
    """Frequency-dilated dictionary: phases rescaled column-wise by eta_m."""
    return scale_analog_matrix(D, eta_m)


def unconstrained_precoders(channels: ChannelSet) -> np.ndarray:
    """Dominant right singular vector of H_k[m] per user and subcarrier.

    Returns (M, N_T, K); columns are unit-norm with the first
    significantly-nonzero entry rotated to be real positive so repeated runs
    produce identical signs.
    """
    H = channels.H
    if not np.all(np.isfinite(H)):
        raise ValueError("channel contains non-finite entries")
    vh = np.linalg.svd(H, full_matrices=False)[2]     # (K, M, min, N_T)
    return np.ascontiguousarray(np.transpose(_fix_phase(vh[:, :, 0].conj()), (1, 2, 0)))


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate each vector (last axis) so its first significant entry is real positive."""
    mags = np.abs(v)
    idx = np.argmax(mags > 1e-9 * mags.max(axis=-1, keepdims=True), axis=-1)
    pivot = np.take_along_axis(v, idx[..., None], axis=-1)
    return v * (pivot.conjugate() / np.abs(pivot))


def unconstrained_combiners(channels: ChannelSet, F_opt: np.ndarray,
                            P: float, sigma_n2: float) -> np.ndarray:
    """MMSE-scaled matched-filter combiners, shape (M, N_R, K).

    Column k is (1/P) (||H_k f_k||^2 + sigma^2/P)^{-1} H_k[m] f_k: a strictly
    positive scalar times the receive-side matched filter, so its direction
    is always that of H_k[m] f_opt,k[m].
    """
    H = channels.H
    hf = np.einsum("kmrt,mtk->kmr", H, F_opt)          # (K, M, N_R)
    g2 = np.sum(np.abs(hf) ** 2, axis=-1)              # (K, M)
    scale = (1.0 / P) / (g2 + sigma_n2 / P)
    return np.transpose(hf * scale[:, :, None], (1, 2, 0))


def omp_select(F_opt: np.ndarray, W_opt: np.ndarray, dictionary: Dictionary,
               eta: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int]]]:
    """Per-user joint atom selection against the dilated dictionaries.

    Both dictionaries are checked and unwrapped once; each subcarrier then
    costs one rescaling exp and one small correlation matmul per side, and
    only that subcarrier's dilated dictionary is alive at a time.

    For user k the pair (p*, q*) maximizes
    sum_m |d_{p,q}[m]^H g_k[m]| with d the Kronecker dictionary atom and
    g_k[m] = conj(f_k[m]) kron w_k[m]; the Kronecker inner product factors as
    conj(atom_F^H f) * (atom_W^H w), so only the small per-side correlations
    are formed. Ties resolve to the smallest (p, then q). A transmit atom is
    never reused across users (a duplicate would make the effective channel
    singular); the selected plain atoms are appended to F_RF / W_RF.
    """
    M, _, K = F_opt.shape
    N_F = dictionary.D_F.shape[1]
    N_W = dictionary.D_W.shape[1]
    if N_F == 0 or N_W == 0:
        raise ValueError("empty dictionary")
    if K > min(N_F, N_W):
        raise ValueError(f"need K <= min(N_F, N_W), got K={K}")
    phases_f = unwrap_analog_matrix(dictionary.D_F)
    phases_w = unwrap_analog_matrix(dictionary.D_W)
    corr_f = np.empty((M, N_F, K))
    corr_w = np.empty((M, N_W, K))
    for m in range(M):
        corr_f[m] = np.abs(rescale_phases(phases_f, eta[m]).conj().T @ F_opt[m])
        corr_w[m] = np.abs(rescale_phases(phases_w, eta[m]).conj().T @ W_opt[m])

    F_RF = np.empty((dictionary.D_F.shape[0], K), dtype=complex)
    W_RF = np.empty((dictionary.D_W.shape[0], K), dtype=complex)
    selected: list[tuple[int, int]] = []
    taken_f: list[int] = []
    for k in range(K):
        objective = np.einsum("mp,mq->pq", corr_f[:, :, k], corr_w[:, :, k])
        objective[taken_f, :] = -np.inf
        p_star, q_star = np.unravel_index(np.argmax(objective), objective.shape)
        taken_f.append(int(p_star))
        selected.append((int(p_star), int(q_star)))
        F_RF[:, k] = dictionary.D_F[:, p_star]
        W_RF[:, k] = dictionary.D_W[:, q_star]
    return F_RF, W_RF, selected


def effective_channel(channels: ChannelSet, W_RF: np.ndarray,
                      F_RF: np.ndarray) -> np.ndarray:
    """Per-subcarrier K x N_RF effective channel, row k = w_k^H H_k[m] F_RF.

    ``F_RF`` may be a single (N_T, N_RF) matrix or an (M, N_T, N_RF) stack
    of subcarrier-dependent beamformers; a single matrix is broadcast over m.
    """
    H = channels.H
    if W_RF.shape != (H.shape[2], H.shape[0]):
        raise ValueError(f"W_RF must be (N_R, K) = {(H.shape[2], H.shape[0])}, got {W_RF.shape}")
    F_RF = np.broadcast_to(F_RF, (H.shape[1],) + F_RF.shape[-2:])
    return np.einsum("rk,kmrt,mtj->mkj", W_RF.conj(), H, F_RF)


def baseband_zf(H_eff: np.ndarray, F_RF: np.ndarray) -> np.ndarray:
    """Zero-forcing baseband: pseudo-inverse of each H_eff[m], renormalized.

    Each subcarrier is scaled by a common factor so that
    ||F_RF F_BB[m]||_F^2 = K, making the total over m equal MK. All
    subcarriers share one batched SVD. Raises DegenerateChannelError, naming
    the first such subcarrier, when an effective channel is rank-deficient.
    """
    K = H_eff.shape[1]
    u, s, vh = np.linalg.svd(H_eff, full_matrices=False)
    degenerate = np.flatnonzero((s[:, 0] == 0) | (s[:, -1] < _RCOND * s[:, 0]))
    if degenerate.size:
        m = degenerate[0]
        raise DegenerateChannelError(
            f"effective channel at subcarrier {m} is rank-deficient "
            f"(singular values {s[m].min():.3e} .. {s[m].max():.3e})"
        )
    F_BB = (np.swapaxes(vh.conj(), 1, 2) / s[:, None, :]) @ np.swapaxes(u.conj(), 1, 2)
    F_BB *= np.sqrt(K) / np.linalg.norm(F_RF @ F_BB, axis=(1, 2), keepdims=True)
    return F_BB


def omp_hybrid_beamformer(cfg: SystemConfig, channels: ChannelSet,
                          dictionary: Dictionary | None = None) -> BeamformerSet:
    """Run the full greedy design on one channel realization."""
    if dictionary is None:
        dictionary = build_dictionaries(cfg)
    F_opt = unconstrained_precoders(channels)
    W_opt = unconstrained_combiners(channels, F_opt, cfg.P, cfg.sigma_n2)
    F_RF, W_RF, selected = omp_select(F_opt, W_opt, dictionary, channels.eta)
    H_eff = effective_channel(channels, W_RF, F_RF)
    F_BB = baseband_zf(H_eff, F_RF)
    return BeamformerSet(F_RF=F_RF, W_RF=W_RF, F_BB=F_BB, selected_atoms=selected)
