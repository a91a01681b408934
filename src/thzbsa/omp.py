"""Greedy hybrid beamformer design from steering-vector dictionaries.

Pipeline: unconstrained precoders (dominant right singular vectors) and
MMSE-style combiners as coordinates on the L path steering vectors, joint
transmit/receive atom selection by summed closed-form correlation with the
frequency-dilated atoms, then the per-subcarrier zero-forcing baseband: the
inverse of each square K x K effective channel, normalized to the MK total
power constraint through :func:`analog_power`. The fixed analog stage's QR
factor is taken once per design and stored on the :class:`BeamformerSet`, so
every later power sum of that stage reads it; the SD oracle's per-subcarrier
stack is summed block by block over subcarriers, never multiplied out whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .channel import ChannelSet, _dirichlet_kernel, _Sines, steering_kernel, steering_vector
from .config import SystemConfig
from .phase_ops import scale_analog_matrix


_RCOND = 1e-12
_BLOCK_ENTRIES = 8192       # complex entries of one block of a stack's power product (128 KiB)


class DegenerateChannelError(RuntimeError):
    """A matrix lost rank under the ``_RCOND`` rule; the draw should be retried.

    Raised by :func:`baseband_zf` when an effective channel's Frobenius
    condition number exceeds 1/``_RCOND`` or is not finite, and by
    :func:`pseudo_inverse` when s_min < ``_RCOND`` s_max.
    """


@dataclass
class Dictionary:
    """Transmit and receive direction grids; the (N_T, N_F) and (N_R, N_W) steering
    atoms ``D_F`` / ``D_W`` are built on first access, and no trial reads them."""

    N_T: int
    N_R: int
    psi_f: np.ndarray      # (N_F,) the direction each atom dilates from, as unwrap_phases
    psi_w: np.ndarray      # (N_W,) reads it: the grid, with a(-1) = a(+1) read as +1

    @cached_property
    def D_F(self) -> np.ndarray:
        return steering_vector(self.N_T, self.psi_f)

    @cached_property
    def D_W(self) -> np.ndarray:
        return steering_vector(self.N_R, self.psi_w)


@dataclass
class BeamformerSet:
    """One hybrid precoder (omp, bsa_omp or the SD oracle) for one realization.

    ``F_RF`` is a single (N_T, N_RF) matrix or the SD oracle's
    (M, N_T, N_RF) stack, its per-subcarrier dilation; ``psi_t`` is always the
    (N_RF,) directions of the fixed analog stage. ``H_eff`` is the effective
    channel ``F_BB`` was solved on, so every method is scored by the coupling
    H_eff[m] F_BB[m]. ``R_RF`` is the triangular QR factor of a single ``F_RF``,
    read by every power sum of it (:func:`analog_power`); None (a stack, or a set
    built without it) means the power sums take what they need from ``F_RF``.
    """

    F_RF: np.ndarray        # (N_T, N_RF) or (M, N_T, N_RF), constant modulus
    W_RF: np.ndarray        # (N_R, K), constant-modulus columns
    H_eff: np.ndarray       # (M, K, N_RF)
    F_BB: np.ndarray        # (M, N_RF, K)
    psi_t: np.ndarray       # (N_RF,), the fixed analog stage's steering directions
    psi_r: np.ndarray       # (K,), the steering directions of W_RF
    R_RF: np.ndarray | None = None   # (min(N_T, N_RF), N_RF), F_RF = Q R_RF; None for a stack


def build_dictionaries(cfg: SystemConfig) -> Dictionary:
    """Uniform [-1, 1] direction grids of N_F transmit and N_W receive atoms.

    ``linspace(-1, 1, N)`` with -1 read as +1, since a(-1) = a(+1): the one
    place the grid and its alias are stated. Only directions are stored:
    :func:`omp_select` correlates their dilations in closed form, and
    :func:`omp_hybrid_beamformer` steers the K selected beams.
    """
    def grid(N: int) -> np.ndarray:
        psi = np.linspace(-1.0, 1.0, N)
        return np.where(psi == -1.0, 1.0, psi)

    return Dictionary(N_T=cfg.N_T, N_R=cfg.N_R, psi_f=grid(cfg.N_F), psi_w=grid(cfg.N_W))


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


@lru_cache(maxsize=8)      # atom tables kept per process; a config uses two
def _atom_sines(N: int, psi: bytes, eta: bytes) -> _Sines:
    """The read-only (M, P) sine table of the dilated atom directions eta_m psi_p, keyed
    on the grids' bytes: one per (N, grid, eta), shared by every user and trial of a config."""
    return _Sines.of(N, np.multiply.outer(np.frombuffer(eta), np.frombuffer(psi)))


def _magnitude(subscripts: str, kernel: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """|sum over paths of kernel * weights|: a real kernel contracted with the real and
    imaginary parts of complex path weights, by the einsum ``subscripts``."""
    re = np.einsum(subscripts, kernel, weights.real)
    im = np.einsum(subscripts, kernel, weights.imag)
    re *= re
    im *= im
    re += im
    return np.sqrt(re, out=re)


def _atom_correlations(N: int, atoms: _Sines, paths: _Sines, coords: np.ndarray) -> np.ndarray:
    """|a_N(eta_m psi_p)^H sum_l coords_l a_N(paths_l)| as (M, P), for one user.

    ``atoms`` is the (M, P) table of :func:`_atom_sines`, ``paths`` the user's (L, M)
    slice of ``ChannelSet.theta_sines`` or ``vartheta_sines``, ``coords`` (M, L). By the
    steering kernel this is |sum_l coords_l exp(-j pi (N-1) paths_l / 2) D_N(d/2)|,
    d = eta_m psi_p - paths_l, once the p-dependent unit phase drops out; the Dirichlet
    factor pairs the two tables by :func:`_dirichlet_kernel`, laid out (L, M, P).
    """
    weights = coords.T * np.exp(-0.5j * np.pi * (N - 1) * paths.x) / N  # (L, M)
    kernel = np.empty(paths.x.shape + atoms.x.shape[1:])                 # (L, M, P), N D_N
    for l, ker in enumerate(kernel):
        _dirichlet_kernel(N, atoms, paths.at(np.s_[l, :, None]), out=ker)
    return _magnitude("lmp,lm->mp", kernel, weights)


def _all_user_correlations(N: int, atoms: _Sines, paths: _Sines,
                           coords: np.ndarray) -> np.ndarray:
    """:func:`_atom_correlations` of every user at once, as (K, M, P).

    ``paths`` is the whole (K, L, M) path table and ``coords`` (K, M, L); one
    :func:`_dirichlet_kernel` call lays the kernel out (K, L, M, P). Worth it for the
    short receive side only: the transmit kernel of all users is too large a temporary.
    """
    weights = np.swapaxes(coords, -1, -2) * np.exp(-0.5j * np.pi * (N - 1) * paths.x) / N
    kernel = _dirichlet_kernel(N, atoms, paths.at(np.s_[..., None]))   # (K, L, M, P), N D_N
    return _magnitude("klmp,klm->kmp", kernel, weights)


def omp_select(channels: ChannelSet, x: np.ndarray, y: np.ndarray,
               dictionary: Dictionary) -> tuple[np.ndarray, np.ndarray]:
    """Per-user joint atom selection against the dilated dictionaries.

    ``x`` / ``y`` are the path coordinates of the unconstrained precoders
    f_k[m] = A_T x and combiners w_k[m] = A_R y. For user k the pair (p*, q*)
    maximizes sum_m |d_{p,q}[m]^H g_k[m]| with d the Kronecker dictionary
    atom and g_k[m] = conj(f_k[m]) kron w_k[m], which factors as
    conj(atom_F^H f) * (atom_W^H w). Both factors are closed-form Dirichlet kernels
    pairing the dilated atoms' sine tables (:func:`_atom_sines`, shared by every trial
    of a config) with the channel's path tables: the user's (L, M) slice of
    ``vartheta_sines``, and ``theta_sines`` of all users in one call
    (:func:`_all_user_correlations`); entries with |sin(pi d/2)| < ``_EXACT`` are
    evaluated from d directly. Ties resolve to the smallest (p, then q). A transmit
    atom is never reused across users (a duplicate would make the effective channel
    singular). Returns the (K,) index arrays (p*, q*) into ``psi_f`` / ``psi_w``.
    """
    K = x.shape[0]
    if K > dictionary.psi_f.size:
        raise ValueError(f"need K <= N_F, got K={K}")
    eta = np.asarray(channels.eta, dtype=float).tobytes()
    tx, rx = (_atom_sines(N, np.asarray(psi, dtype=float).tobytes(), eta) for N, psi in
              ((channels.N_T, dictionary.psi_f), (channels.N_R, dictionary.psi_w)))
    corr_w = _all_user_correlations(channels.N_R, rx, channels.theta_sines, y)  # (K, M, N_W)
    p_star, q_star = np.empty((2, K), dtype=np.intp)
    for k in range(K):
        corr_f = _atom_correlations(channels.N_T, tx, channels.vartheta_sines.at(k), x[k])
        objective = corr_f.T @ corr_w[k]
        objective[p_star[:k], :] = -np.inf
        p_star[k], q_star[k] = divmod(int(np.argmax(objective)), objective.shape[1])
    return p_star, q_star


def effective_channel(channels: ChannelSet, psi_r: np.ndarray,
                      psi_t: np.ndarray) -> np.ndarray:
    """Per-subcarrier K x N_RF effective channel w_k^H H_k[m] f_i between steering beams.

    w_k = a_R(psi_r[k]) and f_i = a_T(psi_t[..., i]), with ``psi_t`` (N_RF,) for one
    analog matrix or (M, N_RF) for a per-subcarrier stack; per path, the entry is the
    gain times two steering kernels, a_R(psi_r)^H a_R(theta) and a_T(vartheta)^H a_T(psi_t).
    The transmit kernel's phase exp(j pi (N-1)(vartheta - psi_t)/2) is the product of one
    phase per path and one per beam; its Dirichlet factor pairs a (K, L, 1, M) view of
    ``channels.vartheta_sines`` with the beams' sine table (:func:`_dirichlet_kernel`).
    """
    K = channels.gain.shape[0]
    psi_r = np.asarray(psi_r, dtype=float)
    if psi_r.shape != (K,):
        raise ValueError(f"psi_r must be (K,) = {(K,)}, got {psi_r.shape}")
    N = channels.N_T
    psi_t = np.asarray(psi_t, dtype=float)
    weights = channels.gain * steering_kernel(channels.N_R, psi_r[:, None, None], channels.theta)
    weights *= np.exp(0.5j * np.pi * (N - 1) * channels.vartheta) / N  # (K, M, L)
    # subcarriers innermost, so every broadcast loop runs M long
    paths = channels.vartheta_sines.at(np.s_[:, :, None, :])            # (K, L, 1, M)
    beams = np.ascontiguousarray(psi_t.T).reshape(psi_t.shape[-1], -1)  # (N_RF, 1) or (N_RF, M)
    kernel = _dirichlet_kernel(N, paths, _Sines.of(N, beams))           # (K, L, N_RF, M)
    h = np.einsum("kml,klim->mki", weights, kernel)
    h *= np.exp(-0.5j * np.pi * (N - 1) * psi_t[..., None, :])
    return h


def pseudo_inverse(A: np.ndarray) -> np.ndarray:
    """Moore-Penrose inverse of one matrix or of each slice of an (M, r, c) stack.

    The least squares of the BSA correction, for an analog matrix of any shape:
    one batched SVD, rank-deficient when s_min < ``_RCOND`` s_max. Raises
    DegenerateChannelError naming the first such subcarrier of a stack.
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


def _squared_norms(A: np.ndarray) -> np.ndarray:
    """||A||_F^2 of each trailing matrix, summed over the float view: no complex temporary."""
    A = np.ascontiguousarray(A)
    real = A.view(np.finfo(A.dtype).dtype)
    return np.einsum("...ij,...ij->...", real, real)


def analog_power(F_RF: np.ndarray, F_BB: np.ndarray,
                 R_RF: np.ndarray | None = None) -> np.ndarray:
    """||F_RF F_BB[m]||_F^2 of each subcarrier's baseband.

    One (N_T, N_RF) analog matrix is replaced by its triangular QR factor R:
    F_RF = Q R with Q unitary gives ||F_RF X||_F = ||R X||_F exactly, with no
    N_T-long product and no squared condition number. ``R_RF`` is that factor when
    the caller holds it (:class:`BeamformerSet`); else it is taken here. The SD
    oracle's (M, N_T, N_RF) stack, with an (M, N_RF, K) ``F_BB``, is summed over
    its dense products a block of subcarriers at a time: each block's product
    holds at most ``_BLOCK_ENTRIES`` entries (one subcarrier if a single one
    holds more), so no (M, N_T, K) temporary is formed.
    """
    if F_RF.ndim == 2:
        R = np.linalg.qr(F_RF, mode="r") if R_RF is None else R_RF
        return _squared_norms(R @ F_BB)
    M, N_T, _ = F_RF.shape
    block = max(1, _BLOCK_ENTRIES // (N_T * F_BB.shape[-1]))
    power = np.empty(M)
    for m in range(0, M, block):
        power[m:m + block] = _squared_norms(F_RF[m:m + block] @ F_BB[m:m + block])
    return power


def unit_power(F_RF: np.ndarray, F_BB: np.ndarray,
               R_RF: np.ndarray | None = None) -> np.ndarray:
    """Scale each subcarrier's baseband so that ||F_RF F_BB[m]||_F^2 = K (``R_RF`` as in
    :func:`analog_power`)."""
    K = F_BB.shape[-1]
    return F_BB * np.sqrt(K / analog_power(F_RF, F_BB, R_RF))[..., None, None]


def baseband_zf(H_eff: np.ndarray, F_RF: np.ndarray,
                R_RF: np.ndarray | None = None) -> np.ndarray:
    """Zero-forcing baseband: the inverse of each square H_eff[m] (N_RF = K), scaled
    so that ||F_RF F_BB[m]||_F^2 = K (MK in total; ``R_RF`` as in :func:`analog_power`).

    The rank rule is on the Frobenius condition number kappa_F = ||H||_F ||H^-1||_F,
    which bounds kappa_2 <= kappa_F <= K kappa_2: DegenerateChannelError names the
    first subcarrier whose kappa_F exceeds 1/``_RCOND`` or is not finite, an
    exactly singular one included.
    """
    try:
        H_inv = np.linalg.inv(H_eff)
        kappa = np.sqrt(_squared_norms(H_eff) * _squared_norms(H_inv))
    except np.linalg.LinAlgError:       # an exactly singular slice: cond reads it as inf
        kappa = np.linalg.cond(H_eff, "fro")
    degenerate = np.flatnonzero(~(kappa <= 1 / _RCOND))
    if degenerate.size:
        m = degenerate[0]
        raise DegenerateChannelError(
            f"matrix at subcarrier {m} is rank-deficient (condition number {kappa[m]:.3e})")
    return unit_power(F_RF, H_inv, R_RF)


def omp_hybrid_beamformer(cfg: SystemConfig, channels: ChannelSet,
                          dictionary: Dictionary | None = None) -> BeamformerSet:
    """Run the full greedy design on one channel realization."""
    if dictionary is None:
        dictionary = build_dictionaries(cfg)
    x = unconstrained_precoders(channels)
    y = unconstrained_combiners(channels, cfg.sigma_n2)
    p_star, q_star = omp_select(channels, x, y, dictionary)
    psi_t, psi_r = dictionary.psi_f[p_star], dictionary.psi_w[q_star]
    F_RF = steering_vector(cfg.N_T, psi_t)
    R_RF = np.linalg.qr(F_RF, mode="r")         # the trial's one QR of the fixed stage
    H_eff = effective_channel(channels, psi_r, psi_t)
    return BeamformerSet(F_RF=F_RF, W_RF=steering_vector(cfg.N_R, psi_r), H_eff=H_eff,
                         F_BB=baseband_zf(H_eff, F_RF, R_RF), psi_t=psi_t, psi_r=psi_r,
                         R_RF=R_RF)
