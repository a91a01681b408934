"""Greedy hybrid beamformer design from steering-vector dictionaries.

Pipeline: unconstrained precoders (dominant right singular vectors) and
MMSE-style combiners as coordinates on the L path steering vectors, joint
transmit/receive atom selection by summed closed-form correlation with the
frequency-dilated atoms, then the per-subcarrier zero-forcing baseband: the
inverse of each square K x K effective channel, normalized to the MK total
power constraint through :func:`analog_power`, which reads the triangular QR
factor of the fixed analog stage that every :class:`BeamformerSet` stores,
taken once per design. The SD oracle (:mod:`thzbsa.bsa`) scales the same
inverse by the power of its own per-subcarrier stack.

The selection is exact by bound-and-prune. |N D_N(d/2)| <= min(N, 1/|sin(pi d/2)|),
taken over the band from its two end subcarriers, bounds each transmit atom's
objective. The few seeds of largest bound per user are evaluated for all users at
once; then, user by user, only the free atoms whose bound reaches the best free
seed are. Ties go to the smallest (p, then q), since an objective's value does not
depend on which other atoms are evaluated with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .channel import (ChannelSet, _dirichlet_bound, _dirichlet_kernel, _kernel, _sines,
                      steering_vector)
from .config import SystemConfig
from .phase_ops import scale_analog_matrix


_RCOND = 1e-12
_SEEDS = 4                  # transmit atoms per user evaluated before any is pruned
_DILATION_ATOL = 1e-12      # how far a transmit path may sit from eta_m times a fixed direction


class DegenerateChannelError(RuntimeError):
    """A matrix lost rank under the ``_RCOND`` rule; the draw should be retried.

    Raised by :func:`baseband_zf` when an effective channel's Frobenius
    condition number exceeds 1/``_RCOND`` or is not finite, by
    :func:`pseudo_inverse` when s_min < ``_RCOND`` s_max, and by the harness's
    ``run_trial`` once its redraws are used up.
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

    ``F_RF`` is the fixed (N_T, N_RF) analog matrix, steered to the directions
    ``psi_t``, and ``R_RF`` its triangular QR factor, which every power sum reads
    (:func:`analog_power`). ``H_eff`` is the effective channel ``F_BB`` was solved on,
    so every method is scored by the coupling H_eff[m] F_BB[m]; ``receive`` is the (K, L, M)
    receive coupling of ``W_RF`` that it was contracted from (:func:`effective_channel`),
    which the SD oracle's effective channel reads too.

    The SD oracle's analog stage is ``F_RF`` dilated per subcarrier,
    a_N(eta_m psi_t), which it never holds (:func:`thzbsa.bsa.sd_oracle_beamformers`
    builds and reads it a block at a time): its ``F_BB`` and ``H_eff`` belong to that
    stage, ``power`` is its measured ||F_bar[m] F_BB[m]||_F^2 and ``projection`` the
    (M, N_RF, N_RF) pinv(F_RF) F_bar[m] that :func:`thzbsa.bsa.apply_bsa` reads. Both
    are None on a fixed-stage set.
    """

    F_RF: np.ndarray        # (N_T, N_RF), constant modulus: the fixed analog stage
    W_RF: np.ndarray        # (N_R, K), constant-modulus columns
    H_eff: np.ndarray       # (M, K, N_RF)
    F_BB: np.ndarray        # (M, N_RF, K)
    psi_t: np.ndarray       # (N_RF,), the fixed analog stage's steering directions
    psi_r: np.ndarray       # (K,), the steering directions of W_RF
    R_RF: np.ndarray        # (min(N_T, N_RF), N_RF) with F_RF = Q R_RF
    receive: np.ndarray     # (K, L, M), the receive coupling of W_RF
    power: np.ndarray | None = None         # (M,), the SD oracle's measured power
    projection: np.ndarray | None = None    # (M, N_RF, N_RF), the SD oracle's pinv(F_RF) F_bar


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
    """Dominant right singular vectors v = A_T x, as the path coordinates x (K, L, M)."""
    return channels.dominant_mode[1]


def unconstrained_combiners(channels: ChannelSet, sigma_n2: float) -> np.ndarray:
    """MMSE-scaled matched-filter combiners w = A_R y, as the path coordinates y (K, L, M).

    w_k[m] = s / (s^2 + sigma^2) u = (||H_k v||^2 + sigma^2)^{-1} H_k[m] v at unit power,
    for the dominant mode (s, u, v) of H_k[m]: a positive multiple of the matched filter.
    """
    s, _, y = channels.dominant_mode
    return y * (s / (s**2 + sigma_n2))[:, None, :]


@lru_cache(maxsize=8)      # atom tables kept per process; a config uses two
def _atom_sines(N: int, psi: bytes, eta: bytes) -> np.ndarray:
    """A read-only copy of rows 0-4 of the :func:`_sines` table of the dilated atoms eta_m
    psi_p, (5, P, M), keyed on the grids' bytes and shared by every trial of a config: the
    correlations are magnitudes and read no atom phase. ``table[:, rows]`` is a table."""
    table = _sines(N, np.multiply.outer(np.frombuffer(psi), np.frombuffer(eta)))[:5].copy()
    table.setflags(write=False)
    return table


def _path_weights(N: int, paths: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """The complex weights coords_l exp(-j pi (N-1) paths_l / 2) / N of the path kernels,
    shaped as the (..., L, M) ``coords``, from the phase rows of a (7, ..., L, M) path table:
    what :func:`omp_select` hands :func:`_correlations` for the precoders and the combiners."""
    return coords / N * (paths[5] - 1j * paths[6])


def _correlations(N: int, atoms: np.ndarray, paths: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """|a_N(atom)^H sum_l coords_l a_N(paths_l)| as (..., P, M), over the atoms of
    :func:`_atom_sines`, all or a gather of rows: |sum_l weights_l N D_N(d/2)|, d = atom -
    paths_l, so no atom phase is read. ``paths`` is a (7, ..., L, M) :func:`_sines` table and
    ``weights`` its complex :func:`_path_weights`; the kernel is laid out (..., P, L, M),
    subcarriers innermost. Each entry is one product per path, a sum over paths in an order
    set by the layout alone and a modulus, so it does not depend on which atoms share the call.
    """
    kernel = _dirichlet_kernel(N, atoms[..., None, :], paths[..., None, :, :])
    return np.abs(np.multiply(weights[..., None, :, :], kernel, order="C").sum(axis=-2))


def _objective(corr_f: np.ndarray, corr_w: np.ndarray) -> np.ndarray:
    """sum_m corr_f[..., p, m] corr_w[..., q, m] as (..., P, Q): each entry one rounded
    product per subcarrier and one pairwise sum over them, so its value does not depend
    on which other rows are evaluated with it (as a BLAS product's may)."""
    terms = np.multiply(corr_f[..., :, None, :], corr_w[..., None, :, :], order="C")
    return terms.sum(axis=-1)           # subcarriers innermost: a pairwise sum per entry


def omp_select(channels: ChannelSet, x: np.ndarray, y: np.ndarray,
               dictionary: Dictionary) -> tuple[np.ndarray, np.ndarray]:
    """Per-user joint atom selection against the dilated dictionaries, exact by
    bound-and-prune.

    ``x`` / ``y`` are the (K, L, M) path coordinates of the unconstrained precoders
    f_k[m] = A_T x and combiners w_k[m] = A_R y. For user k the pair (p*, q*)
    maximizes the objective sum_m |d_{p,q}[m]^H g_k[m]| with d the Kronecker
    dictionary atom and g_k[m] = conj(f_k[m]) kron w_k[m], which factors as
    conj(atom_F^H f) * (atom_W^H w). Each factor is the modulus of closed-form Dirichlet
    kernels, which pair the dilated atoms' sine tables (:func:`_atom_sines`, shared by every
    trial of a config) with the channel's path tables, summed over the paths with one complex
    weight each (:func:`_path_weights`, :func:`_correlations`).

    The receive side is evaluated for every atom of every user. The transmit side is
    evaluated only where a bound cannot rule an atom out: |N D_N(d/2)| <= B[k, l, p],
    the :func:`_dirichlet_bound` over the subcarriers from the two extreme ones. That needs
    transmit paths eta_m times fixed directions, as :func:`generate_channel` builds them: a
    ValueError if one is over ``_DILATION_ATOL`` from its largest-eta direction rescaled by eta.
    By the triangle inequality the objective is at most sum_l B[k, l, p] c[k, l, q],
    c[k, l, q] = sum_m |x_klm| corr_w[k, q, m] / N_T, so UB[k, p] = max_q of that bounds
    atom p. The ``_SEEDS`` atoms of largest UB per user are evaluated for all users in
    one call. Then, user by user, the best seed no earlier user took is a lower bound
    LB (0 if all are taken: the objective is never negative), and the candidates are
    the free atoms with UB >= LB; only those that are not seeds are evaluated. Every
    other atom's objective is below LB, so the argmax over the candidates is the
    argmax over all free atoms. Ties resolve to the smallest (p, then q): each
    objective value is the same whichever atoms are evaluated with it
    (:func:`_objective`). A transmit atom is never reused across users (a duplicate
    would make the effective channel singular). Returns the (K,) index arrays
    (p*, q*) into ``psi_f`` / ``psi_w``.
    """
    K = x.shape[0]
    N_T, N_F = channels.N_T, dictionary.psi_f.size
    if K > N_F:
        raise ValueError(f"need K <= N_F, got K={K}")
    eta = np.asarray(channels.eta, dtype=float)
    tx, rx = (_atom_sines(N, np.asarray(psi, dtype=float).tobytes(), eta.tobytes()) for N, psi
              in ((N_T, dictionary.psi_f), (channels.N_R, dictionary.psi_w)))
    paths_t, paths_r = channels.vartheta_sines, channels.theta_sines
    corr_w = _correlations(channels.N_R, rx, paths_r,
                           _path_weights(channels.N_R, paths_r, y))      # (K, N_W, M)
    weights = _path_weights(N_T, paths_t, x)                              # (K, L, M)

    ends = [int(np.argmin(eta)), int(np.argmax(eta))]
    dilated = paths_t[0, ..., ends[1], None] * (eta / eta[ends[1]])
    if not np.abs(paths_t[0] - dilated).max() <= _DILATION_ATOL:
        raise ValueError("transmit path directions must be eta_m times fixed directions "
                         "for the band-edge bound of omp_select")
    bound = _dirichlet_bound(N_T, np.swapaxes(tx[:, :, ends], 1, 2),
                             paths_t[..., ends, None])                    # (K, L, P)
    c = np.abs(x) @ np.swapaxes(corr_w, -1, -2) / N_T                      # (K, L, N_W)
    upper = (np.swapaxes(c, -1, -2) @ bound).max(axis=-2)                 # (K, P)

    S = min(_SEEDS, N_F)
    seeds = np.argpartition(upper, N_F - S, axis=-1)[:, N_F - S:]         # (K, S)
    seed_obj = _objective(_correlations(N_T, tx[:, seeds], paths_t, weights), corr_w)
    seed_best = seed_obj.max(axis=-1)                                     # (K, S)
    seed_row = np.full((K, N_F), -1)
    seed_row[np.arange(K)[:, None], seeds] = np.arange(S)

    p_star, q_star = np.empty((2, K), dtype=np.intp)
    for k in range(K):
        cand = np.flatnonzero(upper[k] >= seed_best[k].max(initial=0.0))
        row = seed_row[k, cand]
        fresh = row < 0
        objective = seed_obj[k, row]                # a fresh atom's row is filled below
        if fresh.any():
            corr_f = _correlations(N_T, tx[:, cand[fresh]], paths_t[:, k], weights[k])
            objective[fresh] = _objective(corr_f, corr_w[k])
        i, q_star[k] = divmod(int(np.argmax(objective)), objective.shape[1])
        p = p_star[k] = cand[i]
        upper[:, p] = -1.0                          # below every lower bound from now on
        seed_best[seeds == p] = 0.0
    return p_star, q_star


def _receive_coupling(channels: ChannelSet, psi_r: np.ndarray) -> np.ndarray:
    """The (K, L, M) receive coupling gain_l a_R(psi_r[k])^H a_R(theta_l) of the combiners
    w_k = a_R(psi_r[k]): :func:`_kernel` of their :func:`_sines` table against the
    channel's, the receive half of every :func:`effective_channel` of a trial."""
    K = channels.gain.shape[0]
    psi_r = np.asarray(psi_r, dtype=float)
    if psi_r.shape != (K,):
        raise ValueError(f"psi_r must be (K,) = {(K,)}, got {psi_r.shape}")
    rx = _sines(channels.N_R, psi_r)[..., None, None]                  # (7, K, 1, 1)
    return channels.gain * _kernel(channels.N_R, rx, channels.theta_sines)


def effective_channel(channels: ChannelSet, receive: np.ndarray, psi_t: np.ndarray) -> np.ndarray:
    """Per-subcarrier K x N_RF effective channel w_k^H H_k[m] f_i between steering beams.

    w_k = a_R(psi_r[k]) and f_i = a_T(psi_t[..., i]), with ``psi_t`` (N_RF,) for one
    analog matrix or (M, N_RF) for a per-subcarrier stack. The entry is
    sum_l gain_l a_R(psi_r)^H a_R(theta_l) a_T(vartheta_l)^H a_T(psi_t): ``receive`` is
    the (K, L, M) :func:`_receive_coupling` of psi_r, the transmit coupling :func:`_kernel`
    of the beams' :func:`_sines` table against the channel's path table, as the Grams of
    ``dominant_mode`` are, then one contraction over the paths.
    """
    if np.shape(receive) != channels.gain.shape:
        raise ValueError(f"receive must be {channels.gain.shape}, got {np.shape(receive)}")
    M = channels.gain.shape[-1]
    psi_t = np.asarray(psi_t, dtype=float)
    if psi_t.ndim == 0 or psi_t.shape[:-1] not in ((), (M,)):
        raise ValueError(f"psi_t must be (N_RF,) or (M, N_RF) with M = {M}, got {psi_t.shape}")
    N_T = channels.N_T
    beams = _sines(N_T, psi_t.T.reshape(psi_t.shape[-1], -1))          # (7, N_RF, 1 or M)
    transmit = _kernel(N_T, channels.vartheta_sines[:, :, None],
                       beams[:, None, :, None])                         # (K, N_RF, L, M)
    # (M, K, 1, L) @ (M, K, L, N_RF): the sum over paths, C-contiguous (M, K, N_RF)
    return (receive.transpose(2, 0, 1)[:, :, None, :] @ transmit.transpose(3, 0, 2, 1))[:, :, 0]


def pseudo_inverse(A: np.ndarray) -> np.ndarray:
    """Moore-Penrose inverse of one matrix, the least squares of the BSA correction for
    an analog matrix of any shape. Raises DegenerateChannelError when s_min < ``_RCOND``
    s_max.
    """
    u, s, vh = np.linalg.svd(A, full_matrices=False)
    if s[0] == 0 or s[-1] < _RCOND * s[0]:
        raise DegenerateChannelError(
            f"matrix is rank-deficient (singular values {s[-1]:.3e} .. {s[0]:.3e})")
    return (vh.conj().T / s) @ u.conj().T


def _squared_norms(A: np.ndarray) -> np.ndarray:
    """||A||_F^2 of each trailing matrix, summed over the float view: no complex temporary."""
    A = np.ascontiguousarray(A)
    real = A.view(np.finfo(A.dtype).dtype)
    return np.einsum("...ij,...ij->...", real, real)


def analog_power(R_RF: np.ndarray, F_BB: np.ndarray) -> np.ndarray:
    """||F_RF F_BB[m]||_F^2 of each subcarrier's baseband, read through a power factor.

    ``R_RF`` is any factor with ||R_RF X||_F = ||F_RF X||_F for every baseband X, as
    :class:`BeamformerSet` stores it; a matrix is a factor of itself. One (N_T, N_RF)
    matrix stores the triangular R of F_RF = Q R, Q unitary: no N_T-long product and
    no squared condition number.
    """
    return _squared_norms(R_RF @ F_BB)


def unit_power(R_RF: np.ndarray, F_BB: np.ndarray) -> np.ndarray:
    """Scale each subcarrier's baseband so that ||F_RF F_BB[m]||_F^2 = K (``R_RF``, the
    power factor of ``F_RF``, as in :func:`analog_power`)."""
    K = F_BB.shape[-1]
    return F_BB * np.sqrt(K / analog_power(R_RF, F_BB))[..., None, None]


def baseband_zf(H_eff: np.ndarray) -> np.ndarray:
    """Zero-forcing direction: the inverse of each square H_eff[m] (N_RF = K), which each
    caller scales to ||F F_BB[m]||_F^2 = K through its own analog stage (:func:`unit_power`
    for a fixed one; the SD oracle measures its stack's).

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
    return H_inv


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
    receive = _receive_coupling(channels, psi_r)
    H_eff = effective_channel(channels, receive, psi_t)
    return BeamformerSet(F_RF=F_RF, W_RF=steering_vector(cfg.N_R, psi_r), H_eff=H_eff,
                         F_BB=unit_power(R_RF, baseband_zf(H_eff)), psi_t=psi_t, psi_r=psi_r,
                         R_RF=R_RF, receive=receive)
