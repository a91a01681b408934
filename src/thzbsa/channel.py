"""Frequency-selective THz multipath channels, held as their L path factors.

Every H_k[m] has rank L, so a ``ChannelSet`` keeps the dilated path
directions and gains. Every coupling of a trial is a steering kernel
a_N(x)^H a_N(y), a phase times a Dirichlet kernel, held here with the sine tables
that carry its phase and its angle-addition form; the dense H is built only on
request. Also the subcarrier grid, steering vectors, path draws and array gain.
Directions are sine-space, dilated by eta_m = f_m / f_c and kept as-is beyond
[-1, 1]; gains follow the spreading law 1/eta_m normalised at the carrier;
delays run from the LoS arrival.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import SystemConfig
from .phase_ops import scale_beamformer


def subcarrier_frequencies(cfg: SystemConfig) -> np.ndarray:
    """Subcarrier frequencies f_m = f_c + (B/M)(m - 1 - (M-1)/2), m = 1..M.

    The grid is symmetric about the carrier; for M = 1 it collapses to f_c.
    """
    m = np.arange(1, cfg.M + 1, dtype=float)
    return cfg.f_c + (cfg.B / cfg.M) * (m - 1.0 - (cfg.M - 1) / 2.0)


def frequency_ratios(cfg: SystemConfig) -> np.ndarray:
    """eta_m = f_m / f_c for the full grid."""
    return subcarrier_frequencies(cfg) / cfg.f_c


def steering_vector(N: int, psi) -> np.ndarray:
    """Unit-norm ULA steering vector(s), entry n = exp(-j pi (n-1) psi)/sqrt(N).

    ``psi`` may be a scalar (returns shape (N,)) or an array of directions
    (returns shape (N,) + psi.shape, one column per direction), each entry
    one exponential of its own phase.
    """
    if N < 1:
        raise ValueError(f"antenna count must be >= 1, got {N}")
    return np.exp(-1j * np.pi * np.multiply.outer(np.arange(N), psi)) / np.sqrt(N)


def dirichlet_sinc(a, N: int):
    """Dirichlet kernel sin(N pi a) / (N sin(pi a)).

    Evaluated on a - k for the nearest integer k, which is exact in floating
    point, so grating lobes keep full precision; the analytic limit
    (-1)^((N-1) k) holds within 1e-12 of an integer, never NaN.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    a = np.asarray(a, dtype=float)
    k = np.rint(a)
    r = a - k
    with np.errstate(divide="ignore", invalid="ignore"):     # r = 0 is replaced below
        out = np.asarray(np.sin(N * np.pi * r) / (N * np.sin(np.pi * r)))
    out[np.abs(r) < 1e-12] = 1.0
    if N % 2 == 0:
        out[np.fmod(k, 2.0) != 0] *= -1.0
    return float(out) if out.ndim == 0 else out


def steering_kernel(N: int, x, y):
    """a_N(x)^H a_N(y) = exp(j pi (N-1) d / 2) D_N(d / 2), d = x - y, broadcast."""
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    return np.exp(0.5j * np.pi * (N - 1) * d) * dirichlet_sinc(d / 2.0, N)


_EXACT = 1e-3      # |sin(pi d/2)| below which a Dirichlet kernel is evaluated from d itself
_BOUND_SLACK = 1e-9     # relative widening of a kernel bound, far above its rounding


def _sines(N: int, x: np.ndarray) -> np.ndarray:
    """The read-only (7,) + x.shape stack of x, the sine and cosine of alpha = pi x / 2
    and of N alpha, which :func:`_dirichlet_kernel` pairs by angle addition, and the
    cosine and sine of (N-1) alpha = N alpha - alpha, a steering kernel's phase
    exp(j pi (N-1) x / 2) by angle addition from the rows before. C-contiguous, x's last
    axis innermost whatever x's strides; an index keeping axis 0 whole is a table.
    """
    table = np.empty((7,) + np.shape(x))
    table[0] = x
    alpha = (0.5 * np.pi) * table[0]
    np.sin(alpha, out=table[1])
    np.cos(alpha, out=table[2])
    alpha *= N
    np.sin(alpha, out=table[3])
    np.cos(alpha, out=table[4])
    np.multiply(table[4], table[2], out=table[5])
    table[5] += table[3] * table[1]
    np.multiply(table[3], table[2], out=table[6])
    table[6] -= table[4] * table[1]
    table.setflags(write=False)
    return table


def _dirichlet_kernel(N: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """N D_N(d/2) = sin(N pi d/2) / sin(pi d/2) for d = a_x - b_x of two :func:`_sines`
    tables, broadcast past axis 0.

    Angle addition gives sin(pi d/2) = sin(alpha - beta) and sin(N pi d/2) =
    sin(N alpha - N beta) from the two tables, so no entry takes a new sine. Where
    |sin(pi d/2)| < ``_EXACT`` the difference cancels (d near an even integer: a beam on
    a path, grating lobes at |d| = 2, N = 1); those entries come from d by :func:`dirichlet_sinc`.
    """
    (a_x, a_sin, a_cos, a_sin_n, a_cos_n), (b_x, b_sin, b_cos, b_sin_n, b_cos_n) = a[:5], b[:5]
    den = a_sin * b_cos
    den -= a_cos * b_sin
    ker = a_sin_n * b_cos_n
    ker -= a_cos_n * b_sin_n
    near = np.abs(den) < _EXACT
    den[near] = 1.0                     # those entries are replaced below
    ker /= den
    if near.any():
        ker[near] = N * dirichlet_sinc(np.subtract(a_x, b_x)[near] / 2.0, N)
    return ker


def _dirichlet_bound(N: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """An upper bound on |N D_N(d/2)| over every d between the two ends on axis -2 of
    d = a_x - b_x, broadcast as in :func:`_dirichlet_kernel`; that axis is dropped.

    |N D_N(d/2)| <= min(N, 1/|sin(pi d/2)|), and |sin(pi d/2)| is concave between its
    zeros, the even integers. So over the segment its minimum is at an end, unless an
    even integer (d = 0, or a grating lobe at d = +-2) lies between the ends, and then
    the bound is N. A dilated atom against a dilated path, d = eta_m (psi - phi), is
    such a segment over the subcarriers, with ends at the extreme eta. The bound is
    widened by the relative ``_BOUND_SLACK`` for the rounding of the kernel and of
    sums of bounded terms.
    """
    (a_x, a_sin, a_cos), (b_x, b_sin, b_cos) = a[:3], b[:3]
    s = a_sin * b_cos
    s -= a_cos * b_sin
    s = np.abs(s).min(axis=-2)
    half = np.floor(np.subtract(a_x, b_x) / 2.0)
    s[half[..., 0, :] != half[..., 1, :]] = 0.0
    return ((1.0 + _BOUND_SLACK) * N) / np.maximum(1.0, N * s)


def _gram(N: int, v: np.ndarray) -> np.ndarray:
    """The Hermitian Grams a_N(v_i)^H a_N(v_j) over the last axis of ``v``, (..., L, L).

    Steering kernels fill the strict upper triangle only: the diagonal is exactly 1
    and the lower triangle is the upper's conjugate, bit for bit.
    """
    L = v.shape[-1]
    i, j = np.nonzero(np.less.outer(np.arange(L), np.arange(L)))     # cheaper than triu_indices
    upper = steering_kernel(N, v[..., i], v[..., j])
    G = np.empty(v.shape + (L,), dtype=complex)
    G[..., i, j] = upper
    G[..., j, i] = upper.conj()
    diagonal = np.arange(L)
    G[..., diagonal, diagonal] = 1.0
    return G


@dataclass
class PathParams:
    """Per-user multipath descriptors, arrays of shape (K, L): the complex gain
    draw ``alpha`` (NLoS penalty applied, spreading 1/eta_m not yet), the
    sine-space DOA ``phi`` and DOD ``varphi``, and the delay ``tau`` after the LoS.
    """

    alpha: np.ndarray
    phi: np.ndarray
    varphi: np.ndarray
    tau: np.ndarray

    def __post_init__(self) -> None:
        self.alpha = np.atleast_2d(np.asarray(self.alpha, dtype=complex))
        self.phi = np.atleast_2d(np.asarray(self.phi, dtype=float))
        self.varphi = np.atleast_2d(np.asarray(self.varphi, dtype=float))
        self.tau = np.atleast_2d(np.asarray(self.tau, dtype=float))
        shapes = {a.shape for a in (self.alpha, self.phi, self.varphi, self.tau)}
        if len(shapes) != 1:
            raise ValueError(f"inconsistent PathParams shapes: {shapes}")
        # NaN slips past the ordering check below, so test finiteness first
        for name in ("alpha", "phi", "varphi", "tau"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"PathParams.{name} must be finite")
        if np.any(np.abs(self.phi) > 1) or np.any(np.abs(self.varphi) > 1):
            raise ValueError("sine-space directions must lie in [-1, 1]")


def draw_paths(cfg: SystemConfig, rng: np.random.Generator) -> PathParams:
    """Draw random multipath parameters for all users.

    DOA/DOD angles are uniform in [-pi/2, pi/2] and mapped through sine;
    the first path is LoS (delay 0), the rest NLoS with a delay uniform in
    [0, excess_delay] and the configured penalty.
    """
    K, L = cfg.K, cfg.L
    phi = np.sin(rng.uniform(-np.pi / 2, np.pi / 2, size=(K, L)))
    varphi = np.sin(rng.uniform(-np.pi / 2, np.pi / 2, size=(K, L)))
    alpha = (rng.standard_normal((K, L)) + 1j * rng.standard_normal((K, L))) / np.sqrt(2.0)
    # a numpy power, so an overflowing penalty obeys the caller's np.errstate
    alpha[:, 1:] *= np.float64(10.0) ** (-cfg.nlos_penalty_db / 20.0)
    tau = np.zeros((K, L))
    if L > 1:
        tau[:, 1:] = rng.uniform(0.0, cfg.excess_delay, size=(K, L - 1))
    return PathParams(alpha=alpha, phi=phi, varphi=varphi, tau=tau)


@dataclass
class ChannelSet:
    """K x M stack of rank-L channels H_k[m] = A_R diag(gain) A_T^H, held as path factors.

    ``theta`` / ``vartheta`` are the dilated DOAs eta_m phi / DODs eta_m varphi
    (the columns of A_R / A_T), ``gain`` the path gains, all (K, M, L). Their (7, K, L, M)
    :func:`_sines` tables ``theta_sines`` (N_R) and ``vartheta_sines`` (N_T), subcarriers
    innermost, are cached read-only on first access, like ``dominant_mode``; atom
    selection and effective channels read them.
    """

    theta: np.ndarray       # (K, M, L)
    vartheta: np.ndarray    # (K, M, L)
    gain: np.ndarray        # (K, M, L)
    eta: np.ndarray         # (M,)
    N_R: int
    N_T: int

    @cached_property
    def H(self) -> np.ndarray:
        """The dense (K, M, N_R, N_T) stack, built on first access; no trial reads it."""
        return np.einsum("kml,rkml,tkml->kmrt", self.gain, steering_vector(self.N_R, self.theta),
                         steering_vector(self.N_T, self.vartheta).conj())

    @cached_property
    def theta_sines(self) -> np.ndarray:
        return _sines(self.N_R, self.theta.transpose(0, 2, 1))

    @cached_property
    def vartheta_sines(self) -> np.ndarray:
        return _sines(self.N_T, self.vartheta.transpose(0, 2, 1))

    @cached_property
    def dominant_mode(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (s, x, y): each H_k[m]'s largest singular value, shape (K, M),
        and its unit vectors v = A_T x and u = A_R y in path coordinates (K, M, L).

        S is the Cholesky factor of G_T = A_T^H A_T, a square-root factor (S S^H = G_T)
        that is never inverted; when a Gram of the batch is singular (coincident DODs,
        L > N_T) the whole batch takes S = U sqrt(w) from the eigenpairs (w, U) of G_T.
        s^2 and z are the top eigenpair of the core (D S)^H G_R (D S), D = diag(gain);
        y = D S z / s and x = D^H G_R y / s, which is v = H^H u / s; where s = 0, y = 0
        and x = e_1. v_1 = sum(x) / sqrt(N_T) is real >= 0.
        """
        G_T = _gram(self.N_T, self.vartheta)
        try:
            S = np.linalg.cholesky(G_T)
        except np.linalg.LinAlgError:       # a singular Gram: any square-root factor serves
            w, U = np.linalg.eigh(G_T)
            S = U * np.sqrt(np.maximum(w, 0.0))[..., None, :]
        G_R = _gram(self.N_R, self.theta)
        with np.errstate(over="ignore", invalid="ignore"):     # refused just below
            DS = self.gain[..., None] * S
            core = np.swapaxes(DS.conj(), -1, -2) @ G_R @ DS
        if not np.all(np.isfinite(core)):
            raise FloatingPointError("non-finite channel Gram core")
        lam, Z = np.linalg.eigh(core)
        s = np.sqrt(np.maximum(lam[..., -1], 0.0))
        inv_s = np.divide(1.0, s, out=np.zeros_like(s), where=s > 0)[..., None]
        y = (DS @ Z[..., -1:])[..., 0] * inv_s
        x = self.gain.conj() * (G_R @ y[..., None])[..., 0] * inv_s
        x[s == 0, 0] = 1.0
        lead = x.sum(axis=-1, keepdims=True)
        rotation = np.divide(lead.conj(), np.abs(lead), out=np.ones_like(lead), where=lead != 0)
        mode = (s, x * rotation, y * rotation)
        for part in mode:
            part.setflags(write=False)
        return mode


def generate_channel(cfg: SystemConfig, paths: PathParams) -> ChannelSet:
    """Path factors of all K*M channel matrices (``paths`` dimensioned K x L):

    H_k[m] = zeta * sum_l (alpha_{k,l} / eta_m) a_R(theta) a_T(vartheta)^H
             * exp(-j 2 pi tau_{k,l} f_m),  zeta = sqrt(N_R N_T / L),

    with the beam-split directions theta = eta_m * phi and vartheta = eta_m * varphi.
    """
    if paths.alpha.shape != (cfg.K, cfg.L):
        raise ValueError(f"paths dimensioned {paths.alpha.shape}, "
                         f"config expects {(cfg.K, cfg.L)}")
    freqs = subcarrier_frequencies(cfg)
    eta = freqs / cfg.f_c
    zeta = np.sqrt(cfg.N_R * cfg.N_T / cfg.L)
    gain = (zeta * paths.alpha[:, None, :] / eta[:, None]
            * np.exp(-2j * np.pi * paths.tau[:, None, :] * freqs[:, None]))
    return ChannelSet(theta=paths.phi[:, None, :] * eta[:, None],
                      vartheta=paths.varphi[:, None, :] * eta[:, None],
                      gain=gain, eta=eta, N_R=cfg.N_R, N_T=cfg.N_T)


def array_gain(u: np.ndarray, phi_bar, m: int, cfg: SystemConfig):
    """Normalized wideband array gain of beamformer ``u`` at subcarrier ``m``.

    The constant-modulus ``u`` (a ValueError otherwise), designed at the
    carrier, is dilated by eta_m and correlated with the unit-norm probe
    steering vector(s) at ``phi_bar``, so a matched pair gives 1. For a
    steering-vector u at direction phi it equals |Sigma(mu_m)|^2 with
    mu_m = d (f_m phi - f_c phi_bar) / c0, peaking at phi_bar = eta_m * phi.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 1 or u.shape[0] != cfg.N_T:
        raise ValueError(f"u must be a length-{cfg.N_T} vector")
    if not 0 <= m < cfg.M:
        raise ValueError(f"subcarrier index {m} outside 0..{cfg.M - 1}")
    u_m = scale_beamformer(u, frequency_ratios(cfg)[m])
    probe = steering_vector(cfg.N_T, phi_bar)
    gains = np.abs(np.tensordot(u_m.conj(), probe, axes=(0, 0))) ** 2
    return float(gains) if np.ndim(phi_bar) == 0 else gains
