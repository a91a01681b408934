"""Frequency-selective THz multipath channel synthesis.

Generates the subcarrier grid, ULA steering vectors, the frequency-dilated
("beam-split") spatial directions, per-path gains with molecular absorption,
and the stacked per-user per-subcarrier channel matrices. Also provides the
wideband normalized array gain and its Dirichlet-kernel closed form.

Conventions: sine-space directions lie in [-1, 1]; a direction observed at
subcarrier m is dilated by eta_m = f_m / f_c. Values with |eta_m * phi| > 1
are kept as-is (they describe beams steered outside visible space).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SPEED_OF_LIGHT, SystemConfig
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


def central_subcarrier_index(M: int) -> int:
    """0-based index of the subcarrier closest to the carrier.

    For odd M this is exact (eta = 1 there); for even M no subcarrier sits
    at f_c and the lower of the two middle indices is returned.
    """
    return (M - 1) // 2


def spatial_direction(phi: float, eta_m: float) -> float:
    """Spatial (observed) direction at frequency ratio eta_m: eta_m * phi.

    No clamping: the result may leave [-1, 1].
    """
    return eta_m * phi


def beam_split_deviation(phi: float, eta_m: float) -> float:
    """Sine-space deviation between spatial and physical direction."""
    return (eta_m - 1.0) * phi


def steering_vector(N: int, psi) -> np.ndarray:
    """Unit-norm ULA steering vector(s), entry n = exp(-j pi (n-1) psi)/sqrt(N).

    ``psi`` may be a scalar (returns shape (N,)) or an array of directions
    (returns shape (N,) + psi.shape, one column per direction).
    """
    if N < 1:
        raise ValueError(f"antenna count must be >= 1, got {N}")
    n = np.arange(N, dtype=float)
    psi_arr = np.asarray(psi, dtype=float)
    phase = -1j * np.pi * n.reshape((N,) + (1,) * psi_arr.ndim) * psi_arr
    return np.exp(phase) / np.sqrt(N)


def path_gain(f_m: float, d_bar: float, k_abs: float = 0.0) -> float:
    """RMS path-gain magnitude sqrt(E|alpha|^2) for the spreading/absorption law.

    E|alpha|^2 = (c0 / (4 pi f_m d_bar))^2 * exp(-k_abs * d_bar), so the RMS
    magnitude is c0/(4 pi f_m d_bar) * exp(-k_abs * d_bar / 2). Complex gains
    are drawn as this magnitude times a unit-variance circular Gaussian; NLoS
    paths carry an extra penalty (default 10 dB) applied at draw time.
    """
    f_m = np.asarray(f_m, dtype=float)
    if np.any(f_m <= 0):
        raise ValueError("frequency must be positive")
    if d_bar <= 0:
        raise ValueError("distance must be positive")
    if np.any(np.asarray(k_abs) < 0):
        raise ValueError("absorption coefficient must be nonnegative")
    amp = SPEED_OF_LIGHT / (4.0 * np.pi * f_m * d_bar)
    return amp * np.exp(-0.5 * np.asarray(k_abs) * d_bar)


def dirichlet_sinc(a, N: int):
    """Dirichlet kernel sin(N pi a) / (N sin(pi a)).

    Returns the analytic limit (-1)^((N-1) k) at integer arguments a = k,
    never NaN.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    a_arr = np.asarray(a, dtype=float)
    scalar = a_arr.ndim == 0
    a_arr = np.atleast_1d(a_arr)
    nearest = np.round(a_arr)
    at_integer = np.abs(a_arr - nearest) < 1e-12
    denom = N * np.sin(np.pi * a_arr)
    out = np.empty_like(a_arr)
    safe = ~at_integer
    out[safe] = np.sin(N * np.pi * a_arr[safe]) / denom[safe]
    limit_sign = np.where((((N - 1) * nearest[at_integer].astype(int)) % 2) == 0, 1.0, -1.0)
    out[at_integer] = limit_sign
    return float(out[0]) if scalar else out


@dataclass
class PathParams:
    """Per-user multipath descriptors, arrays of shape (K, L).

    ``alpha`` holds the frequency-flat complex gain draw (unit-variance
    Gaussian, NLoS penalty already applied); the frequency-dependent RMS
    magnitude from :func:`path_gain` is applied during channel generation.
    ``phi`` is the physical DOA and ``varphi`` the physical DOD, both in
    sine space.
    """

    alpha: np.ndarray
    phi: np.ndarray
    varphi: np.ndarray
    tau: np.ndarray
    is_los: np.ndarray

    def __post_init__(self) -> None:
        self.alpha = np.atleast_2d(np.asarray(self.alpha, dtype=complex))
        self.phi = np.atleast_2d(np.asarray(self.phi, dtype=float))
        self.varphi = np.atleast_2d(np.asarray(self.varphi, dtype=float))
        self.tau = np.atleast_2d(np.asarray(self.tau, dtype=float))
        self.is_los = np.atleast_2d(np.asarray(self.is_los, dtype=bool))
        shapes = {a.shape for a in (self.alpha, self.phi, self.varphi, self.tau, self.is_los)}
        if len(shapes) != 1:
            raise ValueError(f"inconsistent PathParams shapes: {shapes}")
        if np.any(np.abs(self.phi) > 1) or np.any(np.abs(self.varphi) > 1):
            raise ValueError("sine-space directions must lie in [-1, 1]")
        if not np.all(self.is_los.sum(axis=1) == 1):
            raise ValueError("exactly one LoS path per user is required")

    @property
    def num_users(self) -> int:
        return self.alpha.shape[0]

    @property
    def num_paths(self) -> int:
        return self.alpha.shape[1]


def draw_paths(cfg: SystemConfig, rng: np.random.Generator) -> PathParams:
    """Draw random multipath parameters for all users.

    DOA/DOD angles are uniform in [-pi/2, pi/2] and mapped through sine;
    the first path is LoS (delay d_bar/c0), the rest NLoS with a uniform
    excess delay and the configured penalty.
    """
    K, L = cfg.K, cfg.L
    phi = np.sin(rng.uniform(-np.pi / 2, np.pi / 2, size=(K, L)))
    varphi = np.sin(rng.uniform(-np.pi / 2, np.pi / 2, size=(K, L)))
    alpha = (rng.standard_normal((K, L)) + 1j * rng.standard_normal((K, L))) / np.sqrt(2.0)
    is_los = np.zeros((K, L), dtype=bool)
    is_los[:, 0] = True
    alpha[:, 1:] *= 10.0 ** (-cfg.nlos_penalty_db / 20.0)
    los_delay = cfg.d_bar / SPEED_OF_LIGHT
    tau = np.full((K, L), los_delay)
    if L > 1:
        tau[:, 1:] += rng.uniform(0.0, cfg.excess_delay, size=(K, L - 1))
    return PathParams(alpha=alpha, phi=phi, varphi=varphi, tau=tau, is_los=is_los)


@dataclass
class ChannelSet:
    """K x M stack of N_R x N_T channel matrices plus the frequency grid."""

    H: np.ndarray           # (K, M, N_R, N_T)
    freqs: np.ndarray       # (M,)
    eta: np.ndarray         # (M,)

    @property
    def K(self) -> int:
        return self.H.shape[0]

    @property
    def M(self) -> int:
        return self.H.shape[1]


def generate_channel(cfg: SystemConfig, paths: PathParams,
                     split_free: bool = False) -> ChannelSet:
    """Synthesize all K*M channel matrices.

    H_k[m] = zeta * sum_l alpha_{k,m,l} a_R(theta) a_T(vartheta)^H
             * exp(-j 2 pi tau_{k,l} f_m),  zeta = sqrt(N_R N_T / L),

    with steering arguments theta = eta_m * phi, vartheta = eta_m * varphi
    (the physical directions when ``split_free``).
    """
    if paths.num_users != cfg.K or paths.num_paths != cfg.L:
        raise ValueError(
            f"paths dimensioned {paths.num_users} x {paths.num_paths}, "
            f"config expects {cfg.K} x {cfg.L}"
        )
    freqs = subcarrier_frequencies(cfg)
    eta = freqs / cfg.f_c
    rms = path_gain(freqs, cfg.d_bar, cfg.k_abs)      # (M,)
    if cfg.normalize_gain:
        rms = rms / path_gain(cfg.f_c, cfg.d_bar, cfg.k_abs)
    scale = np.ones_like(eta) if split_free else eta
    # directions per (k, l, m)
    theta = paths.phi[:, :, None] * scale[None, None, :]
    vartheta = paths.varphi[:, :, None] * scale[None, None, :]
    a_r = np.moveaxis(steering_vector(cfg.N_R, theta), 0, -1)   # (K, L, M, N_R)
    a_t = np.moveaxis(steering_vector(cfg.N_T, vartheta), 0, -1)
    coeff = (paths.alpha[:, :, None] * rms[None, None, :]
             * np.exp(-2j * np.pi * paths.tau[:, :, None] * freqs[None, None, :]))
    zeta = np.sqrt(cfg.N_R * cfg.N_T / cfg.L)
    H = zeta * np.einsum("klm,klmr,klmt->kmrt", coeff, a_r, a_t.conj())
    return ChannelSet(H=H, freqs=freqs, eta=eta)


def array_gain(u: np.ndarray, phi_bar, m: int, cfg: SystemConfig):
    """Normalized wideband array gain of beamformer ``u`` at subcarrier ``m``.

    ``u`` (designed at the carrier) observed at subcarrier m appears with its
    phases dilated by eta_m; the gain toward beamspace direction ``phi_bar``
    is the squared inner product against the unit-norm probe steering vector,
    normalized so a matched pair gives 1. For a steering-vector u at
    direction phi it equals |Sigma(mu_m)|^2 with
    mu_m = d (f_m phi - f_c phi_bar) / c0, peaking at phi_bar = eta_m * phi.

    Constant-modulus ``u`` is dilated via phase rescaling; an arbitrary
    ``u`` is correlated as-is against the probe. ``phi_bar`` may be an array
    of probe directions, in which case a matching array of gains is returned.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 1 or u.shape[0] != cfg.N_T:
        raise ValueError(f"u must be a length-{cfg.N_T} vector")
    norm_u = np.linalg.norm(u)
    if norm_u == 0:
        raise ValueError("zero beamformer has no defined gain")
    if not 0 <= m < cfg.M:
        raise ValueError(f"subcarrier index {m} outside 0..{cfg.M - 1}")
    eta_m = frequency_ratios(cfg)[m]
    mods = np.abs(u)
    if np.ptp(mods) <= 1e-9 * mods.max():
        u_m = scale_beamformer(u, eta_m)
    else:
        u_m = u / norm_u
    probe = steering_vector(cfg.N_T, phi_bar)
    gains = np.abs(np.tensordot(u_m.conj(), probe, axes=(0, 0))) ** 2
    return float(gains) if np.ndim(phi_bar) == 0 else gains
