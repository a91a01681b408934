"""Frequency-selective THz multipath channel synthesis.

Generates the subcarrier grid, ULA steering vectors, random multipath
parameters and the stacked per-user per-subcarrier channel matrices. Also
provides the wideband normalized array gain and its Dirichlet-kernel closed
form.

Conventions: sine-space directions lie in [-1, 1]; a direction observed at
subcarrier m is dilated by eta_m = f_m / f_c. Values with |eta_m * phi| > 1
are kept as-is (they describe beams steered outside visible space). Path
gains follow the spreading law normalised at the carrier, f_c / f_m = 1/eta_m,
in which distance and absorption cancel; delays run from the LoS arrival, as
a common delay is a per-(k, m) unit phase that no rate sees.
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
    (returns shape (N,) + psi.shape, one column per direction).
    """
    if N < 1:
        raise ValueError(f"antenna count must be >= 1, got {N}")
    n = np.arange(N, dtype=float)
    psi_arr = np.asarray(psi, dtype=float)
    phase = -1j * np.pi * n.reshape((N,) + (1,) * psi_arr.ndim) * psi_arr
    return np.exp(phase) / np.sqrt(N)


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
    Gaussian, NLoS penalty already applied); the spreading factor 1/eta_m
    is applied during channel generation. ``phi`` is the physical DOA and
    ``varphi`` the physical DOD, both in sine space; ``tau`` is the delay
    measured from the LoS arrival.
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
    """K x M stack of N_R x N_T channel matrices plus the frequency ratios."""

    H: np.ndarray           # (K, M, N_R, N_T)
    eta: np.ndarray         # (M,)

    @cached_property
    def dominant_mode(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (s, u, v): each H_k[m]'s largest singular value and unit vectors.

        Shapes (K, M), (K, M, N_R), (K, M, N_T), from one SVD on first access.
        H_k[m] v = s u, with v's first significant entry real positive.
        """
        if not np.all(np.isfinite(self.H)):
            raise FloatingPointError("channel contains non-finite entries")
        u, s, vh = np.linalg.svd(self.H, full_matrices=False)
        v = vh[..., 0, :].conj()
        mags = np.abs(v)
        first = np.argmax(mags > 1e-9 * mags.max(axis=-1, keepdims=True), axis=-1)
        pivot = np.take_along_axis(v, first[..., None], axis=-1)
        rotation = pivot.conjugate() / np.abs(pivot)
        mode = (s[..., 0], u[..., 0] * rotation, v * rotation)
        for part in mode:
            part.setflags(write=False)
        return mode


def generate_channel(cfg: SystemConfig, paths: PathParams) -> ChannelSet:
    """Synthesize all K*M channel matrices.

    H_k[m] = zeta * sum_l (alpha_{k,l} / eta_m) a_R(theta) a_T(vartheta)^H
             * exp(-j 2 pi tau_{k,l} f_m),  zeta = sqrt(N_R N_T / L),

    with the beam-split steering arguments theta = eta_m * phi and
    vartheta = eta_m * varphi. ``paths`` must be dimensioned K x L.
    """
    if paths.alpha.shape != (cfg.K, cfg.L):
        raise ValueError(f"paths dimensioned {paths.alpha.shape}, "
                         f"config expects {(cfg.K, cfg.L)}")
    freqs = subcarrier_frequencies(cfg)
    eta = freqs / cfg.f_c
    # directions per (k, l, m)
    theta = paths.phi[:, :, None] * eta[None, None, :]
    vartheta = paths.varphi[:, :, None] * eta[None, None, :]
    a_r = np.moveaxis(steering_vector(cfg.N_R, theta), 0, -1)   # (K, L, M, N_R)
    a_t = np.moveaxis(steering_vector(cfg.N_T, vartheta), 0, -1)
    coeff = (paths.alpha[:, :, None] / eta[None, None, :]
             * np.exp(-2j * np.pi * paths.tau[:, :, None] * freqs[None, None, :]))
    zeta = np.sqrt(cfg.N_R * cfg.N_T / cfg.L)
    H = zeta * np.einsum("klm,klmr,klmt->kmrt", coeff, a_r, a_t.conj())
    return ChannelSet(H=H, eta=eta)


def array_gain(u: np.ndarray, phi_bar, m: int, cfg: SystemConfig):
    """Normalized wideband array gain of beamformer ``u`` at subcarrier ``m``.

    ``u`` (designed at the carrier) observed at subcarrier m appears with its
    phases dilated by eta_m; the gain toward beamspace direction ``phi_bar``
    is the squared inner product against the unit-norm probe steering vector,
    normalized so a matched pair gives 1. For a steering-vector u at
    direction phi it equals |Sigma(mu_m)|^2 with
    mu_m = d (f_m phi - f_c phi_bar) / c0, peaking at phi_bar = eta_m * phi.

    ``u`` must be constant-modulus (a ValueError otherwise): it is dilated
    by phase rescaling. ``phi_bar`` may be an array of probe directions, in
    which case a matching array of gains is returned.
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
