"""Frequency-selective THz multipath channels, held as their L path factors.

Every H_k[m] has rank L, so a ``ChannelSet`` keeps the dilated path directions and
gains. Every complex coupling of a trial is a steering kernel a_N(x)^H a_N(y) from
:func:`_kernel`, a phase times a Dirichlet kernel, read from sine tables that carry its
phase and its angle-addition form, each direction's sines taken once; the atom
correlations are its magnitudes. The dense H is built only on request. Also
the subcarrier grid, steering vectors, path draws and array gain.
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
    a path, grating lobes at |d| = 2, N = 1); those entries come from d by :func:`dirichlet_sinc`,
    d formed at them alone, in the denominator's buffer.
    """
    (a_x, a_sin, a_cos, a_sin_n, a_cos_n), (b_x, b_sin, b_cos, b_sin_n, b_cos_n) = a[:5], b[:5]
    den = a_sin * b_cos
    den -= a_cos * b_sin
    ker = a_sin_n * b_cos_n
    ker -= a_cos_n * b_sin_n
    near = np.abs(den) < _EXACT
    den[near] = 1.0                     # those entries are replaced below
    ker /= den
    if near.any():      # d at the near entries only, into the spent denominator
        d = np.subtract(a_x, b_x, out=den, where=near)[near]
        ker[near] = N * dirichlet_sinc(d / 2.0, N)
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


def _kernel(N: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_N(x)^H a_N(y) = exp(j pi (N-1) d / 2) D_N(d / 2), d = x - y, from :func:`_sines`
    tables a of x and b of y, broadcast past axis 0: the phase rows of both times
    :func:`_dirichlet_kernel` / N, which is exactly 1 where x = y: every complex coupling of
    a trial. The real factor is formed first: formed next to a held paper-sized phase
    product, its temporaries fault in fresh pages on every call."""
    ker = _dirichlet_kernel(N, a, b) / N
    return (a[5] + 1j * a[6]) * (b[5] - 1j * b[6]) * ker


def _gram(N: int, paths: np.ndarray) -> np.ndarray:
    """The Hermitian Grams a_N(v_i)^H a_N(v_j) over the paths of a (7, ..., L, M)
    :func:`_sines` table of v, as (L, L, ..., M) planes, subcarriers innermost: one
    :func:`_kernel` call fills the strict upper triangle, the lower one is its conjugate
    bit for bit, the diagonal exactly 1."""
    L = paths.shape[-2]
    i, j = np.nonzero(np.less.outer(np.arange(L), np.arange(L)))     # cheaper than triu_indices
    rows = np.moveaxis(paths, -2, 1)                                  # (7, L, ..., M)
    upper = _kernel(N, rows[:, i], rows[:, j])
    G = np.empty((L, L) + upper.shape[1:], dtype=complex)
    G[i, j] = upper
    G[j, i] = upper.conj()
    G[range(L), range(L)] = 1.0
    return G


def _cholesky(G: np.ndarray) -> np.ndarray:
    """A lower-triangular factor S (S S^H = G, zero above the diagonal) of (L, L, ...)
    unit-diagonal Hermitian planes, read from their lower triangle, plane by plane. In
    closed form, pivot j is d_j = 1 - sum_{k<j} |S_jk|^2, S_jj = sqrt(d_j) and S_ij =
    (G_ij - sum_{k<j} S_ik conj(S_jk)) / S_jj. A plane with a pivot <= 0, which LAPACK's
    potrf refuses (coincident directions, L > N), takes S = R^H instead, R from the QR of
    (U sqrt(w))^H for its own eigenpairs (w, U); no other plane changes. NaN is no
    pivot <= 0: it stays in the closed form, for the caller's finiteness check."""
    L = G.shape[0]
    S = np.zeros_like(G)
    S[:, 0] = G[:, 0]
    refused = np.zeros(G.shape[2:], dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):     # refused planes replaced below
        for j in range(1, L):
            norm = S[j, 0].real ** 2 + S[j, 0].imag ** 2
            for k in range(1, j):
                norm += S[j, k].real ** 2 + S[j, k].imag ** 2
            pivot = 1.0 - norm
            refused |= pivot <= 0
            root = np.sqrt(pivot)
            S[j, j] = root
            for i in range(j + 1, L):
                acc = G[i, j] - S[i, 0] * S[j, 0].conj()
                for k in range(1, j):
                    acc -= S[i, k] * S[j, k].conj()
                np.divide(acc, root, out=S[i, j])
    if refused.any():      # G = B B^H for B = U sqrt(w), and B^H = Q R gives G = R^H R
        w, U = np.linalg.eigh(np.moveaxis(G[:, :, refused], (0, 1), (-2, -1)))
        B = U * np.sqrt(np.maximum(w, 0.0))[..., None, :]
        R = np.linalg.qr(B.conj().swapaxes(-1, -2), mode="r")
        S[:, :, refused] = np.moveaxis(R, (-2, -1), (1, 0)).conj()
    return S


_GAP = 1e-3     # the least top gap lam_1 - lam_2, relative to lam_1, of a closed-form eigenpair


def _top_eigenpair(core: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The largest eigenvalue lam (...,) and a unit eigenvector z, as (L, ...) planes, of
    each Hermitian positive semidefinite core C given as (L, L, ...) planes ``core[i, j]``,
    read from its lower triangle like ``np.linalg.eigh``.

    For L = 3 in closed form, on A = C / trace(C): A has trace 1 and entries within
    [-1, 1] at any scale of C, so nothing overflows. lam / trace is A's largest root of
    the characteristic cubic by the trigonometric solution (O. K. Smith, CACM 4(4),
    1961). z is the largest of the three cross products of rows of A - (lam / trace) I,
    normalised; they are the rows of its Hermitian cofactor matrix, and take no
    conjugate because A z = lam z is bilinear row by row. The largest row is picked
    plane by plane with ``np.where``, the first of equal norms.

    Fallback rule: that largest product is at most (lam_1 - lam_2) lam_1 in norm (in
    units of the trace), so an entry where it is below ``_GAP`` lam_1^2 may have a
    near-degenerate top pair, where the cubic and the products lose digits as
    1e-16 lam_1 / gap; it takes ``eigh``, as do a zero trace, a non-finite scaled
    entry and L != 3. On every other entry the top gap is at least ``_GAP`` lam_1, lam
    is within about 1e-13 relative of ``eigh`` and |C z - lam z| within about 1e-13 lam.
    """
    if core.shape[0] != 3:
        lam, Z = np.linalg.eigh(np.moveaxis(core, (0, 1), (-2, -1)))
        return lam[..., -1], np.moveaxis(Z[..., -1], -1, 0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):   # sent to eigh below
        a0, a1, a2 = core[0, 0].real, core[1, 1].real, core[2, 2].real
        trace = a0 + a1
        trace += a2
        scale = 1.0 / trace
        e0, e1, e2 = (a * scale - 1.0 / 3.0 for a in (a0, a1, a2))    # A - I / 3
        l10, l20, l21 = (core[i, j] * scale for i, j in ((1, 0), (2, 0), (2, 1)))
        n10, n20, n21 = (v.real * v.real + v.imag * v.imag for v in (l10, l20, l21))
        w = l10 * l21
        p = np.sqrt((e0 * e0 + e1 * e1 + e2 * e2 + 2.0 * (n10 + n20 + n21)) / 6.0)
        det = e0 * e1 * e2 + 2.0 * (l20.conj() * w).real - e0 * n21 - e1 * n20 - e2 * n10
        mu = 2.0 * p * np.cos(np.arccos(np.clip(det / (2.0 * p ** 3), -1.0, 1.0)) / 3.0)
        D0, D1, D2 = e0 - mu, e1 - mu, e2 - mu                      # A - (lam / trace) I
        c00, c11, c22 = D1 * D2 - n21, D0 * D2 - n20, D0 * D1 - n10  # its cofactors
        c01 = l20 * l21.conj() - D2 * l10
        c02 = w - D1 * l20
        c12 = l10.conj() * l20 - D0 * l21
        m01, m02, m12 = (v.real * v.real + v.imag * v.imag for v in (c01, c02, c12))
        norm = c00 * c00 + m01 + m02                                # the rows' squared norms
        norm1 = m01 + c11 * c11 + m12
        norm2 = m02 + m12 + c22 * c22
        row1 = norm1 > norm
        norm = np.where(row1, norm1, norm)
        row2 = norm2 > norm
        norm = np.where(row2, norm2, norm)
        z = np.empty((3,) + trace.shape, dtype=complex)
        for out, row0, r1, r2 in ((z[0], c00, c01.conj(), c02.conj()), (z[1], c01, c11, c12.conj()),
                                  (z[2], c02, c12, c22)):
            np.divide(np.where(row2, r2, np.where(row1, r1, row0)), np.sqrt(norm), out=out)
        lam = mu + 1.0 / 3.0
        closed = (trace > 0) & (norm >= (_GAP * lam * lam) ** 2)
        lam *= trace
    fallback = ~closed
    if fallback.any():
        w_fb, Z_fb = np.linalg.eigh(np.moveaxis(core[:, :, fallback], (0, 1), (-2, -1)))
        lam[fallback] = w_fb[:, -1]
        z[:, fallback] = Z_fb[..., -1].T
    return lam, z


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
    (the columns of A_R / A_T), ``gain`` the path gains, all (K, L, M), subcarriers
    innermost: the one layout of every path array of a trial. Their (7, K, L, M)
    :func:`_sines` tables ``theta_sines`` (N_R) and ``vartheta_sines`` (N_T) are cached
    read-only on first access, like ``dominant_mode``; its Grams, atom selection and
    effective channels read them.
    """

    theta: np.ndarray       # (K, L, M)
    vartheta: np.ndarray    # (K, L, M)
    gain: np.ndarray        # (K, L, M)
    eta: np.ndarray         # (M,)
    N_R: int
    N_T: int

    @cached_property
    def H(self) -> np.ndarray:
        """The dense (K, M, N_R, N_T) stack, built on first access; no trial reads it."""
        return np.einsum("klm,rklm,tklm->kmrt", self.gain, steering_vector(self.N_R, self.theta),
                         steering_vector(self.N_T, self.vartheta).conj())

    @cached_property
    def theta_sines(self) -> np.ndarray:
        return _sines(self.N_R, self.theta)

    @cached_property
    def vartheta_sines(self) -> np.ndarray:
        return _sines(self.N_T, self.vartheta)

    @cached_property
    def dominant_mode(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (s, x, y): each H_k[m]'s largest singular value, shape (K, M),
        and its unit vectors v = A_T x and u = A_R y in path coordinates (K, L, M).

        Every step is elementwise arithmetic on contiguous (K, M) planes, subcarriers
        innermost. The Grams G_T = A_T^H A_T and G_R = A_R^H A_R come by :func:`_gram`
        from the path tables as (L, L, K, M) planes. S is the lower-triangular factor of G_T
        by :func:`_cholesky`, a square-root factor (S S^H = G_T) that is never inverted,
        chosen plane by plane. With F = G_R D S, D = diag(gain), the core (D S)^H F is
        formed on its lower triangle, core_ij = sum_{a >= i} conj((D S)_ai) F_aj, and s^2
        and z are its top eigenpair (:func:`_top_eigenpair`). y = D S z / s and x =
        D^H G_R y / s, which is v = H^H u / s; where s = 0, y = 0 and x = e_1. v_1 =
        sum(x) / sqrt(N_T) is real >= 0.
        """
        S = _cholesky(_gram(self.N_T, self.vartheta_sines))
        G_R = _gram(self.N_R, self.theta_sines)
        K, L, M = self.gain.shape
        gain = np.moveaxis(self.gain, 1, 0)                           # (L, K, M)
        with np.errstate(over="ignore", invalid="ignore"):     # refused just below
            DS = gain[:, None] * S
            F = np.empty_like(DS)
            for j in range(L):                  # (D S)_bj = 0 for b < j
                np.multiply(G_R[:, j], DS[j, j], out=F[:, j])
                for b in range(j + 1, L):
                    F[:, j] += G_R[:, b] * DS[b, j]
            DS_conj = DS.conj()
            core = np.zeros_like(DS)
            for i in range(L):                  # (D S)_ai = 0 for a < i
                np.multiply(DS_conj[i, i], F[i, : i + 1], out=core[i, : i + 1])
                for a in range(i + 1, L):
                    core[i, : i + 1] += DS_conj[a, i] * F[a, : i + 1]
        if not np.all(np.isfinite(core)):
            raise FloatingPointError("non-finite channel Gram core")
        lam, z = _top_eigenpair(core)
        s = np.sqrt(np.maximum(lam, 0.0))
        inv_s = np.divide(1.0, s, out=np.zeros_like(s), where=s > 0)
        y = (DS * z).sum(axis=1)          # the zeros above S add exactly 0
        y *= inv_s
        x = (G_R * y).sum(axis=1)
        x *= gain.conj()
        x *= inv_s
        x[0][s == 0] = 1.0
        lead = x.sum(axis=0)
        rotation = np.divide(lead.conj(), np.abs(lead), out=np.ones_like(lead), where=lead != 0)
        mode = np.empty((2, K, L, M), dtype=complex)
        np.multiply(x, rotation, out=mode[0].transpose(1, 0, 2))
        np.multiply(y, rotation, out=mode[1].transpose(1, 0, 2))
        x, y = mode
        for part in (s, x, y):
            part.setflags(write=False)
        return s, x, y


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
    gain = zeta * paths.alpha[..., None] / eta * np.exp(-2j * np.pi * paths.tau[..., None] * freqs)
    return ChannelSet(theta=paths.phi[..., None] * eta, vartheta=paths.varphi[..., None] * eta,
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
