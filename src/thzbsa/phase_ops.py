"""Phase extraction and frequency-ratio rescaling of constant-modulus vectors.

The pair (unwrap_phases, from_phases) realizes the phase operator and its
inverse: unwrapping walks the antenna index keeping successive steps within
[-pi, pi] (exact for linear-phase vectors, a documented heuristic otherwise),
and reconstruction returns modulus-1/sqrt(N) entries so the round trip is the
identity on unit-norm constant-modulus vectors. Rescaling the unwrapped
phases by f_m / f_c maps a beamformer designed at the carrier to its
subcarrier-m counterpart; on steering vectors this is exactly
a(psi) -> a(ratio * psi).
"""

from __future__ import annotations

import numpy as np


_PI_TIE_TOL = 1e-12
_MODULUS_REL_TOL = 1e-6


def _unwrap_columns(angles: np.ndarray) -> np.ndarray:
    """Unwrap along axis 0 with steps forced into [-pi, pi).

    Steps within _PI_TIE_TOL of +pi are ties: they snap to -pi so that
    steering vectors at the sine-space boundary |psi| = 1, whose successive
    steps land on either side of pi only through rounding noise, unwrap to
    one consistent linear slope (the psi = +1 reading) and round-trip.
    """
    diffs = np.diff(angles, axis=0)
    wrapped = np.mod(diffs + np.pi, 2.0 * np.pi) - np.pi
    wrapped[wrapped > np.pi - _PI_TIE_TOL] = -np.pi
    out = np.empty_like(angles)
    out[0] = angles[0]
    out[1:] = angles[0] + np.cumsum(wrapped, axis=0)
    return out


def _check_constant_modulus(a: np.ndarray) -> None:
    """Reject a vector, or a matrix with any column, whose moduli are not equal.

    The check is per column (axis 0); the first offending column is reported.
    """
    mods = np.abs(a)
    peak = mods.max(axis=0)
    with np.errstate(invalid="ignore"):
        deviation = np.ptp(mods, axis=0) / peak
    bad = np.flatnonzero((peak == 0) | (deviation > _MODULUS_REL_TOL))
    if bad.size == 0:
        return
    if peak.flat[bad[0]] == 0:
        raise ValueError("zero vector is not constant-modulus")
    raise ValueError(
        f"input is not constant-modulus: relative modulus spread {deviation.flat[bad[0]]:.3e} "
        f"exceeds {_MODULUS_REL_TOL:.0e}"
    )


def unwrap_phases(a: np.ndarray) -> np.ndarray:
    """Unwrapped phases of a constant-modulus vector.

    The first entry anchors at arg(a_1) in (-pi, pi]; each successive phase
    differs from its predecessor by at most pi in magnitude. For a steering
    vector at direction psi the result is the exact linear phase
    -pi (n-1) psi.
    """
    if np.ndim(a) != 1:
        raise ValueError("unwrap_phases expects a vector")
    return unwrap_analog_matrix(a)


def from_phases(psi: np.ndarray, n: int | None = None) -> np.ndarray:
    """Reconstruct the constant-modulus vector (1/sqrt(N)) exp(j psi_n).

    Inverse of unwrap_phases for any vector with entrywise modulus
    1/sqrt(N).
    """
    psi = np.asarray(psi, dtype=float)
    if not np.all(np.isfinite(psi)):
        raise ValueError("phases must be finite")
    if n is None:
        n = psi.shape[0]
    elif n != psi.shape[0]:
        raise ValueError(f"length mismatch: psi has {psi.shape[0]} entries, n={n}")
    return np.exp(1j * psi) / np.sqrt(n)


def scale_beamformer(f: np.ndarray, ratio: float) -> np.ndarray:
    """Rescale a constant-modulus beamformer's phases by ``ratio``.

    Maps steering_vector(N, psi) to steering_vector(N, ratio * psi) exactly;
    output entries have modulus 1/sqrt(N).
    """
    if ratio <= 0:
        raise ValueError(f"ratio must be positive, got {ratio}")
    return from_phases(unwrap_phases(f) * ratio)


def unwrap_analog_matrix(F_RF: np.ndarray) -> np.ndarray:
    """Unwrapped phases of every column of a constant-modulus matrix.

    Each column is checked for constant modulus (a zero column is rejected)
    and unwrapped down the antenna index. The result depends only on the
    matrix, so callers that rescale it for many subcarriers unwrap it once
    and pass the phases to :func:`rescale_phases`.
    """
    F_RF = np.asarray(F_RF, dtype=complex)
    _check_constant_modulus(F_RF)
    return _unwrap_columns(np.angle(F_RF))


def rescale_phases(phases: np.ndarray, eta) -> np.ndarray:
    """Constant-modulus entries exp(j phases eta) / sqrt(N) from unwrapped phases.

    ``eta`` is one ratio, or an array of ratios giving a leading axis of
    the same length.
    """
    eta = np.asarray(eta, dtype=float)
    eta = eta.reshape(eta.shape + (1,) * phases.ndim)
    return np.exp(1j * phases * eta) / np.sqrt(phases.shape[0])


def scale_analog_matrix(F_RF: np.ndarray, eta) -> np.ndarray:
    """Column-wise phase rescaling of a constant-modulus matrix.

    With a scalar ``eta`` the result has the shape of ``F_RF``. With an
    array of ratios (one per subcarrier) the matrix is checked and unwrapped
    once and the result is the ``(len(eta), N, cols)`` stack, equal entry
    for entry to the per-ratio calls.
    """
    ratios = np.asarray(eta, dtype=float)
    bad = np.flatnonzero(ratios <= 0)
    if bad.size:
        raise ValueError(f"eta_m must be positive, got {ratios.flat[bad[0]]}")
    return rescale_phases(unwrap_analog_matrix(F_RF), ratios)
