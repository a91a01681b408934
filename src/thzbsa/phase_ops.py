"""Phase extraction and frequency-ratio rescaling of constant-modulus vectors.

unwrap_phases walks the antenna index keeping successive steps within
[-pi, pi] (exact for linear-phase vectors, a heuristic otherwise), and
from_phases inverts it on unit-norm constant-modulus vectors. Rescaling the
unwrapped phases by f_m / f_c maps a beamformer designed at the carrier to
its subcarrier-m counterpart, on steering vectors exactly a(psi) -> a(ratio psi).
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
    A NaN or infinite entry makes the spread below NaN, which no comparison
    catches, so it is refused first.
    """
    if not np.all(np.isfinite(a)):
        raise ValueError("input has a non-finite entry, so it is not constant-modulus")
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
    """Unwrapped phases of a constant-modulus vector, or of each matrix column.

    Each column is checked for constant modulus (a zero column is rejected)
    and unwrapped down the antenna index: the first entry anchors at
    arg(a_1) in (-pi, pi], and each successive phase differs from its
    predecessor by at most pi in magnitude. For a steering vector at
    direction psi the result is the exact linear phase -pi (n-1) psi.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim not in (1, 2):
        raise ValueError("unwrap_phases expects a vector or a matrix")
    _check_constant_modulus(a)
    return _unwrap_columns(np.angle(a))


def from_phases(psi: np.ndarray) -> np.ndarray:
    """Reconstruct the constant-modulus vector (1/sqrt(N)) exp(j psi_n).

    Inverse of unwrap_phases for any vector with entrywise modulus
    1/sqrt(N).
    """
    psi = np.asarray(psi, dtype=float)
    if not np.all(np.isfinite(psi)):
        raise ValueError("phases must be finite")
    return np.exp(1j * psi) / np.sqrt(psi.shape[0])


def scale_analog_matrix(F_RF: np.ndarray, eta) -> np.ndarray:
    """Column-wise phase rescaling of a constant-modulus matrix (or vector).

    Maps steering_vector(N, psi) to steering_vector(N, eta * psi) exactly,
    column by column, with entries of modulus 1/sqrt(N). With a scalar
    ``eta`` the result has the shape of ``F_RF``. With an array of ratios of
    any shape S (one per subcarrier, say) the matrix is checked and unwrapped
    once and the result has shape S + ``F_RF.shape``, equal entry for entry to
    the per-ratio calls.
    """
    ratios = np.asarray(eta, dtype=float)
    bad = np.flatnonzero(~np.isfinite(ratios) | (ratios <= 0))
    if bad.size:
        raise ValueError(f"eta_m must be positive and finite, got {ratios.flat[bad[0]]}")
    phases = unwrap_phases(F_RF)
    ratios = ratios.reshape(ratios.shape + (1,) * phases.ndim)
    return np.exp(1j * phases * ratios) / np.sqrt(phases.shape[0])


# the acceptance suite imports this name for the one dilation above
scale_beamformer = scale_analog_matrix
