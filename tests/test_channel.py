import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import thzbsa as t
from thzbsa.config import SPEED_OF_LIGHT
from thzbsa.harness import _trial_seed


class TestSubcarrierGrid:
    def test_endpoints_128(self):
        cfg = t.SystemConfig(f_c=300e9, B=30e9, M=128)
        f = t.subcarrier_frequencies(cfg)
        # hand evaluation: f_c + (B/M)(m - 1 - (M-1)/2)
        assert f[0] == pytest.approx(285.1171875e9, abs=1e-3)
        assert f[-1] == pytest.approx(314.8828125e9, abs=1e-3)
        assert f[-1] / cfg.f_c == pytest.approx(1.049609375, abs=1e-9)

    def test_single_carrier_collapses(self):
        cfg = t.SystemConfig(f_c=300e9, B=30e9, M=1)
        assert t.subcarrier_frequencies(cfg).tolist() == [300e9]

    def test_symmetric_about_carrier(self):
        cfg = t.SystemConfig(M=16)
        f = t.subcarrier_frequencies(cfg)
        np.testing.assert_allclose(f + f[::-1], 2 * cfg.f_c, rtol=1e-15)

    def test_central_index_odd_M_has_unit_ratio(self):
        for M in (1, 3, 31, 129):
            cfg = t.SystemConfig(M=M)
            eta = t.frequency_ratios(cfg)
            assert eta[(M - 1) // 2] == pytest.approx(1.0, abs=1e-15)

    def test_central_index_even_M(self):
        cfg = t.SystemConfig(M=32)
        eta = t.frequency_ratios(cfg)
        mc = (32 - 1) // 2
        assert abs(eta[mc] - 1) == pytest.approx(np.min(np.abs(eta - 1)), abs=1e-14)


class TestDirections:
    def test_deviation_angle_magnitude(self):
        # sine-space 0.04 at phi=0.8 is about four degrees of physical angle
        dev = math.degrees(math.asin(0.84) - math.asin(0.8))
        assert 3.5 < dev < 4.5


class TestSteeringVector:
    def test_broadside_all_ones(self):
        np.testing.assert_allclose(t.steering_vector(4, 0.0), 0.5 * np.ones(4))

    def test_two_element_endfire(self):
        v = t.steering_vector(2, 1.0)
        np.testing.assert_allclose(v, np.array([1.0, -1.0]) / np.sqrt(2), atol=1e-15)

    def test_matches_phase_rescaled_counterpart(self):
        lhs = t.steering_vector(128, 0.8396875)
        rhs = t.scale_beamformer(t.steering_vector(128, 0.8), 1.049609375)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    @given(st.integers(1, 200), st.floats(-1, 1))
    def test_unit_norm_constant_modulus(self, n, psi):
        v = t.steering_vector(n, psi)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(np.abs(v), 1 / np.sqrt(n), atol=1e-12)

    def test_rejects_empty_array(self):
        with pytest.raises(ValueError):
            t.steering_vector(0, 0.5)


class TestDirichletSinc:
    def test_limit_at_zero(self):
        assert t.dirichlet_sinc(0.0, 64) == 1.0

    def test_first_null(self):
        assert t.dirichlet_sinc(1 / 8, 8) == pytest.approx(0.0, abs=1e-15)

    def test_zero_order_rejected(self):
        with pytest.raises(ValueError, match="N must be >= 1"):
            t.dirichlet_sinc(0.3, 0)

    def test_off_peak_value(self):
        expected = math.sin(128 * math.pi * 0.0125) / (128 * math.sin(math.pi * 0.0125))
        assert t.dirichlet_sinc(0.0125, 128) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(-0.18925, abs=5e-5)

    def test_integer_arguments_follow_analytic_limit(self):
        # integers and grating lobes 1e-13 off them, negative ones too, for even and odd N
        ks = np.array([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5])
        for N in (2, 3, 8, 9, 64, 65):
            limit = (-1.0) ** ((N - 1) * ks)
            for offset in (0.0, 1e-13, -1e-13):
                a = ks + offset
                assert np.array_equal(t.dirichlet_sinc(a, N), limit)
                assert [t.dirichlet_sinc(float(v), N) for v in a] == limit.tolist()

    def test_never_nan_near_integers(self):
        a = np.array([0.0, 1.0, -1.0, 1e-15, 1 - 1e-15])
        assert np.all(np.isfinite(t.dirichlet_sinc(a, 32)))


def _oracle_channel_entry(cfg, paths, k, m, r, c):
    """Per-entry triple-sum evaluation with scalar arithmetic only."""
    f_m = cfg.f_c + (cfg.B / cfg.M) * (m + 1 - 1 - (cfg.M - 1) / 2)
    eta_m = f_m / cfg.f_c
    gain = cfg.f_c / f_m            # free-space spreading, normalised at the carrier
    zeta = math.sqrt(cfg.N_R * cfg.N_T / cfg.L)
    total = 0j
    for l in range(cfg.L):
        a_r = cmath.exp(-1j * math.pi * r * eta_m * paths.phi[k, l]) / math.sqrt(cfg.N_R)
        a_t = cmath.exp(-1j * math.pi * c * eta_m * paths.varphi[k, l]) / math.sqrt(cfg.N_T)
        delay = cmath.exp(-2j * math.pi * paths.tau[k, l] * f_m)
        total += complex(paths.alpha[k, l]) * gain * a_r * a_t.conjugate() * delay
    return zeta * total


class TestGenerateChannel:
    def test_single_path_closed_form(self):
        # gain alpha / eta_m on the dilated directions eta_m * phi, eta_m * varphi
        cfg = t.SystemConfig(N_T=8, N_R=4, K=1, N_RF=1, L=1, M=3, B=30e9)
        paths = t.PathParams(alpha=[[1.0]], phi=[[0.3]], varphi=[[-0.5]], tau=[[0.0]])
        ch = t.generate_channel(cfg, paths)
        for m, eta_m in enumerate((29 / 30, 1.0, 31 / 30)):     # f_m = 290, 300, 310 GHz
            expected = math.sqrt(32) / eta_m * np.outer(
                t.steering_vector(4, 0.3 * eta_m), t.steering_vector(8, -0.5 * eta_m).conj())
            np.testing.assert_allclose(ch.H[0, m], expected, atol=1e-12)
            assert np.linalg.norm(ch.H[0, m]) == pytest.approx(math.sqrt(32) / eta_m, rel=1e-12)

    def test_single_path_rank_one(self, rng):
        cfg = t.SystemConfig(N_T=16, N_R=4, K=2, N_RF=2, L=1, M=4).validate()
        ch = t.generate_channel(cfg, t.draw_paths(cfg, rng))
        for k in range(2):
            for m in range(4):
                s = np.linalg.svd(ch.H[k, m], compute_uv=False)
                assert s[1] < 1e-10 * s[0]

    def test_entrywise_brute_force_oracle(self, tiny_cfg, rng):
        paths = t.draw_paths(tiny_cfg, rng)
        ch = t.generate_channel(tiny_cfg, paths)
        for k in range(tiny_cfg.K):
            for m in range(tiny_cfg.M):
                for r in range(0, tiny_cfg.N_R, 2):
                    for c in range(0, tiny_cfg.N_T, 5):
                        expected = _oracle_channel_entry(tiny_cfg, paths, k, m, r, c)
                        assert ch.H[k, m, r, c] == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch_rejected(self, tiny_cfg, rng):
        other = t.SystemConfig(N_T=16, N_R=4, K=3, N_RF=3, L=3, M=4).validate()
        paths = t.draw_paths(other, rng)
        with pytest.raises(ValueError, match="dimension"):
            t.generate_channel(tiny_cfg, paths)


def _along_paths(N, directions, coords):
    """The dense vectors sum_l coords_l a_N(directions_l), shape (K, M, N)."""
    return np.einsum("kml,nkml->kmn", coords, t.steering_vector(N, directions))


def _svd_dominant_mode(H):
    """Dense oracle: top singular triple of every H_k[m] from one SVD of the stack."""
    u, s, vh = np.linalg.svd(H, full_matrices=False)
    return s[..., 0], u[..., 0], vh[..., 0, :].conj(), s


def _dense_effective_channel(ch, W_RF, F_RF):
    """Dense oracle: W_RF^H H F_RF contracted over the whole stack."""
    F_RF = np.broadcast_to(F_RF, (ch.eta.shape[0],) + F_RF.shape[-2:])
    return np.einsum("rk,kmrt,mtj->mkj", W_RF.conj(), ch.H, F_RF)


def _assert_matches_svd(ch, tol):
    """s, u and v of the path factors against the dense SVD, u and v up to one phase."""
    s, x, y = ch.dominant_mode
    u = _along_paths(ch.N_R, ch.theta, y)
    v = _along_paths(ch.N_T, ch.vartheta, x)
    s_ref, u_ref, v_ref, spectrum = _svd_dominant_mode(ch.H)
    scale = max(float(s_ref.max()), 1e-300)
    np.testing.assert_allclose(s, s_ref, rtol=0, atol=tol * scale)
    Hv = np.einsum("kmrt,kmt->kmr", ch.H, v)
    np.testing.assert_allclose(Hv, s[..., None] * u, rtol=0, atol=tol * scale)
    live = s_ref > tol * scale
    np.testing.assert_allclose(np.linalg.norm(v, axis=-1), 1.0, atol=tol)
    np.testing.assert_allclose(np.linalg.norm(u, axis=-1)[live], 1.0, atol=tol)
    # the vectors themselves are unique (up to phase) only with a spectral gap
    gap = np.zeros_like(s_ref) if spectrum.shape[-1] < 2 else spectrum[..., 1]
    unique = live & (gap < (1 - 1e-3) * s_ref)
    phase = np.einsum("kmn,kmn->km", v_ref.conj(), v)
    phase = phase / np.where(phase == 0, 1.0, np.abs(phase))
    np.testing.assert_allclose(v[unique], (v_ref * phase[..., None])[unique], rtol=0, atol=tol)
    np.testing.assert_allclose(u[unique], (u_ref * phase[..., None])[unique], rtol=0, atol=tol)


class TestDominantMode:
    def test_singular_triple(self, desk_cfg, rng):
        ch = t.generate_channel(desk_cfg, t.draw_paths(desk_cfg, rng))
        s, x, y = ch.dominant_mode
        K, M, L = desk_cfg.K, desk_cfg.M, desk_cfg.L
        assert (s.shape, x.shape, y.shape) == ((K, M), (K, M, L), (K, M, L))
        u = _along_paths(desk_cfg.N_R, ch.theta, y)
        v = _along_paths(desk_cfg.N_T, ch.vartheta, x)
        Hv = np.einsum("kmrt,kmt->kmr", ch.H, v)
        np.testing.assert_allclose(Hv, s[..., None] * u, rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(u, axis=-1), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(v, axis=-1), 1.0, atol=1e-12)
        for k in range(K):
            for m in range(M):
                mags = np.abs(v[k, m])
                first = v[k, m][np.argmax(mags > 1e-9 * mags.max())]
                assert abs(first.imag) < 1e-15 and first.real > 0

    def test_stored_with_subcarriers_innermost(self, desk_cfg, rng):
        # x and y are (K, M, L) views of C-contiguous (K, L, M) arrays, the layout the
        # path weights of atom selection read
        ch = t.generate_channel(desk_cfg, t.draw_paths(desk_cfg, rng))
        K, M, L = desk_cfg.K, desk_cfg.M, desk_cfg.L
        for part in ch.dominant_mode[1:]:
            assert part.shape == (K, M, L) and np.swapaxes(part, 1, 2).flags.c_contiguous

    def test_computed_once_and_read_only(self, tiny_cfg, rng):
        ch = t.generate_channel(tiny_cfg, t.draw_paths(tiny_cfg, rng))
        assert ch.dominant_mode is ch.dominant_mode
        for part in ch.dominant_mode:
            with pytest.raises(ValueError, match="read-only"):
                part[...] = 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_channel_rejected(self, tiny_cfg, rng, bad):
        ch = t.generate_channel(tiny_cfg, t.draw_paths(tiny_cfg, rng))
        ch.gain[1, 2, 0] = bad
        with pytest.raises(FloatingPointError, match="non-finite"):
            ch.dominant_mode


@pytest.fixture
def eigh_entries(monkeypatch):
    """The number of matrices handed to np.linalg.eigh while the test runs."""
    count = [0]
    original = np.linalg.eigh

    def counted(a, *args, **kwargs):
        count[0] += int(np.prod(np.shape(a)[:-2]))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return count


def _hermitian_cores(rng, eigenvalues):
    """One core V diag(w) V^H per row w of ``eigenvalues``, V a random unitary."""
    n, L = eigenvalues.shape
    V, _ = np.linalg.qr(rng.standard_normal((n, L, L)) + 1j * rng.standard_normal((n, L, L)))
    return (V * eigenvalues[:, None, :]) @ V.conj().swapaxes(-1, -2)


def _planes(A):
    """(..., L, L) matrices as the C-contiguous (L, L, ...) planes of the dominant-mode
    kernels."""
    return np.ascontiguousarray(np.moveaxis(A, (-2, -1), (0, 1)))


def _matrices(P):
    """(L, L, ...) planes as (..., L, L) matrices."""
    return np.moveaxis(P, (0, 1), (-2, -1))


def _assert_top_pair(core, lam, z, tol):
    """lam within tol of eigh's top eigenvalue, |C z - lam z| <= tol lam, and z eigh's
    top vector up to phase, to the angle that residual allows: tol lam / gap."""
    w, Z = np.linalg.eigh(core)
    top, z_ref = w[..., -1], Z[..., -1]
    np.testing.assert_allclose(lam, top, rtol=tol, atol=0)
    np.testing.assert_allclose(np.linalg.norm(z, axis=-1), 1.0, rtol=0, atol=1e-14)
    residual = np.linalg.norm((core @ z[..., None])[..., 0] - lam[..., None] * z, axis=-1)
    assert np.all(residual <= tol * top)
    phase = np.einsum("...i,...i->...", z_ref.conj(), z)
    error = np.linalg.norm(z - z_ref * (phase / np.abs(phase))[..., None], axis=-1)
    gap = top - w[..., -2]
    assert np.all(error * gap <= 2 * tol * top)


class TestTopEigenpair:
    """The closed-form top eigenpair of 3x3 cores, taken and returned as planes, against
    eigh, and when it hands over."""

    @staticmethod
    def top_eigenpair(core):
        # (..., L, L) cores in as (L, L, ...) planes; z comes back as (L, ...) planes
        lam, z = t.channel._top_eigenpair(_planes(core))
        assert lam.shape == core.shape[:-2] and z.shape == core.shape[-1:] + core.shape[:-2]
        return lam, np.moveaxis(z, 0, -1)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), rank=st.integers(1, 3))
    def test_random_psd_batches(self, seed, n, rank):
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.0, 1.0, (n, 3)) * 10.0 ** rng.uniform(-3, 3, (n, 1))
        w[:, : 3 - rank] = 0.0
        core = _hermitian_cores(rng, w)
        lam, z = self.top_eigenpair(core)
        _assert_top_pair(core, lam, z, 1e-12)

    def test_rank_one(self, rng, eigh_entries):
        a = rng.standard_normal((50, 3)) + 1j * rng.standard_normal((50, 3))
        lam, z = self.top_eigenpair(a[:, :, None] * a[:, None, :].conj())
        assert eigh_entries[0] == 0
        np.testing.assert_allclose(lam, np.linalg.norm(a, axis=-1) ** 2, rtol=1e-14)
        phase = np.einsum("ni,ni->n", a.conj(), z)
        np.testing.assert_allclose(z * np.linalg.norm(a, axis=-1, keepdims=True),
                                   a * (phase / np.abs(phase))[:, None], rtol=0, atol=1e-13)

    def test_zero_matrix(self, eigh_entries):
        # a zero trace takes eigh: lam = 0 and a unit z, the s = 0 branch downstream
        lam, z = self.top_eigenpair(np.zeros((2, 4, 3, 3), dtype=complex))
        assert eigh_entries[0] == 8
        assert np.all(lam == 0) and lam.shape == (2, 4)
        np.testing.assert_allclose(np.linalg.norm(z, axis=-1), 1.0)

    def test_diagonal(self, eigh_entries):
        diagonals = np.array([[3.0, 1.0, 2.0], [0.0, 0.0, 5.0], [1e-3, 2.0, 7.0], [4.0, 0.5, 0.0]])
        core = np.zeros((4, 3, 3), dtype=complex)
        core[:, [0, 1, 2], [0, 1, 2]] = diagonals
        lam, z = self.top_eigenpair(core)
        assert eigh_entries[0] == 0
        np.testing.assert_allclose(lam, diagonals.max(axis=-1), rtol=1e-15)
        np.testing.assert_allclose(np.abs(z), np.eye(3)[diagonals.argmax(axis=-1)], atol=1e-15)

    @pytest.mark.parametrize("w", [[1.0, 1.0, 0.3], [0.0, 2.0, 2.0], [5.0, 5.0, 5.0]])
    def test_repeated_top_eigenvalue_takes_eigh(self, rng, eigh_entries, w):
        core = _hermitian_cores(rng, np.tile(w, (6, 1)))
        lam, z = self.top_eigenpair(core)
        assert eigh_entries[0] == 6
        w_ref, Z_ref = np.linalg.eigh(core)
        assert np.array_equal(lam, w_ref[:, -1]) and np.array_equal(z, Z_ref[..., -1])

    @pytest.mark.parametrize("scale", [1e-150, 1e150, 1e-300, 1e300])
    def test_extreme_scales(self, rng, eigh_entries, scale):
        # the cubic of the unscaled core would overflow or underflow; its trace-scaled
        # form does neither (and an overflow would raise under the suite's filter)
        w = np.array([[1.0, 0.4, 0.1], [1.0, 0.0, 0.0], [0.7, 0.6, 0.0]])
        core = _hermitian_cores(rng, w)
        lam, z = self.top_eigenpair(core * scale)
        assert eigh_entries[0] == 0
        np.testing.assert_allclose(lam / scale, w[:, 0], rtol=1e-13)
        _assert_top_pair(core, lam / scale, z, 1e-12)

    @pytest.mark.parametrize("gap", 10.0 ** -np.arange(1, 13))
    def test_near_degenerate_top_pair(self, rng, eigh_entries, gap):
        # the rule: a largest cross product below _GAP lam^2 hands the entry to eigh,
        # and that product is at most (lam_1 - lam_2) lam_1; so every gap under
        # _GAP lam_1 takes eigh, and every gap is within 1e-12 of eigh
        assert t.channel._GAP == 1e-3
        n = 200
        w = np.column_stack([rng.uniform(0.0, 1.0 - gap, n), np.full(n, 1.0 - gap), np.ones(n)])
        core = _hermitian_cores(rng, w * 10.0 ** rng.uniform(-3, 3, (n, 1)))
        lam, z = self.top_eigenpair(core)
        handed_over = eigh_entries[0]
        _assert_top_pair(core, lam, z, 1e-12)
        if gap < t.channel._GAP:
            assert handed_over == n
        if gap >= 1e-1:
            assert handed_over < n // 20

    @pytest.mark.parametrize("L", [1, 2, 4])
    def test_other_orders_take_eigh(self, rng, L):
        core = _hermitian_cores(rng, rng.uniform(0.0, 1.0, (5, L)))
        lam, z = self.top_eigenpair(core)
        w_ref, Z_ref = np.linalg.eigh(core)
        assert np.array_equal(lam, w_ref[:, -1]) and np.array_equal(z, Z_ref[..., -1])

    @pytest.mark.parametrize("handed_over", [0, 1])
    def test_reads_the_lower_triangle(self, rng, eigh_entries, handed_over):
        # like eigh, only the lower triangle is read: NaN above the diagonal changes no bit,
        # on the closed form and on the eigh hand-over of a repeated top pair
        w = np.tile([[1.0, 0.5, 0.1]] if not handed_over else [[1.0, 1.0, 0.3]], (8, 1))
        core = _planes(_hermitian_cores(rng, w))
        lam, z = t.channel._top_eigenpair(core)
        core[np.triu_indices(3, 1)] = np.nan
        lam_lower, z_lower = t.channel._top_eigenpair(core)
        assert eigh_entries[0] == 16 * handed_over
        assert np.array_equal(lam, lam_lower) and np.array_equal(z, z_lower)

    @pytest.mark.parametrize("profile,draws", [("desk", 20), ("paper", 4)])
    def test_seeded_draws_take_the_closed_form(self, monkeypatch, eigh_entries, profile, draws):
        # no Gram of a seeded trial draw goes to LAPACK's cholesky and no core to eigh,
        # so the plane kernels are the path
        cholesky_entries = []
        monkeypatch.setattr(np.linalg, "cholesky", cholesky_entries.append)
        cfg = t.build_config(profile)
        for i in range(draws):
            rng = np.random.default_rng(np.random.SeedSequence([_trial_seed(40, 0, i), 0]))
            t.generate_channel(cfg, t.draw_paths(cfg, rng)).dominant_mode
        assert eigh_entries[0] == 0 and cholesky_entries == []


def _unit_diagonal(A):
    """Hermitian positive definite matrices scaled to a unit diagonal, set exactly 1."""
    d = 1.0 / np.sqrt(np.diagonal(A, axis1=-2, axis2=-1).real)
    G = A * d[..., :, None] * d[..., None, :]
    G[..., range(A.shape[-1]), range(A.shape[-1])] = 1.0
    return G


def _lapack_refuses(G):
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return True
    return False


class TestCholesky:
    """The plane Cholesky factor of unit-diagonal Gram planes against LAPACK's."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), L=st.integers(1, 5),
           floor=st.sampled_from([1e-1, 1e-4, 1e-8, 1e-12]))
    def test_random_positive_definite_planes(self, seed, n, L, floor):
        # well conditioned and near-singular planes: S S^H = G to rounding, S lower
        # triangular with a positive diagonal, and S LAPACK's factor to eps / lam_min
        rng = np.random.default_rng(seed)
        G = _unit_diagonal(_hermitian_cores(rng, rng.uniform(floor, 1.0, (n, L))))
        S = t.channel._cholesky(_planes(G))
        assert S is not None and S.shape == (L, L, n)
        S = _matrices(S)
        assert np.all(S[..., np.triu(np.ones((L, L), dtype=bool), 1)] == 0)
        diagonal = np.diagonal(S, axis1=-2, axis2=-1)
        assert np.all(diagonal.imag == 0) and np.all(diagonal.real > 0)
        np.testing.assert_allclose(S @ S.conj().swapaxes(-1, -2), G, rtol=0, atol=1e-15)
        lam_min = np.linalg.eigvalsh(G)[:, 0]
        error = np.abs(S - np.linalg.cholesky(G)).max(axis=(-2, -1))
        assert np.all(error <= 1e-14 / lam_min)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), L=st.integers(2, 4))
    def test_refuses_where_lapack_does(self, seed, n, L):
        # unit-diagonal Hermitian planes, definite or not; pivot j is the ratio of leading
        # minors j + 1 and j, so draws with a minor at rounding level are skipped
        rng = np.random.default_rng(seed)
        A = np.tril(rng.uniform(-0.7, 0.7, (n, L, L)) + 1j * rng.uniform(-0.7, 0.7, (n, L, L)), -1)
        G = A + A.conj().swapaxes(-1, -2) + np.eye(L)
        assume(all(np.all(np.abs(np.linalg.det(G[:, :j, :j])) > 1e-9) for j in range(2, L + 1)))
        refused = [_lapack_refuses(g) for g in G]
        for g, lapack in zip(G, refused):
            assert (t.channel._cholesky(_planes(g[None])) is None) == lapack
        assert (t.channel._cholesky(_planes(G)) is None) == any(refused)

    @pytest.mark.parametrize("lower,refused", [
        ((0.5, 0.25j, 0.5), False),
        ((1.0, 0.0, 0.0), True),                      # pivot 1 exactly 0
        ((1j, 0.0, 0.0), True),
        ((1.5, 0.0, 0.0), True),                      # pivot 1 negative
        ((0.0, 0.5 + 0.5j, 0.5 - 0.5j), True),        # pivot 2 exactly 1 - 0.5 - 0.5 = 0
        ((0.0, 0.75, 0.75), True),                    # pivot 2 negative
    ])
    def test_exact_pivots(self, lower, refused):
        # a pivot that is not > 0 refuses the matrix, and one such matrix the whole batch
        G = np.eye(3, dtype=complex)
        G[[1, 2, 2], [0, 0, 1]] = lower
        G = np.tril(G) + np.tril(G, -1).conj().T
        assert _lapack_refuses(G) == refused
        assert (t.channel._cholesky(_planes(G[None])) is None) == refused
        batch = np.stack([np.eye(3), G, np.eye(3)])
        assert (t.channel._cholesky(_planes(batch)) is None) == refused

    def test_nan_pivot_refused(self):
        # NaN is not > 0: refused, the rule of LAPACK's potrf (this build's cholesky
        # returns NaN instead)
        G = np.eye(3, dtype=complex)
        G[1, 0] = G[0, 1] = np.nan
        assert t.channel._cholesky(_planes(G[None])) is None


class TestGram:
    """The one-triangle Gram planes from a path table are the full table-kernel matrix, bit
    for bit."""

    @staticmethod
    def _assert_full_kernel(N, table):
        # every pair (i, j) of paths through the one helper, as (L, L, ..., M) planes; the
        # Gram takes the upper triangle from it and is Hermitian with a unit diagonal
        rows = np.moveaxis(table, -2, 1)
        full = t.channel._kernel(N, rows[:, :, None], rows[:, None, :])
        G = t.channel._gram(N, table)
        L = G.shape[0]
        upper = np.triu(np.ones((L, L), dtype=bool), 1)
        assert G.shape == full.shape and G.flags.c_contiguous
        assert np.array_equal(G[upper], full[upper])
        assert np.array_equal(G, np.swapaxes(G, 0, 1).conj())
        assert np.all(G[range(L), range(L)] == 1.0)

    @pytest.mark.parametrize("L", [1, 2, 3, 5])
    def test_seeded_draws(self, desk_cfg, L):
        cfg = desk_cfg.replace(L=L)
        for seed in range(5):
            ch = t.generate_channel(cfg, t.draw_paths(cfg, np.random.default_rng(seed)))
            for N, v, table in ((ch.N_T, ch.vartheta, ch.vartheta_sines),
                                (ch.N_R, ch.theta, ch.theta_sines)):
                self._assert_full_kernel(N, table)
                A = t.steering_vector(N, v)
                dense = np.einsum("nkml,nkmj->ljkm", A.conj(), A)
                np.testing.assert_allclose(t.channel._gram(N, table), dense, rtol=0, atol=1e-12)

    def test_coincident_directions(self, tiny_cfg, rng):
        # user 0's paths all leave on one direction: a rank-one Gram, which the plane
        # Cholesky refuses where LAPACK's does, so dominant_mode takes its eigh factor
        paths = t.draw_paths(tiny_cfg, rng)
        paths.varphi[0] = 0.3
        ch = t.generate_channel(tiny_cfg, paths)
        self._assert_full_kernel(ch.N_T, ch.vartheta_sines)
        G = t.channel._gram(ch.N_T, ch.vartheta_sines)
        assert t.channel._cholesky(G) is None
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(_matrices(G))

    def test_dominant_mode_caches_both_path_tables(self, desk_cfg, rng):
        # the Grams read the tables that selection and the effective channels read later
        ch = t.generate_channel(desk_cfg, t.draw_paths(desk_cfg, rng))
        assert not {"theta_sines", "vartheta_sines"} & ch.__dict__.keys()
        ch.dominant_mode
        assert {"theta_sines", "vartheta_sines"} <= ch.__dict__.keys()


class TestFactorPathOracles:
    """The path-factor quantities against the dense SVD and einsum they replace."""

    @given(N_T=st.integers(1, 10), N_R=st.integers(1, 6), L=st.integers(1, 6),
           K=st.integers(1, 3), M=st.integers(1, 4), wideband=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @example(N_T=1, N_R=1, L=2, K=1, M=4, wideband=True, seed=0)
    @example(N_T=2, N_R=3, L=3, K=2, M=4, wideband=True, seed=1)
    @example(N_T=5, N_R=2, L=4, K=3, M=3, wideband=True, seed=2)
    @example(N_T=8, N_R=6, L=5, K=3, M=4, wideband=True, seed=3)
    def test_random_dimensions(self, N_T, N_R, L, K, M, wideband, seed):
        K = min(K, N_T)
        cfg = t.SystemConfig(N_T=N_T, N_R=N_R, K=K, N_RF=K, L=L, M=M, N_W=2 * max(N_R, K),
                             B=30e9 if wideband else 0.0).validate()
        rng = np.random.default_rng(seed)
        ch = t.generate_channel(cfg, t.draw_paths(cfg, rng))
        _assert_matches_svd(ch, 1e-10)
        d = t.build_dictionaries(cfg)
        # random atoms and both endfire ones, a(-1) = a(+1) read as psi = +1; on a
        # wideband grid the SD stack dilates them beyond |psi| = 1
        rows = rng.integers(d.D_W.shape[1], size=K)
        cols = np.append(rng.integers(d.D_F.shape[1], size=K), [0, d.D_F.shape[1] - 1])
        W_RF, F_RF = d.D_W[:, rows], d.D_F[:, cols]
        psi_r, psi_t = d.psi_w[rows], d.psi_f[cols]
        for analog, psi in ((F_RF, psi_t),
                            (t.sd_analog(F_RF, ch.eta), np.multiply.outer(ch.eta, psi_t))):
            got = t.effective_channel(ch, psi_r, psi)
            want = _dense_effective_channel(ch, W_RF, analog)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
        with pytest.raises(ValueError, match="psi_r must be"):
            t.effective_channel(ch, psi_r[None], psi_t)
        for bad in (np.ones((M + 1, psi_t.size)), np.ones((1, M, psi_t.size)), np.float64(0.1)):
            with pytest.raises(ValueError, match="psi_t must be"):
                t.effective_channel(ch, psi_r, bad)

    @pytest.mark.parametrize("L,K", [(1, 1), (4, 1), (7, 1), (3, 2)],
                             ids=["1", "4", "7", "3-user_1_distinct"])
    def test_coincident_and_surplus_paths(self, L, K):
        # every path of user 0 on one direction (G_T of rank one), and L > N_T; with
        # K = 2 user 1's DODs stay distinct, so one Gram of the batch is singular
        cfg = t.SystemConfig(N_T=4, N_R=2, K=K, N_RF=K, L=L, M=3).validate()
        paths = t.draw_paths(cfg, np.random.default_rng(L))
        paths.varphi[0] = 0.3
        _assert_matches_svd(t.generate_channel(cfg, paths), 1e-10)
        # user 0's last DOD copied from, or set 1e-9 from, its first: G_T has an
        # eigenvalue at rounding level, which its square-root factor never divides by
        for offset in (0.0, 1e-9):
            paths = t.draw_paths(cfg, np.random.default_rng(L))
            paths.varphi[0, -1] = np.clip(paths.varphi[0, 0] + offset, -1.0, 1.0)
            _assert_matches_svd(t.generate_channel(cfg, paths), 1e-12)

    def test_worst_conditioned_desk_draw(self, desk_cfg):
        # the worst cond(G_T) over 300 desk draws of _trial_seed(7, 0, i): i = 104
        rng = np.random.default_rng(np.random.SeedSequence([17396115121014715433, 0]))
        ch = t.generate_channel(desk_cfg, t.draw_paths(desk_cfg, rng))
        gram = np.einsum("nkml,nkmj->kmlj", t.steering_vector(desk_cfg.N_T, ch.vartheta).conj(),
                         t.steering_vector(desk_cfg.N_T, ch.vartheta))
        assert np.linalg.cond(gram).max() > 6e6
        _assert_matches_svd(ch, 1e-13)

    def test_zero_gain_draw(self, tiny_cfg, rng):
        # s = 0 gives a zero receive vector, a zero combiner and a zero bound
        ch = t.generate_channel(tiny_cfg, t.draw_paths(tiny_cfg, rng))
        ch.gain[0] = 0
        s, x, y = ch.dominant_mode
        assert np.all(s[0] == 0) and np.all(y[0] == 0) and np.all(np.isfinite(x))
        assert np.all(t.unconstrained_combiners(ch, 1.0)[0] == 0)
        _assert_matches_svd(ch, 1e-12)


class TestSteeringKernel:
    """The table kernel a_N(x)^H a_N(y) against the dense dot product."""

    @staticmethod
    def kernel(N, x, y):
        return t.channel._kernel(N, t.channel._sines(N, np.asarray(x, dtype=float)),
                                 t.channel._sines(N, np.asarray(y, dtype=float)))

    @pytest.mark.parametrize("N", [1, 2, 7, 8, 63, 64])
    @pytest.mark.parametrize("d", [0.0, 2.0, -2.0, 2 + 1e-13, 2 - 1e-13, -2 + 1e-13,
                                   -2 - 1e-13, 0.37, 2 + 1e-9])
    def test_matches_dense_dot_product(self, N, d):
        # |d| = 2 is the grating-lobe alias a(x) = a(x - 2) at the band edge;
        # a RuntimeWarning here would be an error under the suite's filters
        x = 1.049 if d > 1 else -1.049 if d < -1 else 0.21
        y = x - d
        dense = np.vdot(t.steering_vector(N, x), t.steering_vector(N, y))
        assert self.kernel(N, [x], [y])[0] == pytest.approx(dense, abs=1e-12)

    def test_broadcasts(self):
        x = np.linspace(-1.05, 1.05, 7)[:, None]
        y = np.linspace(-1, 1, 5)
        dense = t.steering_vector(16, x[:, 0]).conj().T @ t.steering_vector(16, y)
        np.testing.assert_allclose(self.kernel(16, x, y), dense, rtol=0, atol=1e-13)


class TestPathParams:
    def test_directions_bounded(self):
        with pytest.raises(ValueError, match="sine-space"):
            t.PathParams(alpha=[[1.0]], phi=[[1.5]], varphi=[[0.0]], tau=[[0.0]])

    def test_inconsistent_shapes_rejected(self):
        with pytest.raises(ValueError, match="inconsistent PathParams shapes"):
            t.PathParams(alpha=[[1.0, 0.5]], phi=[[0.2]], varphi=[[0.0]], tau=[[0.0]])

    @pytest.mark.parametrize("field", ["alpha", "phi", "varphi", "tau"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_draw_rejected(self, field, bad):
        # |nan| > 1 is False, so a NaN direction would pass the sine-space check
        values = {"alpha": [[1.0, 0.5]], "phi": [[0.2, -0.3]], "varphi": [[0.0, 0.4]],
                  "tau": [[0.0, 1e-9]]}
        values[field][0][1] = bad
        with pytest.raises(ValueError, match=f"PathParams.{field} must be finite"):
            t.PathParams(**values)

    def test_draw_paths_properties(self, desk_cfg, rng):
        paths = t.draw_paths(desk_cfg, rng)
        assert paths.alpha.shape == (desk_cfg.K, desk_cfg.L)
        assert np.all(np.abs(paths.phi) <= 1)
        # delays run from the LoS arrival on path 0
        assert np.all(paths.tau[:, 0] == 0)
        assert np.all(paths.tau[:, 1:] >= 0)
        assert np.all(paths.tau[:, 1:] <= desk_cfg.excess_delay)


class TestArrayGain:
    def test_matched_pair_at_center(self):
        cfg = t.SystemConfig(N_T=32, M=33)       # odd M: center has eta = 1
        u = t.steering_vector(32, 0.7)
        mc = (cfg.M - 1) // 2
        assert t.array_gain(u, 0.7, mc, cfg) == pytest.approx(1.0, abs=1e-12)

    def test_peak_tracks_dilated_direction(self):
        cfg = t.SystemConfig(N_T=32, M=33, f_c=300e9, B=30e9)
        eta = t.frequency_ratios(cfg)
        u = t.steering_vector(32, 0.6)
        m = cfg.M - 1
        assert t.array_gain(u, eta[m] * 0.6, m, cfg) == pytest.approx(1.0, abs=1e-12)

    def test_known_dirichlet_value(self):
        # eta = 1.05 exactly at the top subcarrier of this grid
        cfg = t.SystemConfig(N_T=128, f_c=300e9, B=33e9, M=11)
        eta = t.frequency_ratios(cfg)
        assert eta[-1] == pytest.approx(1.05, abs=1e-12)
        u = t.steering_vector(128, 0.5)
        gain = t.array_gain(u, 0.5, cfg.M - 1, cfg)
        expected = (math.sin(128 * math.pi * 0.0125)
                    / (128 * math.sin(math.pi * 0.0125))) ** 2
        assert gain == pytest.approx(expected, abs=1e-10)
        assert expected == pytest.approx(0.0358, abs=2e-4)

    def test_matches_dirichlet_over_grid(self):
        cfg = t.SystemConfig(N_T=64, M=32)
        eta = t.frequency_ratios(cfg)
        phi, m = 0.45, 3
        u = t.steering_vector(64, phi)
        for phi_bar in np.linspace(-1, 1, 41):
            mu = cfg.d_spacing * (t.subcarrier_frequencies(cfg)[m] * phi
                                  - cfg.f_c * phi_bar) / SPEED_OF_LIGHT
            expected = t.dirichlet_sinc(mu, 64) ** 2
            assert t.array_gain(u, float(phi_bar), m, cfg) == pytest.approx(
                expected, abs=1e-10)

    def test_argmax_within_one_grid_step(self, rng):
        cfg = t.SystemConfig(N_T=64, M=32)
        eta = t.frequency_ratios(cfg)
        grid = np.linspace(-1, 1, 8 * 64 + 1)
        for _ in range(5):
            m = int(rng.integers(cfg.M))
            phi = float(rng.uniform(-1, 1)) / eta.max()
            u = t.steering_vector(64, phi)
            gains = [t.array_gain(u, float(pb), m, cfg) for pb in grid]
            best = grid[int(np.argmax(gains))]
            assert abs(best - eta[m] * phi) <= (grid[1] - grid[0]) + 1e-12

    def test_wrong_length_or_subcarrier_rejected(self, desk_cfg):
        u = t.steering_vector(desk_cfg.N_T, 0.3)
        with pytest.raises(ValueError, match=f"length-{desk_cfg.N_T} vector"):
            t.array_gain(u[:-1], 0.3, 0, desk_cfg)
        with pytest.raises(ValueError, match="subcarrier index"):
            t.array_gain(u, 0.3, desk_cfg.M, desk_cfg)

    def test_zero_vector_rejected(self, desk_cfg):
        with pytest.raises(ValueError, match="zero"):
            t.array_gain(np.zeros(desk_cfg.N_T, complex), 0.0, 0, desk_cfg)

    def test_non_constant_modulus_rejected(self, desk_cfg):
        u = np.zeros(desk_cfg.N_T, complex)
        u[0] = 1.0
        # single active element: no phase slope to dilate
        with pytest.raises(ValueError, match="not constant-modulus"):
            t.array_gain(u, 0.3, 1, desk_cfg)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, desk_cfg, bad):
        u = t.steering_vector(desk_cfg.N_T, 0.3)
        u[5] = bad
        with pytest.raises(ValueError, match="non-finite"):
            t.array_gain(u, 0.3, 1, desk_cfg)
