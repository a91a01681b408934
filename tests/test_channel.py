import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import thzbsa as t
from thzbsa.config import SPEED_OF_LIGHT


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
            assert eta[t.central_subcarrier_index(M)] == pytest.approx(1.0, abs=1e-15)

    def test_central_index_even_M(self):
        cfg = t.SystemConfig(M=32)
        eta = t.frequency_ratios(cfg)
        mc = t.central_subcarrier_index(32)
        assert abs(eta[mc] - 1) == pytest.approx(np.min(np.abs(eta - 1)), abs=1e-14)


class TestDirections:
    def test_spatial_direction(self):
        assert t.spatial_direction(0.0, 1.05) == 0.0
        assert t.spatial_direction(0.8, 1.0) == pytest.approx(0.8)
        assert t.spatial_direction(0.8, 1.049609375) == pytest.approx(0.8396875, abs=1e-12)

    def test_beam_split_deviation(self):
        assert t.beam_split_deviation(0.8, 1.05) == pytest.approx(0.04, abs=1e-15)
        assert t.beam_split_deviation(0.0, 1.3) == 0.0
        assert t.beam_split_deviation(0.5, 0.95) == pytest.approx(-0.025, abs=1e-15)

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


class TestPathGain:
    def test_free_space_value(self):
        # independent evaluation of the spreading law
        expected = SPEED_OF_LIGHT / (4 * math.pi * 300e9 * 10.0)
        assert t.path_gain(300e9, 10.0, 0.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(7.952e-6, rel=1e-3)

    def test_inverse_distance(self):
        assert t.path_gain(300e9, 20.0) == pytest.approx(t.path_gain(300e9, 10.0) / 2)

    def test_absorption_factor(self):
        base = t.path_gain(300e9, 10.0, 0.0)
        attenuated = t.path_gain(300e9, 10.0, 0.01)
        assert attenuated / base == pytest.approx(math.exp(-0.05), rel=1e-12)

    @given(st.floats(1.0, 100.0), st.floats(1.0, 100.0))
    def test_strictly_decreasing_in_distance(self, d1, d2):
        if d1 == d2:
            return
        lo, hi = sorted((d1, d2))
        assert t.path_gain(300e9, hi, 0.01) < t.path_gain(300e9, lo, 0.01)

    @given(st.floats(0.0, 0.5), st.floats(0.0, 0.5))
    def test_strictly_decreasing_in_absorption(self, k1, k2):
        lo, hi = sorted((k1, k2))
        # the exponent difference must be representable in float64
        assume((hi - lo) * 10.0 / 2.0 > 1e-12)
        assert t.path_gain(300e9, 10.0, hi) < t.path_gain(300e9, 10.0, lo)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            t.path_gain(0.0, 10.0)
        with pytest.raises(ValueError):
            t.path_gain(300e9, -1.0)


class TestDirichletSinc:
    def test_limit_at_zero(self):
        assert t.dirichlet_sinc(0.0, 64) == 1.0

    def test_first_null(self):
        assert t.dirichlet_sinc(1 / 8, 8) == pytest.approx(0.0, abs=1e-15)

    def test_off_peak_value(self):
        expected = math.sin(128 * math.pi * 0.0125) / (128 * math.sin(math.pi * 0.0125))
        assert t.dirichlet_sinc(0.0125, 128) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(-0.18925, abs=5e-5)

    def test_integer_arguments_follow_analytic_limit(self):
        for N in (2, 3, 8):
            for k in (-2, -1, 1, 2):
                assert t.dirichlet_sinc(float(k), N) == (-1.0) ** ((N - 1) * k)

    def test_never_nan_near_integers(self):
        a = np.array([0.0, 1.0, -1.0, 1e-15, 1 - 1e-15])
        assert np.all(np.isfinite(t.dirichlet_sinc(a, 32)))


def _oracle_channel_entry(cfg, paths, k, m, r, c, split_free):
    """Per-entry triple-sum evaluation with scalar arithmetic only."""
    f_m = cfg.f_c + (cfg.B / cfg.M) * (m + 1 - 1 - (cfg.M - 1) / 2)
    eta_m = f_m / cfg.f_c
    rms = SPEED_OF_LIGHT / (4 * math.pi * f_m * cfg.d_bar) * math.exp(-cfg.k_abs * cfg.d_bar / 2)
    if cfg.normalize_gain:
        rms /= SPEED_OF_LIGHT / (4 * math.pi * cfg.f_c * cfg.d_bar) * math.exp(-cfg.k_abs * cfg.d_bar / 2)
    zeta = math.sqrt(cfg.N_R * cfg.N_T / cfg.L)
    total = 0j
    for l in range(cfg.L):
        scale = 1.0 if split_free else eta_m
        a_r = cmath.exp(-1j * math.pi * r * scale * paths.phi[k, l]) / math.sqrt(cfg.N_R)
        a_t = cmath.exp(-1j * math.pi * c * scale * paths.varphi[k, l]) / math.sqrt(cfg.N_T)
        delay = cmath.exp(-2j * math.pi * paths.tau[k, l] * f_m)
        total += complex(paths.alpha[k, l]) * rms * a_r * a_t.conjugate() * delay
    return zeta * total


class TestGenerateChannel:
    def test_single_path_closed_form(self):
        cfg = t.SystemConfig(N_T=8, N_R=4, K=1, N_RF=1, L=1, M=1, B=0.0,
                             normalize_gain=True)
        paths = t.PathParams(alpha=[[1.0]], phi=[[0.3]], varphi=[[-0.5]],
                             tau=[[0.0]], is_los=[[True]])
        ch = t.generate_channel(cfg, paths)
        expected = math.sqrt(32) * np.outer(t.steering_vector(4, 0.3),
                                            t.steering_vector(8, -0.5).conj())
        np.testing.assert_allclose(ch.H[0, 0], expected, atol=1e-12)
        assert np.linalg.norm(ch.H[0, 0]) == pytest.approx(math.sqrt(32), rel=1e-12)

    def test_single_path_rank_one(self, rng):
        cfg = t.SystemConfig(N_T=16, N_R=4, K=2, N_RF=2, L=1, M=4).validate()
        ch = t.generate_channel(cfg, t.draw_paths(cfg, rng))
        for k in range(2):
            for m in range(4):
                s = np.linalg.svd(ch.H[k, m], compute_uv=False)
                assert s[1] < 1e-10 * s[0]

    def test_entrywise_brute_force_oracle(self, tiny_cfg, rng):
        paths = t.draw_paths(tiny_cfg, rng)
        for split_free in (False, True):
            ch = t.generate_channel(tiny_cfg, paths, split_free=split_free)
            for k in range(tiny_cfg.K):
                for m in range(tiny_cfg.M):
                    for r in range(0, tiny_cfg.N_R, 2):
                        for c in range(0, tiny_cfg.N_T, 5):
                            expected = _oracle_channel_entry(
                                tiny_cfg, paths, k, m, r, c, split_free)
                            assert ch.H[k, m, r, c] == pytest.approx(expected, abs=1e-12)

    def test_zero_bandwidth_equals_split_free(self, rng):
        cfg = t.SystemConfig(N_T=16, N_R=4, K=2, N_RF=2, L=3, M=8, B=0.0).validate()
        paths = t.draw_paths(cfg, rng)
        ch = t.generate_channel(cfg, paths)
        split = t.generate_channel(cfg, paths, split_free=True)
        np.testing.assert_allclose(ch.H, split.H, atol=1e-12)

    def test_dimension_mismatch_rejected(self, tiny_cfg, rng):
        other = t.SystemConfig(N_T=16, N_R=4, K=3, N_RF=3, L=3, M=4).validate()
        paths = t.draw_paths(other, rng)
        with pytest.raises(ValueError, match="dimension"):
            t.generate_channel(tiny_cfg, paths)

    def test_unnormalized_gain_scale(self, rng):
        cfg = t.SystemConfig(N_T=8, N_R=2, K=1, N_RF=1, L=1, M=1, B=0.0,
                             normalize_gain=False)
        paths = t.PathParams(alpha=[[1.0]], phi=[[0.0]], varphi=[[0.0]],
                             tau=[[0.0]], is_los=[[True]])
        ch = t.generate_channel(cfg, paths)
        rms = t.path_gain(cfg.f_c, cfg.d_bar, cfg.k_abs)
        assert np.linalg.norm(ch.H[0, 0]) == pytest.approx(4 * rms, rel=1e-12)


class TestPathParams:
    def test_exactly_one_los_required(self):
        with pytest.raises(ValueError, match="LoS"):
            t.PathParams(alpha=[[1.0, 1.0]], phi=[[0.1, 0.2]], varphi=[[0.1, 0.2]],
                         tau=[[0.0, 1e-9]], is_los=[[True, True]])

    def test_directions_bounded(self):
        with pytest.raises(ValueError, match="sine-space"):
            t.PathParams(alpha=[[1.0]], phi=[[1.5]], varphi=[[0.0]],
                         tau=[[0.0]], is_los=[[True]])

    def test_draw_paths_properties(self, desk_cfg, rng):
        paths = t.draw_paths(desk_cfg, rng)
        assert paths.alpha.shape == (desk_cfg.K, desk_cfg.L)
        assert np.all(np.abs(paths.phi) <= 1)
        assert np.all(paths.is_los[:, 0]) and not np.any(paths.is_los[:, 1:])
        los_delay = desk_cfg.d_bar / SPEED_OF_LIGHT
        assert np.allclose(paths.tau[:, 0], los_delay)
        assert np.all(paths.tau[:, 1:] >= los_delay)
        assert np.all(paths.tau[:, 1:] <= los_delay + desk_cfg.excess_delay)


class TestArrayGain:
    def test_matched_pair_at_center(self):
        cfg = t.SystemConfig(N_T=32, M=33)       # odd M: center has eta = 1
        u = t.steering_vector(32, 0.7)
        mc = t.central_subcarrier_index(cfg.M)
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

    def test_zero_vector_rejected(self, desk_cfg):
        with pytest.raises(ValueError, match="zero"):
            t.array_gain(np.zeros(desk_cfg.N_T, complex), 0.0, 0, desk_cfg)

    def test_non_constant_modulus_falls_back(self, desk_cfg):
        u = np.zeros(desk_cfg.N_T, complex)
        u[0] = 1.0
        # single active element: flat beampattern, no dilation possible
        assert t.array_gain(u, 0.3, 1, desk_cfg) == pytest.approx(1 / desk_cfg.N_T)
