import numpy as np
import pytest

import thzbsa as t
from thzbsa import bsa
from thzbsa.omp import DegenerateChannelError


def _steering_matrix(n, directions):
    return np.stack([t.steering_vector(n, d) for d in directions], axis=1)


def _random_atoms(rng, n, count, margin=0.05):
    dirs = np.sort(rng.uniform(-1 + margin, 1 - margin, count))
    while np.min(np.diff(dirs)) < 1e-3:
        dirs = np.sort(rng.uniform(-1 + margin, 1 - margin, count))
    return _steering_matrix(n, dirs), dirs


class TestSdAnalog:
    def test_identity_ratio(self):
        F = _steering_matrix(16, [-0.6, 0.1, 0.7])
        np.testing.assert_allclose(t.sd_analog(F, 1.0), F, atol=1e-14)

    def test_dilates_steering_columns(self):
        dirs = [-0.5, 0.0, 0.45]
        F = _steering_matrix(32, dirs)
        out = t.sd_analog(F, 1.049609375)
        expected = _steering_matrix(32, [1.049609375 * d for d in dirs])
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_inverse_ratio_recovers(self):
        F = _steering_matrix(24, [-0.8, -0.2, 0.3, 0.9])
        back = t.sd_analog(t.sd_analog(F, 1.05), 1 / 1.05)
        np.testing.assert_allclose(back, F, atol=1e-10)


class TestBsaBaseband:
    def test_unit_ratio_is_identity_on_normalized_input(self, rng):
        F_RF, _ = _random_atoms(rng, 16, 4)
        H_eff = rng.standard_normal((1, 4, 4)) + 1j * rng.standard_normal((1, 4, 4))
        F_BB = t.baseband_zf(H_eff, F_RF)[0]
        out = t.bsa_baseband(F_RF, F_BB, 1.0)
        np.testing.assert_allclose(out, F_BB, atol=1e-10)

    def test_full_rank_square_exact_match(self, rng):
        # N_RF = N_T: the analog beamformer is invertible and the match is exact
        F_RF, _ = _random_atoms(rng, 16, 16)
        F_BB = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        eta = 1.04
        corrected = t.bsa_baseband(F_RF, F_BB, eta, normalize=False)
        target = t.sd_analog(F_RF, eta) @ F_BB
        assert np.linalg.norm(F_RF @ corrected - target) <= 1e-8

    def test_normal_equations_oracle(self, rng):
        for trial in range(5):
            F_RF, _ = _random_atoms(rng, 12, 3)
            F_BB = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            eta = float(rng.uniform(0.95, 1.05))
            corrected = t.bsa_baseband(F_RF, F_BB, eta, normalize=False)
            gram = F_RF.conj().T @ F_RF
            rhs = F_RF.conj().T @ (t.sd_analog(F_RF, eta) @ F_BB)
            oracle = np.linalg.solve(gram, rhs)
            np.testing.assert_allclose(corrected, oracle, atol=1e-8)

    def test_least_squares_optimality(self, rng):
        F_RF, _ = _random_atoms(rng, 16, 4)
        F_BB = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        eta = 1.03
        best = t.bsa_baseband(F_RF, F_BB, eta, normalize=False)
        target = t.sd_analog(F_RF, eta) @ F_BB
        base = np.linalg.norm(F_RF @ best - target)
        for _ in range(25):
            rival = best + 1e-3 * (rng.standard_normal(best.shape)
                                   + 1j * rng.standard_normal(best.shape))
            assert np.linalg.norm(F_RF @ rival - target) >= base - 1e-12

    def test_projection_residual_orthogonal(self, rng):
        F_RF, _ = _random_atoms(rng, 16, 4)
        F_BB = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        best = t.bsa_baseband(F_RF, F_BB, 1.05, normalize=False)
        target = t.sd_analog(F_RF, 1.05) @ F_BB
        residual = F_RF @ best - target
        assert np.max(np.abs(F_RF.conj().T @ residual)) <= 1e-8

    def test_eta_continuity(self, rng):
        F_RF, _ = _random_atoms(rng, 16, 4)
        H_eff = rng.standard_normal((1, 4, 4)) + 1j * rng.standard_normal((1, 4, 4))
        F_BB = t.baseband_zf(H_eff, F_RF)[0]
        gaps = []
        for eta in (1.0, 1.001, 1.01, 1.05):
            corrected = t.bsa_baseband(F_RF, F_BB, eta)
            gaps.append(np.linalg.norm(corrected - F_BB))
        assert gaps[0] == pytest.approx(0.0, abs=1e-10)
        assert gaps == sorted(gaps)

    def test_power_after_normalization(self, rng):
        F_RF, _ = _random_atoms(rng, 16, 4)
        F_BB = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        out = t.bsa_baseband(F_RF, F_BB, 1.04)
        assert np.linalg.norm(F_RF @ out) ** 2 == pytest.approx(4.0, abs=1e-10)

    def test_duplicate_atoms_rejected(self):
        col = t.steering_vector(8, 0.3)
        F_RF = np.stack([col, col], axis=1)
        with pytest.raises(DegenerateChannelError):
            t.bsa_baseband(F_RF, np.eye(2, dtype=complex), 1.02)


class TestApplyBsa:
    def _pipeline(self, cfg, seed):
        rng = np.random.default_rng(seed)
        ch = t.generate_channel(cfg, t.draw_paths(cfg, rng))
        bf = t.omp_hybrid_beamformer(cfg, ch)
        return ch, bf

    def test_single_carrier_identity(self):
        cfg = t.SystemConfig(N_T=16, N_R=4, K=2, N_RF=2, L=2, M=1, B=0.0).validate()
        ch, bf = self._pipeline(cfg, 3)
        out = t.apply_bsa(bf, t.sd_oracle_beamformers(ch, bf))
        np.testing.assert_allclose(out.F_BB, bf.F_BB, atol=1e-10)

    def test_zero_bandwidth_identity_all_subcarriers(self):
        cfg = t.SystemConfig(N_T=16, N_R=4, K=2, N_RF=2, L=2, M=8, B=0.0).validate()
        ch, bf = self._pipeline(cfg, 4)
        out = t.apply_bsa(bf, t.sd_oracle_beamformers(ch, bf))
        np.testing.assert_allclose(out.F_BB, bf.F_BB, atol=1e-10)

    def test_statistical_gain_over_plain(self):
        # B chosen so the split deviation spans several beamwidths of a
        # 32-element array; at mild splits the correction is rate-neutral
        cfg = t.SystemConfig(N_T=32, N_R=4, K=2, N_RF=2, L=3, M=8,
                             B=70e9).validate()
        wins = 0
        ratios = []
        for seed in range(24):
            ch, bf = self._pipeline(cfg, 100 + seed)
            plain = t.sum_rate(bf, cfg.sigma_n2)
            corrected = t.sum_rate(t.apply_bsa(bf, t.sd_oracle_beamformers(ch, bf)),
                                   cfg.sigma_n2)
            ratios.append(corrected.sum_rate / plain.sum_rate)
            if corrected.sum_rate >= plain.sum_rate * (1 - 1e-9):
                wins += 1
        assert wins >= 16, f"correction won only {wins}/24 seeds"
        assert np.mean(ratios) > 1.1, f"mean ratio {np.mean(ratios):.4f}"

    def test_batched_correction_matches_per_subcarrier(self):
        cfg = t.SystemConfig(N_T=16, N_R=4, K=2, N_RF=2, L=2, M=6).validate()
        ch, bf = self._pipeline(cfg, 6)
        sd = t.sd_oracle_beamformers(ch, bf)
        out = t.apply_bsa(bf, sd)
        for m in range(cfg.M):
            expected = np.linalg.lstsq(bf.F_RF, sd.F_RF[m] @ sd.F_BB[m], rcond=None)[0]
            expected *= np.sqrt(cfg.K) / np.linalg.norm(bf.F_RF @ expected)
            np.testing.assert_allclose(out.F_BB[m], expected, atol=1e-10)
            # the per-subcarrier correction the acceptance criteria call
            np.testing.assert_allclose(out.F_BB[m], t.bsa_baseband(bf.F_RF, sd.F_BB[m], ch.eta[m]),
                                       atol=1e-10)

    def test_preserves_inputs(self):
        cfg = t.SystemConfig(N_T=16, N_R=4, K=2, N_RF=2, L=2, M=4).validate()
        ch, bf = self._pipeline(cfg, 5)
        before = bf.F_BB.copy()
        out = t.apply_bsa(bf, t.sd_oracle_beamformers(ch, bf))
        np.testing.assert_array_equal(bf.F_BB, before)
        assert not np.array_equal(out.F_BB, before)
        # only the baseband changes: the analog stage and its H_eff are kept
        assert out.F_RF is bf.F_RF and out.W_RF is bf.W_RF and out.H_eff is bf.H_eff


class TestSdOracleBeamformers:
    def test_shapes_and_power(self):
        cfg = t.SystemConfig(N_T=16, N_R=4, K=2, N_RF=2, L=2, M=4).validate()
        rng = np.random.default_rng(8)
        ch = t.generate_channel(cfg, t.draw_paths(cfg, rng))
        bf = t.omp_hybrid_beamformer(cfg, ch)
        sd = t.sd_oracle_beamformers(ch, bf)
        assert sd.F_RF.shape == (4, 16, 2)
        assert sd.H_eff.shape == (4, 2, 2)
        assert sd.F_BB.shape == (4, 2, 2)
        assert sd.W_RF is bf.W_RF
        assert t.power_constraint_residual(sd.F_RF, sd.F_BB) <= 1e-10
        np.testing.assert_allclose(np.abs(sd.F_RF), 1 / np.sqrt(16), atol=1e-9)

    def test_every_set_keeps_the_fixed_directions(self):
        # psi_t is the fixed analog stage's (N_RF,) directions for every hybrid set;
        # the SD stack is their per-subcarrier dilation, not a second direction record
        cfg = t.build_config("desk")
        ch = t.generate_channel(cfg, t.draw_paths(cfg, np.random.default_rng(8)))
        bf = t.omp_hybrid_beamformer(cfg, ch)
        sd = t.sd_oracle_beamformers(ch, bf)
        for name, one in (("omp", bf), ("bsa_omp", t.apply_bsa(bf, sd)), ("sd", sd)):
            assert one.psi_t.shape == (cfg.N_RF,), name
            np.testing.assert_array_equal(one.psi_t, bf.psi_t, err_msg=name)


    def test_only_the_single_analog_matrix_stores_its_factor(self):
        # the fixed stage stores its QR factor, which apply_bsa keeps; the SD stack is
        # its own power factor, the same array and no copy
        cfg = t.build_config("desk")
        ch = t.generate_channel(cfg, t.draw_paths(cfg, np.random.default_rng(8)))
        bf = t.omp_hybrid_beamformer(cfg, ch)
        sd = t.sd_oracle_beamformers(ch, bf)
        np.testing.assert_array_equal(bf.R_RF, np.linalg.qr(bf.F_RF, mode="r"))
        assert t.apply_bsa(bf, sd).R_RF is bf.R_RF
        assert sd.R_RF is sd.F_RF


class TestDilatedStack:
    @staticmethod
    def _case(N, B):
        # the directions take in +1 (the grid's -1 alias), broadside and the paper grid's
        # end atoms; long arrays keep six subcarriers, both band edges among them
        cfg = t.build_config("paper").replace(B=B)
        eta = t.frequency_ratios(cfg)
        if N > cfg.M:
            eta = eta[[0, 1, 63, 64, -2, -1]]
        grid = t.build_dictionaries(cfg).psi_f
        psi = np.concatenate([[1.0, 0.0], grid[[0, 1, 2, -2, -1]], [-0.63, 0.41]])
        return eta, psi

    @pytest.mark.parametrize("B", [0.0, 70e9])
    @pytest.mark.parametrize("N", [1, 2, 3, 7, 61, 64, 127, 128, 1024, 4096])
    def test_steering_stack_from_two_sub_arrays(self, N, B):
        # entry n of a_N(x) is z^n / sqrt(N), z = exp(-j pi x), from the one dilation of
        # the first two rows
        eta, psi = self._case(N, B)
        F_RF = t.steering_vector(N, psi)
        stack = bsa._dilated_stack(F_RF, eta)
        assert stack.shape == (eta.size, N, psi.size) and stack.flags.c_contiguous
        expected = np.moveaxis(t.steering_vector(N, np.multiply.outer(eta, psi)), 0, 1)
        np.testing.assert_allclose(stack, expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(stack, t.scale_analog_matrix(F_RF, eta), rtol=0, atol=2e-12)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs extended precision")
    @pytest.mark.parametrize("N", [1, 2, 3, 7, 61, 64, 127, 128, 1024, 4096])
    def test_error_grows_as_n_eps(self, N):
        # against a_N(eta psi) in extended precision, every entry within 8 N eps relative,
        # the budget of N-long exponential phases, and every modulus within 8 eps * log2(2N)
        # of 1 / sqrt(N): the powers are renormalised
        eta, psi = self._case(N, 70e9)
        stack = bsa._dilated_stack(t.steering_vector(N, psi), eta)
        ld = np.longdouble
        phase = (-ld("3.14159265358979323846264338327950288") * np.arange(N, dtype=ld)[:, None]
                 * np.multiply.outer(eta.astype(ld), psi.astype(ld))[:, None, :])
        error = np.abs(stack - (np.cos(phase) + 1j * np.sin(phase)) / np.sqrt(ld(N))) * np.sqrt(N)
        eps = np.finfo(float).eps
        assert error.max() <= 8 * N * eps
        modulus = np.abs(np.abs(stack) * np.sqrt(N) - 1.0)
        assert modulus.max() <= 8 * eps * np.log2(2 * N)

    @pytest.mark.parametrize("N", [2, 7, 64, 4096])
    def test_minus_one_reads_as_plus_one(self, N):
        # a_N(-1) = a_N(1): the unwrap reads its slope as +1, so both columns dilate to
        # a_N(eta), the grid's alias
        eta = t.frequency_ratios(t.build_config("paper").replace(B=70e9))[[0, 64, -1]]
        stack = bsa._dilated_stack(t.steering_vector(N, np.array([-1.0, 1.0])), eta)
        np.testing.assert_array_equal(stack[..., 0], stack[..., 1])
        expected = np.moveaxis(t.steering_vector(N, eta), 0, 1)
        np.testing.assert_allclose(stack[..., 1], expected, rtol=0, atol=1e-12)


class TestStoredEffectiveChannel:
    @staticmethod
    def _assert_each_set_carries_its_own(cfg, seed):
        ch = t.generate_channel(cfg, t.draw_paths(cfg, np.random.default_rng(seed)))
        bf = t.omp_hybrid_beamformer(cfg, ch)
        sd = t.sd_oracle_beamformers(ch, bf)
        for name, one in (("omp", bf), ("bsa_omp", t.apply_bsa(bf, sd)), ("sd", sd)):
            F_RF = np.broadcast_to(one.F_RF, (cfg.M,) + one.F_RF.shape[-2:])
            dense = np.einsum("rk,kmrt,mtj->mkj", one.W_RF.conj(), ch.H, F_RF)
            np.testing.assert_allclose(one.H_eff, dense, rtol=0,
                                       atol=1e-10 * np.abs(dense).max(), err_msg=name)

    def test_each_set_carries_its_own_effective_channel(self):
        # H_eff is what every hybrid rate is scored by; it must be the dense
        # W_RF^H H F_RF of the set's own matrices, so the SD stack's directions
        # eta psi_t and its rescaled matrix describe one analog stage
        self._assert_each_set_carries_its_own(t.build_config("desk"), 21)

    # paper and desk K = 16 give the worst-conditioned effective channels (these K = 16
    # draws: SD-oracle condition numbers up to 2.3e6 and 5.3e6)
    @pytest.mark.parametrize("profile,overrides,seed", [("paper", {}, 21), ("desk", {"K": 16}, 0),
                                                        ("desk", {"K": 16}, 11)])
    def test_worst_conditioned_sets_carry_their_own(self, profile, overrides, seed):
        self._assert_each_set_carries_its_own(t.build_config(profile, overrides), seed)
