import math

import numpy as np
import pytest

import thzbsa as t
from thzbsa.omp import unit_power


def _matched_single_user(alpha=0.7, tau=2e-9, M=4):
    cfg = t.SystemConfig(N_T=16, N_R=4, K=1, N_RF=1, L=1, M=M, B=0.0).validate()
    paths = t.PathParams(alpha=[[alpha]], phi=[[0.3]], varphi=[[-0.2]],
                         tau=[[tau]])
    ch = t.generate_channel(cfg, paths)
    F_RF = t.steering_vector(16, -0.2)[:, None]
    W_RF = t.steering_vector(4, 0.3)[:, None]
    psi_t, psi_r = np.array([-0.2]), np.array([0.3])
    H_eff = t.effective_channel(ch, psi_r, psi_t)
    F_BB = unit_power(F_RF, t.baseband_zf(H_eff))
    bf = t.BeamformerSet(F_RF=F_RF, W_RF=W_RF, H_eff=H_eff, F_BB=F_BB, psi_t=psi_t, psi_r=psi_r,
                         R_RF=F_RF)
    return cfg, ch, bf, paths


def _desk_pipeline(cfg, seed):
    rng = np.random.default_rng(seed)
    ch = t.generate_channel(cfg, t.draw_paths(cfg, rng))
    bf = t.omp_hybrid_beamformer(cfg, ch)
    return ch, bf


def _gamma(report):
    """Per-user, per-subcarrier SINR read back from a report's rates."""
    return 2.0 ** report.per_user_rate - 1.0


def _sinr_oracle(ch, bf, s2, convention):
    """gamma[k, m] summed term by term from w_k^H H_k[m] F_RF f_i."""
    K, M = ch.H.shape[:2]
    gamma = np.empty((K, M))
    for m in range(M):
        F = bf.F_RF @ bf.F_BB[m]
        T = np.array([[bf.W_RF[:, k].conj() @ ch.H[k, m] @ F[:, i] for i in range(K)]
                      for k in range(K)])
        for k in range(K):
            others = [i for i in range(K) if i != k]
            if convention == "physical":
                interference = sum(abs(T[k, i]) ** 2 for i in others)
            else:
                interference = sum(abs(T[i, i]) ** 2 for i in others)
            gamma[k, m] = (1 / K) * abs(T[k, k]) ** 2 / ((1 / K) * interference + s2)
    return gamma


class TestSinr:
    def test_unknown_convention_rejected(self):
        _, _, bf, _ = _matched_single_user()
        with pytest.raises(ValueError, match="unknown sinr convention"):
            t.sum_rate(bf, 0.25, "mystery")

    def test_single_user_no_interference_term(self):
        cfg, ch, bf, _ = _matched_single_user()
        s2 = 0.25
        gamma = _gamma(t.sum_rate(bf, s2))[0, 0]
        coupling = bf.W_RF[:, 0].conj() @ ch.H[0, 0] @ bf.F_RF @ bf.F_BB[0][:, 0]
        assert gamma == pytest.approx(abs(coupling) ** 2 / s2, rel=1e-12)

    def test_doubled_noise_halves_gamma(self):
        cfg, ch, bf, _ = _matched_single_user()
        g1 = _gamma(t.sum_rate(bf, 1.0))
        g2 = _gamma(t.sum_rate(bf, 2.0))
        np.testing.assert_allclose(g1 / g2, 2.0, rtol=1e-12)

    def test_zero_forcing_interference_free(self):
        cfg = t.SystemConfig(B=0.0).validate()
        ch, bf = _desk_pipeline(cfg, 7)
        for m in (0, cfg.M // 2, cfg.M - 1):
            T = np.einsum("rk,krt,ti->ki", bf.W_RF.conj(), ch.H[:, m],
                          bf.F_RF @ bf.F_BB[m])
            desired = np.abs(np.diag(T)) ** 2
            off = np.abs(T) ** 2 - np.diag(desired)
            assert np.max(off.sum(axis=1) / desired) <= 1e-12

    @pytest.mark.parametrize("convention", ["physical", "as_printed"])
    def test_sum_rate_entries_match_sinr(self, convention):
        cfg = t.SystemConfig().validate()
        ch, bf = _desk_pipeline(cfg, 5)
        # perturb the baseband so the interference terms are nonzero
        rng = np.random.default_rng(1)
        bf.F_BB += 0.2 * (rng.standard_normal(bf.F_BB.shape)
                          + 1j * rng.standard_normal(bf.F_BB.shape))
        T = np.einsum("rk,kmrt,mti->mki", bf.W_RF.conj(), ch.H, bf.F_RF @ bf.F_BB)
        leakage = (np.abs(T) ** 2 * (1 - np.eye(cfg.K))).sum(axis=2)
        assert np.all(leakage > 1e-6 * np.abs(np.einsum("mkk->mk", T)) ** 2)
        report = t.sum_rate(bf, cfg.sigma_n2, convention)
        gamma = _sinr_oracle(ch, bf, cfg.sigma_n2, convention)
        np.testing.assert_allclose(report.per_user_rate, np.log2(1 + gamma), rtol=0, atol=1e-12)

    def test_convention_switch_changes_interference(self):
        cfg = t.SystemConfig(N_T=16, N_R=4, K=2, N_RF=2, L=2, M=2).validate()
        ch, bf = _desk_pipeline(cfg, 3)
        # perturb the baseband so leakage is nonzero
        rng = np.random.default_rng(0)
        bf.F_BB[0] += 0.2 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        phys = _gamma(t.sum_rate(bf, 1.0, "physical"))[0, 0]
        printed = _gamma(t.sum_rate(bf, 1.0, "as_printed"))[0, 0]
        assert phys != pytest.approx(printed, rel=1e-6)


class TestSumRate:
    def test_noise_dominated_limit(self):
        cfg, ch, bf, _ = _matched_single_user()
        report = t.sum_rate(bf, 1e15)
        assert report.sum_rate == pytest.approx(0.0, abs=1e-9)

    def test_zero_precoder_zero_rate(self):
        cfg, ch, bf, _ = _matched_single_user()
        silent = t.BeamformerSet(F_RF=bf.F_RF, W_RF=bf.W_RF, H_eff=bf.H_eff,
                                 F_BB=np.zeros_like(bf.F_BB), psi_t=bf.psi_t, psi_r=bf.psi_r,
                                 R_RF=bf.R_RF)
        report = t.sum_rate(silent, 1.0)
        assert report.sum_rate == 0.0

    def test_matched_single_user_closed_form(self):
        alpha, M = 0.7, 4
        cfg, ch, bf, paths = _matched_single_user(alpha=alpha, M=M)
        sigma_n2 = 1 / 1.3
        report = t.sum_rate(bf, sigma_n2)
        zeta2 = 16 * 4 / 1
        # unit normalization scalar: |f_bb| = 1 after the power convention
        expected = M * math.log2(1 + zeta2 * alpha**2 / sigma_n2)
        assert report.sum_rate == pytest.approx(expected, rel=1e-10)

    def test_reconciles_with_per_user_matrix(self):
        cfg = t.SystemConfig().validate()
        ch, bf = _desk_pipeline(cfg, 11)
        report = t.sum_rate(bf, 1.0)
        assert report.sum_rate == pytest.approx(report.per_user_rate.sum(), abs=1e-9)
        assert report.per_user_rate.shape == (cfg.K, cfg.M)
        assert np.all(report.per_user_rate >= 0)

    def test_monotone_in_power(self):
        cfg = t.SystemConfig(N_T=16, N_R=4, K=2, N_RF=2, L=2, M=4).validate()
        ch, bf = _desk_pipeline(cfg, 5)
        # transmit power relative to the noise: SNR = 1 / sigma_n2
        rates = [t.sum_rate(bf, sigma_n2).sum_rate for sigma_n2 in (10.0, 1.0, 0.1)]
        assert rates == sorted(rates)

    def test_bsa_equals_plain_when_eta_unity(self):
        cfg = t.SystemConfig(B=0.0).validate()
        ch, bf = _desk_pipeline(cfg, 13)
        plain = t.sum_rate(bf, 1.0)
        bsa = t.sum_rate(t.apply_bsa(bf, t.sd_oracle_beamformers(ch, bf)), 1.0)
        assert bsa.sum_rate == pytest.approx(plain.sum_rate, abs=1e-10)


class TestFullyDigital:
    def test_rank_one_closed_form(self):
        alpha = 0.45
        cfg, ch, bf, _ = _matched_single_user(alpha=alpha, M=2)
        s2 = 0.35
        report = t.fully_digital_yardstick(ch, s2)
        expected = 2 * math.log2(1 + (16 * 4) * alpha**2 / s2)
        assert report.sum_rate == pytest.approx(expected, rel=1e-10)
        assert report.power_residual == 0.0

    def test_zero_channel(self):
        zeros = np.zeros((2, 3, 3))
        ch = t.ChannelSet(theta=zeros, vartheta=zeros, gain=zeros.astype(complex),
                          eta=np.ones(3), N_R=4, N_T=8)
        assert t.fully_digital_yardstick(ch, 1.0).sum_rate == 0.0

    def test_values_only_svd_oracle(self, desk_cfg):
        ch = t.generate_channel(desk_cfg, t.draw_paths(desk_cfg, np.random.default_rng(19)))
        s2 = 0.05
        s_max = np.linalg.svd(ch.H, compute_uv=False)[..., 0]
        expected = np.log2(1.0 + (1 / desk_cfg.K) * s_max**2 / s2)
        report = t.fully_digital_yardstick(ch, s2)
        np.testing.assert_allclose(report.per_user_rate, expected, rtol=1e-12, atol=0)
        assert report.sum_rate == pytest.approx(expected.sum(), rel=1e-12)

    def test_dominates_hybrid_methods(self):
        cfg = t.SystemConfig().validate()
        for seed in range(5):
            res = t.run_trial(cfg, 400 + seed)
            fd = res.reports["fully_digital"].sum_rate
            for method in ("omp", "bsa_omp", "sd_oracle"):
                assert fd >= res.reports[method].sum_rate


class TestPowerResidual:
    def test_pipeline_output_within_tolerance(self):
        cfg = t.SystemConfig().validate()
        ch, bf = _desk_pipeline(cfg, 17)
        assert t.power_constraint_residual(bf.F_RF, bf.F_BB) <= 1e-10

    def test_doubling_gives_residual_three(self):
        cfg, ch, bf, _ = _matched_single_user()
        assert t.power_constraint_residual(bf.F_RF, 2 * bf.F_BB) == pytest.approx(3.0, rel=1e-9)

    def test_hand_built_case(self):
        F_RF = np.array([[1.0]], dtype=complex)
        F_BB = np.ones((3, 1, 1), dtype=complex)
        assert t.power_constraint_residual(F_RF, F_BB) == 0.0
