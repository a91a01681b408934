import math

import numpy as np
import pytest

import thzbsa as t


def _matched_single_user(alpha=0.7, tau=2e-9, M=4):
    cfg = t.SystemConfig(N_T=16, N_R=4, K=1, N_RF=1, L=1, M=M, B=0.0).validate()
    paths = t.PathParams(alpha=[[alpha]], phi=[[0.3]], varphi=[[-0.2]],
                         tau=[[tau]], is_los=[[True]])
    ch = t.generate_channel(cfg, paths)
    F_RF = t.steering_vector(16, -0.2)[:, None]
    W_RF = t.steering_vector(4, 0.3)[:, None]
    H_eff = t.effective_channel(ch, W_RF, F_RF)
    F_BB = t.baseband_zf(H_eff, F_RF)
    bf = t.BeamformerSet(F_RF=F_RF, W_RF=W_RF, F_BB=F_BB)
    return cfg, ch, bf, paths


def _desk_pipeline(cfg, seed):
    rng = np.random.default_rng(seed)
    ch = t.generate_channel(cfg, t.draw_paths(cfg, rng))
    bf = t.omp_hybrid_beamformer(cfg, ch)
    return ch, bf


class TestSinr:
    def test_single_user_no_interference_term(self):
        cfg, ch, bf, _ = _matched_single_user()
        P, s2 = 2.0, 0.5
        gamma = t.sinr(ch, bf.W_RF, bf.F_RF, bf.F_BB[0], 0, 0, P, s2)
        coupling = bf.W_RF[:, 0].conj() @ ch.H[0, 0] @ bf.F_RF @ bf.F_BB[0][:, 0]
        assert gamma == pytest.approx(P * abs(coupling) ** 2 / s2, rel=1e-12)

    def test_doubled_noise_halves_gamma(self):
        cfg, ch, bf, _ = _matched_single_user()
        g1 = t.sinr(ch, bf.W_RF, bf.F_RF, bf.F_BB[0], 0, 0, 1.0, 1.0)
        g2 = t.sinr(ch, bf.W_RF, bf.F_RF, bf.F_BB[0], 0, 0, 1.0, 2.0)
        assert g1 / g2 == pytest.approx(2.0, rel=1e-12)

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
        report = t.sum_rate(ch, bf, "plain", cfg.P, cfg.sigma_n2, convention)
        for m in range(cfg.M):
            for k in range(cfg.K):
                gamma = t.sinr(ch, bf.W_RF, bf.F_RF, bf.F_BB[m], k, m, cfg.P,
                               cfg.sigma_n2, convention)
                assert report.per_user_rate[k, m] == pytest.approx(math.log2(1 + gamma),
                                                                   abs=1e-12)

    def test_convention_switch_changes_interference(self):
        cfg = t.SystemConfig(N_T=16, N_R=4, K=2, N_RF=2, L=2, M=2).validate()
        ch, bf = _desk_pipeline(cfg, 3)
        # perturb the baseband so leakage is nonzero
        rng = np.random.default_rng(0)
        bf.F_BB[0] += 0.2 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        phys = t.sinr(ch, bf.W_RF, bf.F_RF, bf.F_BB[0], 0, 0, 1.0, 1.0, "physical")
        printed = t.sinr(ch, bf.W_RF, bf.F_RF, bf.F_BB[0], 0, 0, 1.0, 1.0, "as_printed")
        assert phys != pytest.approx(printed, rel=1e-6)

    def test_index_validation(self):
        cfg, ch, bf, _ = _matched_single_user()
        with pytest.raises(ValueError):
            t.sinr(ch, bf.W_RF, bf.F_RF, bf.F_BB[0], 1, 0, 1.0, 1.0)
        with pytest.raises(ValueError):
            t.sinr(ch, bf.W_RF, bf.F_RF, bf.F_BB[0], 0, 99, 1.0, 1.0)


class TestSumRate:
    def test_noise_dominated_limit(self):
        cfg, ch, bf, _ = _matched_single_user()
        report = t.sum_rate(ch, bf, "plain", 1.0, 1e15)
        assert report.sum_rate == pytest.approx(0.0, abs=1e-9)

    def test_zero_precoder_zero_rate(self):
        cfg, ch, bf, _ = _matched_single_user()
        silent = t.BeamformerSet(F_RF=bf.F_RF, W_RF=bf.W_RF,
                                 F_BB=np.zeros_like(bf.F_BB))
        report = t.sum_rate(ch, silent, "plain", 1.0, 1.0)
        assert report.sum_rate == 0.0

    def test_matched_single_user_closed_form(self):
        alpha, M = 0.7, 4
        cfg, ch, bf, paths = _matched_single_user(alpha=alpha, M=M)
        P = 1.3
        report = t.sum_rate(ch, bf, "plain", P, 1.0)
        zeta2 = 16 * 4 / 1
        # unit normalization scalar: |f_bb| = 1 after the power convention
        expected = M * math.log2(1 + P * zeta2 * alpha**2)
        assert report.sum_rate == pytest.approx(expected, rel=1e-10)

    def test_reconciles_with_per_user_matrix(self):
        cfg = t.SystemConfig().validate()
        ch, bf = _desk_pipeline(cfg, 11)
        report = t.sum_rate(ch, bf, "plain", 1.0, 1.0)
        assert report.sum_rate == pytest.approx(report.per_user_rate.sum(), abs=1e-9)
        assert report.per_user_rate.shape == (cfg.K, cfg.M)
        assert np.all(report.per_user_rate >= 0)

    def test_monotone_in_power(self):
        cfg = t.SystemConfig(N_T=16, N_R=4, K=2, N_RF=2, L=2, M=4).validate()
        ch, bf = _desk_pipeline(cfg, 5)
        rates = [t.sum_rate(ch, bf, "plain", P, 1.0).sum_rate for P in (0.1, 1.0, 10.0)]
        assert rates == sorted(rates)

    def test_bsa_equals_plain_when_eta_unity(self):
        cfg = t.SystemConfig(B=0.0).validate()
        ch, bf = _desk_pipeline(cfg, 13)
        bf = t.apply_bsa(ch, bf)
        plain = t.sum_rate(ch, bf, "plain", 1.0, 1.0)
        bsa = t.sum_rate(ch, bf, "bsa", 1.0, 1.0)
        assert bsa.sum_rate == pytest.approx(plain.sum_rate, abs=1e-10)

    def test_method_tags(self):
        cfg, ch, bf, _ = _matched_single_user()
        assert t.sum_rate(ch, bf, "plain", 1, 1).method_tag == "omp"
        bf2 = t.apply_bsa(ch, bf)
        assert t.sum_rate(ch, bf2, "bsa", 1, 1).method_tag == "bsa_omp"
        with pytest.raises(ValueError):
            t.sum_rate(ch, bf, "bsa", 1, 1)


class TestFullyDigital:
    def test_rank_one_closed_form(self):
        alpha = 0.45
        cfg, ch, bf, _ = _matched_single_user(alpha=alpha, M=2)
        P, s2 = 2.0, 0.7
        report = t.fully_digital_yardstick(ch, P, s2)
        expected = 2 * math.log2(1 + (P / 1) * (16 * 4) * alpha**2 / s2)
        assert report.sum_rate == pytest.approx(expected, rel=1e-10)
        assert report.method_tag == "fully_digital"
        assert report.power_residual == 0.0

    def test_zero_channel(self):
        ch = t.ChannelSet(H=np.zeros((2, 3, 4, 8), complex),
                          freqs=np.full(3, 300e9), eta=np.ones(3))
        assert t.fully_digital_yardstick(ch, 1.0, 1.0).sum_rate == 0.0

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
