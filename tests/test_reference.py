"""A whole trial the naive way: dense channels, explicit dilated dictionaries, matrix
products and generic solvers, against run_trial's closed forms."""

import numpy as np
import pytest

import thzbsa as t
from thzbsa.harness import _trial_seed, run_trial

SEEDS = [_trial_seed(22, 0, i) for i in range(20)]


def _dense_couplings(cfg, trial_seed):
    """Each hybrid method's (M, K, K) coupling and every channel's largest singular
    value, for the first draw SeedSequence([trial_seed, 0])."""
    rng = np.random.default_rng(np.random.SeedSequence([trial_seed, 0]))
    ch = t.generate_channel(cfg, t.draw_paths(cfg, rng))
    H = ch.H                                                     # (K, M, N_R, N_T)
    u, s, vh = np.linalg.svd(H)
    f = vh[..., 0, :].conj()                                     # (K, M, N_T)
    w = (s[..., :1] / (s[..., :1] ** 2 + cfg.sigma_n2)) * u[..., 0]
    d = t.build_dictionaries(cfg)
    atoms_f = t.steering_vector(cfg.N_T, np.multiply.outer(ch.eta, d.psi_f))   # (N_T, M, P)
    atoms_w = t.steering_vector(cfg.N_R, np.multiply.outer(ch.eta, d.psi_w))   # (N_R, M, Q)
    p_star, q_star = [], []
    for k in range(cfg.K):
        corr_f = np.abs(np.einsum("nmp,mn->mp", atoms_f.conj(), f[k]))
        corr_w = np.abs(np.einsum("nmq,mn->mq", atoms_w.conj(), w[k]))
        objective = corr_f.T @ corr_w
        objective[p_star, :] = -np.inf                          # no transmit atom twice
        p, q = divmod(int(np.argmax(objective)), objective.shape[1])   # first = smallest
        p_star.append(p)
        q_star.append(q)
    psi_t = d.psi_f[p_star]
    F_RF = t.steering_vector(cfg.N_T, psi_t)
    W_RF = t.steering_vector(cfg.N_R, d.psi_w[q_star])
    F_bar = np.moveaxis(t.steering_vector(cfg.N_T, np.multiply.outer(ch.eta, psi_t)), 0, 1)

    def h_eff(F):                                                # row k: w_k^H H_k[m] F[m]
        return np.einsum("rk,kmrt,mti->mki", W_RF.conj(), H, np.broadcast_to(F, F_bar.shape))

    def unit(F, B):                                              # ||F B[m]||_F^2 = K
        return B * np.sqrt(cfg.K / np.linalg.norm(F @ B, axis=(-2, -1)) ** 2)[:, None, None]

    H_omp, H_sd = h_eff(F_RF), h_eff(F_bar)
    B_omp = unit(F_RF, np.linalg.pinv(H_omp))
    B_sd = unit(F_bar, np.linalg.pinv(H_sd))
    B_bsa = unit(F_RF, np.stack([np.linalg.lstsq(F_RF, F_bar[m] @ B_sd[m], rcond=None)[0]
                                 for m in range(cfg.M)]))
    return {"omp": H_omp @ B_omp, "bsa_omp": H_omp @ B_bsa, "sd_oracle": H_sd @ B_sd}, s[..., 0]


def _dense_sum_rate(T, cfg, convention):
    power = np.abs(T) ** 2 / cfg.K
    desired = np.einsum("mkk->mk", power)
    if convention == "physical":
        interference = power.sum(axis=2) - desired
    else:
        interference = desired.sum(axis=1, keepdims=True) - desired
    return np.log2(1.0 + desired / (interference + cfg.sigma_n2)).sum()


@pytest.mark.parametrize("seed", SEEDS)
def test_trial_matches_dense_reference(desk_cfg, seed):
    couplings, s_max = _dense_couplings(desk_cfg, seed)
    # the fully digital bound is interference-free under either convention
    bound = np.log2(1.0 + s_max**2 / (desk_cfg.K * desk_cfg.sigma_n2)).sum()
    for convention in ("physical", "as_printed"):
        cfg = desk_cfg.replace(sinr_convention=convention)
        result = run_trial(cfg, seed)
        assert result.redraws == 0, "the reference models the first draw only"
        assert result.reports["fully_digital"].sum_rate == pytest.approx(bound, rel=1e-9)
        for method, T in couplings.items():
            want = _dense_sum_rate(T, cfg, convention)
            assert result.reports[method].sum_rate == pytest.approx(want, rel=1e-9), method
