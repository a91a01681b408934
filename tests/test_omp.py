import dataclasses
import tracemalloc

import numpy as np
import pytest

import thzbsa as t
from thzbsa import bsa, channel, harness, omp
from thzbsa.harness import HYBRID_METHODS, _trial_seed, run_trial
from thzbsa.omp import DegenerateChannelError, sd_dictionary, unit_power


def _random_channelset(cfg, seed):
    rng = np.random.default_rng(seed)
    return t.generate_channel(cfg, t.draw_paths(cfg, rng))


def _dense(N, directions, coords):
    """(M, N, K) stack of the vectors sum_l coords_l a_N(directions_l) of each user."""
    return np.einsum("klm,nklm->mnk", coords, t.steering_vector(N, directions))


def _effective_channel(ch, psi_r, psi_t):
    """The effective channel between receive beams ``psi_r`` and transmit beams ``psi_t``."""
    return t.effective_channel(ch, omp._receive_coupling(ch, psi_r), psi_t)


def _dense_designs(ch, sigma_n2):
    """The unconstrained precoders and combiners as dense (M, N, K) stacks."""
    return (_dense(ch.N_T, ch.vartheta, t.unconstrained_precoders(ch)),
            _dense(ch.N_R, ch.theta, t.unconstrained_combiners(ch, sigma_n2)))


class TestBuildDictionaries:
    def test_endpoint_grid(self):
        cfg = t.SystemConfig(N_T=8, N_R=4, K=1, N_RF=1, N_F=3, N_W=3)
        d = t.build_dictionaries(cfg)
        # the grid [-1, 0, 1], its -1 end read as the same beam a(+1)
        np.testing.assert_array_equal(d.psi_f, [1.0, 0.0, 1.0])
        for j, phi in enumerate([-1.0, 0.0, 1.0]):
            np.testing.assert_allclose(d.D_F[:, j], t.steering_vector(8, phi), atol=1e-14)

    def test_sd_dictionary_identity_at_center(self):
        cfg = t.SystemConfig(N_T=8, N_R=4, K=2, N_RF=2)
        d = t.build_dictionaries(cfg)
        np.testing.assert_allclose(sd_dictionary(d.D_F, 1.0), d.D_F, atol=1e-14)

    def test_sd_columns_are_dilated_steering(self):
        # every atom of the real grids, edges included, dilates to the steering vector at eta psi
        for profile in ("desk", "paper"):
            cfg = t.build_config(profile)
            d = t.build_dictionaries(cfg)
            eta = np.append(t.frequency_ratios(cfg)[[0, -1]], 1.03)
            for N, D, psi in ((cfg.N_T, d.D_F, d.psi_f), (cfg.N_R, d.D_W, d.psi_w)):
                expected = np.moveaxis(t.steering_vector(N, np.multiply.outer(eta, psi)), 0, 1)
                np.testing.assert_allclose(sd_dictionary(D, eta), expected, rtol=0, atol=1e-12)

    def test_unit_norm_columns(self, desk_cfg):
        d = t.build_dictionaries(desk_cfg)
        np.testing.assert_allclose(np.linalg.norm(d.D_F, axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(d.D_W, axis=0), 1.0, atol=1e-12)


class TestUnconstrainedPrecoders:
    def test_rank_one_recovers_transmit_steering(self):
        cfg = t.SystemConfig(N_T=16, N_R=4, K=1, N_RF=1, L=1, M=1, B=0.0)
        paths = t.PathParams(alpha=[[1.0]], phi=[[0.2]], varphi=[[-0.35]],
                             tau=[[0.0]])
        ch = t.generate_channel(cfg, paths)
        f = _dense_designs(ch, cfg.sigma_n2)[0][0, :, 0]
        target = t.steering_vector(16, -0.35)
        # equal up to the deterministic phase convention
        alignment = abs(np.vdot(target, f))
        assert alignment == pytest.approx(1.0, abs=1e-10)
        first = f[np.argmax(np.abs(f) > 1e-12)]
        assert first.imag == pytest.approx(0.0, abs=1e-12)
        assert first.real > 0

    def test_unit_norm_columns(self, tiny_cfg):
        ch = _random_channelset(tiny_cfg, 5)
        F_opt = _dense_designs(ch, tiny_cfg.sigma_n2)[0]
        np.testing.assert_allclose(np.linalg.norm(F_opt, axis=1), 1.0, atol=1e-12)

    def test_dominant_eigen_oracle(self):
        # more paths than receive antennas: H is a generic full-rank 4 x 8 matrix
        cfg = t.SystemConfig(N_T=8, N_R=4, K=1, N_RF=1, L=6, M=1).validate()
        ch = _random_channelset(cfg, 7)
        H = ch.H[0, 0]
        f = _dense_designs(ch, cfg.sigma_n2)[0][0, :, 0]
        # independent oracle: eigendecomposition of the Gram matrix
        evals = np.linalg.eigvalsh(H.conj().T @ H)
        quad = np.real(np.vdot(f, H.conj().T @ H @ f))
        assert quad == pytest.approx(evals[-1], rel=1e-10)

    def test_deterministic_across_calls(self, tiny_cfg):
        ch = _random_channelset(tiny_cfg, 11)
        a = t.unconstrained_precoders(ch)
        b = t.unconstrained_precoders(ch)
        np.testing.assert_array_equal(a, b)


class TestUnconstrainedCombiners:
    def test_collinear_with_matched_filter(self, tiny_cfg):
        ch = _random_channelset(tiny_cfg, 3)
        F_opt, W_opt = _dense_designs(ch, sigma_n2=0.5)
        for k in range(tiny_cfg.K):
            for m in range(tiny_cfg.M):
                w = W_opt[m, :, k]
                hf = ch.H[k, m] @ F_opt[m, :, k]
                cosine = abs(np.vdot(w, hf)) / (np.linalg.norm(w) * np.linalg.norm(hf))
                assert cosine == pytest.approx(1.0, abs=1e-10)

    def test_noise_dominated_limit(self, tiny_cfg):
        ch = _random_channelset(tiny_cfg, 3)
        small = t.unconstrained_combiners(ch, sigma_n2=1e12)
        assert np.max(np.abs(small)) < 1e-9

    def test_rank_one_scalar_closed_form(self):
        cfg = t.SystemConfig(N_T=8, N_R=4, K=1, N_RF=1, L=1, M=1, B=0.0)
        paths = t.PathParams(alpha=[[0.5]], phi=[[0.2]], varphi=[[0.1]],
                             tau=[[0.0]])
        ch = t.generate_channel(cfg, paths)
        sigma_n2 = 0.15
        F_opt, W_opt = _dense_designs(ch, sigma_n2)
        g = np.linalg.norm(ch.H[0, 0] @ F_opt[0, :, 0])
        expected_norm = g / (g**2 + sigma_n2)
        assert np.linalg.norm(W_opt[0, :, 0]) == pytest.approx(expected_norm, rel=1e-12)


def _kron_objective(F_opt, W_opt, dictionary, eta, k):
    """Explicit Kronecker evaluation of the selection objective for user k."""
    M = F_opt.shape[0]
    N_F = dictionary.D_F.shape[1]
    N_W = dictionary.D_W.shape[1]
    obj = np.zeros((N_F, N_W))
    for m in range(M):
        DF_m = sd_dictionary(dictionary.D_F, eta[m])
        DW_m = sd_dictionary(dictionary.D_W, eta[m])
        g = np.kron(F_opt[m, :, k].conj(), W_opt[m, :, k])
        for p in range(N_F):
            for q in range(N_W):
                d = np.kron(DF_m[:, p].conj(), DW_m[:, q])
                obj[p, q] += abs(np.vdot(d, g))
    return obj


class TestOmpSelect:
    def test_single_user_los_hits_grid_atom(self):
        cfg = t.SystemConfig(N_T=32, N_R=4, K=1, N_RF=1, L=1, M=4,
                             N_F=65, N_W=17).validate()
        d = t.build_dictionaries(cfg)
        p0, q0 = 40, 11
        paths = t.PathParams(alpha=[[1.0]], phi=[[d.psi_w[q0]]],
                             varphi=[[d.psi_f[p0]]], tau=[[0.0]])
        ch = t.generate_channel(cfg, paths)
        x = t.unconstrained_precoders(ch)
        y = t.unconstrained_combiners(ch, cfg.sigma_n2)
        p_star, q_star = t.omp_select(ch, x, y, d)
        F_opt, W_opt = _dense_designs(ch, cfg.sigma_n2)
        assert (p_star.tolist(), q_star.tolist()) == ([p0], [q0])
        oracle = _kron_objective(F_opt, W_opt, d, ch.eta, 0)
        assert np.unravel_index(np.argmax(oracle), oracle.shape) == (p0, q0)

    def test_separable_equals_kronecker(self):
        cfg = t.SystemConfig(N_T=8, N_R=4, K=2, N_RF=2, L=2, M=3,
                             N_F=9, N_W=5).validate()
        d = t.build_dictionaries(cfg)
        rng = np.random.default_rng(17)
        F_opt = rng.standard_normal((3, 8, 2)) + 1j * rng.standard_normal((3, 8, 2))
        W_opt = rng.standard_normal((3, 4, 2)) + 1j * rng.standard_normal((3, 4, 2))
        eta = np.array([0.95, 1.0, 1.05])
        for k in range(2):
            separable = np.zeros((9, 5))
            for m in range(3):
                cf = np.abs(sd_dictionary(d.D_F, eta[m]).conj().T @ F_opt[m, :, k])
                cw = np.abs(sd_dictionary(d.D_W, eta[m]).conj().T @ W_opt[m, :, k])
                separable += np.outer(cf, cw)
            oracle = _kron_objective(F_opt, W_opt, d, eta, k)
            np.testing.assert_allclose(separable, oracle, atol=1e-12)

    def test_narrowband_reduces_to_plain_omp(self):
        cfg = t.SystemConfig(N_T=16, N_R=4, K=2, N_RF=2, L=2, M=1, B=0.0).validate()
        ch = _random_channelset(cfg, 23)
        assert np.allclose(ch.eta, 1.0)
        d = t.build_dictionaries(cfg)
        x = t.unconstrained_precoders(ch)
        y = t.unconstrained_combiners(ch, cfg.sigma_n2)
        p_star, q_star = t.omp_select(ch, x, y, d)
        F_opt, W_opt = _dense_designs(ch, cfg.sigma_n2)
        # classic narrowband selection: plain dictionaries, same objective
        taken = []
        for k in range(cfg.K):
            cf = np.abs(d.D_F.conj().T @ F_opt[0, :, k])
            cw = np.abs(d.D_W.conj().T @ W_opt[0, :, k])
            obj = np.outer(cf, cw)
            obj[taken, :] = -np.inf
            p, q = np.unravel_index(np.argmax(obj), obj.shape)
            taken.append(p)
            assert (p_star[k], q_star[k]) == (p, q)

    def test_transmit_atom_not_reused(self):
        cfg = t.SystemConfig(N_T=16, N_R=4, K=2, N_RF=2, L=1, M=2, N_F=33).validate()
        d = t.build_dictionaries(cfg)
        # two users sharing the same dominant direction
        paths = t.PathParams(
            alpha=[[1.0], [1.0]],
            phi=[[d.psi_w[3]], [d.psi_w[3]]],
            varphi=[[d.psi_f[10]], [d.psi_f[10]]],
            tau=[[0.0], [0.0]],
        )
        ch = t.generate_channel(cfg, paths)
        x = t.unconstrained_precoders(ch)
        y = t.unconstrained_combiners(ch, cfg.sigma_n2)
        p_star, _ = t.omp_select(ch, x, y, d)
        assert p_star[0] == 10
        assert p_star[1] != 10

    def test_constant_modulus_outputs(self, desk_cfg):
        ch = _random_channelset(desk_cfg, 2)
        bf = t.omp_hybrid_beamformer(desk_cfg, ch)
        np.testing.assert_allclose(np.abs(bf.F_RF), 1 / np.sqrt(desk_cfg.N_T), atol=1e-9)
        np.testing.assert_allclose(np.abs(bf.W_RF), 1 / np.sqrt(desk_cfg.N_R), atol=1e-9)

    def test_too_many_users_rejected(self):
        # each user needs its own transmit atom; receive atoms may repeat
        ch = _random_channelset(t.SystemConfig(N_T=8, N_R=4, K=6, N_RF=6, M=1), 3)
        x = np.zeros((6, 3, 1), complex)
        d = t.build_dictionaries(t.SystemConfig(N_T=8, N_R=4, K=2, N_RF=2, N_F=9, N_W=5))
        assert len(set(t.omp_select(ch, x, x, d)[0])) == 6
        d = t.build_dictionaries(t.SystemConfig(N_T=8, N_R=4, K=2, N_RF=2, N_F=5, N_W=9))
        with pytest.raises(ValueError, match="K <= N_F"):
            t.omp_select(ch, x, x, d)

    def test_paths_off_their_dilation_rejected(self):
        # the band-edge bound holds only for transmit paths eta_m times fixed directions;
        # perturbed ones made about a third of such draws select other atoms than an
        # exhaustive search does, so they are refused
        cfg = t.build_config("desk", {"B": 70e9})
        d = t.build_dictionaries(cfg)
        for seed in range(10):
            ch = _random_channelset(cfg, seed)
            noise = np.random.default_rng(100 + seed).uniform(-0.05, 0.05, ch.vartheta.shape)
            ch = dataclasses.replace(ch, vartheta=ch.vartheta + noise)
            x = t.unconstrained_precoders(ch)
            y = t.unconstrained_combiners(ch, cfg.sigma_n2)
            with pytest.raises(ValueError, match="eta_m times fixed directions"):
                t.omp_select(ch, x, y, d)

    @pytest.mark.parametrize("overrides", [{"B": 0.0}, {"B": 70e9}, {"B": 599e9}, {"M": 1},
                                           {"K": 16}, {"N_T": 127}])
    def test_generated_paths_pass_the_dilation_check(self, overrides):
        cfg = t.build_config("desk", overrides)
        d = t.build_dictionaries(cfg)
        for seed in range(20):
            ch = _random_channelset(cfg, seed)
            x = t.unconstrained_precoders(ch)
            t.omp_select(ch, x, t.unconstrained_combiners(ch, cfg.sigma_n2), d)


def _side_correlations(N, psi, paths, coords, eta):
    """One side's correlations for every atom of the grid ``psi``, (..., P, M)."""
    table = omp._atom_sines(N, psi.tobytes(), eta.tobytes())
    return omp._correlations(N, table, paths, omp._path_weights(N, paths, coords))


class TestPathWeights:
    @pytest.mark.parametrize("profile", ["desk", "paper"])
    def test_one_complex_weight_per_path(self, profile):
        # coords_l exp(-j pi (N-1) x_l / 2) / N, shaped as coords; the table's phase rows
        # and np.exp each round an argument as large as pi (N-1) / 2, so they differ by
        # about N eps
        cfg = t.build_config(profile)
        for seed in range(3):
            ch = _random_channelset(cfg, seed)
            x = t.unconstrained_precoders(ch)
            y = t.unconstrained_combiners(ch, cfg.sigma_n2)
            for N, paths, coords in ((ch.N_T, ch.vartheta_sines, x), (ch.N_R, ch.theta_sines, y)):
                weights = omp._path_weights(N, paths, coords)
                assert weights.dtype == complex and weights.shape == coords.shape
                oracle = coords * np.exp(-1j * np.pi * (N - 1) * paths[0] / 2) / N
                error = np.abs(weights - oracle) / np.abs(oracle)
                assert error.max() <= 4 * N * np.finfo(float).eps


def _exhaustive_select(ch, x, y, d):
    """omp_select by exhaustive search: every atom of both sides, user by user, as (p*, q*)."""
    p_star, q_star = [], []
    for k in range(x.shape[0]):
        corr_f = _side_correlations(ch.N_T, d.psi_f, ch.vartheta_sines[:, k], x[k], ch.eta)
        corr_w = _side_correlations(ch.N_R, d.psi_w, ch.theta_sines[:, k], y[k], ch.eta)
        objective = omp._objective(corr_f, corr_w)
        objective[p_star, :] = -np.inf
        p, q = divmod(int(np.argmax(objective)), objective.shape[1])
        p_star.append(p)
        q_star.append(q)
    return p_star, q_star


def _selections(cfg, seeds, N_T=None):
    """(bounded selection, exhaustive selection) on each seeded draw; ``N_T`` re-reads
    the drawn paths with another transmit array."""
    d = t.build_dictionaries(cfg)
    for seed in seeds:
        ch = t.generate_channel(cfg, t.draw_paths(cfg, np.random.default_rng(seed)))
        if N_T is not None:
            ch = dataclasses.replace(ch, N_T=N_T)
        x = t.unconstrained_precoders(ch)
        y = t.unconstrained_combiners(ch, cfg.sigma_n2)
        p_star, q_star = t.omp_select(ch, x, y, d)
        yield (p_star.tolist(), q_star.tolist()), _exhaustive_select(ch, x, y, d)


class TestBatchedReceiveSide:
    @pytest.mark.parametrize("K", [1, 2, 4, 8])
    def test_selection_matches_per_user_loop(self, K):
        # the receive correlations of all users in one kernel call pick what a loop picks
        cfg = t.build_config("desk", {"K": K})
        for seed, (bounded, exhaustive) in enumerate(_selections(cfg, range(50))):
            assert bounded == exhaustive, seed

    def test_correlations_match_per_user(self):
        cfg = t.build_config("desk", {"K": 8})
        ch = _random_channelset(cfg, 5)
        y = t.unconstrained_combiners(ch, cfg.sigma_n2)
        psi = t.build_dictionaries(cfg).psi_w
        batched = _side_correlations(cfg.N_R, psi, ch.theta_sines, y, ch.eta)
        assert batched.shape == (cfg.K, cfg.N_W, cfg.M)
        for k in range(cfg.K):
            np.testing.assert_array_equal(
                batched[k], _side_correlations(cfg.N_R, psi, ch.theta_sines[:, k], y[k], ch.eta))


def _kernel_paths(case, eta, psi, rng, dilated=False):
    """(3, M) path directions, subcarriers innermost: one singular path by ``case``, two
    random ones, drawn per subcarrier or, if ``dilated``, as eta_m times one direction per
    path."""
    shape = (3, 1) if dilated else (3, eta.size)
    paths = rng.uniform(-1.0, 1.0, shape) * eta
    p0 = psi.size // 3
    if case == "on_atom":
        paths[0] = eta * psi[p0]
    elif case.startswith("near_atom"):
        paths[0] = eta * psi[p0] + float(case.split("_")[-1])
    elif case == "grating_lobe":
        paths[0] = -eta            # at eta = 1, d = 2 against the +1 atom
        paths[1] = eta - 2.0       # d = 2 against the +1 atom on every subcarrier
    elif case == "crossing":
        # undilated directions: over the band, d crosses 0 against atom p0, +2 against
        # the +1 atom, and -2 against the atoms just above -1
        paths[:] = np.array([psi[p0], -1.0, 1.0])[:, None]
    return paths


class TestAtomKernel:
    @pytest.mark.parametrize("case", ["on_atom", "near_atom_1e-11", "near_atom_1e-6",
                                      "grating_lobe", "random"])
    @pytest.mark.parametrize("N", [1, 2, 5, 8, 64])
    def test_matches_dense_oracle_at_singular_points(self, N, case):
        cfg = t.SystemConfig(N_T=N, N_R=4, K=1, N_RF=1, N_F=33).validate()
        psi = t.build_dictionaries(cfg).psi_f
        eta = np.append(_random_channelset(cfg, 5).eta, 1.0)
        rng = np.random.default_rng(N)
        paths = _kernel_paths(case, eta, psi, rng)
        coords = rng.standard_normal(paths.shape) + 1j * rng.standard_normal(paths.shape)
        # the user's (L, M) slice of the channel's path table, as omp_select reads it
        ch = t.ChannelSet(theta=paths[None], vartheta=paths[None], gain=coords[None],
                          eta=eta, N_R=N, N_T=N)
        corr = _side_correlations(N, psi, ch.vartheta_sines[:, 0], coords, eta)
        atoms = t.steering_vector(N, psi[:, None] * eta)                         # (N, P, M)
        design = np.einsum("nlm,lm->nm", t.steering_vector(N, paths), coords)
        oracle = np.abs(np.einsum("npm,nm->pm", atoms.conj(), design))
        assert np.abs(corr - oracle).max() <= 1e-12 * oracle.max()

    def test_exact_kernel_only_near_zeros(self, desk_cfg, monkeypatch):
        # the closed form calls dirichlet_sinc only where sin(pi d/2) nearly vanishes
        evaluated = []
        exact = channel.dirichlet_sinc

        def counting(a, N):
            evaluated.append(np.size(a))
            return exact(a, N)

        ch = _random_channelset(desk_cfg, 6)
        x = t.unconstrained_precoders(ch)
        y = t.unconstrained_combiners(ch, desk_cfg.sigma_n2)
        # counted from here on: the dominant mode's Grams, now cached, call it too
        monkeypatch.setattr(channel, "dirichlet_sinc", counting)
        t.omp_select(ch, x, y, t.build_dictionaries(desk_cfg))
        c = desk_cfg
        assert sum(evaluated) < 0.01 * c.K * c.M * (c.N_F + c.N_W) * c.L


class TestDirichletBound:
    @pytest.mark.parametrize("case", ["on_atom", "near_atom_1e-11", "near_atom_1e-6",
                                      "grating_lobe", "crossing", "random"])
    @pytest.mark.parametrize("band", [(1, 0.0), (32, 0.0), (32, 70e9)], ids=["M1", "B0", "B70"])
    @pytest.mark.parametrize("N", [1, 2, 5, 8, 64])
    def test_never_below_the_kernel(self, N, band, case):
        # the bound over the band, from its two end subcarriers, caps every subcarrier's
        # kernel: the closed form omp_select evaluates, and |N D_N(d/2)| itself
        M, B = band
        cfg = t.SystemConfig(N_T=N, N_R=4, K=1, N_RF=1, N_F=33, M=M, B=B).validate()
        psi = t.build_dictionaries(cfg).psi_f
        eta = _random_channelset(cfg, 5).eta
        rng = np.random.default_rng(N)
        paths = _kernel_paths(case, eta, psi, rng, dilated=True)
        ch = t.ChannelSet(theta=paths[None], vartheta=paths[None],
                          gain=np.ones((1,) + paths.shape, complex), eta=eta, N_R=N, N_T=N)
        table = omp._atom_sines(N, psi.tobytes(), eta.tobytes())
        ends = [int(np.argmin(eta)), int(np.argmax(eta))]
        # as omp_select pairs them: the atoms' two end subcarriers (2, P), the paths' (1, L, 2, 1)
        bound = channel._dirichlet_bound(N, np.swapaxes(table[:, :, ends], 1, 2),
                                         ch.vartheta_sines[..., ends, None])
        kernel = channel._dirichlet_kernel(N, table[:, :, None, :],
                                           ch.vartheta_sines[:, :, None, :, :])
        d = psi[:, None, None] * eta - paths                                     # (P, L, M)
        exact = N * np.abs(t.dirichlet_sinc(d / 2.0, N))
        assert bound.shape == (1, 3, psi.size)
        bound = np.swapaxes(bound, -1, -2)[..., None]                            # (1, P, L, 1)
        assert np.all(bound >= np.abs(kernel))
        assert np.all(bound[0] >= exact)
        assert np.all(bound <= N * (1 + 1e-9))

    def test_grating_lobe_inside_the_band_reads_n(self):
        # d = 1.9 eta against the +1 atom crosses 2 inside the band, not at its ends
        cfg = t.SystemConfig(N_T=64, N_R=4, K=1, N_RF=1, N_F=33, B=70e9).validate()
        eta = _random_channelset(cfg, 5).eta
        atom = channel._sines(64, np.array([[eta.min()], [eta.max()]]))
        path = channel._sines(64, -0.9 * np.array([[eta.min()], [eta.max()]]))
        assert channel._dirichlet_bound(64, atom, path)[0] == pytest.approx(64, rel=1e-8)


class TestBoundedSelection:
    @pytest.mark.parametrize("B", [0.0, 1e9, 30e9, 70e9])
    @pytest.mark.parametrize("K", [1, 2, 4, 8, 16])
    def test_matches_exhaustive_search_at_desk(self, K, B):
        cfg = t.build_config("desk", {"K": K, "B": B})
        seeds = [_trial_seed(7, 0, i) for i in range(8)]
        for seed, (bounded, exhaustive) in zip(seeds, _selections(cfg, seeds)):
            assert bounded == exhaustive, seed

    def test_matches_exhaustive_search_at_paper(self):
        cfg = t.build_config("paper")
        seeds = [_trial_seed(7, 0, i) for i in range(2)]
        for seed, (bounded, exhaustive) in zip(seeds, _selections(cfg, seeds)):
            assert bounded == exhaustive, seed

    @pytest.mark.parametrize("B", [0.0, 70e9])
    @pytest.mark.parametrize("N_T", [1, 3])
    @pytest.mark.parametrize("N_F", [5, 9, 33])
    def test_aliased_tie_goes_to_the_smaller_index(self, N_F, N_T, B):
        # atoms 0 and N_F - 1 are one beam (a(-1) = a(+1)), so their objectives tie
        # exactly, and with N_T = 1 every transmit atom ties: the smaller index wins
        # (three users' paths, drawn by a config that allows them at N_T = 3)
        cfg = t.SystemConfig(N_T=3, N_R=4, K=3, N_RF=3, N_F=N_F, M=8, B=B)
        seeds = [_trial_seed(7, 0, i) for i in range(20)]
        for seed, (bounded, exhaustive) in zip(seeds, _selections(cfg, seeds, N_T)):
            assert bounded == exhaustive, seed
            p_star = bounded[0]
            for k, p in enumerate(p_star):
                assert p != N_F - 1 or 0 in p_star[:k], seed
            if N_T == 1:
                assert p_star == list(range(cfg.K)), seed

    def test_every_seed_taken(self, monkeypatch):
        # two identical users and one seed each: the second user's seed is taken, so
        # every free atom is a candidate, evaluated by the same code as a few
        monkeypatch.setattr(omp, "_SEEDS", 1)
        cfg = t.SystemConfig(N_T=16, N_R=4, K=2, N_RF=2, L=1, M=2, N_F=33).validate()
        d = t.build_dictionaries(cfg)
        paths = t.PathParams(alpha=[[1.0], [1.0]], phi=[[d.psi_w[3]], [d.psi_w[3]]],
                             varphi=[[d.psi_f[10]], [d.psi_f[10]]], tau=[[0.0], [0.0]])
        ch = t.generate_channel(cfg, paths)
        x = t.unconstrained_precoders(ch)
        y = t.unconstrained_combiners(ch, cfg.sigma_n2)
        evaluated, correlations = [], omp._correlations

        def recording(N, atoms, paths, weights):
            evaluated.append(np.shape(atoms[0]))
            return correlations(N, atoms, paths, weights)

        monkeypatch.setattr(omp, "_correlations", recording)
        p_star, q_star = t.omp_select(ch, x, y, d)
        assert p_star[0] == 10
        assert evaluated[-1] == (cfg.N_F - 1, cfg.M)
        monkeypatch.setattr(omp, "_correlations", correlations)
        assert (p_star.tolist(), q_star.tolist()) == _exhaustive_select(ch, x, y, d)

    def test_objective_ignores_its_neighbours(self):
        # a column's objective is the same bits in any batch, order or gather of atoms
        cfg = t.build_config("desk", {"B": 70e9})
        ch = _random_channelset(cfg, 8)
        x = t.unconstrained_precoders(ch)
        y = t.unconstrained_combiners(ch, cfg.sigma_n2)
        d = t.build_dictionaries(cfg)
        table = omp._atom_sines(cfg.N_T, d.psi_f.tobytes(), ch.eta.tobytes())
        corr_w = _side_correlations(cfg.N_R, d.psi_w, ch.theta_sines[:, 0], y[0], ch.eta)
        weights = omp._path_weights(cfg.N_T, ch.vartheta_sines[:, 0], x[0])

        def objective(rows):
            corr = omp._correlations(cfg.N_T, table[:, rows], ch.vartheta_sines[:, 0], weights)
            return omp._objective(corr, corr_w)

        whole = objective(np.arange(cfg.N_F))
        rng = np.random.default_rng(0)
        for size in (1, 2, 3, 7, 8, 9, 40):
            rows = rng.choice(cfg.N_F, size, replace=False)
            np.testing.assert_array_equal(objective(rows), whole[rows])
        np.testing.assert_array_equal(whole[0], whole[-1])

    def test_evaluates_few_transmit_kernel_entries(self, monkeypatch):
        # a timing-free guard: a paper selection evaluates under 10% of the transmit
        # kernel's K L M N_F entries that an exhaustive search would
        cfg = t.build_config("paper")
        entries, kernel = [], omp._dirichlet_kernel

        def counting(N, a, b):
            out = kernel(N, a, b)
            if N == cfg.N_T:
                entries.append(out.size)
            return out

        monkeypatch.setattr(omp, "_dirichlet_kernel", counting)
        for seed in (_trial_seed(7, 0, 0), _trial_seed(7, 0, 1)):
            entries.clear()
            ch = t.generate_channel(cfg, t.draw_paths(cfg, np.random.default_rng(seed)))
            x = t.unconstrained_precoders(ch)
            y = t.unconstrained_combiners(ch, cfg.sigma_n2)
            t.omp_select(ch, x, y, t.build_dictionaries(cfg))
            assert 0 < sum(entries) < 0.1 * cfg.K * cfg.L * cfg.M * cfg.N_F, seed


class TestEffectiveChannel:
    def test_matched_rank_one_closed_form(self):
        cfg = t.SystemConfig(N_T=16, N_R=4, K=1, N_RF=1, L=1, M=1, B=0.0)
        paths = t.PathParams(alpha=[[0.8]], phi=[[0.25]], varphi=[[-0.5]],
                             tau=[[1e-9]])
        ch = t.generate_channel(cfg, paths)
        h_eff = _effective_channel(ch, [0.25], [-0.5])
        zeta = np.sqrt(16 * 4 / 1)
        expected = zeta * 0.8 * np.exp(-2j * np.pi * 1e-9 * t.subcarrier_frequencies(cfg)[0])
        assert h_eff[0, 0, 0] == pytest.approx(expected, abs=1e-10)

    def test_zero_channel(self, tiny_cfg):
        ch = _random_channelset(tiny_cfg, 1)
        ch.gain[:] = 0
        assert np.all(_effective_channel(ch, [0.2, 0.2], [0.1, 0.1]) == 0)

    def test_entrywise_loop_oracle(self, tiny_cfg):
        ch = _random_channelset(tiny_cfg, 9)
        bf_dict = t.build_dictionaries(tiny_cfg)
        F_RF = bf_dict.D_F[:, [3, 17]]
        W_RF = bf_dict.D_W[:, [1, 6]]
        h_eff = _effective_channel(ch, bf_dict.psi_w[[1, 6]], bf_dict.psi_f[[3, 17]])
        for m in range(tiny_cfg.M):
            for k in range(tiny_cfg.K):
                row = W_RF[:, k].conj() @ ch.H[k, m] @ F_RF
                np.testing.assert_allclose(h_eff[m, k], row, atol=1e-12)

    def test_per_subcarrier_analog_stack(self, tiny_cfg):
        ch = _random_channelset(tiny_cfg, 9)
        d = t.build_dictionaries(tiny_cfg)
        F_RF = d.D_F[:, [3, 17]]
        W_RF = d.D_W[:, [1, 6]]
        stack = np.stack([t.sd_analog(F_RF, e) for e in ch.eta])
        psi_stack = np.multiply.outer(ch.eta, d.psi_f[[3, 17]])
        h_eff = _effective_channel(ch, d.psi_w[[1, 6]], psi_stack)
        for m in range(tiny_cfg.M):
            expected = np.stack([W_RF[:, k].conj() @ ch.H[k, m] @ stack[m]
                                 for k in range(tiny_cfg.K)])
            np.testing.assert_allclose(h_eff[m], expected, atol=1e-12)

    # per path l of user k, the offset d = vartheta - psi_t from beam l
    _EDGE = (2 / np.pi) * np.arcsin(channel._EXACT)
    OFFSETS = {"on_path": [[0.0, 0.0, 0.0], [0.0, -0.0, 0.0]],
               "below_exact": [[_EDGE * (1 - 1e-6), -_EDGE * (1 - 1e-6), 0.0],
                               [-_EDGE * (1 - 1e-9), _EDGE * (1 - 1e-9), 0.37]],
               "above_exact": [[_EDGE * (1 + 1e-6), -_EDGE * (1 + 1e-6), 0.0],
                               [-_EDGE * (1 + 1e-9), _EDGE * (1 + 1e-9), -0.37]],
               "grating_lobe": [[-2.0, 2.0, -2.0 + 1e-13],
                                [-2.0 - _EDGE * (1 - 1e-6), 2.0 + 1e-13, -2.0 + _EDGE * (1 + 1e-6)]]}

    @pytest.mark.parametrize("case", sorted(OFFSETS))
    @pytest.mark.parametrize("stacked", [False, True], ids=["analog", "sd_stack"])
    @pytest.mark.parametrize("N_T", [1, 2, 3, 16])
    def test_singular_offsets_match_dense(self, N_T, stacked, case):
        # beams 0 and 1 are the endfire atoms: the SD stack dilates them beyond |psi| = 1,
        # and a grating-lobe path d = -2 sign(psi) from one lies back inside [-1, 1]
        eta = np.array([0.95, 1.0, 1.05])
        psi = np.array([1.0, -1.0, 0.3])
        beams = np.multiply.outer(eta, psi) if stacked else np.broadcast_to(psi, (3, 3))
        rng = np.random.default_rng(N_T)
        gain = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
        theta = rng.uniform(-1.0, 1.0, (2, 3, 3)) * eta
        vartheta = beams.T[None] + np.array(self.OFFSETS[case])[:, :, None]  # (K, L, M)
        ch = t.ChannelSet(theta=theta, vartheta=vartheta, gain=gain, eta=eta, N_R=4, N_T=N_T)
        psi_r = np.array([0.2, -0.6])
        psi_t = beams if stacked else psi
        F = np.moveaxis(t.steering_vector(N_T, beams), 0, 1)              # (M, N_T, N_RF)
        want = np.einsum("rk,kmrt,mti->mki", t.steering_vector(4, psi_r).conj(), ch.H, F)
        got = _effective_channel(ch, psi_r, psi_t)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("N_R", [1, 2, 3, 16])
    def test_receive_beam_on_a_path_matches_dense(self, N_R):
        # per user, paths at d = psi_r - theta of 0, +-2 and just off 0 and 2: the receive
        # kernel's exact branch and its grating lobes
        eta = np.array([0.95, 1.0, 1.05])
        psi_r = np.array([0.2, -0.6])
        offsets = np.array([[0.0, 2.0, 1e-13, 0.4], [0.0, -2.0, 2.0 - 1e-13, -0.3]])
        theta = np.broadcast_to((psi_r[:, None] - offsets)[:, :, None], (2, 4, 3))
        rng = np.random.default_rng(N_R)
        gain = rng.standard_normal((2, 4, 3)) + 1j * rng.standard_normal((2, 4, 3))
        vartheta = rng.uniform(-1.0, 1.0, (2, 4, 3)) * eta
        ch = t.ChannelSet(theta=theta, vartheta=vartheta, gain=gain, eta=eta, N_R=N_R, N_T=8)
        psi_t = np.array([0.1, -0.7])
        want = np.einsum("rk,kmrt,ti->mki", t.steering_vector(N_R, psi_r).conj(), ch.H,
                         t.steering_vector(8, psi_t))
        got = _effective_channel(ch, psi_r, psi_t)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestBasebandZF:
    def test_zero_forcing_up_to_scalar(self, rng):
        H_eff = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        F_RF = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        F_BB = unit_power(F_RF, t.baseband_zf(H_eff))
        for m in range(3):
            product = H_eff[m] @ F_BB[m]
            c = product[0, 0]
            assert c.real > 0 and abs(c.imag) < 1e-10 * abs(c)
            np.testing.assert_allclose(product, c * np.eye(4), atol=1e-8 * abs(c))

    def test_is_the_plain_inverse(self, rng):
        # the rank-checked inverse: each caller scales it through its own analog stage
        H_eff = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        np.testing.assert_array_equal(t.baseband_zf(H_eff), np.linalg.inv(H_eff))

    def test_per_subcarrier_power(self, rng):
        H_eff = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
        F_RF = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        F_BB = unit_power(F_RF, t.baseband_zf(H_eff))
        for m in range(5):
            assert np.linalg.norm(F_RF @ F_BB[m]) ** 2 == pytest.approx(3.0, abs=1e-10)

    def test_scalar_single_user(self):
        h = np.array([[[0.3 - 0.4j]]])
        F_RF = np.array([[1.0]], dtype=complex)
        F_BB = unit_power(F_RF, t.baseband_zf(h))
        # pseudo-inverse direction h*/|h|^2, rescaled to unit transmit norm
        assert abs(F_BB[0, 0, 0]) == pytest.approx(1.0, rel=1e-12)
        assert np.angle(F_BB[0, 0, 0]) == pytest.approx(np.angle(np.conj(0.3 - 0.4j)),
                                                        abs=1e-12)

    @staticmethod
    def _per_subcarrier_reference(H_eff, F_RF):
        K = H_eff.shape[1]
        out = np.empty((H_eff.shape[0], H_eff.shape[2], K), dtype=complex)
        for m in range(H_eff.shape[0]):
            u, s, vh = np.linalg.svd(H_eff[m], full_matrices=False)
            out[m] = (vh.conj().T / s) @ u.conj().T
            analog = F_RF[m] if F_RF.ndim == 3 else F_RF
            out[m] *= np.sqrt(K) / np.linalg.norm(analog @ out[m])
        return out

    @pytest.mark.parametrize("stacked", [False, True])
    def test_batched_matches_per_subcarrier_reference(self, rng, stacked):
        H_eff = rng.standard_normal((6, 3, 3)) + 1j * rng.standard_normal((6, 3, 3))
        shape = (6, 10, 3) if stacked else (10, 3)
        F_RF = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        F_BB = unit_power(F_RF, t.baseband_zf(H_eff))
        expected = self._per_subcarrier_reference(H_eff, F_RF)
        np.testing.assert_allclose(F_BB, expected, rtol=0, atol=1e-12 * np.abs(expected).max())

    def test_names_first_degenerate_subcarrier(self, rng):
        H_eff = rng.standard_normal((5, 2, 2)) + 1j * rng.standard_normal((5, 2, 2))
        for m in (1, 3):
            H_eff[m, 1] = 2 * H_eff[m, 0]
        with pytest.raises(DegenerateChannelError, match="at subcarrier 1 is rank-deficient"):
            t.baseband_zf(H_eff)

    def test_rank_deficient_raises(self):
        H_eff = np.zeros((1, 2, 2), complex)
        H_eff[0, 0, 0] = 1.0
        with pytest.raises(DegenerateChannelError, match="rank"):
            t.baseband_zf(H_eff)

    def test_exactly_singular_subcarrier_named(self, rng):
        # the square inverse refuses a zero column itself; it must not escape as LinAlgError
        H_eff = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
        H_eff[2, :, 1] = 0
        with pytest.raises(DegenerateChannelError,
                           match="at subcarrier 2 is rank-deficient .condition number inf"):
            t.baseband_zf(H_eff)

    def test_frobenius_condition_rule(self):
        # kappa_F of diag(1, e) is about 1/e, against the 1/_RCOND = 1e12 bound
        eye = np.eye(2, dtype=complex)
        with pytest.raises(DegenerateChannelError, match="condition number 1.000e.13"):
            t.baseband_zf(np.diag([1.0, 1e-13]).astype(complex)[None])
        H_eff = np.diag([1.0, 1e-11]).astype(complex)[None]
        F_BB = unit_power(eye, t.baseband_zf(H_eff))
        np.testing.assert_allclose(H_eff[0] @ F_BB[0], F_BB[0, 0, 0] * eye, rtol=1e-12)

    @pytest.mark.parametrize("i", [12, 27, 77, 139])
    def test_unit_power_exact_on_sixteen_users(self, i):
        # the MK power is summed over R F_BB[m], R the K x K QR factor of F_RF (the SD
        # oracle's over the dense product of each block of its stack); a K x K Gram form
        # tr(X^H F_RF^H F_RF X) squares the condition number and leaves the SD oracle's
        # residual at 4.0e-10 .. 4.7e-9 here
        cfg = t.build_config("desk", {"K": 16})
        result = run_trial(cfg, _trial_seed(3, 0, i), HYBRID_METHODS)
        for method, report in result.reports.items():
            assert report.power_residual <= 1e-12, method


def _dense_power(F_RF, F_BB):
    """Reference ||F_RF F_BB[m]||_F^2 of each subcarrier, summed over the dense product."""
    return np.sum(np.abs(F_RF @ F_BB) ** 2, axis=(-2, -1))


def _pipeline_precoders(cfg, rng):
    """The channel draw and the omp, bsa_omp and SD-oracle sets on it."""
    ch = t.generate_channel(cfg, t.draw_paths(cfg, rng))
    bf = t.omp_hybrid_beamformer(cfg, ch)
    sd = t.sd_oracle_beamformers(ch, bf)
    return ch, (bf, t.apply_bsa(bf, sd), sd)


def _spread_beams(M, N_T, K, rng):
    """A channel whose user k has its first path on beam k of an evenly spread fixed stage,
    and that stage's set: no atom selection, so any K up to N_T (K = N_T gives a DFT analog
    matrix). B = 1 GHz keeps the dilated stack well conditioned at K = N_T."""
    cfg = t.SystemConfig(M=M, N_T=N_T, K=K, N_R=2, L=2, B=1e9)
    eta = t.frequency_ratios(cfg)
    psi_t = np.linspace(-1.0, 1.0, K, endpoint=False) + 1.0 / K
    psi_r = rng.uniform(-1.0, 1.0, K)
    phi, varphi = (np.stack([psi, rng.uniform(-1.0, 1.0, K)], axis=-1) for psi in (psi_r, psi_t))
    gain = np.array([1.0, 0.3])[:, None] * np.exp(2j * np.pi * rng.uniform(size=(K, 2, M)))
    ch = t.ChannelSet(theta=np.multiply.outer(phi, eta), vartheta=np.multiply.outer(varphi, eta),
                      gain=gain, eta=eta, N_R=2, N_T=N_T)
    F_RF = t.steering_vector(N_T, psi_t)
    R_RF = np.linalg.qr(F_RF, mode="r")
    receive = omp._receive_coupling(ch, psi_r)
    H_eff = t.effective_channel(ch, receive, psi_t)
    return ch, t.BeamformerSet(F_RF=F_RF, W_RF=t.steering_vector(2, psi_r), H_eff=H_eff,
                               F_BB=unit_power(R_RF, t.baseband_zf(H_eff)), psi_t=psi_t,
                               psi_r=psi_r, R_RF=R_RF, receive=receive)


def _real_view_power(stack, X):
    """||stack[m] X[m]||_F^2 over the whole stack, in the arithmetic of the SD pass: the
    stack's real view times the real form of X."""
    return np.sum((stack.view(float) @ bsa._real_form(X)) ** 2, axis=(-2, -1))


class TestAnalogPower:
    """analog_power, unit_power and the power residual against the dense sum; the SD
    oracle's scale and measured power against the dense sums of its stack."""

    @staticmethod
    def _assert_matches_dense(F_RF, F_BB, R_RF):
        dense = _dense_power(F_RF, F_BB)
        # the stored power factor, and F_RF as a factor of itself
        for factor in (R_RF, F_RF):
            np.testing.assert_allclose(omp.analog_power(factor, F_BB), dense, rtol=1e-13, atol=0)
        # the scale, not the power of the scaled product: an SD-oracle product re-rounds
        # at 3e-13 of K, whichever sum scaled it
        K = F_BB.shape[-1]
        scale = np.sqrt(K / dense)[..., None, None]
        np.testing.assert_allclose(omp.unit_power(F_RF, F_BB), F_BB * scale,
                                   rtol=1e-13, atol=0)
        if F_BB.ndim == 3:
            MK = F_BB.shape[0] * K
            residual = abs(dense.sum() - MK) / MK
            assert t.power_constraint_residual(F_RF, F_BB) == pytest.approx(
                residual, rel=0, abs=1e-13 * dense.sum() / MK)

    @staticmethod
    def _assert_sd_matches_dense(ch, sd):
        # the blocked pass against the whole stack built on request: the ZF scale from
        # the dense power of F_bar[m] H_eff[m]^-1, the measured power of the final
        # baseband, the residual sum_rate reports, and the projection apply_bsa reads.
        # The dense sums take the pass's real-view products, as the held stack's took the
        # complex ones its blocked sum did (test_sd_power_within_rounding_bound bounds both
        # against extended precision)
        stack = bsa._dilated_stack(sd.F_RF, ch.eta)
        H_inv = np.linalg.inv(sd.H_eff)
        K = H_inv.shape[-1]
        scale = np.sqrt(K / _real_view_power(stack, H_inv))[:, None, None]
        np.testing.assert_allclose(sd.F_BB, H_inv * scale, rtol=1e-13, atol=0)
        dense = _real_view_power(stack, sd.F_BB)
        np.testing.assert_allclose(sd.power, dense, rtol=1e-13, atol=0)
        MK = dense.size * K
        assert t.sum_rate(sd, 1.0).power_residual == pytest.approx(
            abs(dense.sum() - MK) / MK, rel=0, abs=1e-13 * dense.sum() / MK)
        projection = omp.pseudo_inverse(sd.F_RF) @ stack
        np.testing.assert_allclose(sd.projection, projection, rtol=0,
                                   atol=1e-13 * np.abs(projection).max())

    def _assert_pipeline(self, ch, sets, doubled=False):
        *fixed, sd = sets
        for bf in fixed:
            self._assert_matches_dense(bf.F_RF, bf.F_BB, bf.R_RF)
            if doubled:
                self._assert_matches_dense(bf.F_RF, 2 * bf.F_BB, bf.R_RF)
        self._assert_sd_matches_dense(ch, sd)

    @pytest.mark.parametrize("profile,seed", [("desk", 17), ("paper", 3)])
    def test_seeded_pipelines(self, profile, seed):
        cfg = t.build_config(profile)
        self._assert_pipeline(*_pipeline_precoders(cfg, np.random.default_rng(seed)),
                              doubled=True)

    @pytest.mark.parametrize("i", [12, 27, 77, 139])
    def test_sixteen_user_draws(self, i):
        # the draws of test_unit_power_exact_on_sixteen_users, first attempt of each
        cfg = t.build_config("desk", {"K": 16})
        rng = np.random.default_rng(np.random.SeedSequence([_trial_seed(3, 0, i), 0]))
        self._assert_pipeline(*_pipeline_precoders(cfg, rng))

    @pytest.mark.parametrize("M,N_T,K", [
        (1, 128, 8),      # one subcarrier
        (13, 128, 8),     # one block, short of its 32 subcarriers
        (40, 128, 8),     # blocks of 32 subcarriers, the last one short
        (40, 16, 16),     # K = N_T, one block
        (3, 32, 32),      # K = N_T, one block
        (5, 128, 128),    # K = N_T, blocks of 2 subcarriers, the last one short
        (2, 256, 256),    # K = N_T, a single subcarrier above the block bound
    ])
    def test_stack_block_edges(self, rng, M, N_T, K):
        # the SD pass at the edges of its blocks of bsa._BLOCK_ENTRIES stack entries
        ch, bf = _spread_beams(M, N_T, K, rng)
        self._assert_sd_matches_dense(ch, t.sd_oracle_beamformers(ch, bf))

    def test_stack_power_never_forms_the_whole_product(self):
        # a paper SD oracle reads its stack a block of subcarriers at a time: neither the
        # (M, N_T, N_RF) stack nor an (M, N_T, K) product is ever held whole
        cfg = t.build_config("paper")
        ch, (bf, _, _) = _pipeline_precoders(cfg, np.random.default_rng(3))
        tracemalloc.start()
        try:
            t.sd_oracle_beamformers(ch, bf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cfg.M * cfg.N_T * cfg.N_RF * 16

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs extended precision")
    @pytest.mark.parametrize("profile,overrides,seed", [
        ("desk", {}, 17), ("paper", {}, 3),
        *[("desk", {"K": 16}, np.random.SeedSequence([_trial_seed(3, 0, i), 0]))
          for i in (12, 27, 77, 139)]])
    def test_sd_power_within_rounding_bound(self, profile, overrides, seed):
        # the measured power against the stack's product in extended precision: within
        # 2 n eps r relative, the rounding bound of n = 2 N_RF term real dot products, with
        # r = || |F_bar| |F_BB| ||_F / ||F_bar F_BB||_F the cancellation of the product
        cfg = t.build_config(profile, overrides)
        ch, (_, _, sd) = _pipeline_precoders(cfg, np.random.default_rng(seed))
        stack = bsa._dilated_stack(sd.F_RF, ch.eta)
        ld = np.longdouble
        Fr, Fi, Xr, Xi = (np.asarray(a, dtype=ld) for a in (stack.real, stack.imag,
                                                             sd.F_BB.real, sd.F_BB.imag))
        exact = np.sum((Fr @ Xr - Fi @ Xi) ** 2 + (Fr @ Xi + Fi @ Xr) ** 2, axis=(-2, -1))
        r = np.sqrt(_dense_power(np.abs(stack), np.abs(sd.F_BB)) / exact.astype(float))
        bound = 2 * (2 * cfg.N_RF) * np.finfo(float).eps * r
        assert np.all(np.abs(sd.power - exact) / exact <= bound)

    def test_wide_analog_matrix_through_bsa(self, rng):
        # N_T < N_RF: the QR factor R is N_T x N_RF, and ||F_RF X|| is still ||R X||
        F_RF = t.steering_vector(4, rng.uniform(-1, 1, 6))
        F_BB_m = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        raw = t.bsa_baseband(F_RF, F_BB_m, 1.1, normalize=False)
        self._assert_matches_dense(F_RF, raw, np.linalg.qr(F_RF, mode="r"))
        corrected = t.bsa_baseband(F_RF, F_BB_m, 1.1)
        assert _dense_power(F_RF, corrected) == pytest.approx(3.0, rel=1e-13)

    def test_rank_deficient_analog_matrix(self, rng):
        # a repeated beam: the least squares refuses it, the power identity holds regardless
        F_RF = t.steering_vector(8, np.array([0.2, -0.5, 0.2]))
        F_BB = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
        self._assert_matches_dense(F_RF, F_BB, np.linalg.qr(F_RF, mode="r"))
        with pytest.raises(DegenerateChannelError, match="rank-deficient"):
            t.bsa_baseband(F_RF, F_BB[0], 1.1)


class TestAtomTableCache:
    def test_cached_tables_are_read_only(self, desk_cfg):
        # rows 0-4 of the full table in a buffer of their own: the phase rows are not held
        ch = _random_channelset(desk_cfg, 3)
        psi = t.build_dictionaries(desk_cfg).psi_f
        table = omp._atom_sines(desk_cfg.N_T, psi.tobytes(), ch.eta.tobytes())
        assert table.shape == (5, psi.size, desk_cfg.M)
        assert table.flags.c_contiguous and table.flags.owndata
        full = channel._sines(desk_cfg.N_T, np.multiply.outer(psi, ch.eta))
        np.testing.assert_array_equal(table, full[:5])
        for rows in table:
            with pytest.raises(ValueError, match="read-only"):
                rows[...] = 0.0

    def test_configs_sharing_a_process_keep_their_rates(self, desk_cfg):
        # two configs differing only in B have different dilations, so different tables
        configs = (desk_cfg, desk_cfg.replace(B=10e9))
        seed = _trial_seed(4, 0, 0)

        def rates(cfg):
            return {m: r.sum_rate for m, r in run_trial(cfg, seed).reports.items()}

        alone = []
        for cfg in configs:
            omp._atom_sines.cache_clear()
            alone.append(rates(cfg))
        assert alone[0] != alone[1]
        for order in ((0, 1), (1, 0)):
            omp._atom_sines.cache_clear()
            shared = {i: rates(configs[i]) for i in order}
            assert [shared[0], shared[1]] == alone

    def test_cache_stays_within_its_bound(self):
        bound = omp._atom_sines.cache_parameters()["maxsize"]
        psi = np.linspace(-1.0, 1.0, 9).tobytes()
        for i in range(bound + 3):
            omp._atom_sines(4, psi, np.array([1.0, 1.0 + i / 100]).tobytes())
            assert omp._atom_sines.cache_info().currsize <= bound
        assert omp._atom_sines.cache_info().currsize == bound

    def test_equal_contents_share_one_table(self, desk_cfg):
        # two draws of one config hold equal grids in different arrays: two tables in all
        omp._atom_sines.cache_clear()
        for seed in (3, 4):
            ch = _random_channelset(desk_cfg, seed)
            x = t.unconstrained_precoders(ch)
            y = t.unconstrained_combiners(ch, desk_cfg.sigma_n2)
            t.omp_select(ch, x, y, t.build_dictionaries(desk_cfg))
        info = omp._atom_sines.cache_info()
        assert (info.misses, info.hits) == (2, 2)


class TestPathTables:
    def test_a_trial_builds_each_side_once(self, desk_cfg, monkeypatch):
        # every sine table of a trial is counted, whichever module builds it
        built, drawn = [], []
        sines, generate = channel._sines, harness.generate_channel

        def counting(N, x):
            built.append((N, np.array(x)))
            return sines(N, x)

        def recording(cfg, paths):
            drawn.append(generate(cfg, paths))
            return drawn[-1]

        for module in (channel, omp):
            monkeypatch.setattr(module, "_sines", counting)
        monkeypatch.setattr(harness, "generate_channel", recording)
        run_trial(desk_cfg, _trial_seed(4, 0, 0))
        assert drawn
        for ch in drawn:
            for N, v in ((ch.N_R, ch.theta), (ch.N_T, ch.vartheta)):
                assert sum(n == N and np.array_equal(x, v) for n, x in built) == 1
        assert sum(x.shape == drawn[0].theta.shape for _, x in built) == 2 * len(drawn)

    def test_tables_are_read_only_and_laid_out_by_path(self, desk_cfg):
        ch = _random_channelset(desk_cfg, 5)
        c = desk_cfg
        for name, v in (("theta_sines", ch.theta), ("vartheta_sines", ch.vartheta)):
            table = getattr(ch, name)
            assert getattr(ch, name) is table
            assert table.shape == (7, c.K, c.L, c.M) and table.flags.c_contiguous
            np.testing.assert_array_equal(table[0], v)
            for array in table:
                assert array.flags.c_contiguous
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0.0

    @pytest.mark.parametrize("N", [1, 8])
    def test_a_transposed_view_gives_a_contiguous_table(self, N):
        # a (K, M, L) array read as (K, L, M) keeps its strides; the table must not, or
        # every broadcast loop over it runs L long instead of M (subcarriers innermost)
        v = np.random.default_rng(N).uniform(-1.5, 1.5, (3, 16, 2))
        view = v.transpose(0, 2, 1)
        assert not view.flags.c_contiguous
        table = channel._sines(N, view)
        assert table.shape == (7, 3, 2, 16) and table.flags.c_contiguous
        assert table.strides[-1] == table.itemsize
        with pytest.raises(ValueError, match="read-only"):
            table[...] = 0.0
        x = np.ascontiguousarray(view)
        alpha = 0.5 * np.pi * x
        want = [x, np.sin(alpha), np.cos(alpha), np.sin(N * alpha), np.cos(N * alpha)]
        np.testing.assert_array_equal(table[:5], np.stack(want))
        # the phase rows against cos and sin of (N-1) pi x / 2 taken directly: 1e-15 per
        # radian of phase, since rounding the argument alone errs by its ulp
        phase = (N - 1) * np.pi * x / 2
        tol = 1e-15 * (1.0 + np.abs(phase))
        assert np.all(np.abs(table[5] - np.cos(phase)) <= tol)
        assert np.all(np.abs(table[6] - np.sin(phase)) <= tol)


class TestPipeline:
    def test_determinism(self, desk_cfg):
        ch = _random_channelset(desk_cfg, 31)
        a = t.omp_hybrid_beamformer(desk_cfg, ch)
        b = t.omp_hybrid_beamformer(desk_cfg, ch)
        np.testing.assert_array_equal(a.psi_t, b.psi_t)
        np.testing.assert_array_equal(a.psi_r, b.psi_r)
        np.testing.assert_array_equal(a.F_BB, b.F_BB)

    def test_power_constraint_total(self, desk_cfg):
        ch = _random_channelset(desk_cfg, 31)
        bf = t.omp_hybrid_beamformer(desk_cfg, ch)
        assert t.power_constraint_residual(bf.F_RF, bf.F_BB) <= 1e-10

    def test_atom_choice_is_grid_optimal(self):
        cfg = t.SystemConfig(N_T=12, N_R=4, K=2, N_RF=2, L=2, M=3,
                             N_F=13, N_W=7).validate()
        ch = _random_channelset(cfg, 41)
        d = t.build_dictionaries(cfg)
        x = t.unconstrained_precoders(ch)
        y = t.unconstrained_combiners(ch, cfg.sigma_n2)
        selected = t.omp_select(ch, x, y, d)
        F_opt, W_opt = _dense_designs(ch, cfg.sigma_n2)
        taken = []
        for k, (p, q) in enumerate(zip(*selected)):
            oracle = _kron_objective(F_opt, W_opt, d, ch.eta, k)
            oracle[taken, :] = -np.inf
            assert oracle[p, q] == pytest.approx(np.max(oracle), rel=1e-12)
            taken.append(p)
