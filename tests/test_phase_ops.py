import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import thzbsa as t

# The immediate neighborhood of psi = -1 is excluded from commutation draws:
# a(-1) and a(+1) are the same vector, the pi-step tie resolves toward the +1
# reading by convention, and within one ulp of -1 the wrapped-step arithmetic
# collapses onto that tie.
directions = st.floats(min_value=-1.0 + 1e-9, max_value=1.0)
sizes = st.integers(min_value=2, max_value=256)


@st.composite
def constant_modulus_vectors(draw):
    n = draw(st.integers(2, 64))
    kind = draw(st.sampled_from(["linear", "smooth"]))
    if kind == "linear":
        psi0 = draw(directions)
        phases = -np.pi * np.arange(n) * psi0
    else:
        steps = np.array(draw(st.lists(
            st.floats(-3.0, 3.0, allow_nan=False), min_size=n - 1, max_size=n - 1)))
        phases = np.concatenate([[draw(st.floats(-3.0, 3.0))], steps]).cumsum()
    return np.exp(1j * phases) / np.sqrt(n)


class TestUnwrap:
    def test_rejects_higher_rank_input(self):
        with pytest.raises(ValueError, match="vector or a matrix"):
            t.unwrap_phases(np.ones((2, 2, 2)))

    def test_quarter_turn_steering(self):
        psi = t.unwrap_phases(t.steering_vector(4, 0.5))
        np.testing.assert_allclose(psi, [0, -np.pi / 2, -np.pi, -3 * np.pi / 2],
                                   atol=1e-12)

    def test_broadside_zero_phases(self):
        np.testing.assert_allclose(t.unwrap_phases(np.ones(6) / np.sqrt(6)),
                                   np.zeros(6), atol=1e-15)

    def test_unwraps_past_principal_branch(self):
        # naive per-entry arg wraps from n = 3 onward at psi0 = 0.9
        a = t.steering_vector(8, 0.9)
        psi = t.unwrap_phases(a)
        np.testing.assert_allclose(psi, -0.9 * np.pi * np.arange(8), atol=1e-12)
        naive = np.angle(a)
        assert np.max(np.abs(naive - psi)) > np.pi      # they really differ

    def test_exact_pi_step_ties_toward_negative(self):
        a = np.array([1.0, -1.0, 1.0, -1.0]) / 2.0
        psi = t.unwrap_phases(a)
        np.testing.assert_allclose(psi, -np.pi * np.arange(4), atol=1e-15)

    def test_successive_steps_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 50))
            a = np.exp(1j * rng.uniform(-np.pi, np.pi, n)) / np.sqrt(n)
            psi = t.unwrap_phases(a)
            assert np.all(np.isfinite(psi))
            assert np.max(np.abs(np.diff(psi))) <= np.pi + 1e-12

    def test_non_constant_modulus_reports_deviation(self):
        a = np.array([1.0, 0.5, 1.0])
        with pytest.raises(ValueError, match="5.000e-01"):
            t.unwrap_phases(a)

    def test_matrix_columns_unwrap_as_vectors(self, rng):
        A = t.steering_vector(12, np.array([-1.0, -0.4, 0.3, 1.0]))
        A[:, 1] *= np.exp(1j * rng.uniform(-np.pi, np.pi, 12))
        psi = t.unwrap_phases(A)
        for j in range(A.shape[1]):
            np.testing.assert_array_equal(psi[:, j], t.unwrap_phases(A[:, j]))


# NaN fails every comparison of the modulus check and np.angle(inf) is 0, so
# either would otherwise unwrap silently to NaN or to wrong finite phases
@pytest.mark.parametrize("dilate", [
    t.unwrap_phases,
    lambda a: t.scale_analog_matrix(a[:, None], 1.02),
    lambda a: t.scale_analog_matrix(a[:, None], np.array([0.98, 1.02])),
    lambda a: t.sd_analog(a[:, None], 1.02),
], ids=["unwrap_phases", "scale_analog_matrix", "scale_analog_matrix_stack", "sd_analog"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.inf, np.inf)],
                         ids=["nan", "inf", "complex_inf"])
def test_non_finite_entry_rejected(dilate, bad):
    a = t.steering_vector(8, 0.4)
    a[3] = bad
    with pytest.raises(ValueError, match="non-finite"):
        dilate(a)


class TestFromPhases:
    def test_zero_phases(self):
        np.testing.assert_allclose(t.from_phases(np.zeros(4)), 0.5 * np.ones(4))

    def test_inverse_of_first_unwrap_example(self):
        psi = np.array([0, -np.pi / 2, -np.pi, -3 * np.pi / 2])
        np.testing.assert_allclose(t.from_phases(psi), t.steering_vector(4, 0.5),
                                   atol=1e-15)

    def test_round_trip_specific(self):
        a = t.steering_vector(16, 0.3)
        np.testing.assert_allclose(t.from_phases(t.unwrap_phases(a)), a, atol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            t.from_phases(np.array([0.0, np.inf]))

    @given(constant_modulus_vectors())
    def test_round_trip_property(self, a):
        np.testing.assert_allclose(t.from_phases(t.unwrap_phases(a)), a, atol=1e-12)


class TestScaleBeamformer:
    def test_identity_ratio(self):
        a = t.steering_vector(32, -0.4)
        np.testing.assert_allclose(t.scale_beamformer(a, 1.0), a, atol=1e-14)

    def test_known_dilation(self):
        out = t.scale_beamformer(t.steering_vector(128, 0.8), 1.049609375)
        np.testing.assert_allclose(out, t.steering_vector(128, 0.8396875), atol=1e-12)

    def test_broadside_fixed_point(self):
        a = np.ones(16) / 4.0
        np.testing.assert_allclose(t.scale_beamformer(a, 1.3), a, atol=1e-14)

    @given(directions, st.floats(0.9, 1.1), sizes)
    def test_steering_commutation(self, psi, ratio, n):
        lhs = t.scale_beamformer(t.steering_vector(n, psi), ratio)
        np.testing.assert_allclose(lhs, t.steering_vector(n, ratio * psi), atol=1e-12)

    @given(directions, st.floats(0.9, 1.1), st.floats(0.9, 1.1))
    def test_composition_on_linear_phase(self, psi, r1, r2):
        # the intermediate slope must stay in the principal range: a dilation
        # past |psi| = 1 aliases onto another steering vector and the second
        # unwrap cannot distinguish them
        assume(abs(psi * r1) <= 1.0)
        a = t.steering_vector(64, psi)
        once = t.scale_beamformer(t.scale_beamformer(a, r1), r2)
        direct = t.scale_beamformer(a, r1 * r2)
        np.testing.assert_allclose(once, direct, atol=1e-10)

    def test_grid_edge_scales_as_positive_one(self):
        # tie convention at |psi| = 1: the slope reads as +1
        out = t.scale_beamformer(t.steering_vector(6, 1.0), 1.05)
        np.testing.assert_allclose(out, t.steering_vector(6, 1.05), atol=1e-12)

    def test_rejects_nonpositive_ratio(self):
        with pytest.raises(ValueError):
            t.scale_beamformer(t.steering_vector(8, 0.1), 0.0)


class TestScaleAnalogMatrix:
    def test_identity_at_unit_ratio(self):
        F = np.stack([t.steering_vector(16, x) for x in (-0.5, 0.2, 0.9)], axis=1)
        np.testing.assert_allclose(t.scale_analog_matrix(F, 1.0), F, atol=1e-14)

    def test_columns_dilate_like_steering(self):
        dirs = np.array([-0.8, -0.1, 0.55])
        F = np.stack([t.steering_vector(32, x) for x in dirs], axis=1)
        out = t.scale_analog_matrix(F, 1.04)
        expected = np.stack([t.steering_vector(32, 1.04 * x) for x in dirs], axis=1)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_single_broadside_column(self):
        F = np.ones((8, 1)) / np.sqrt(8)
        for eta in (0.95, 1.0, 1.05):
            np.testing.assert_allclose(t.scale_analog_matrix(F, eta), F, atol=1e-14)

    @given(st.floats(0.9, 1.1))
    def test_preserves_column_norms(self, eta):
        F = np.stack([t.steering_vector(24, x) for x in (-0.7, 0.0, 0.3, 0.95)], axis=1)
        out = t.scale_analog_matrix(F, eta)
        np.testing.assert_allclose(np.linalg.norm(out, axis=0), 1.0, atol=1e-12)

    def test_ratio_array_equals_per_ratio_calls(self):
        F = np.stack([t.steering_vector(32, x) for x in (-1.0, -0.3, 0.4, 1.0)], axis=1)
        eta = t.frequency_ratios(t.SystemConfig(M=16))
        stack = t.scale_analog_matrix(F, eta)
        assert stack.shape == (16, 32, 4)
        per_ratio = np.stack([t.scale_analog_matrix(F, e) for e in eta])
        np.testing.assert_array_equal(stack, per_ratio)
        # a ratio array of any shape, here (2, M), gives that shape + (N, cols)
        pair = t.scale_analog_matrix(F, np.stack([eta, 7 * eta]))
        assert pair.shape == (2, 16, 32, 4)
        per_ratio = np.stack([[t.scale_analog_matrix(F, e) for e in row] for row in (eta, 7 * eta)])
        np.testing.assert_array_equal(pair, per_ratio)

    @pytest.mark.parametrize("col", [0, 2, 4])
    def test_ratio_array_rejects_one_bad_column(self, col):
        F = np.stack([t.steering_vector(16, x) for x in np.linspace(-0.8, 0.8, 5)], axis=1)
        F[3, col] *= 1.5
        with pytest.raises(ValueError, match="relative modulus spread 3.333e-01"):
            t.scale_analog_matrix(F, np.array([0.98, 1.0, 1.02]))

    def test_ratio_array_rejects_zero_column(self):
        F = np.stack([t.steering_vector(16, x) for x in (-0.5, 0.0, 0.5)], axis=1)
        F[:, 1] = 0
        with pytest.raises(ValueError, match="zero vector"):
            t.scale_analog_matrix(F, np.array([0.98, 1.02]))

    def test_modulus_criterion_is_per_column(self):
        # columns of different (constant) moduli are each constant-modulus
        F = np.stack([t.steering_vector(8, -0.2), 3 * t.steering_vector(8, 0.6)], axis=1)
        assert t.scale_analog_matrix(F, np.array([0.99, 1.01])).shape == (2, 8, 2)

    @pytest.mark.parametrize("eta", [[0.0, 1.0, 1.1], [1.0, 1.02, -1.0], [-0.5],
                                     [1.0, np.nan], [np.inf]])
    def test_ratio_array_rejects_nonpositive(self, eta):
        F = np.stack([t.steering_vector(8, x) for x in (-0.5, 0.5)], axis=1)
        with pytest.raises(ValueError, match="eta_m must be positive"):
            t.scale_analog_matrix(F, np.array(eta))

    def test_vector_input_delegates(self):
        a = t.steering_vector(8, 0.4)
        np.testing.assert_allclose(t.scale_analog_matrix(a, 1.02),
                                   t.scale_beamformer(a, 1.02))
