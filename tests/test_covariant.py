import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from coupledosc.covariant import (
    MomentumPoint,
    SpacetimePoint,
    boost_matrix,
    boost_point,
    boosted_wavefunction,
    dirac_gaussian,
    fourier_consistency,
    hadron_variables,
    momentum_variables,
    momentum_wavefunction,
    wave_equation_residual,
)
from coupledosc.numerics import GridResolutionError, uniform_grid
from coupledosc.oscillator import ground_state

coord = st.floats(-4.0, 4.0, allow_nan=False)
rapidity = st.floats(-2.5, 2.5, allow_nan=False)


class TestLightconeCoordinates:
    def test_components(self):
        p = SpacetimePoint(z=1.0, t=0.0)
        assert_allclose([p.u, p.v], [2**-0.5, 2**-0.5], rtol=1e-15)

    def test_round_trip(self):
        p = SpacetimePoint(z=0.8, t=-1.3)
        back = SpacetimePoint.from_lightcone(p.u, p.v)
        assert_allclose([back.z, back.t], [p.z, p.t], atol=1e-15)

    def test_momentum_pair_is_swapped(self):
        # q_u pairs with u under the q.x contraction, hence the q0 - qz order
        m = MomentumPoint(qz=1.0, q0=0.0)
        assert_allclose([m.q_u, m.q_v], [-(2**-0.5), 2**-0.5], rtol=1e-15)
        back = MomentumPoint.from_lightcone(m.q_u, m.q_v)
        assert_allclose([back.qz, back.q0], [m.qz, m.q0], atol=1e-15)


class TestBoost:
    def test_matrix_entries(self):
        m = boost_matrix(2.0)
        ch, sh = math.cosh(1.0), math.sinh(1.0)
        assert_allclose(m, [[ch, sh], [sh, ch]], rtol=1e-15)

    def test_lightcone_scaling(self):
        # eta = 2 ln 2 doubles u and halves v
        eta = 2.0 * math.log(2.0)
        p = SpacetimePoint.from_lightcone(1.0, 1.0)
        q = boost_point(p, eta)
        assert_allclose([q.u, q.v], [2.0, 0.5], rtol=1e-14)

    def test_identity_at_zero(self):
        assert_allclose(boost_matrix(0.0), np.eye(2), atol=0.0)

    @given(rapidity)
    def test_unit_determinant(self, eta):
        assert_allclose(np.linalg.det(boost_matrix(eta)), 1.0, atol=1e-13)

    @given(coord, coord, rapidity, rapidity)
    def test_composition_is_additive(self, z, t, e1, e2):
        p = SpacetimePoint(z=z, t=t)
        q1 = boost_point(boost_point(p, e1), e2)
        q2 = boost_point(p, e1 + e2)
        assert_allclose([q1.z, q1.t], [q2.z, q2.t], atol=1e-11)

    @given(coord, coord, rapidity)
    def test_interval_invariant(self, z, t, eta):
        p = SpacetimePoint(z=z, t=t)
        q = boost_point(p, eta)
        assert_allclose(q.z**2 - q.t**2, z**2 - t**2, atol=1e-11)

    @given(coord, coord, rapidity)
    def test_inverse_boost(self, z, t, eta):
        p = SpacetimePoint(z=z, t=t)
        back = boost_point(boost_point(p, eta), -eta)
        assert_allclose([back.z, back.t], [z, t], atol=1e-11)


class TestWavefunctions:
    def test_rest_frame_peak(self):
        assert_allclose(dirac_gaussian(0.0, 0.0), math.pi**-0.5, rtol=1e-15)

    def test_boosted_reduces_to_rest_frame(self):
        x = np.linspace(-3, 3, 13)
        Z, T = np.meshgrid(x, x, indexing="ij")
        assert_allclose(boosted_wavefunction(Z, T, 0.0), dirac_gaussian(Z, T), atol=1e-16)

    def test_same_formula_as_oscillator_ground_state(self):
        x = np.linspace(-3, 3, 20)
        A, B = np.meshgrid(x, x, indexing="ij")
        for eta in (0.0, 0.7, 1.5):
            assert np.max(np.abs(ground_state(A, B, eta) - boosted_wavefunction(A, B, eta))) < 1e-14

    @given(coord, coord, st.floats(-2.0, 2.0, allow_nan=False))
    def test_covariance(self, z, t, eta):
        # the boosted state at the boosted point is the rest state at the original
        p = SpacetimePoint(z=z, t=t)
        q = boost_point(p, eta)
        assert_allclose(
            boosted_wavefunction(q.z, q.t, eta), dirac_gaussian(z, t), atol=1e-12
        )

    def test_reciprocity(self):
        x = np.linspace(-3, 3, 15)
        Z, T = np.meshgrid(x, x, indexing="ij")
        assert_allclose(
            boosted_wavefunction(Z, T, 1.4), boosted_wavefunction(Z, -T, -1.4), atol=1e-16
        )

    @pytest.mark.parametrize("count", [41, 401])
    @pytest.mark.parametrize("eta", [-709.7, -0.8, 0.0, 1e-300, 1.3, 709.7])
    def test_momentum_function_is_self_dual(self, eta, count):
        # the swapped conjugate pairing (q_u with u) cancels the inverted
        # squeeze: phi_eta coincides with psi_eta as a bivariate function,
        # which is the co-growth of the two widths stated pointwise. On the
        # boost meshes the two are bit-equal, so `boost` writes psi for phi
        nodes = uniform_grid(count, 8.0).nodes
        z, t = nodes[:, None], nodes[None, :]
        phi, psi = momentum_wavefunction(z, t, eta), boosted_wavefunction(z, t, eta)
        assert np.array_equal(phi.view(np.int64), psi.view(np.int64))

    @pytest.mark.parametrize("kernel", [boosted_wavefunction, momentum_wavefunction])
    @pytest.mark.parametrize("z, t", [(1e308, 1e308), (1e308, -1e308)])
    def test_overflowing_light_cone_sum_is_silent(self, kernel, z, t):
        # z + t or z - t overflows to inf, where the state is exp(-inf) = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kernel(z, t, 0.0) == 0.0

    def test_rejects_nonfinite_eta(self):
        with pytest.raises(ValueError):
            boosted_wavefunction(0.0, 0.0, math.inf)


class TestFourierConsistency:
    @pytest.mark.parametrize("eta", [0.0, 1.0, -1.0])
    def test_transform_lands_on_momentum_state(self, eta):
        assert fourier_consistency(eta) < 1e-6

    def test_underresolved_grid_flagged(self):
        with pytest.raises(GridResolutionError):
            fourier_consistency(3.0)
        assert fourier_consistency(3.0, grid=uniform_grid(count=801, extent=16.0)) < 1e-6


class TestWaveEquation:
    @pytest.mark.parametrize("eta", [0.0, 1.0, -1.5])
    def test_boosted_state_is_zero_mode(self, eta):
        for z, t in [(0.0, 0.0), (0.5, -0.3), (1.0, 0.7), (-1.2, 0.4)]:
            assert abs(wave_equation_residual(z, t, eta)) < 1e-5


class TestHadronVariables:
    def test_position_split(self):
        X, x = hadron_variables((0.0, 0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 0.0))
        assert_allclose(X, [0.0, 0.0, 0.0, 0.5], rtol=1e-15)
        assert_allclose(x, [0.0, 0.0, 0.0, 1.0 / (2.0 * math.sqrt(2.0))], rtol=1e-15)

    def test_momentum_split(self):
        P, q = momentum_variables((1.0, 0.0, 0.0, 1.0), (1.0, 0.0, 0.0, -1.0))
        assert_allclose(P, [2.0, 0.0, 0.0, 0.0], atol=0.0)
        assert_allclose(q, [0.0, 0.0, 0.0, 2.0 * math.sqrt(2.0)], rtol=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        xa, xb = rng.normal(size=4), rng.normal(size=4)
        X, x = hadron_variables(xa, xb)
        assert_allclose(X + math.sqrt(2.0) * x, xa, atol=1e-14)
        assert_allclose(X - math.sqrt(2.0) * x, xb, atol=1e-14)

    @pytest.mark.parametrize(
        "x_b, X, x",
        [
            pytest.param((1e308, 0, 0, 0), [1e308, 0, 0, 0], [0, 0, 0, 0], id="sum"),
            pytest.param((-1e308, 0, 0, 0), [0, 0, 0, 0], [1e308 / math.sqrt(2.0), 0, 0, 0], id="difference"),
        ],
    )
    def test_overflow_halves_first(self, x_b, X, x):
        # X and x are finite though x_a + x_b or x_a - x_b is not
        got_X, got_x = hadron_variables((1e308, 0, 0, 0), x_b)
        assert got_X.tolist() == X
        assert got_x.tolist() == x

    def test_finite_sums_keep_the_sum_first_bits(self):
        rng = np.random.default_rng(11)
        pairs = [tuple(rng.normal(size=4) * 10.0 ** rng.integers(-300, 300, size=4) for _ in "ab")
                 for _ in range(200)]
        # halving first would give X[0] = 0 here, not 5e-324
        pairs.append(((5e-324, 5e-324, 0.0, 1.0), (5e-324, -5e-324, 0.0, 1.0)))
        for xa, xb in pairs:
            X, x = hadron_variables(xa, xb)
            xa, xb = np.asarray(xa, dtype=float), np.asarray(xb, dtype=float)
            assert X.tobytes() == ((xa + xb) / 2.0).tobytes()
            assert x.tobytes() == ((xa - xb) / (2.0 * math.sqrt(2.0))).tobytes()

    @pytest.mark.parametrize("p_b", [(1e308, 0, 0, 0), (-1e308, 0, 0, 0)], ids=["sum", "difference"])
    def test_momentum_variables_still_reject_an_overflow(self, p_b):
        with pytest.raises(ValueError, match="the sum or difference of p_a and p_b overflows"):
            momentum_variables((1e308, 0, 0, 0), p_b)

    @pytest.mark.parametrize("fn", [hadron_variables, momentum_variables])
    @pytest.mark.parametrize("a, b", [((10**400, 0, 0, 0), (1, 0, 0, 0)), ((1, 0, 0, 0), (0, 0, 0, -10**400))])
    def test_int_component_past_the_float_range(self, fn, a, b):
        with pytest.raises(ValueError, match="four-vectors must be finite"):
            fn(a, b)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            hadron_variables((1.0, 2.0, 3.0), (0.0, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            momentum_variables((1.0, 2.0, 3.0, math.nan), (0.0, 0.0, 0.0, 0.0))
