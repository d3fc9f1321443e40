import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from coupledosc.numerics import hermite_fn, integrate_2d
from coupledosc.oscillator import (
    CoupledParams,
    UnstablePotentialError,
    from_normal,
    ground_state,
    hamiltonian_energy,
    normal_mode_energy,
    normal_modes,
    to_normal,
)

BENCH = CoupledParams(m=1.0, A=5.0, C=-3.0)
ETA_BENCH = 0.34657359027997264  # ln(2)/2

finite = st.floats(-3.0, 3.0, allow_nan=False)


class TestParams:
    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError):
            CoupledParams(m=0.0, A=1.0, C=0.0)
        with pytest.raises(ValueError):
            CoupledParams(m=-1.0, A=1.0, C=0.0)

    @pytest.mark.parametrize("a,c", [(1.0, 1.0), (1.0, -1.0), (2.0, 3.0), (0.0, 0.0), (-1.0, 0.0)])
    def test_rejects_unbound_potential(self, a, c):
        with pytest.raises(UnstablePotentialError):
            CoupledParams(m=1.0, A=a, C=c)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            CoupledParams(m=1.0, A=math.inf, C=0.0)


class TestNormalModes:
    def test_benchmark_values(self):
        modes = normal_modes(BENCH)
        assert_allclose(modes.K, 4.0, rtol=1e-15)
        assert_allclose(modes.eta, ETA_BENCH, rtol=1e-15)
        assert_allclose(modes.omega, 2.0, rtol=1e-15)
        assert_allclose(modes.omega_plus, 2.0 * math.exp(ETA_BENCH), rtol=1e-15)
        assert_allclose(modes.omega_minus, 2.0 * math.exp(-ETA_BENCH), rtol=1e-15)

    def test_eta_sign_follows_minus_coupling(self):
        assert normal_modes(CoupledParams(m=1.0, A=2.0, C=-1.0)).eta > 0
        assert normal_modes(CoupledParams(m=1.0, A=2.0, C=1.0)).eta < 0
        assert normal_modes(CoupledParams(m=1.0, A=2.0, C=0.0)).eta == 0.0

    def test_frequencies_are_sqrt_stiffness_over_mass(self):
        params = CoupledParams(m=2.0, A=3.0, C=1.2)
        modes = normal_modes(params)
        assert_allclose(modes.omega_minus, math.sqrt((params.A + params.C) / params.m), rtol=1e-13)
        assert_allclose(modes.omega_plus, math.sqrt((params.A - params.C) / params.m), rtol=1e-13)

    @given(st.floats(0.2, 4.0), st.floats(0.5, 5.0), st.floats(-0.9, 0.9))
    def test_mode_product_recovers_omega(self, m, a, cf):
        modes = normal_modes(CoupledParams(m=m, A=a, C=cf * a))
        assert_allclose(modes.omega_plus * modes.omega_minus, modes.omega**2, rtol=1e-12)

    @pytest.mark.parametrize(
        "a, c",
        [(1e200, -3.0), (1e308, -9e307), (1.7e308, 1.6e308)],
        ids=["A-squared-overflows", "A-minus-C-overflows", "A-plus-C-overflows"],
    )
    def test_huge_couplings(self, a, c):
        with localcontext() as ctx:
            ctx.prec = 50
            A, C = Decimal(a), Decimal(c)
            k = float((A * A - C * C).sqrt())
            eta = float(((A - C) / (A + C)).ln() / 4)
        modes = normal_modes(CoupledParams(m=1.0, A=a, C=c))
        assert_allclose(modes.K, k, rtol=1e-15)
        assert_allclose(modes.eta, eta, rtol=1e-15, atol=1e-16)
        assert_allclose(modes.omega, math.sqrt(k), rtol=1e-15)

    @given(st.floats(1e-3, 1e3), st.floats(1e-150, 1e150), st.floats(-0.999, 0.999))
    def test_in_range_bits_unchanged(self, m, a, cf):
        # below the overflow branch K and eta are the plain A^2 - C^2 forms
        c = cf * a
        modes = normal_modes(CoupledParams(m=m, A=a, C=c))
        assert modes.K == math.sqrt(a**2 - c**2)
        assert modes.eta == 0.25 * math.log((a - c) / (a + c))

    def test_overflowing_frequency_is_a_value_error(self):
        with pytest.raises(ValueError, match="overflow a float"):
            normal_modes(CoupledParams(m=1e-300, A=1e10, C=0.0))


class TestCoordinateRotation:
    def test_forward_values(self):
        y1, y2 = to_normal(1.0, 1.0)
        assert_allclose(y1, math.sqrt(2.0), rtol=1e-15)
        assert_allclose(y2, 0.0, atol=0.0)

    @given(finite, finite)
    def test_round_trip(self, x1, x2):
        y1, y2 = to_normal(x1, x2)
        b1, b2 = from_normal(y1, y2)
        assert_allclose([b1, b2], [x1, x2], atol=1e-14)

    @given(finite, finite)
    def test_rotation_is_isometry(self, x1, x2):
        y1, y2 = to_normal(x1, x2)
        assert_allclose(y1 * y1 + y2 * y2, x1 * x1 + x2 * x2, rtol=1e-12, atol=1e-12)


class TestGroundState:
    def test_peak_at_origin(self):
        assert_allclose(ground_state(0.0, 0.0, 1.3), math.pi**-0.5, rtol=1e-15)

    def test_known_value_unsqueezed(self):
        # (1/sqrt pi) e^{-1} at the point (1, 1) with eta = 0
        assert_allclose(ground_state(1.0, 1.0, 0.0), 0.2075537487102974, rtol=1e-14)

    def test_factorizes_at_zero_squeeze(self):
        x = np.linspace(-3, 3, 17)
        X1, X2 = np.meshgrid(x, x, indexing="ij")
        assert_allclose(
            ground_state(X1, X2, 0.0), hermite_fn(0, X1) * hermite_fn(0, X2), atol=1e-15
        )

    @pytest.mark.parametrize("eta", [0.0, 0.5, 1.0, 2.0])
    def test_normalized(self, eta):
        norm = integrate_2d(lambda a, b: ground_state(a, b, eta) ** 2)
        assert_allclose(norm, 1.0, atol=1e-8)

    def test_positive_and_bounded(self):
        x = np.linspace(-6, 6, 41)
        X1, X2 = np.meshgrid(x, x, indexing="ij")
        vals = ground_state(X1, X2, 1.7)
        assert np.all(vals > 0.0)
        assert np.max(vals) <= math.pi**-0.5

    def test_squeeze_narrows_relative_coordinate(self):
        # along x1 = -x2 the e^{eta} axis dominates; larger eta, faster decay
        assert ground_state(1.0, -1.0, 2.0) < ground_state(1.0, -1.0, 1.0)
        # along x1 = x2 it is the e^{-eta} axis, so decay slows instead
        assert ground_state(1.5, 1.5, 2.0) > ground_state(1.5, 1.5, 1.0)

    def test_rejects_nonfinite_eta(self):
        with pytest.raises(ValueError):
            ground_state(0.0, 0.0, math.nan)


class TestEnergy:
    def test_single_particle_displacement(self):
        assert_allclose(hamiltonian_energy((1.0, 0.0), (0.0, 0.0), BENCH), 2.5, rtol=1e-15)

    def test_symmetric_displacement_feels_coupling(self):
        assert_allclose(hamiltonian_energy((1.0, 1.0), (0.0, 0.0), BENCH), 2.0, rtol=1e-15)

    def test_kinetic_term(self):
        assert_allclose(
            hamiltonian_energy((0.0, 0.0), (2.0, 0.0), CoupledParams(m=2.0, A=1.0, C=0.0)),
            1.0,
            rtol=1e-15,
        )

    @settings(max_examples=200)
    @given(
        st.floats(0.2, 4.0),
        st.floats(0.5, 5.0),
        st.floats(-0.9, 0.9),
        finite,
        finite,
        finite,
        finite,
    )
    def test_normal_form_is_the_same_energy(self, m, a, cf, x1, x2, p1, p2):
        params = CoupledParams(m=m, A=a, C=cf * a)
        e_direct = hamiltonian_energy((x1, x2), (p1, p2), params)
        e_normal = normal_mode_energy(to_normal(x1, x2), to_normal(p1, p2), params)
        assert_allclose(e_normal, e_direct, rtol=1e-12, atol=1e-12)
