import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from numpy.testing import assert_allclose

from coupledosc.entanglement import (
    K_MAX_CAP,
    effective_temperature,
    entropy,
    purity,
    purity_series,
    reduced_state,
    schmidt_coefficients,
    thermal_entropy,
)
from coupledosc.numerics import oracle_reduced_density
from coupledosc.oscillator import ground_state
from reference import fock_projection

# frozen reference values at eta = 1
C0_1 = 0.886818883970074
C1_1 = 0.409814221664745
P0_1 = 0.7864477329659275
P1_1 = 0.16794769627868075
PURITY_1 = 0.6480542736638855
S_1 = 0.6594529591680365
S_2 = 1.619822092897702
X_1 = 1.5438736658106096
T_1 = 0.6477213920706075


class TestSchmidt:
    def test_frozen_coefficients(self):
        c = schmidt_coefficients(1.0, k_max=4).coefficients
        assert_allclose(c[0], C0_1, rtol=1e-14)
        assert_allclose(c[1], C1_1, rtol=1e-14)
        assert_allclose(c[1] / c[0], math.tanh(0.5), rtol=1e-14)

    def test_separable_limit(self):
        exp_ = schmidt_coefficients(0.0, k_max=8)
        assert exp_.coefficients[0] == 1.0
        assert np.all(exp_.coefficients[1:] == 0.0)
        assert exp_.tail == 0.0

    def test_negative_eta_alternates_sign(self):
        c = schmidt_coefficients(-1.0, k_max=4).coefficients
        assert_allclose(c[1], -C1_1, rtol=1e-14)
        assert_allclose(np.abs(c), schmidt_coefficients(1.0, k_max=4).coefficients, rtol=1e-14)

    @pytest.mark.parametrize("eta", [0.0, 0.5, 1.0, 2.0, 3.0])
    def test_unit_weight_with_tail(self, eta):
        exp_ = schmidt_coefficients(eta, k_max=64)
        assert_allclose(np.sum(exp_.coefficients**2) + exp_.tail, 1.0, atol=1e-13)

    def test_reconstructs_ground_state(self):
        x = np.linspace(-2.5, 2.5, 11)
        X1, X2 = np.meshgrid(x, x, indexing="ij")
        exp_ = schmidt_coefficients(1.0, k_max=40)
        assert np.max(np.abs(exp_.reconstruct(X1, X2) - ground_state(X1, X2, 1.0))) < 1e-12

    def test_reconstruct_scalar_input(self):
        exp_ = schmidt_coefficients(0.8, k_max=50)
        val = exp_.reconstruct(0.3, -0.4)
        assert isinstance(val, float)
        assert_allclose(val, ground_state(0.3, -0.4, 0.8), atol=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            schmidt_coefficients(math.inf)
        with pytest.raises(ValueError):
            schmidt_coefficients(1.0, k_max=-1)

    @pytest.mark.parametrize("fn", [schmidt_coefficients, reduced_state, purity_series])
    @pytest.mark.parametrize("k_max", [K_MAX_CAP + 1, 10**8, 10**30])
    def test_k_max_cap(self, fn, k_max):
        # rejected before anything is allocated
        with pytest.raises(ValueError, match=f"k_max must be at most {K_MAX_CAP}, got {k_max}$"):
            fn(1.0, k_max=k_max)


class TestReducedState:
    def test_frozen_eigenvalues(self):
        p = reduced_state(1.0, k_max=4).eigenvalues
        assert_allclose(p[0], P0_1, rtol=1e-14)
        assert_allclose(p[1], P1_1, rtol=1e-14)

    def test_geometric_ratio(self):
        p = reduced_state(1.3, k_max=10).eigenvalues
        assert_allclose(p[1:] / p[:-1], math.tanh(0.65) ** 2, rtol=1e-13)

    @pytest.mark.parametrize("eta", [0.0, 1.0, 2.0])
    def test_sums_to_one_with_tail(self, eta):
        rs = reduced_state(eta, k_max=64)
        assert_allclose(np.sum(rs.eigenvalues) + rs.tail, 1.0, atol=1e-13)
        assert rs.tail < 1e-12

    def test_even_in_eta(self):
        assert_allclose(
            reduced_state(-1.7, k_max=16).eigenvalues,
            reduced_state(1.7, k_max=16).eigenvalues,
            rtol=1e-15,
        )

    def test_matches_quadrature_oracle(self):
        kern = oracle_reduced_density(1.0)
        p = reduced_state(1.0, k_max=10).eigenvalues
        for k in range(11):
            assert_allclose(fock_projection(kern, k), p[k], atol=1e-10)


class TestPurity:
    def test_frozen_value(self):
        assert_allclose(purity(1.0), PURITY_1, rtol=1e-14)

    def test_pure_when_uncoupled(self):
        assert purity(0.0) == 1.0

    @pytest.mark.parametrize("eta", [0.0, 0.5, 1.0, 2.0, 3.0])
    def test_series_route_agrees(self, eta):
        assert_allclose(purity_series(eta, k_max=64), purity(eta), atol=1e-10)

    def test_monotone_decreasing(self):
        vals = [purity(e) for e in np.linspace(0, 3, 13)]
        assert np.all(np.diff(vals) < 0)


class TestEntropy:
    def test_frozen_values(self):
        assert_allclose(entropy(1.0), S_1, rtol=1e-13)
        assert_allclose(entropy(2.0), S_2, rtol=1e-13)

    def test_zero_exactly_at_origin(self):
        assert entropy(0.0) == 0.0

    def test_even(self):
        assert entropy(-2.2) == entropy(2.2)

    @pytest.mark.parametrize("eta", [0.25, 0.5, 1.0, 2.0, 3.0])
    def test_matches_eigenvalue_sum(self, eta):
        p = reduced_state(eta, k_max=128).eigenvalues
        p = p[p > 0]
        assert_allclose(entropy(eta), -np.sum(p * np.log(p)), atol=1e-9)

    def test_monotone_increasing(self):
        vals = [entropy(e) for e in np.linspace(0, 3, 13)]
        assert np.all(np.diff(vals) > 0)

    def test_large_eta_asymptote(self):
        # S -> eta + 1 - 2 ln 2, correction O(eta e^{-eta})
        assert_allclose(entropy(40.0), 41.0 - 2 * math.log(2.0), rtol=1e-12)

    def test_asymptote_where_e_to_the_minus_eta_underflows(self):
        # e^{-eta} is 0.0 past eta ~ 745: the closed form returns the asymptote itself
        assert entropy(800.0) == 800.0 + 1.0 - 2.0 * math.log(2.0)
        assert entropy(-800.0) == entropy(800.0)
        assert math.isfinite(entropy(-1e308))


class TestThermalMap:
    def test_frozen_mapping(self):
        tm = effective_temperature(1.0)
        assert_allclose(tm.x, X_1, rtol=1e-14)
        assert_allclose(tm.temperature, T_1, rtol=1e-14)

    def test_temperature_scales_with_omega(self):
        assert_allclose(
            effective_temperature(1.0, omega=2.0).temperature, 2.0 * T_1, rtol=1e-14
        )

    def test_even_in_eta(self):
        assert effective_temperature(-1.0).x == effective_temperature(1.0).x

    def test_zero_squeeze_is_zero_temperature(self):
        with pytest.raises(ValueError):
            effective_temperature(0.0)

    def test_rejects_bad_omega(self):
        with pytest.raises(ValueError):
            effective_temperature(1.0, omega=0.0)
        with pytest.raises(ValueError):
            effective_temperature(1.0, omega=-2.0)

    def test_temperature_overflow_names_the_limit(self):
        x = effective_temperature(5.0).x
        limit = x * np.finfo(float).max
        with pytest.raises(ValueError, match=r"omega must be at most 4\.84518e\+306, got 1e\+308"):
            effective_temperature(5.0, omega=1e308)
        assert math.isfinite(effective_temperature(5.0, omega=limit * (1 - 1e-15)).temperature)

    def test_temperature_underflow_names_the_limit(self):
        x = effective_temperature(0.5).x
        limit = x * math.ulp(0.0)
        with pytest.raises(ValueError, match=r"omega must be at least 1\.4822e-323, got 4\.94066e-324"):
            effective_temperature(0.5, omega=5e-324)
        assert effective_temperature(0.5, omega=limit).temperature > 0.0

    def test_survives_extreme_squeeze(self):
        # tanh(eta/2) rounds to 1 here; the log1p route must keep x > 0
        tm = effective_temperature(99.0)
        assert 0.0 < tm.x < 1e-40
        assert math.isfinite(tm.temperature)

    def test_x_underflow_raises(self):
        with pytest.raises(ValueError, match=r"^\|eta\| = 800 is too large: x underflows to zero$"):
            effective_temperature(800.0)

    def test_hotter_with_more_squeeze(self):
        temps = [effective_temperature(e).temperature for e in (0.5, 1.0, 2.0, 4.0)]
        assert np.all(np.diff(temps) > 0)


class TestThermalEntropy:
    def test_frozen_value(self):
        assert_allclose(thermal_entropy(1.0), 1.0406518522564083, rtol=1e-14)

    @pytest.mark.parametrize("eta", [0.3, 0.5, 1.0, 2.0, 4.0, 30.0])
    def test_equals_entanglement_entropy_exactly(self, eta):
        assert_allclose(thermal_entropy(effective_temperature(eta).x), entropy(eta), rtol=1e-12)

    def test_cold_limit_vanishes(self):
        assert thermal_entropy(50.0) < 1e-15
        assert thermal_entropy(math.inf) == 0.0
        assert thermal_entropy(800.0) >= 0.0

    def test_hot_limit_diverges(self):
        assert thermal_entropy(1e-6) > 10.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            thermal_entropy(bad)

    def test_int_past_the_float_range_reads_as_infinity(self):
        assert thermal_entropy(10**400) == 0.0
        with pytest.raises(ValueError, match=r"^x must be positive, got -inf$"):
            thermal_entropy(-10**400)


def _small_eta_reference(eta):
    """x = -2 ln tanh h and S = 2(sinh^2 h ln coth h + ln cosh h), h = eta/2, at 60 digits.

    Power series in h (twelve terms reach far below 1e-60 for h < 0.005), so
    no digit is lost to 1 - e^{-eta} the way a float would lose it.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        h = Decimal(eta) / 2
        sinh = sum(h ** (2 * k + 1) / math.factorial(2 * k + 1) for k in range(12))
        cosh_m1 = sum(h ** (2 * k) / math.factorial(2 * k) for k in range(1, 12))
        ln_coth = -(sinh / (1 + cosh_m1)).ln()
        ln_cosh = sum((-1) ** (n + 1) * cosh_m1 ** n / n for n in range(1, 12))
        return float(2 * ln_coth), float(2 * (sinh * sinh * ln_coth + ln_cosh))


class TestSmallEta:
    """Below |eta| = 0.01, x and S come from tanh/sinh forms that keep their digits."""

    @pytest.mark.parametrize("eta", [5e-324, 1.5e-323, 1e-310, 1e-300, 1e-152, 1e-12, 1e-6, 1e-3, 0.0099])
    def test_x_matches_reference(self, eta):
        x_ref, _ = _small_eta_reference(eta)
        assert_allclose(effective_temperature(eta).x, x_ref, rtol=5e-16)
        assert effective_temperature(-eta).x == effective_temperature(eta).x

    @pytest.mark.parametrize("eta", [1e-150, 1e-12, 1e-6, 1.2e-4, 1e-3, 0.0099])
    def test_entropy_matches_reference(self, eta):
        _, s_ref = _small_eta_reference(eta)
        assert_allclose(entropy(eta), s_ref, rtol=1e-15)
        assert entropy(-eta) == entropy(eta)

    @pytest.mark.parametrize("eta", [5e-324, 1e-300])
    def test_entropy_underflows_to_zero(self, eta):
        assert entropy(eta) == 0.0

    @pytest.mark.parametrize("eta", [1e-300, 1e-152])
    def test_thermal_equivalence(self, eta):
        # x >= 700 here, where thermal_entropy takes its exact tail (x + 1) e^{-x};
        # e^{-x} turns the rounding of x (~700) into ~1e-13 relative
        assert_allclose(thermal_entropy(effective_temperature(eta).x), entropy(eta), rtol=1e-12)
