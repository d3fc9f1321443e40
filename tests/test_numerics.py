import dataclasses
import io
import math
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from coupledosc import covariant, entanglement, floats, numerics, oscillator, parton, verify
from coupledosc.floats import MAX_TABLE_VALUES, EtaRangeError
from coupledosc.numerics import (
    DensityKernel,
    GridResolutionError,
    blocks,
    check_resolution,
    default_grid,
    hermite_basis,
    hermite_fn,
    integrate_1d,
    integrate_2d,
    oracle_reduced_density,
    uniform_grid,
)
from coupledosc.verify import CheckResult

PI_QUARTER = 0.7511255444649425  # pi^(-1/4)
BENCH = oscillator.CoupledParams(m=1.0, A=5.0, C=-3.0)
PHI2_AT_1 = 0.32214418255673755  # (2 - 1)/sqrt2 * pi^(-1/4) * e^(-1/2)


def closed_form_rho(eta, x, xp):
    """The paper's reduced density of mode 1, a route the oracle never calls:
    rho_eta(x, x') = (pi cosh eta)^(-1/2) exp{-[(x + x')^2 / cosh eta + (x - x')^2 cosh eta] / 4}."""
    c = math.cosh(eta)
    return np.exp(-0.25 * ((x + xp) ** 2 / c + (x - xp) ** 2 * c)) / math.sqrt(math.pi * c)


class TestGrid:
    def test_default_shape(self):
        g = default_grid()
        assert g.count == 401
        assert g.extent == 8.0
        assert g.nodes[0] == -8.0 and g.nodes[-1] == 8.0
        assert 0.0 in g.nodes

    def test_weights_are_trapezoid(self):
        g = uniform_grid(count=5, extent=2.0)
        assert_allclose(g.weights, [0.5, 1.0, 1.0, 1.0, 0.5])
        assert_allclose(np.sum(g.weights), 2 * g.extent)

    def test_nodes_immutable(self):
        g = default_grid()
        with pytest.raises(ValueError):
            g.nodes[0] = 0.0

    @pytest.mark.parametrize(
        "count,extent",
        [(1, 8.0), (0, 8.0), (10, 0.0), (10, -1.0), (10, math.inf), (10, math.nan), (3, 1e308)],
    )
    def test_rejects_degenerate(self, count, extent):
        with pytest.raises(ValueError):
            uniform_grid(count=count, extent=extent)

    @pytest.mark.parametrize("extent", [10**400, -10**400, math.inf])
    def test_extent_past_the_float_range(self, extent):
        # an int extent past the float range is read as +-inf, not left to raise OverflowError
        with pytest.raises(ValueError, match="grid extent must be positive with a finite, nonzero spacing"):
            uniform_grid(9, extent)


class TestHermite:
    def test_ground_values(self):
        assert_allclose(hermite_fn(0, 0.0), PI_QUARTER, rtol=1e-15)
        assert hermite_fn(1, 0.0) == 0.0
        assert_allclose(hermite_fn(2, 1.0), PHI2_AT_1, rtol=1e-14)

    def test_parity(self):
        x = np.linspace(0.1, 4.0, 7)
        assert_allclose(hermite_fn(4, -x), hermite_fn(4, x), rtol=1e-14)
        assert_allclose(hermite_fn(5, -x), -hermite_fn(5, x), rtol=1e-14)

    def test_vectorized_matches_scalar(self):
        x = np.array([-1.5, 0.0, 0.7])
        vec = hermite_fn(3, x)
        assert vec.shape == (3,)
        for xi, vi in zip(x, vec):
            assert hermite_fn(3, float(xi)) == vi

    def test_basis_stack_agrees(self):
        x = np.linspace(-2, 2, 9)
        b = hermite_basis(6, x)
        assert b.shape == (7, 9)
        for k in range(7):
            assert_allclose(b[k], hermite_fn(k, x), rtol=1e-14)

    def test_orthonormality_where_basis_fits(self):
        # phi_40 turns at sqrt(81) = 9, so the box must reach past it
        g = uniform_grid(count=601, extent=12.0)
        b = hermite_basis(40, g.nodes)
        gram = (b * g.weights) @ b.T
        assert np.max(np.abs(gram - np.eye(41))) < 1e-8

    def test_stable_at_high_order(self):
        g = uniform_grid(count=1001, extent=20.0)
        vals = hermite_fn(128, g.nodes)
        assert np.all(np.isfinite(vals))
        assert_allclose(g.weights @ (vals * vals), 1.0, atol=1e-10)

    @pytest.mark.parametrize("bad", [-1, 1.5, "2", True])
    def test_rejects_bad_order(self, bad):
        with pytest.raises(ValueError):
            hermite_fn(bad, 0.0)

    def test_huge_arguments_keep_the_recurrence_bits(self):
        # the recurrence as written, overflows and all: where it gives a number, hermite_basis
        # gives the same bits, signed zeros included, and warns of nothing
        x = np.array([38.0, -38.0, 1e154, -1e154, 1e308, -1e308, 1.5e308, -1.5e308])
        ref = np.empty((129, x.size))
        with np.errstate(all="ignore"):
            ref[0] = np.pi ** -0.25 * np.exp(-0.5 * x * x)
            ref[1] = np.sqrt(2.0) * x * ref[0]
            for j in range(1, 128):
                ref[j + 1] = x * np.sqrt(2.0 / (j + 1)) * ref[j] - np.sqrt(j / (j + 1.0)) * ref[j - 1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = hermite_basis(128, x)
        kept = ~np.isnan(ref)
        assert np.array_equal(got.view(np.int64)[kept], ref.view(np.int64)[kept])
        # sqrt(2) x overflows at 1.5e308 and inf * 0 was NaN; it now reads as 1e308 does
        assert not kept[:, 6:].all()
        assert np.array_equal(got[:, 6:].view(np.int64), got[:, 4:6].view(np.int64))
        assert hermite_fn(1, 1.5e308) == 0.0

    def test_rejects_nonfinite_argument(self):
        with pytest.raises(ValueError):
            hermite_fn(2, np.inf)
        with pytest.raises(ValueError):
            hermite_fn(2, np.array([0.0, np.nan]))

    @pytest.mark.parametrize(
        "call",
        [
            lambda: hermite_basis(MAX_TABLE_VALUES, np.zeros(1)),
            lambda: hermite_basis(10**30, np.zeros(1)),
            lambda: hermite_fn(10**12, 0.0),
            lambda: hermite_fn(2000, np.zeros((100, 100))),
        ],
        ids=["basis-at-cap", "basis-huge-k", "fn-huge-k", "fn-many-points"],
    )
    def test_table_cap_rejects_before_allocating(self, call):
        # each table would take 128 MiB to 8e18 TB; the cap must refuse first
        with pytest.raises(ValueError, match="exceeds the cap"):
            call()

    def test_table_cap_boundary(self, monkeypatch):
        monkeypatch.setattr(floats, "MAX_TABLE_VALUES", 12)
        assert hermite_basis(3, np.zeros(3)).shape == (4, 3)
        assert hermite_basis(11, np.zeros(1)).shape == (12, 1)
        assert hermite_fn(5, np.zeros(2)).shape == (2,)
        for call in (lambda: hermite_basis(3, np.zeros(4)), lambda: hermite_basis(12, np.zeros(1)),
                     lambda: hermite_fn(5, np.zeros(3))):
            with pytest.raises(ValueError, match=r"exceeds the cap of 12"):
                call()


@pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 128, 1201])
@pytest.mark.parametrize("size", [1, 64, 1000])
def test_blocks_cover_the_range_in_order(count, size):
    parts = blocks(count, size)
    assert [i for part in parts for i in range(count)[part]] == list(range(count))
    assert all(0 < len(range(count)[part]) <= size for part in parts)


class TestIntegration:
    def test_unit_gaussian(self):
        val = integrate_1d(lambda x: np.exp(-x * x / 2) / math.sqrt(2 * math.pi))
        assert_allclose(val, 1.0, atol=1e-12)

    def test_product_gaussian_2d(self):
        val = integrate_2d(lambda x, y: np.exp(-(x * x + y * y)) / math.pi)
        assert_allclose(val, 1.0, atol=1e-12)

    def test_polynomial_moment(self):
        # second moment of the standard normal
        val = integrate_1d(lambda x: x * x * np.exp(-x * x / 2) / math.sqrt(2 * math.pi))
        assert_allclose(val, 1.0, atol=1e-10)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            integrate_1d(lambda x: np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="one value per mesh point"):
            integrate_2d(lambda x, y: np.array([1.0, 2.0]))

    def test_broadcastable_integrand_equals_full_mesh(self):
        shapes = []

        def column(x, y):
            vals = np.exp(-x * x) * np.cos(x)
            shapes.append(vals.shape)
            return vals

        full = integrate_2d(lambda x, y: np.exp(-x * x) * np.cos(x) + 0.0 * y)
        assert integrate_2d(column) == full
        assert shapes == [(401, 1)]

    def test_rejects_nonfinite_integrand(self):
        with pytest.raises(ValueError):
            integrate_1d(lambda x: np.full_like(x, np.nan))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, (np.inf, -np.inf)])
    def test_nonfinite_value_is_named_in_both_dimensions(self, bad):
        # the values are scanned only once the contracted sum is not finite
        def one_d(x):
            vals = np.ones_like(x)
            vals[[7, 300]] = bad
            return vals

        def two_d(x, y):
            vals = np.ones((x.size, y.size))
            vals[[7, 300], [11, 200]] = bad
            return vals

        for integrate, f in ((integrate_1d, one_d), (integrate_2d, two_d)):
            with pytest.raises(ValueError, match="^integrand returned non-finite values$"):
                integrate(f)

    def test_finite_integrand_whose_integral_overflows(self):
        with pytest.raises(ValueError, match="integral overflows the float range"):
            integrate_1d(lambda x: np.full_like(x, 1e308))
        with pytest.raises(ValueError, match="integral overflows the float range"):
            integrate_2d(lambda x, y: np.full((401, 401), 1e308))

    def test_finite_integral_is_the_plain_contraction(self):
        g = default_grid()
        x = g.nodes
        vals = np.exp(-(x[:, None] - 0.3) ** 2 - x[None, :] ** 2 / 3) * np.cos(x[None, :])
        assert integrate_2d(lambda a, b: vals) == float(g.weights @ vals @ g.weights)
        assert integrate_1d(lambda a: vals[17]) == float(g.weights @ vals[17])


class TestOracleKernel:
    def test_symmetric_by_construction(self):
        kern = oracle_reduced_density(1.0)
        assert kern.asymmetry() == 0.0

    def test_unit_trace(self):
        assert_allclose(oracle_reduced_density(1.0).trace(), 1.0, atol=1e-8)
        assert_allclose(oracle_reduced_density(2.0).trace(), 1.0, atol=1e-7)

    def test_projections_match_geometric_ladder(self):
        kern = oracle_reduced_density(1.0)
        t2 = math.tanh(0.5) ** 2
        for k in range(8):
            expected = t2**k / math.cosh(0.5) ** 2
            assert_allclose(kern.fock_projection(k), expected, atol=1e-10)

    def test_purity_matches_closed_form(self):
        for eta in (0.0, 0.5, 1.0, 2.0):
            kern = oracle_reduced_density(eta)
            assert_allclose(kern.purity(), 1.0 / math.cosh(eta), atol=1e-8)

    def test_separable_limit_is_projector(self):
        kern = oracle_reduced_density(0.0)
        g = kern.grid
        phi0 = hermite_fn(0, g.nodes)
        assert np.max(np.abs(kern.values - np.outer(phi0, phi0))) < 1e-12

    def test_tabulates_the_ground_state_once(self, monkeypatch):
        # the oracle's table is oscillator.ground_state on the mesh, so a changed ground
        # state reaches the kernel checks
        calls, fn = [], oscillator.ground_state
        monkeypatch.setattr(oscillator, "ground_state", lambda *a: calls.append(a) or fn(*a))
        oracle_reduced_density(0.5)
        [(x1, x2, eta)] = calls
        nodes = default_grid().nodes
        assert eta == 0.5
        assert np.array_equal(x1, nodes[:, None]) and np.array_equal(x2, nodes[None, :])

    def test_flags_underresolved_grid(self):
        with pytest.raises(GridResolutionError):
            oracle_reduced_density(3.0)  # width 3.17 > 8/4 on the default grid
        oracle_reduced_density(3.0, uniform_grid(count=801, extent=16.0))

    def test_flags_eta_beyond_cap(self):
        # the state width sqrt(e^6.5 / 2) = 18.2 fits extent 80, so only the cap can refuse it
        grid = uniform_grid(count=401, extent=80.0)
        for eta in (6.5, -6.5):
            assert check_resolution(eta, grid)[1] is grid
            with pytest.raises(GridResolutionError, match=r"^\|eta\| = 6.5 beyond supported range 6$"):
                oracle_reduced_density(eta, grid)

    # (eta, grid count, grid extent, budget on max |oracle - rho_eta|); measured on an
    # x86-64 host with numpy 2.4: 5.6e-16, 5.0e-16, 5.6e-16, 6.8e-14 and 2.7e-9 on the
    # default grid, then 1.5e-3, 5.1e-7, 7.0e-12 and 1.7e-16 at 17..41 nodes, where the
    # error follows the trapezoid rule's aliasing term. A budget may only tighten
    ORACLE_TABLE = [
        (0.0, 401, 8.0, 4e-15),
        (0.5, 401, 8.0, 4e-15),
        (1.0, 401, 8.0, 4e-15),
        (-1.5, 401, 8.0, 1e-13),
        (2.0, 401, 8.0, 4e-9),
        (1.0, 17, 8.0, 2e-3),
        (1.0, 25, 8.0, 7e-7),
        (1.0, 33, 8.0, 1e-11),
        (1.0, 41, 8.0, 4e-15),
    ]

    @pytest.mark.parametrize("eta, count, extent, budget", ORACLE_TABLE)
    def test_matches_the_closed_form_density(self, eta, count, extent, budget):
        # rounding alone at eta = 0, 0.5, 1 and 41 nodes: a 1e-13 relative error exceeds it
        kern = oracle_reduced_density(eta, uniform_grid(count, extent))
        x = kern.grid.nodes
        assert np.max(np.abs(kern.values - closed_form_rho(eta, x[:, None], x[None, :]))) <= budget

    def test_csv_dump(self, tmp_path):
        g = uniform_grid(count=5, extent=4.0)
        kern = oracle_reduced_density(0.5, g)
        path = tmp_path / "kernel.csv"
        kern.to_csv(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "x,x_prime,value"
        assert len(lines) == 1 + 25
        x, xp, v = lines[1].split(",")
        assert float(x) == -4.0 and float(xp) == -4.0
        assert_allclose(float(v), kern.values[0, 0], rtol=1e-14)


class TestEtaRange:
    """Closed forms that overflow a float raise EtaRangeError; just inside they still return."""

    @pytest.mark.parametrize(
        "call, inside, outside",
        [
            (lambda e: entanglement.schmidt_coefficients(e, 4).coefficients, 1420.9, 1421.0),
            (lambda e: entanglement.reduced_state(e, 4).eigenvalues, 711.1, 711.2),
            (entanglement.purity, 710.47, 710.48),
            (parton.width, -710.47, -710.48),
            (lambda e: parton.model_density(e, [0.0, 1.0]), 710.47, 710.48),
            (lambda e: covariant.boosted_wavefunction(0.5, 0.25, e), -709.78, -709.79),
            (lambda e: covariant.momentum_wavefunction(0.5, 0.25, e), 709.78, 709.79),
            pytest.param(
                lambda e: oscillator.ground_state(0.5, 0.25, e), -709.78, -709.79,
                id="ground_state--709.78--709.79",
            ),
            (covariant.boost_matrix, 1420.95, 1420.96),
            (parton.lightcone_fraction, 1419.56, 1419.57),
            pytest.param(
                lambda e: check_resolution(e, uniform_grid(3, 1e200))[0], 709.78, 709.79,
                id="check_resolution-709.78-709.79",
            ),
        ],
    )
    def test_edge(self, call, inside, outside):
        assert np.all(np.isfinite(np.asarray(call(inside))))
        with pytest.raises(EtaRangeError, match=r"usable range is \|eta\| <= \d+\.\d\d"):
            call(outside)

    @pytest.mark.parametrize(
        "call, eta, error",
        [
            (covariant.boost_matrix, 1500.0, EtaRangeError),
            (lambda e: oscillator.ground_state(0.0, 0.0, e), 800.0, EtaRangeError),
            (parton.longitudinal_density, 800.0, EtaRangeError),
            (parton.longitudinal_density, 5.0, GridResolutionError),
            (covariant.fourier_consistency, 800.0, EtaRangeError),
            (covariant.fourier_consistency, -1e308, EtaRangeError),
            (lambda e: parton.model_density(e, [0.0, 1.0]), math.inf, ValueError),
            (lambda e: parton.model_density(e, [0.0, 1.0]), math.nan, ValueError),
            (parton.lightcone_fraction, -math.inf, ValueError),
            # an int past the float range is not finite either
            pytest.param(floats.check_eta, 10**400, ValueError, id="check_eta-10**400"),
            pytest.param(entanglement.check_omega, 10**400, ValueError, id="check_omega-10**400"),
            pytest.param(entanglement.check_omega, -10**400, ValueError, id="check_omega--10**400"),
            pytest.param(lambda b: parton.lightcone_fraction(0.5, band=b), math.nan, ValueError,
                         id="lightcone_fraction-band-nan"),
            pytest.param(lambda b: parton.lightcone_fraction(0.5, band=b), -1.0, ValueError,
                         id="lightcone_fraction-band--1.0"),
            pytest.param(lambda b: parton.lightcone_fraction(0.5, band=b), -10**400, ValueError,
                         id="lightcone_fraction-band--10**400"),
            # an eta fault is reported before a k_max fault
            pytest.param(lambda e: entanglement.schmidt_coefficients(e, k_max=200000), 1500.0,
                         EtaRangeError, id="schmidt_coefficients-eta-before-k_max"),
            # a field is tested through as_float, so an int past the float range is not finite
            pytest.param(lambda m: oscillator.CoupledParams(m=m, A=5.0, C=-3.0), 10**400, ValueError,
                         id="CoupledParams-m-10**400"),
            pytest.param(lambda a: oscillator.CoupledParams(m=1.0, A=a, C=-3.0), 10**400, ValueError,
                         id="CoupledParams-A-10**400"),
            pytest.param(lambda c: oscillator.CoupledParams(m=1.0, A=5.0, C=c), -10**400, ValueError,
                         id="CoupledParams-C--10**400"),
        ],
    )
    def test_public_functions_reject_cleanly(self, call, eta, error):
        with pytest.raises(error):
            call(eta)

    def test_band_past_the_float_range_is_inf(self):
        # read through as_float, an int past the float range is the band inf
        assert parton.lightcone_fraction(0.5, band=10**400) == parton.lightcone_fraction(0.5, band=math.inf)

    @pytest.mark.parametrize(
        "call, value, message",
        [
            pytest.param(lambda x: oscillator.hamiltonian_energy((x, 0.0), (0.0, 0.0), BENCH), 1e308,
                         "the energy H(x, p) overflows a float at x1 = 1e+308, x2 = 0, p1 = 0, p2 = 0; "
                         "use smaller coordinates or momenta", id="hamiltonian_energy-overflow"),
            pytest.param(lambda p: oscillator.hamiltonian_energy((0.0, 0.0), (p, 0.0), BENCH), math.nan,
                         "the energy H(x, p) needs finite inputs, got x1 = 0, x2 = 0, p1 = nan, p2 = 0",
                         id="hamiltonian_energy-nan"),
            pytest.param(lambda y: oscillator.normal_mode_energy((y, 0.0), (0.0, 0.0), BENCH), 1e308,
                         "the normal-mode energy overflows a float at y1 = 1e+308, y2 = 0, py1 = 0, "
                         "py2 = 0; use smaller coordinates or momenta", id="normal_mode_energy-overflow"),
            pytest.param(lambda y: oscillator.normal_mode_energy((0.0, y), (0.0, 0.0), BENCH), -math.inf,
                         "the normal-mode energy needs finite inputs, got y1 = 0, y2 = -inf, py1 = 0, py2 = 0",
                         id="normal_mode_energy-inf"),
            pytest.param(lambda z: covariant.boost_point(covariant.SpacetimePoint(z, 0.1), 0.5), math.inf,
                         "the boost by eta = 0.5 needs finite inputs, got z = inf, t = 0.1",
                         id="boost_point-inf"),
            pytest.param(lambda z: covariant.boost_point(covariant.SpacetimePoint(z, z), 2.0), 1e308,
                         "the boost by eta = 2 overflows a float at z = 1e+308, t = 1e+308; "
                         "use a smaller point or rapidity", id="boost_point-overflow"),
            pytest.param(lambda z: covariant.boost_point(covariant.SpacetimePoint(z, 0.0), 0.0), 10**400,
                         "the boost by eta = 0 needs finite inputs, got z = inf, t = 0",
                         id="boost_point-10**400"),
            pytest.param(lambda p: covariant.momentum_variables((p, 0, 0, 0), (p, 0, 0, 0)), 1e308,
                         "the sum or difference of p_a and p_b overflows a float at max |p_a| = 1e+308, "
                         "max |p_b| = 1e+308; use smaller four-vectors", id="momentum_variables-sum-overflow"),
        ],
    )
    def test_scalar_functions_reject_non_finite_results(self, call, value, message):
        # a scalar phase-space function returns a finite float or raises, and no warning escapes
        with pytest.raises(ValueError) as exc:
            call(value)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "call, expected",
        [
            pytest.param(lambda: oscillator.to_normal(1e308, 1e308), (math.inf, 0.0),
                         id="to_normal-overflow"),
            pytest.param(lambda: oscillator.to_normal(math.inf, math.inf), (math.inf, math.nan),
                         id="to_normal-inf-minus-inf"),
            pytest.param(lambda: covariant.dirac_gaussian(1e308, 0.1), 0.0, id="dirac_gaussian-overflow"),
        ],
    )
    def test_elementwise_functions_follow_numpy(self, call, expected):
        # an elementwise function gives inf, NaN or 0.0 where numpy does, and no warning escapes
        np.testing.assert_array_equal(call(), expected)

    @pytest.mark.parametrize(
        "call, message",
        [
            pytest.param(lambda: hermite_fn(3, [0.0, 10**400]), "x must be finite", id="hermite_fn"),
            pytest.param(lambda: oscillator.ground_state([0.0, 10**400], 0.0, 0.5), "x1 must be finite",
                         id="ground_state"),
            pytest.param(lambda: oscillator.to_normal(1.0, -10**400), "x2 must be finite", id="to_normal"),
            pytest.param(lambda: integrate_2d(lambda a, b: 10**400), "the integrand's values must be finite",
                         id="integrate_2d"),
            pytest.param(lambda: covariant.hadron_variables((10**400, 0, 0, 0), (1, 0, 0, 0)),
                         "four-vectors must be finite", id="hadron_variables"),
        ],
    )
    def test_array_int_past_the_float_range_names_the_argument(self, call, message):
        with pytest.raises(ValueError, match=re.escape(message + ", got an int past the float range")):
            call()

    def test_array_conversion_keeps_the_input(self):
        # float and int64 input convert as np.asarray does; to_normal keeps numpy's own dtype
        for values in (np.array([0.1, -2.5e-300, 1e308]), np.array([3, -2**62], np.int64)):
            ref = np.asarray(values, dtype=float)
            assert np.array_equal(floats.as_floats(values, "x").view(np.int64), ref.view(np.int64))
        x32 = np.array([0.5, 1.5], np.float32)
        assert oscillator.to_normal(x32, x32)[0].dtype == np.float32
        assert oscillator.to_normal(np.array([3]), 1)[1].dtype == np.float64
        # ints past int64 but inside the float range are read as floats, not left as objects
        y1, y2 = oscillator.to_normal([2**70], [0])
        assert y1.dtype == np.float64 and y1[0] == y2[0] == 2.0**70 * (1.0 / math.sqrt(2.0))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize(
        "call, limit, message",
        [
            pytest.param(lambda e: oscillator.ground_state(0.5, 0.25, e), floats.EXP_ETA_MAX,
                         "|eta| = 709.783 overflows psi_eta; the usable range is |eta| <= 709.78",
                         id="ground_state"),
            pytest.param(lambda e: check_resolution(e, uniform_grid(3, 1e200))[0], floats.EXP_ETA_MAX,
                         "|eta| = 709.783 overflows the state width sqrt(e^|eta|/2); "
                         "the usable range is |eta| <= 709.78",
                         id="check_resolution"),
            pytest.param(lambda e: covariant.boosted_wavefunction(0.5, 0.25, e), floats.EXP_ETA_MAX,
                         "|eta| = 709.783 overflows psi_eta; the usable range is |eta| <= 709.78",
                         id="boosted_wavefunction"),
            pytest.param(covariant.boost_matrix, 2.0 * floats.COSH_ETA_MAX,
                         "|eta| = 1420.95 overflows the boost matrix cosh(eta/2); "
                         "the usable range is |eta| <= 1420.95",
                         id="boost_matrix"),
            pytest.param(lambda e: entanglement.schmidt_coefficients(e, 4).coefficients,
                         2.0 * floats.COSH_ETA_MAX,
                         "|eta| = 1420.95 overflows the Schmidt coefficients; "
                         "the usable range is |eta| <= 1420.95",
                         id="schmidt_coefficients"),
            pytest.param(lambda e: entanglement.reduced_state(e, 4).eigenvalues,
                         floats.EXP_ETA_MAX + math.log(4.0),
                         "|eta| = 711.169 overflows the eigenvalues p_k; the usable range is |eta| <= 711.16",
                         id="reduced_state"),
            pytest.param(entanglement.purity, floats.COSH_ETA_MAX,
                         "|eta| = 710.476 overflows the purity 1/cosh(eta); the usable range is |eta| <= 710.47",
                         id="purity"),
            pytest.param(entanglement.width, floats.COSH_ETA_MAX,
                         "|eta| = 710.476 overflows the marginal width sqrt(cosh(eta)/2); "
                         "the usable range is |eta| <= 710.47",
                         id="width"),
            pytest.param(lambda e: parton.model_density(e, [0.0, 1.0]), floats.COSH_ETA_MAX,
                         "|eta| = 710.476 overflows the closed-form marginal density; "
                         "the usable range is |eta| <= 710.47",
                         id="model_density"),
        ],
    )
    def test_exact_float_boundary(self, call, limit, message, sign):
        # finite at the limit itself, EtaRangeError at the next float past it
        assert np.all(np.isfinite(np.asarray(call(sign * limit))))
        with pytest.raises(EtaRangeError) as exc:
            call(sign * math.nextafter(limit, math.inf))
        assert str(exc.value) == message

    def test_is_a_value_error(self):
        assert issubclass(EtaRangeError, ValueError)


class TestCountGuard:
    """floats.check_count is the one guard of every order and node or row count."""

    @pytest.mark.parametrize(
        "value, expected",
        [(3, 3), (np.int64(3), 3), (np.uint8(4), 4), (64.0, 64), (np.float64(64.0), 64), (-0.0, 0),
         (10**400, 10**400)],
        ids=["int", "int64", "uint8", "float", "float64", "negative-zero", "huge-int"],
    )
    def test_integers_pass_as_int(self, value, expected):
        count = floats.check_count(value, "n", 0)
        assert count == expected and type(count) is int

    @pytest.mark.parametrize(
        "value",
        [True, False, np.True_, 2.5, np.float64(2.5), math.nan, math.inf, -math.inf, "3", None, 3 + 0j],
        ids=["True", "False", "np.True_", "2.5", "float64-2.5", "nan", "inf", "-inf", "str", "None",
             "complex"],
    )
    def test_non_integers_raise_naming_the_argument(self, value):
        with pytest.raises(ValueError, match=rf"^k_max must be an integer, got {re.escape(repr(value))}$"):
            floats.check_count(value, "k_max", 0)

    @pytest.mark.parametrize(
        "value, low, high, message",
        [
            (-1, 0, math.inf, "k_max must be nonnegative, got -1"),
            (1, 2, math.inf, "k_max must be at least 2, got 1"),
            (-3.0, 2, math.inf, "k_max must be at least 2, got -3"),
            (100_001, 0, 100_000, "k_max must be at most 100000, got 100001"),
        ],
    )
    def test_range(self, value, low, high, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            floats.check_count(value, "k_max", low, high)
        assert floats.check_count(low, "k_max", low, high) == low

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: entanglement.schmidt_coefficients(1.0, 2.5), "k_max must be an integer, got 2.5"),
            (lambda: entanglement.reduced_state(1.0, 2.5), "k_max must be an integer, got 2.5"),
            (lambda: entanglement.purity_series(1.0, 2.5), "k_max must be an integer, got 2.5"),
            (lambda: entanglement.schmidt_coefficients(1.0, True), "k_max must be an integer, got True"),
            (lambda: entanglement.schmidt_coefficients(1.0, math.nan), "k_max must be an integer, got nan"),
            (lambda: entanglement.reduced_state(1.0, math.nan), "k_max must be an integer, got nan"),
            (lambda: hermite_basis(2.5, np.zeros(3)), "k_max must be an integer, got 2.5"),
            (lambda: hermite_basis(True, np.zeros(3)), "k_max must be an integer, got True"),
            (lambda: hermite_fn(2.5, 0.0), "k must be an integer, got 2.5"),
            (lambda: hermite_fn(False, 0.0), "k must be an integer, got False"),
            (lambda: uniform_grid(3.5), "grid count must be an integer, got 3.5"),
            (lambda: uniform_grid(math.nan), "grid count must be an integer, got nan"),
            (lambda: parton.export_gaussian_pdf(0.5, 2.5, io.StringIO()), "n must be an integer, got 2.5"),
        ],
        ids=["schmidt", "reduced", "purity_series", "schmidt-bool", "schmidt-nan", "reduced-nan",
             "basis", "basis-bool", "hermite_fn", "hermite_fn-bool", "grid", "grid-nan", "export"],
    )
    def test_fractional_counts_raise(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    def test_integral_floats_and_numpy_integers_work(self):
        x = np.linspace(-3.0, 3.0, 7)
        for k in (2.0, np.int64(2), np.float64(2.0)):
            exp_, rs = entanglement.schmidt_coefficients(1.0, k), entanglement.reduced_state(1.0, k)
            exp2, rs2 = entanglement.schmidt_coefficients(1.0, 2), entanglement.reduced_state(1.0, 2)
            assert (exp_.k_max, rs.k_max, exp_.tail, rs.tail) == (2, 2, exp2.tail, rs2.tail)
            assert type(exp_.k_max) is type(rs.k_max) is int
            np.testing.assert_array_equal(exp_.coefficients, exp2.coefficients)
            np.testing.assert_array_equal(rs.eigenvalues, rs2.eigenvalues)
            np.testing.assert_array_equal(hermite_basis(k, x), hermite_basis(2, x))
            np.testing.assert_array_equal(hermite_fn(k, x), hermite_fn(2, x))
        grid = uniform_grid(3.0)
        assert grid.count == 3 and type(grid.count) is int
        np.testing.assert_array_equal(grid.nodes, uniform_grid(3).nodes)
        np.testing.assert_array_equal(uniform_grid(np.int64(5)).nodes, uniform_grid(5).nodes)
        a, b = io.StringIO(), io.StringIO()
        parton.export_gaussian_pdf(0.5, 5.0, a)
        parton.export_gaussian_pdf(0.5, np.int64(5), b)
        assert a.getvalue() == b.getvalue() and a.getvalue().count("\n") == 6


@floats.record
class _Pair:
    x: float
    y: float = 0.0

    def __post_init__(self):
        if self.x < 0.0:
            raise ValueError("x must be nonnegative")


@floats.record
class _OtherPair:
    x: float
    y: float


def _twin(cls):
    """The class @dataclass(frozen=True) makes from the fields, defaults and __post_init__ of cls."""
    fields = [
        (name, kind, dataclasses.field(default=cls.__dict__[name])) if name in cls.__dict__ else (name, kind)
        for name, kind in cls.__annotations__.items()
    ]
    namespace = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    return dataclasses.make_dataclass(cls.__name__, fields, namespace=namespace, frozen=True)


def _outcome(call):
    """("value", what call() returns), or the type and text of what it raises."""
    try:
        return "value", call()
    except Exception as exc:
        return type(exc), str(exc)


def _reading(obj):
    """What a record shows: its fields in order, repr, hash, equality, and assignment and deletion."""
    first = obj.__match_args__[0]
    return (
        list(vars(obj).items()), repr(obj), hash(obj), obj == type(obj)(**vars(obj)),
        obj.__eq__(tuple(vars(obj).values())), _outcome(lambda: setattr(obj, first, 0.0))[1],
        _outcome(lambda: delattr(obj, first))[1], vars(obj)[first],
    )


# every floats.record class in src/
RECORDS = sorted(
    {
        obj
        for module in (covariant, entanglement, numerics, oscillator, parton, verify)
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__setattr__ is floats._frozen
    },
    key=lambda cls: cls.__name__,
)


class TestRecord:
    """floats.record: frozen records with the dataclass construction, equality and repr."""

    def test_construction(self):
        assert vars(_Pair(1.0, 2.0)) == {"x": 1.0, "y": 2.0}
        assert vars(_Pair(x=1.0, y=2.0)) == {"x": 1.0, "y": 2.0}
        assert vars(_Pair(1.0, y=2.0)) == {"x": 1.0, "y": 2.0}
        assert vars(_Pair(1.0)) == {"x": 1.0, "y": 0.0}
        assert vars(_Pair(x=1.0)) == {"x": 1.0, "y": 0.0}
        assert vars(CheckResult("c", True, 0.5, 1.0)) == {
            "name": "c", "passed": True, "deviation": 0.5, "tolerance": 1.0, "detail": ""
        }

    def test_vars_lists_the_fields_in_order(self):
        # keywords out of order too: vars() is the JSON key order of modes and verify
        assert list(vars(_Pair(y=2.0, x=1.0))) == ["x", "y"]
        modes = oscillator.normal_modes(BENCH)
        assert list(vars(modes)) == ["K", "eta", "omega", "omega_plus", "omega_minus"]
        assert list(vars(BENCH)) == ["m", "A", "C"]
        assert _Pair.__match_args__ == ("x", "y")

    @pytest.mark.parametrize(
        "args, kwargs",
        [((), {}), ((), {"y": 1.0}), ((1.0, 2.0, 3.0), {}), ((1.0,), {"z": 3.0}), ((1.0,), {"x": 3.0})],
        ids=["none", "missing", "too-many", "unknown", "repeated"],
    )
    def test_bad_arguments_raise_type_error(self, args, kwargs):
        # Python binds the arguments, so the type and text are those of @dataclass(frozen=True)
        got = _outcome(lambda: _Pair(*args, **kwargs))
        assert got[0] is TypeError
        assert got == _outcome(lambda: _twin(_Pair)(*args, **kwargs))

    def test_every_record_class_is_found(self):
        names = {cls.__name__ for cls in RECORDS}
        assert names >= {
            "CoupledParams", "NormalModeData", "FockExpansion", "ReducedState", "ThermalMap",
            "QuadratureGrid", "DensityKernel", "SpacetimePoint", "MomentumPoint",
            "MarginalDistribution", "OverlaySeries", "CheckResult", "_KernelReadings",
        }

    @pytest.mark.parametrize("cls", RECORDS + [_Pair, _OtherPair], ids=lambda cls: cls.__name__)
    def test_records_match_their_dataclass_twins(self, cls):
        twin = _twin(cls)
        names = cls.__match_args__
        assert names == twin.__match_args__
        # descending values, so that every __post_init__ accepts them: m > 0 and A > |C| of
        # CoupledParams (3, 2, 1), x >= 0 of _Pair (2, 1)
        values = tuple(float(len(names) - i) for i in range(len(names)))
        required = tuple(v for name, v in zip(names, values) if name not in cls.__dict__)
        calls = {
            "position": (values, {}),
            "keyword": ((), dict(zip(names, values))),
            "keyword-reversed": ((), dict(reversed(list(zip(names, values))))),
            "defaults": (required, {}),
            "none": ((), {}),
            "missing-first": ((), dict(zip(names[1:], values[1:]))),
            "too-many": ((*values, 0.0), {}),
            "unknown": (values, {"unknown": 0.0}),
            "repeated": (values, {names[0]: 0.0}),
            "post-init-rejects": ((-1.0, *values[1:]), {}),
        }
        for case, (args, kwargs) in calls.items():
            got = _outcome(lambda: _reading(cls(*args, **kwargs)))
            assert got == _outcome(lambda: _reading(twin(*args, **kwargs))), case

    def test_frozen(self):
        pair = _Pair(1.0, 2.0)
        with pytest.raises(AttributeError, match="cannot assign to field 'x'"):
            pair.x = 3.0
        with pytest.raises(AttributeError, match="cannot assign to field 'z'"):
            pair.z = 3.0
        with pytest.raises(AttributeError, match="cannot delete field 'y'"):
            del pair.y
        assert vars(pair) == {"x": 1.0, "y": 2.0}

    def test_equality_and_hash_follow_the_fields(self):
        assert _Pair(1.0, 2.0) == _Pair(x=1.0, y=2.0)
        assert _Pair(1.0, 2.0) != _Pair(1.0, 3.0)
        assert hash(_Pair(1.0, 2.0)) == hash(_Pair(x=1.0, y=2.0)) == hash((1.0, 2.0))
        # another class with the same fields is not equal
        assert _Pair(1.0, 2.0) != _OtherPair(1.0, 2.0)
        assert _Pair(1.0, 2.0).__eq__((1.0, 2.0)) is NotImplemented
        assert len({_Pair(1.0, 2.0), _Pair(x=1.0, y=2.0)}) == 1

    @pytest.mark.parametrize(
        "args, kwargs", [((-1.0, 2.0), {}), ((), {"x": -1.0, "y": 2.0}), ((), {"y": 2.0, "x": -1.0})],
        ids=["position", "keyword", "keyword-out-of-order"],
    )
    def test_post_init_validates_every_call(self, args, kwargs):
        with pytest.raises(ValueError, match="x must be nonnegative"):
            _Pair(*args, **kwargs)

    @pytest.mark.parametrize(
        "make, text",
        [
            (lambda: BENCH, "CoupledParams(m=1.0, A=5.0, C=-3.0)"),
            (lambda: oscillator.normal_modes(BENCH),
             "NormalModeData(K=4.0, eta=0.34657359027997264, omega=2.0, omega_plus=2.82842712474619, "
             "omega_minus=1.4142135623730951)"),
            (lambda: covariant.SpacetimePoint(z=0.8, t=-1.3), "SpacetimePoint(z=0.8, t=-1.3)"),
            (lambda: entanglement.effective_temperature(1.5, 2.0),
             "ThermalMap(omega=2.0, x=0.9077914738164128, temperature=2.203149134670624)"),
            (lambda: CheckResult("b", False, 0.5, 0.1, "why"),
             "CheckResult(name='b', passed=False, deviation=0.5, tolerance=0.1, detail='why')"),
        ],
        ids=["CoupledParams", "NormalModeData", "SpacetimePoint", "ThermalMap", "CheckResult"],
    )
    def test_repr_is_the_dataclass_text(self, make, text):
        assert repr(make()) == text

    def test_public_records_compare_by_field(self):
        assert covariant.SpacetimePoint(0.8, -1.3) == covariant.SpacetimePoint(z=0.8, t=-1.3)
        assert hash(BENCH) == hash(oscillator.CoupledParams(1.0, 5.0, -3.0))
        assert covariant.SpacetimePoint(0.8, -1.3) != covariant.MomentumPoint(0.8, -1.3)
