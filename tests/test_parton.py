import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from numpy.testing import assert_allclose

from coupledosc import covariant
from coupledosc.numerics import (
    MESH_BLOCK_ROWS,
    GridResolutionError,
    blocks,
    check_resolution,
    default_grid,
    oracle_reduced_density,
    uniform_grid,
)
from coupledosc.oscillator import ground_state
from coupledosc.parton import (
    OverlayParseError,
    OverlaySeries,
    OverlayValidationError,
    export_gaussian_pdf,
    ingest_overlay,
    lightcone_fraction,
    longitudinal_density,
    model_density,
    width,
)

WIDTH_2 = 1.3715312047276997  # sqrt(cosh(2)/2)
# (count, extent) grids on which the qz marginal is pinned to the momentum route
MOMENTUM_GRIDS = [(2, 8.0), (9, 3.0), (65, 8.0), (129, 10.0), (401, 8.0), (801, 12.0), (1201, 24.0)]


def _resolves(eta, count, extent):
    try:
        check_resolution(eta, uniform_grid(count=count, extent=extent))
    except GridResolutionError:
        return False
    return True


# (eta, count, extent) on which lightcone_fraction is pinned to the whole-mesh quadrature
FRACTION_GRIDS = [
    (eta, count, extent)
    for eta in (-2.0, -0.5, 0.0, 1.0, 2.0, 4.0)
    for count, extent in [(301, 24.0), (601, 24.0), (1201, 24.0), (2401, 24.0), (401, 8.0), (801, 12.0)]
    if _resolves(eta, count, extent)
]


class TestWidthLaw:
    def test_rest_frame_minimum(self):
        assert_allclose(width(0.0), 2**-0.5, rtol=1e-15)

    def test_frozen_value(self):
        assert_allclose(width(2.0), WIDTH_2, rtol=1e-14)

    def test_even_and_increasing(self):
        assert width(-1.5) == width(1.5)
        vals = [width(e) for e in np.linspace(0, 3, 13)]
        assert np.all(np.diff(vals) > 0)


class TestLongitudinalDensity:
    @pytest.mark.parametrize("eta", [0.0, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("variable", ["z", "qz"])
    def test_variance_matches_closed_form(self, eta, variable):
        # one marginal stands for both variables
        m = longitudinal_density(eta)
        assert abs(m.variance - math.cosh(eta) / 2.0) < 1e-6
        assert abs(m.variance - width(eta) ** 2) < 1e-6

    def test_density_normalized_on_grid(self):
        m = longitudinal_density(1.0)
        g = uniform_grid()
        assert_allclose(g.weights @ m.density, 1.0, atol=1e-12)

    def test_momentum_marginal_equals_position_marginal(self):
        # co-growth: the two marginals are the same function of eta
        mz = longitudinal_density(1.5)
        mq, _ = _momentum_route_density(1.5, default_grid())
        assert_allclose(mq, mz.density, atol=1e-15)

    def test_matches_analytic_density(self):
        m = longitudinal_density(1.0)
        assert np.max(np.abs(m.density - model_density(1.0, m.coordinates))) < 1e-8

    @pytest.mark.parametrize("eta", [0.0, 0.5, 1.0, 1.5, 2.0, -0.7])
    @pytest.mark.parametrize("count, extent", MOMENTUM_GRIDS)
    def test_momentum_marginal_is_the_momentum_route(self, eta, count, extent):
        # phi_eta(qz, q0) = psi_eta(q0, qz) bit for bit, so the z reduction gives the
        # qz marginal with the bits of reducing phi_eta itself
        g = uniform_grid(count=count, extent=extent)
        if math.sqrt(math.exp(abs(eta)) / 2.0) > extent / 4.0:
            with pytest.raises(GridResolutionError):
                longitudinal_density(eta, grid=g)
            return
        m = longitudinal_density(eta, grid=g)
        dens, var = _momentum_route_density(eta, g)
        assert np.array_equal(m.density.view(np.int64), dens.view(np.int64))
        assert repr(m.variance) == repr(var)

    def test_underresolved_grid_flagged(self):
        with pytest.raises(GridResolutionError):
            longitudinal_density(3.0)
        m = longitudinal_density(3.0, grid=uniform_grid(count=801, extent=16.0))
        assert abs(m.variance - math.cosh(3.0) / 2.0) < 1e-6


class TestLightconeFraction:
    def test_concentrates_under_boost(self):
        assert lightcone_fraction(4.0, band=0.5) > 0.95

    def test_rest_frame_value(self):
        # at eta = 0 the state is the round Gaussian, and v has variance 1/2
        for band in (0.0, 0.1, 0.5, 1.0, 2.0, math.inf):
            assert lightcone_fraction(0.0, band) == math.erf(band)

    def test_monotone_in_eta(self):
        fracs = [lightcone_fraction(e, band=0.5) for e in (0.0, 1.0, 2.0, 4.0)]
        assert np.all(np.diff(fracs) > 0)

    @pytest.mark.parametrize("eta, count, extent", FRACTION_GRIDS)
    def test_within_first_order_of_the_whole_mesh(self, eta, count, extent):
        # the band's edge runs diagonally through the mesh cells, so the indicator's
        # quadrature is off by O(h): at most a sqrt(2) h wide strip of v at the edge,
        # at the v-marginal density p_v there
        g = uniform_grid(count=count, extent=extent)
        h = float(g.nodes[1] - g.nodes[0])
        bands = (0.1, 0.5, 1.0, 2.0)
        for band, reference in zip(bands, _full_mesh_fractions(eta, bands, g)):
            p_v = math.exp(-band * band * math.exp(eta)) / math.sqrt(math.pi * math.exp(-eta))
            bound = math.sqrt(2.0) * h * p_v + 1e-15
            error = abs(lightcone_fraction(eta, band) - reference)
            assert error <= bound, (band, error, bound)

    def test_mesh_that_underflows_everywhere(self):
        # psi_0 at (+-1e200, +-1e200) underflows: there is no mass to divide by
        g = uniform_grid(count=2, extent=1e200)
        with pytest.raises(GridResolutionError, match="use more nodes"):
            longitudinal_density(0.0, grid=g)


def _momentum_route_density(eta, grid):
    """(density, variance) of the qz marginal reduced from phi_eta, block by block: the route
    longitudinal_density took for qz before it read the z reduction."""
    b = grid.nodes[None, :]
    dens = np.empty(grid.count)
    for rows in blocks(grid.count, MESH_BLOCK_ROWS):
        amp = covariant.momentum_wavefunction(grid.nodes[rows, None], b, eta)
        dens[rows] = np.multiply(amp, amp, out=amp) @ grid.weights
    dens = dens / float(grid.weights @ dens)
    mean = float(grid.weights @ (grid.nodes * dens))
    return dens, float(grid.weights @ ((grid.nodes - mean) ** 2 * dens))


def _full_mesh_density(eta, variable, grid):
    """(density, variance) from the whole N x N mesh: the reference for the blocked route."""
    a, b = grid.nodes[:, None], grid.nodes[None, :]
    if variable == "z":
        amp = covariant.boosted_wavefunction(a, b, eta)
    else:
        amp = covariant.momentum_wavefunction(a, b, eta)
    dens = (amp * amp) @ grid.weights
    dens = dens / float(grid.weights @ dens)
    mean = float(grid.weights @ (grid.nodes * dens))
    return dens, float(grid.weights @ ((grid.nodes - mean) ** 2 * dens))


def _full_mesh_fractions(eta, bands, grid):
    """The mass within |v| < band for each of ``bands``, by quadrature of the indicator on
    the whole N x N mesh: the independent route for lightcone_fraction's closed form."""
    z, t = grid.nodes[:, None], grid.nodes[None, :]
    rho = covariant.boosted_wavefunction(z, t, eta) ** 2
    V = np.abs(z - t) / math.sqrt(2.0)
    total = float(grid.weights @ rho @ grid.weights)
    return [float(grid.weights @ np.where(V < band, rho, 0.0) @ grid.weights) / total for band in bands]


EDGE_COUNTS = [2, 3, MESH_BLOCK_ROWS - 1, MESH_BLOCK_ROWS, MESH_BLOCK_ROWS + 1, 129, 801]


class TestBlockedReductions:
    """The slab-at-a-time reductions against the whole-mesh code they replaced."""

    @pytest.mark.parametrize("eta", [0.0, 0.5, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("variable", ["z", "qz"])
    def test_density_bits_on_verify_inputs(self, eta, variable):
        m = longitudinal_density(eta)
        dens, var = _full_mesh_density(eta, variable, default_grid())
        assert np.array_equal(m.density, dens)
        assert repr(m.variance) == repr(var)

    @pytest.mark.parametrize("count", EDGE_COUNTS)
    @pytest.mark.parametrize("variable", ["z", "qz"])
    def test_density_on_block_edges(self, count, variable):
        g = uniform_grid(count=count, extent=8.0)
        m = longitudinal_density(1.0, grid=g)
        dens, var = _full_mesh_density(1.0, variable, g)
        assert_allclose(m.density, dens, rtol=1e-14, atol=0.0)
        assert_allclose(m.variance, var, rtol=1e-14)

    @pytest.mark.parametrize(
        "call, buffers",
        [
            (lambda x: covariant.boosted_wavefunction(x[:, None], x[None, :], 0.5), 3.2),
            (lambda x: ground_state(x[:, None], x[None, :], 0.5), 2.2),
            (lambda x: oracle_reduced_density(0.5), 2.2),
        ],
        ids=["boosted_wavefunction", "ground_state", "oracle_reduced_density"],
    )
    def test_mesh_kernel_memory(self, call, buffers):
        # the kernels form their 401^2 mesh in place in their result: the light-cone route
        # holds u, v and e^-eta u u at once, the (x1 +- x2) route two meshes
        x = default_grid().nodes
        assert _peak_bytes(lambda: call(x)) <= buffers * x.size * x.size * 8


def _peak_bytes(call):
    """tracemalloc's peak over one call, after a first call has warmed lazy imports and caches."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestModelDensity:
    # 1/sqrt(pi) to 60 digits, for references in decimal arithmetic
    INV_SQRT_PI = Decimal("0.564189583547756286948079451560772585844050629328998856844086")

    def reference(self, eta, x):
        """exp(-x^2/cosh eta)/sqrt(pi cosh eta) in 60-digit decimal arithmetic."""
        with localcontext() as ctx:
            ctx.prec = 60
            e, x = Decimal(eta), Decimal(x)
            c = (e.exp() + (-e).exp()) / 2
            return float((-(x * x) / c).exp() / c.sqrt() * self.INV_SQRT_PI)

    @pytest.mark.parametrize("eta", [710.0, -710.0, 709.34, 710.47])
    def test_past_the_range_of_pi_cosh(self, eta):
        # pi cosh(eta) overflows here; within 2 ulp of the reference: about 1 for
        # cosh and the two roots, 1/2 for the division, 1 for np.exp away from 0
        assert math.pi * math.cosh(eta) == math.inf
        coords = [0.0, 1e150, -1e154]
        for x, got in zip(coords, model_density(eta, coords)):
            want = self.reference(eta, x)
            assert abs(got - want) <= 2 * math.ulp(want), (x, got, want)

    def assert_within_budget(self, eta, x, got):
        # y = x^2/cosh(eta) carries about 7 rounding errors (cosh, root, quotient, square)
        # and np.exp turns them into y times as many in the result; 8 more cover np.exp,
        # the root of pi cosh(eta) and the division
        want = self.reference(eta, x)
        y = (x / math.sqrt(math.cosh(eta))) ** 2
        assert abs(got - want) <= (8 + 7 * y) * math.ulp(want), (x, got, want)

    @pytest.mark.parametrize("eta", [0.0, 0.5, -3.0, 100.0, -709.0, 709.0, 709.33, -709.33])
    def test_bits_unchanged_inside_the_range_of_pi_cosh(self, eta):
        c = math.cosh(eta)
        assert math.pi * c < math.inf
        coords = np.linspace(-8.0 * math.sqrt(c), 8.0 * math.sqrt(c), 101)
        with np.errstate(over="ignore"):  # the outer squares overflow from |eta| near 705
            square = coords * coords
            want = np.exp(-coords * coords / c) / math.sqrt(math.pi * c)
        got = model_density(eta, coords)
        kept = np.isfinite(square)
        assert got[kept].tobytes() == want[kept].tobytes()
        # where x*x overflows, the value is e^-64 times the peak, not 0
        for x, value in zip(coords[~kept], got[~kept]):
            self.assert_within_budget(eta, x, value)

    @pytest.mark.parametrize("eta", [0.0, -2.5, 30.0, 400.0, -650.0, 705.0, -707.0, 707.0])
    def test_bits_unchanged_where_the_square_is_finite(self, eta):
        # out to 30 widths, and out to 1e154 where those squares would overflow
        c = math.cosh(eta)
        half = min(30.0 * math.sqrt(c / 2.0), 1e154)
        coords = np.concatenate([np.linspace(-half, half, 4001), [-0.0, 5e-324, 1e-200]])
        assert np.isfinite(coords * coords).all()
        want = np.exp(-coords * coords / c) / math.sqrt(math.pi * c)
        assert model_density(eta, coords).tobytes() == want.tobytes()

    @pytest.mark.parametrize("eta", [707.0, -707.6, 708.5, 709.33, 710.0, -710.47])
    def test_where_the_square_overflows(self, eta):
        c = math.cosh(eta)
        # from sqrt(max float), where x*x overflows, out to x^2/c = 324, a value near 1e-296
        coords = np.geomspace(1.35e154, math.sqrt(c) * 18.0, 41)
        coords = np.concatenate([coords, -coords])
        with np.errstate(over="ignore"):
            assert np.isinf(coords * coords).all()
        got = model_density(eta, coords)
        assert (got > 0.0).all()
        for x, value in zip(coords, got):
            self.assert_within_budget(eta, x, value)
        assert model_density(eta, [math.inf, -math.inf]).tolist() == [0.0, 0.0]

    def test_export_at_eta_710_is_not_zero(self, tmp_path):
        path = tmp_path / "marginal.csv"
        export_gaussian_pdf(710.0, 3, path)
        rows = path.read_text(encoding="utf-8").splitlines()[1:]
        assert rows[1] == "0,5.33825094768075e-155"
        # the points at +-6 widths square past the float range; model_density forms
        # (x/sqrt(cosh eta))^2 there, so every density, about 8e-163 at the ends, is > 0
        assert len(rows) == 3 and all(float(row.split(",")[1]) > 0 for row in rows), rows


class TestExport:
    def test_file_layout(self, tmp_path):
        path = tmp_path / "marginal.csv"
        coords = export_gaussian_pdf(0.0, 101, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "coordinate,model_density"
        assert len(lines) == 102
        assert len(coords) == 101
        assert_allclose(coords[0], -coords[-1], rtol=1e-15)

    def test_peak_row_is_exact(self, tmp_path):
        path = tmp_path / "marginal.csv"
        export_gaussian_pdf(0.0, 101, path)
        middle = path.read_text(encoding="utf-8").splitlines()[51]
        assert middle == "0,0.564189583547756"  # 1/sqrt(pi) at 15 significant digits

    def test_area_near_unity_when_boosted(self, tmp_path):
        path = tmp_path / "marginal.csv"
        export_gaussian_pdf(4.0, 101, path)
        rows = [r.split(",") for r in path.read_text(encoding="utf-8").splitlines()[1:]]
        data = np.array([[float(a), float(b)] for a, b in rows])
        area = np.sum(0.5 * (data[1:, 1] + data[:-1, 1]) * np.diff(data[:, 0]))
        assert abs(area - 1.0) < 1e-4

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "marginal.csv"
        export_gaussian_pdf(1.0, 11, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_rejects_too_few_points(self, tmp_path):
        with pytest.raises(ValueError):
            export_gaussian_pdf(1.0, 1, tmp_path / "x.csv")


class TestOverlay:
    def _write(self, path, text):
        path.write_text(text, encoding="utf-8", newline="")
        return path

    def test_ingest_and_values(self, tmp_path):
        p = self._write(tmp_path / "ov.csv", "x,value\n-1,0.5\n0,1.25\n2,0.25\n")
        series = ingest_overlay(p)
        assert_allclose(series.x, [-1.0, 0.0, 2.0])
        assert_allclose(series.values, [0.5, 1.25, 0.25])
        assert series.source == str(p)

    def test_round_trip_bytes(self, tmp_path):
        xs = np.linspace(-2.0, 2.0, 17)
        series = OverlaySeries(x=xs, values=model_density(1.0, xs), source="synthetic")
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        series.to_csv(p1)
        ingest_overlay(p1).to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_parse_error_names_line(self, tmp_path):
        p = self._write(tmp_path / "ov.csv", "x,value\n0,1\nnot-a-number,2\n")
        with pytest.raises(OverlayParseError, match="line 3"):
            ingest_overlay(p)

    def test_wrong_field_count_names_line(self, tmp_path):
        p = self._write(tmp_path / "ov.csv", "x,value\n0,1,9\n")
        with pytest.raises(OverlayParseError, match="line 2"):
            ingest_overlay(p)

    def test_nonfinite_rejected(self, tmp_path):
        p = self._write(tmp_path / "ov.csv", "x,value\n0,1\n1,nan\n")
        with pytest.raises(OverlayParseError, match="line 3"):
            ingest_overlay(p)

    def test_bad_header(self, tmp_path):
        p = self._write(tmp_path / "ov.csv", "a,b\n0,1\n1,2\n")
        with pytest.raises(OverlayParseError, match="line 1"):
            ingest_overlay(p)

    def test_too_few_rows(self, tmp_path):
        p = self._write(tmp_path / "ov.csv", "x,value\n0,1\n")
        with pytest.raises(OverlayValidationError):
            ingest_overlay(p)

    def test_empty_file(self, tmp_path):
        p = self._write(tmp_path / "ov.csv", "")
        with pytest.raises(OverlayValidationError):
            ingest_overlay(p)

    def test_non_increasing_rejected(self, tmp_path):
        p = self._write(tmp_path / "ov.csv", "x,value\n0,1\n0,2\n1,3\n")
        with pytest.raises(OverlayValidationError):
            ingest_overlay(p)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            ingest_overlay(tmp_path / "does-not-exist.csv")
