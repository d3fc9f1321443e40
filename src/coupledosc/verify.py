"""Every closed form in this package, checked against an independent route.

Each check reports a measured deviation and the tolerance it must stay under
(passed iff deviation <= tolerance; bound-type checks report the shortfall
with tolerance 0). @check(tolerance, detail) registers a check_<name> in
CHECKS in definition order; its body returns the deviation, or (deviation,
detail) when the detail reports a measured value. The registry is what the
CLI `verify` subcommand runs and what the acceptance tests assert piecewise.
Each 2-D quantity is w @ M @ w on one tabulated mesh, in integrate_2d's order,
and each Hermite row comes from one hermite_basis table.

One check is an expected failure by design: schmidt_reconstruction keeps the
uniform 1e-6 gate at eta = 2 even though the exact truncation tail of the
41-term expansion is ~1.57e-6 there. The gate is deliberately not loosened;
a companion check (schmidt_truncation_tail_identity) proves the measured
error *is* the exact tail, i.e. the coefficients are right and the residual
is pure, irreducible truncation. See README, Known limitations.

Four checks test identities on seeded random points. They draw them from
_DefaultRng, a pure-Python copy of np.random.default_rng's stream that starts
from numpy's recorded PCG64 state for each of its three seeds, so verify draws
numpy's points without importing numpy.random (and with it secrets, hashlib
and OpenSSL) and without hashing a seed.
"""

import functools
import io
import math
import tempfile
from pathlib import Path

import numpy as np

from . import covariant, entanglement, oscillator, parton
from .floats import record
from .numerics import default_grid, hermite_basis, oracle_reduced_density, uniform_grid

_SEED = 20260819

# numpy's default stream, np.random.default_rng(seed): PCG64 (XSL-RR) -> 53-bit doubles
_M64, _M128 = 2**64 - 1, 2**128 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# the seeded start of each stream verify draws, (state, inc), as numpy records it:
# np.random.PCG64(seed).state["state"] for seed in _SEED, _SEED + 1, _SEED + 2
_PCG64_STATES = {
    _SEED: (0x9A6EF2F1BAD2F94ED63FAC9C0ECD2FA6, 0xEBC3FE7716D8137C3113D45881D2BCF5),
    _SEED + 1: (0x4A4061FBEFBDAB34AC4B211426883AF6, 0x17E4DEB8DDF67DDC9089A291EAA85865),
    _SEED + 2: (0x72F50BFC7C03CC0D6BA4599269BCCB7C, 0x48E92CE06D8E84B77D485F1B9E8C4695),
}


class _DefaultRng:
    """The draws of np.random.default_rng(seed) that verify uses: random() and uniform()."""

    def __init__(self, seed: int):
        self._state, self._inc = _PCG64_STATES[seed]

    def _next64(self) -> int:
        """One LCG step, then the XSL-RR output of the new state."""
        s = self._state = self._state * _PCG_MULT + self._inc & _M128
        x, rot = (s >> 64 ^ s) & _M64, s >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def random(self) -> float:
        return (self._next64() >> 11) * 2.0**-53

    def uniform(self, low: float, high: float, size: int | None = None):
        """low + (high - low) * d, each operation rounded, as numpy's random_uniform."""
        if size is not None:
            return [self.uniform(low, high) for _ in range(size)]
        low, high = float(low), float(high)
        return low + (high - low) * self.random()


@record
class CheckResult:
    name: str
    passed: bool
    deviation: float
    tolerance: float
    detail: str = ""


# run_all reads this list at call time, so an entry replaced in place is what runs
CHECKS: list = []


def check(tolerance: float, detail: str = ""):
    """Register check_<name> under <name>, with its tolerance and detail written once."""

    def register(body):
        name = body.__name__.removeprefix("check_")

        @functools.wraps(body)
        def run() -> CheckResult:
            deviation, text = body(), detail
            if isinstance(deviation, tuple):
                deviation, text = deviation
            deviation = float(deviation)
            return CheckResult(name, bool(deviation <= tolerance), deviation, float(tolerance), text)

        CHECKS.append(run)
        return run

    return register


def _max_abs(a, b) -> float:
    """max |a - b| over the broadcast arrays: a table's deviation from its reference."""
    diff = a - b
    return float(np.max(np.abs(diff, out=diff)))


@record
class _KernelReadings:
    """What _kernel caches of an oracle kernel in place of its table; fock[k] = <phi_k|rho|phi_k>."""

    trace: float
    purity: float
    asymmetry: float
    fock: tuple


@functools.cache
def _kernel(eta: float) -> _KernelReadings:
    """The kernel checks' readings at eta; the 401^2 table is freed on return."""
    kern = oracle_reduced_density(eta)
    # row k is what fock_projection(kern, k) in tests/reference.py contracts with: the same bits
    rows = hermite_basis(10, kern.grid.nodes) * kern.grid.weights
    fock = tuple(float(phi @ kern.values @ phi) for phi in rows)
    return _KernelReadings(kern.trace(), kern.purity(), kern.asymmetry(), fock)


@functools.cache
def _marginal(eta: float):
    return parton.longitudinal_density(eta)


def _mesh(wavefunction, eta: float) -> np.ndarray:
    """wavefunction(x1, x2, eta) on the default mesh, x1 a column and x2 a row."""
    x = default_grid().nodes
    return wavefunction(x[:, None], x[None, :], eta)


# --- numerics ---------------------------------------------------------------


@check(1e-10)
def check_grid_gaussian_integral():
    g = default_grid()
    val = float(g.weights @ (np.exp(-g.nodes**2 / 2.0) / math.sqrt(2.0 * math.pi)))
    return abs(val - 1.0)


def _gram_deviation(k_max: int, grid) -> float:
    """max |G - I|, G the quadrature Gram matrix of phi_0..phi_{k_max} on the grid."""
    b = hermite_basis(k_max, grid.nodes)
    gram = (b * grid.weights) @ b.T
    return _max_abs(gram, np.eye(k_max + 1))


@check(1e-8, "j,k <= 40 on extent 12 (the default box truncates phi_40 mid-support)")
def check_hermite_orthonormality_wide():
    # phi_40 turns at x = 9, outside the default box; use one that contains it
    return _gram_deviation(40, uniform_grid(count=601, extent=12.0))


@check(1e-8, "j,k <= 12 fit the default box")
def check_hermite_orthonormality_default():
    return _gram_deviation(12, default_grid())


@check(1e-8, "norm of phi_128 via recurrence")
def check_hermite_stability_k128():
    g = uniform_grid(count=1001, extent=20.0)
    phi = hermite_basis(128, g.nodes)[128]
    return abs(float(g.weights @ (phi * phi)) - 1.0)


@check(1e-12)
def check_oracle_kernel_symmetry():
    return _kernel(1.0).asymmetry


@check(1e-7)
def check_oracle_kernel_trace():
    return max(abs(_kernel(e).trace - 1.0) for e in (0.5, 1.0, 2.0))


@check(1e-6)
def check_pure_state_idempotency():
    g = default_grid()
    phi = hermite_basis(1, g.nodes)
    psi = (phi[0] + phi[1]) / math.sqrt(2.0)
    k = np.outer(psi, psi)
    k2 = (k * g.weights) @ k
    return _max_abs(k2, k)


# --- oscillator -------------------------------------------------------------


@check(1e-12, "m=1, A=5, C=-3 benchmark")
def check_normal_mode_frequencies():
    modes = oscillator.normal_modes(oscillator.CoupledParams(m=1.0, A=5.0, C=-3.0))
    eta = 0.5 * math.log(2.0)
    return max(
        abs(modes.K - 4.0),
        abs(modes.eta - eta),
        abs(modes.omega - 2.0),
        abs(modes.omega_plus - 2.0 * math.exp(eta)),
        abs(modes.omega_minus - 2.0 * math.exp(-eta)),
    )


@check(1e-12, "100 seeded phase-space points")
def check_hamiltonian_form_equivalence():
    rng = _DefaultRng(_SEED)
    dev = 0.0
    for _ in range(100):
        a = rng.uniform(0.5, 5.0)
        c = rng.uniform(-0.9, 0.9) * a
        params = oscillator.CoupledParams(m=rng.uniform(0.2, 3.0), A=a, C=c)
        x = rng.uniform(-3, 3, 2)
        p = rng.uniform(-3, 3, 2)
        e1 = oscillator.hamiltonian_energy(x, p, params)
        e2 = oscillator.normal_mode_energy(
            oscillator.to_normal(*x), oscillator.to_normal(*p), params
        )
        dev = max(dev, abs(e1 - e2) / max(1.0, abs(e1)))
    return dev


@check(1e-8)
def check_ground_state_normalization():
    w = default_grid().weights
    return max(
        abs(float(w @ _mesh(oscillator.ground_state, e) ** 2 @ w) - 1.0) for e in (0.0, 1.0, 2.0)
    )


@check(1e-15, "positive everywhere, peak 1/sqrt(pi)")
def check_ground_state_peak_bound():
    vals = _mesh(oscillator.ground_state, 1.5)
    bound = math.pi**-0.5
    return max(float(np.max(vals)) - bound, 0.0 if np.all(vals > 0.0) else 1.0)


@check(1e-14, "eta=0 factorizes into phi_0 phi_0")
def check_separability_zero_coupling():
    x = np.linspace(-3, 3, 20)
    phi = hermite_basis(0, x)[0]
    product = phi[:, None] * phi[None, :]
    return _max_abs(oscillator.ground_state(x[:, None], x[None, :], 0.0), product)


# --- entanglement -----------------------------------------------------------


@check(1e-12, "sum c_k^2 plus exact tail is 1")
def check_schmidt_normalization():
    dev = 0.0
    for e in (0.0, 0.5, 1.0, 2.0, 3.0):
        exp_ = entanglement.schmidt_coefficients(e, k_max=64)
        dev = max(dev, abs(float(np.sum(exp_.coefficients**2)) + exp_.tail - 1.0))
    return dev


@check(1e-6, "c_k against direct double quadrature")
def check_schmidt_vs_quadrature():
    g = default_grid()
    b = hermite_basis(10, g.nodes) * g.weights
    return max(
        _max_abs(np.diag(b @ _mesh(oscillator.ground_state, e) @ b.T),
                 entanglement.schmidt_coefficients(e, k_max=10).coefficients)
        for e in (0.5, 1.0)
    )


@check(1e-8, "expansion is diagonal in the Fock index")
def check_schmidt_offdiagonal():
    g = default_grid()
    rows, w, psi = hermite_basis(3, g.nodes), g.weights, _mesh(oscillator.ground_state, 1.0)
    # w @ vals @ w in integrate_2d's order, so each projection keeps integrate_2d's bits
    return max(
        abs(w @ (rows[j][:, None] * rows[k] * psi) @ w)
        for j in range(4) for k in range(4) if j != k
    )


@check(1e-6, "p_k against the grid kernel")
def check_reduced_eigenvalues_vs_oracle():
    dev = 0.0
    for e in (0.5, 1.0, 2.0):
        p = entanglement.reduced_state(e, k_max=10).eigenvalues
        fock = _kernel(e).fock
        for k in range(11):
            dev = max(dev, abs(fock[k] - p[k]))
    return dev


@check(1e-12)
def check_eigenvalue_normalization():
    dev = 0.0
    for e in (0.0, 1.0, 2.0):
        rs = entanglement.reduced_state(e, k_max=64)
        dev = max(dev, abs(float(np.sum(rs.eigenvalues)) + rs.tail - 1.0))
    return dev


@check(1e-10, "1/cosh(eta) vs truncated sum p_k^2")
def check_purity_closed_vs_series():
    return max(
        abs(entanglement.purity(e) - entanglement.purity_series(e, k_max=64))
        for e in np.linspace(0.0, 3.0, 7)
    )


@check(1e-6, "1/cosh(eta) vs Tr rho^2 by quadrature")
def check_purity_closed_vs_grid():
    return max(abs(entanglement.purity(e) - _kernel(e).purity) for e in (0.0, 0.5, 1.0, 2.0))


@check(1e-9, "closed form vs -sum p ln p at k_max=128")
def check_entropy_closed_vs_sum():
    dev = 0.0
    for e in (0.25, 0.5, 1.0, 2.0, 3.0):
        p = entanglement.reduced_state(e, k_max=128).eigenvalues
        p = p[p > 0.0]
        dev = max(dev, abs(entanglement.entropy(e) - float(-np.sum(p * np.log(p)))))
    return dev


@check(1e-14, "even in eta, exactly zero at eta=0")
def check_entropy_symmetry():
    dev = max(
        abs(entanglement.entropy(-e) - entanglement.entropy(e)) for e in (0.3, 1.0, 2.5)
    )
    return max(dev, abs(entanglement.entropy(0.0)))


@check(0.0, "entropy rises, purity falls with eta")
def check_entanglement_monotonicity():
    etas = np.linspace(0.0, 3.0, 13)
    s = np.array([entanglement.entropy(e) for e in etas])
    pur = np.array([entanglement.purity(e) for e in etas])
    return max(float(np.max(-np.diff(s))), float(np.max(np.diff(pur))), 0.0)


@check(1e-9, "oscillator entropy equals thermal entropy at x(eta)")
def check_thermal_equivalence():
    dev = 0.0
    for e in (0.5, 1.0, 2.0):
        tm = entanglement.effective_temperature(e)
        dev = max(dev, abs(entanglement.thermal_entropy(tm.x) - entanglement.entropy(e)))
    return dev


@check(1e-15)
def check_thermal_zero_temperature_limit():
    return entanglement.thermal_entropy(50.0)


@check(
    1e-6,
    "expected failure: exact k<=40 amplitude tail at eta=2 is ~1.57e-6, above the "
    "uniform 1e-6 gate (holds for eta <= 1.9); see schmidt_truncation_tail_identity",
)
def check_schmidt_reconstruction():
    x = np.linspace(-3.0, 3.0, 15)
    x1, x2 = x[:, None], x[None, :]
    dev = 0.0
    for e in (0.5, 1.0, 2.0):
        exp_ = entanglement.schmidt_coefficients(e, k_max=40)
        dev = max(dev, _max_abs(exp_.reconstruct(x1, x2), oscillator.ground_state(x1, x2, e)))
    return dev


@check(1e-9, "reconstruction residual equals the explicit k>40 tail sum")
def check_schmidt_truncation_tail_identity():
    # the reconstruction error at eta=2 must BE the exact series tail, term by term
    x = np.linspace(-3.0, 3.0, 15)
    x1, x2 = x[:, None], x[None, :]
    exp40 = entanglement.schmidt_coefficients(2.0, k_max=40)
    err = np.abs(exp40.reconstruct(x1, x2) - oscillator.ground_state(x1, x2, 2.0))
    exp200 = entanglement.schmidt_coefficients(2.0, k_max=200)
    b = hermite_basis(200, x)[41:]
    tail = np.abs((exp200.coefficients[41:, None, None] * b[:, :, None] * b[:, None, :]).sum(axis=0))
    return _max_abs(err, tail)


# --- covariant --------------------------------------------------------------


@check(1e-12, "rapidity is additive")
def check_boost_composition():
    rng = _DefaultRng(_SEED)
    dev = 0.0
    for _ in range(100):
        p = covariant.SpacetimePoint(z=rng.uniform(-5, 5), t=rng.uniform(-5, 5))
        e1, e2 = rng.uniform(-2, 2, 2)
        q1 = covariant.boost_point(covariant.boost_point(p, e1), e2)
        q2 = covariant.boost_point(p, e1 + e2)
        dev = max(dev, abs(q1.z - q2.z), abs(q1.t - q2.t))
    return dev


@check(1e-14)
def check_boost_determinant():
    return max(
        abs(float(np.linalg.det(covariant.boost_matrix(e))) - 1.0)
        for e in np.linspace(-3.0, 3.0, 13)
    )


@check(1e-12, "z^2 - t^2 = 2uv preserved")
def check_boost_invariance():
    rng = _DefaultRng(_SEED + 1)
    dev = 0.0
    for _ in range(100):
        p = covariant.SpacetimePoint(z=rng.uniform(-5, 5), t=rng.uniform(-5, 5))
        e = rng.uniform(-2, 2)
        q = covariant.boost_point(p, e)
        i1 = p.z**2 - p.t**2
        i2 = q.z**2 - q.t**2
        dev = max(dev, abs(i1 - i2) / max(1.0, abs(i1)))
    return dev


@check(1e-15)
def check_lightcone_roundtrip():
    p = covariant.SpacetimePoint(z=0.8, t=-1.3)
    r = covariant.SpacetimePoint.from_lightcone(p.u, p.v)
    m = covariant.MomentumPoint(qz=-0.4, q0=2.1)
    s = covariant.MomentumPoint.from_lightcone(m.q_u, m.q_v)
    return max(abs(r.z - p.z), abs(r.t - p.t), abs(s.qz - m.qz), abs(s.q0 - m.q0))


@check(1e-12, "psi_eta at the boosted point is psi_0 at the original")
def check_covariance_identity():
    rng = _DefaultRng(_SEED + 2)
    dev = 0.0
    for _ in range(100):
        p = covariant.SpacetimePoint(z=rng.uniform(-3, 3), t=rng.uniform(-3, 3))
        e = rng.uniform(-2, 2)
        q = covariant.boost_point(p, e)
        dev = max(
            dev,
            abs(covariant.boosted_wavefunction(q.z, q.t, e) - covariant.dirac_gaussian(p.z, p.t)),
        )
    return dev


@check(1e-14, "eta -> -eta equals t -> -t")
def check_squeeze_reciprocity():
    x = np.linspace(-3, 3, 20)
    z, t = x[:, None], x[None, :]
    return max(
        _max_abs(covariant.boosted_wavefunction(z, t, e), covariant.boosted_wavefunction(z, -t, -e))
        for e in (0.7, 1.8)
    )


@check(1e-14, "oscillator ground state and boosted wavefunction are one formula")
def check_cross_module_identity():
    x = np.linspace(-3, 3, 20)
    a, b = x[:, None], x[None, :]
    return max(
        _max_abs(oscillator.ground_state(a, b, e), covariant.boosted_wavefunction(a, b, e))
        for e in (0.0, 0.7, 1.5)
    )


@check(1e-6, "transform of psi_eta lands on phi_eta")
def check_fourier_consistency():
    return max(covariant.fourier_consistency(e) for e in (0.0, 1.0, -1.0))


@check(1e-5, "boost-invariant oscillator equation with eigenvalue 0")
def check_wave_equation_zero_mode():
    pts = [(0.0, 0.0), (0.5, -0.3), (1.0, 0.7), (-1.2, 0.4)]
    return max(
        abs(covariant.wave_equation_residual(z, t, e)) for z, t in pts for e in (0.0, 1.0)
    )


# --- parton -----------------------------------------------------------------


@check(1e-6, "position and momentum widths co-grow")
def check_marginal_variance_law():
    dev = 0.0
    for e in (0.0, 0.5, 1.0, 2.0):
        dev = max(dev, abs(_marginal(e).variance - math.cosh(e) / 2.0))
    return dev


@check(1e-6, "|psi|^2 mass inside the default box")
def check_marginal_mass_containment():
    w = default_grid().weights
    return max(
        abs(float(w @ _mesh(covariant.boosted_wavefunction, e) ** 2 @ w) - 1.0) for e in (0.0, 1.0, 2.0)
    )


@check(1e-5, "uncertainty product cosh(eta)/2, increasing")
def check_width_co_growth():
    etas = (0.0, 0.5, 1.0, 1.5, 2.0)
    prods = []
    dev = 0.0
    for e in etas:
        width = math.sqrt(_marginal(e).variance)
        prods.append(width * width)
        dev = max(dev, abs(width * width - math.cosh(e) / 2.0))
    return max(dev, float(np.max(-np.diff(prods))), 0.0)


@check(0.0)
def check_lightcone_concentration():
    frac = parton.lightcone_fraction(4.0, band=0.5)
    detail = f"mass within |v| < 0.5 at eta=4 is {frac:.6f} (must exceed 0.95)"
    return max(0.0, 0.95 - frac), detail


@check(1e-4, "exported eta=4 marginal integrates to 1")
def check_export_area():
    buf = io.StringIO()
    parton.export_gaussian_pdf(4.0, 101, buf)
    data = np.array([[float(f) for f in r.split(",")] for r in buf.getvalue().splitlines()[1:]])
    area = float(np.sum(0.5 * (data[1:, 1] + data[:-1, 1]) * np.diff(data[:, 0])))
    return abs(area - 1.0)


@check(0.0, "ingest then re-export is byte-identical")
def check_overlay_roundtrip():
    xs = np.linspace(-2.0, 2.0, 17)
    series = parton.OverlaySeries(x=xs, values=parton.model_density(1.0, xs), source="synthetic")
    with tempfile.TemporaryDirectory() as td:
        p1 = Path(td) / "a.csv"
        p2 = Path(td) / "b.csv"
        series.to_csv(p1)
        parton.ingest_overlay(p1).to_csv(p2)
        same = p1.read_bytes() == p2.read_bytes()
    return 0.0 if same else 1.0


@check(0.0, "identical bytes on repeat runs")
def check_cli_determinism():
    buf1, buf2 = io.StringIO(), io.StringIO()
    entanglement.write_sweep(buf1, 0.0, 2.0, 5, 1.0)
    entanglement.write_sweep(buf2, 0.0, 2.0, 5, 1.0)
    same = buf1.getvalue() == buf2.getvalue() and len(buf1.getvalue()) > 0
    return 0.0 if same else 1.0


def run_all() -> tuple:
    return tuple(entry() for entry in CHECKS)
