"""The same squeeze, read relativistically: boosts act on light-cone axes.

With light-cone variables u = (z+t)/sqrt2, v = (z-t)/sqrt2 a boost of rapidity
eta is diagonal, u -> e^{eta/2} u, v -> e^{-eta/2} v, so the product uv (and
with it z^2 - t^2) is invariant. Starting from the rest-frame Gaussian

    psi_0(z, t) = (1/sqrt pi) exp{-(z^2 + t^2)/2}

the boosted wavefunction

    psi_eta(z, t) = (1/sqrt pi) exp{-(e^{-eta} u^2 + e^{eta} v^2)/2}

has exactly the functional form of the coupled-oscillator ground state under
(x1, x2) -> (z, t): one formalism, two readings. The momentum-space partner
uses the conjugate light-cone pair q_u = (q0 - qz)/sqrt2, q_v = (q0 + qz)/sqrt2
(note the swap) and carries the inverted squeeze on that pair:

    phi_eta(qz, q0) = (1/sqrt pi) exp{-(e^{eta} q_u^2 + e^{-eta} q_v^2)/2} = psi_eta(q0, qz),

which is precisely the 2D Fourier transform of psi_eta with kernel
e^{i(qz z - q0 t)}/(2 pi). The pairing swap makes the family self-dual,
phi_eta(a, b) = psi_eta(a, b) as functions: light-cone conjugates (u, q_u)
stay minimum-uncertainty while the Cartesian widths of z and qz grow
together. Both states satisfy the boost-invariant oscillator
equation 1/2 {(z^2 - t^2) - (d^2/dz^2 - d^2/dt^2)} psi = 0 (eigenvalue zero:
the two zero-point halves cancel).

boosted_wavefunction is the light-cone route to the squeezed Gaussian;
oscillator.ground_state is the (x1 +- x2) route. verify's
cross_module_identity compares them, so they are kept apart.
"""

import math

import numpy as np

from .floats import COSH_ETA_MAX, EXP_ETA_MAX, as_float, as_floats, check_eta, nonfinite_error, record
from .numerics import QuadratureGrid, check_resolution

_SQRT2 = math.sqrt(2.0)


@record
class SpacetimePoint:
    z: float
    t: float

    @property
    def u(self) -> float:
        return (self.z + self.t) / _SQRT2

    @property
    def v(self) -> float:
        return (self.z - self.t) / _SQRT2

    @classmethod
    def from_lightcone(cls, u: float, v: float) -> "SpacetimePoint":
        return cls(z=(u + v) / _SQRT2, t=(u - v) / _SQRT2)


@record
class MomentumPoint:
    qz: float
    q0: float

    @property
    def q_u(self) -> float:
        return (self.q0 - self.qz) / _SQRT2

    @property
    def q_v(self) -> float:
        return (self.q0 + self.qz) / _SQRT2

    @classmethod
    def from_lightcone(cls, q_u: float, q_v: float) -> "MomentumPoint":
        return cls(qz=(q_v - q_u) / _SQRT2, q0=(q_u + q_v) / _SQRT2)


def boost_matrix(eta: float) -> np.ndarray:
    """2x2 boost acting on (z, t): [[cosh(eta/2), sinh(eta/2)], [sinh, cosh]]."""
    eta = check_eta(eta, 2.0 * COSH_ETA_MAX, "the boost matrix cosh(eta/2)")
    ch, sh = math.cosh(eta / 2.0), math.sinh(eta / 2.0)
    return np.array([[ch, sh], [sh, ch]])


def boost_point(point: SpacetimePoint, eta: float) -> SpacetimePoint:
    """Boost a spacetime point; scales u by e^{eta/2} and v by e^{-eta/2}.

    ValueError for a non-finite point, or a boosted point past the float range.
    """
    m = boost_matrix(eta)
    zt = as_float(point.z), as_float(point.t)
    # a non-finite result is reported below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        z, t = m @ zt
    if not (math.isfinite(z) and math.isfinite(t)):
        raise nonfinite_error(
            f"the boost by eta = {eta:g}", dict(zip("zt", zt)), "use a smaller point or rapidity"
        )
    return SpacetimePoint(z=float(z), t=float(t))


def dirac_gaussian(z, t):
    """Rest-frame ground state (1/sqrt pi) exp{-(z^2 + t^2)/2}, vectorized."""
    za = as_floats(z, "z")
    ta = as_floats(t, "t")
    # a square that overflows to inf gives exp(-inf) = 0, the right value
    with np.errstate(over="ignore"):
        out = np.pi ** -0.5 * np.exp(-0.5 * (za * za + ta * ta))
    return out if out.ndim else float(out)


def boosted_wavefunction(z, t, eta: float):
    """psi_eta(z, t) evaluated through its light-cone components.

    Returns a fresh array (a float for 0-d input) and writes into no argument: each node
    takes the formula's operations in order, in place beside at most two more meshes.
    """
    eta = check_eta(eta, EXP_ETA_MAX, "psi_eta")
    za = as_floats(z, "z")
    ta = as_floats(t, "t")
    # a sum or product that overflows to inf gives exp(-inf) = 0, the right value
    with np.errstate(over="ignore"):
        u = (za + ta) / _SQRT2
        v = (za - ta) / _SQRT2
        s = math.exp(-eta) * u * u
        del u  # the result takes its place: at most three meshes are alive
        out = math.exp(eta) * v * v
        out += s
        out *= -0.5
        # np.asarray is out itself, or a 0-d array where 0-d input left out a numpy scalar
        out = np.exp(out, out=np.asarray(out))
        out *= np.pi ** -0.5
    return out if out.ndim else float(out)


def momentum_wavefunction(qz, q0, eta: float):
    """phi_eta(qz, q0): the Fourier partner of psi_eta.

    Its conjugate pair (q_u, q_v) is (v, u) at (z, t) = (q0, qz), so it is
    psi_eta(q0, qz), equal to psi_eta(qz, q0): boosting widens the momentum
    distribution exactly as it widens the spatial one.
    """
    return boosted_wavefunction(q0, qz, eta)


def fourier_consistency(eta: float, grid: QuadratureGrid | None = None) -> float:
    """Max deviation between the transformed psi_eta and the closed-form phi_eta.

    Computes (1/2pi) integral psi_eta(z, t) e^{i(qz z - q0 t)} dz dt by tensor
    quadrature on a 21 x 21 probe mesh of momenta in [-3, 3] and compares with
    momentum_wavefunction. The imaginary part (zero by symmetry) is included
    in the reported deviation.
    """
    eta, g = check_resolution(eta, grid)
    q = np.linspace(-3.0, 3.0, 21)
    psi = boosted_wavefunction(g.nodes[:, None], g.nodes[None, :], eta)
    # separable kernel: F[a, b] = sum_{jk} e^{i q_a z_j} psi[j,k] e^{-i q_b t_k} w_j w_k
    ez = np.exp(1j * np.outer(q, g.nodes)) * g.weights
    et = np.exp(-1j * np.outer(g.nodes, q)) * g.weights[:, None]
    transformed = (ez @ psi @ et) / (2.0 * math.pi)
    return float(np.max(np.abs(transformed - momentum_wavefunction(q[:, None], q[None, :], eta))))


def wave_equation_residual(z: float, t: float, eta: float) -> float:
    """Residual of 1/2 {(z^2 - t^2) - (d^2/dz^2 - d^2/dt^2)} psi_eta at a point.

    Second derivatives by central differences of step h = 1e-3; the boosted
    ground state is a zero mode of this boost-invariant operator, so the
    residual is pure discretization error, O(h^2).
    """
    h = 1e-3
    psi0 = boosted_wavefunction(z, t, eta)
    d2z = (boosted_wavefunction(z + h, t, eta) - 2.0 * psi0 + boosted_wavefunction(z - h, t, eta)) / (h * h)
    d2t = (boosted_wavefunction(z, t + h, eta) - 2.0 * psi0 + boosted_wavefunction(z, t - h, eta)) / (h * h)
    return 0.5 * ((z * z - t * t) * psi0 - (d2z - d2t))


def _four_vectors(a, b) -> tuple[np.ndarray, np.ndarray]:
    """a and b as float (t, x, y, z) arrays; ValueError unless each has 4 finite components."""
    va = as_floats(a, "four-vectors")
    vb = as_floats(b, "four-vectors")
    if va.shape != (4,) or vb.shape != (4,):
        raise ValueError("four-vectors must have exactly 4 components")
    if not (np.all(np.isfinite(va)) and np.all(np.isfinite(vb))):
        raise ValueError("four-vectors must be finite")
    return va, vb


def hadron_variables(x_a, x_b) -> tuple[np.ndarray, np.ndarray]:
    """Average and relative four-vectors of a two-constituent bound state.

    X = (x_a + x_b)/2 locates the hadron; x = (x_a - x_b)/(2 sqrt2) is the
    internal separation. Four-vectors are (t, x, y, z) tuples. ValueError for a
    non-finite four-vector; two finite ones always give a finite X and x.
    """
    xa, xb = _four_vectors(x_a, x_b)
    with np.errstate(over="ignore"):
        X, x = (xa + xb) / 2.0, (xa - xb) / (2.0 * _SQRT2)
    # where the sum or difference overflowed, halve first; only there, because
    # halving first rounds subnormal components differently
    X = np.where(np.isfinite(X), X, xa / 2.0 + xb / 2.0)
    x = np.where(np.isfinite(x), x, (xa / 2.0 - xb / 2.0) / _SQRT2)
    return X, x


def momentum_variables(p_a, p_b) -> tuple[np.ndarray, np.ndarray]:
    """Conjugate pair: total P = p_a + p_b and relative q = sqrt2 (p_a - p_b). ValueError for
    a non-finite four-vector, or a sum or difference past the float range."""
    pa, pb = _four_vectors(p_a, p_b)
    with np.errstate(over="ignore"):
        P, q = pa + pb, _SQRT2 * (pa - pb)
    if not (np.isfinite(P).all() and np.isfinite(q).all()):
        largest = {f"max |{name}|": float(np.max(np.abs(v))) for name, v in (("p_a", pa), ("p_b", pb))}
        raise nonfinite_error("the sum or difference of p_a and p_b", largest, "use smaller four-vectors")
    return P, q
