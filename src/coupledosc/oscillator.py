"""Two coupled oscillators: normal modes, squeeze parameter, entangled ground state.

The Hamiltonian

    H = 1/2 { p1^2/m + p2^2/m + A x1^2 + A x2^2 + 2 C x1 x2 }

decouples in the rotated coordinates y1 = (x1+x2)/sqrt2, y2 = (x1-x2)/sqrt2
with effective stiffnesses A+C and A-C. Writing K = sqrt(A^2-C^2) and

    exp(2 eta) = sqrt((A-C)/(A+C)),

the modes oscillate at omega e^{-eta} (y1) and omega e^{+eta} (y2), where
omega = sqrt(K/m). In units where m = omega = hbar = 1 the ground state is

    psi_eta(x1, x2) = (1/sqrt pi) exp{ -1/4 [ e^{-eta}(x1+x2)^2 + e^{eta}(x1-x2)^2 ] },

a two-mode squeezed Gaussian; eta = 0 is the separable product state. ground_state is its
(x1 +- x2) route and covariant.boosted_wavefunction its light-cone route; verify compares them.

The parameters, normal modes and energies need only math; the array
functions (to_normal, from_normal, ground_state) import numpy when called.
"""

import math
import sys

from .floats import EXP_ETA_MAX, as_float, as_floats, check_eta, nonfinite_error, record


class UnstablePotentialError(ValueError):
    """Potential is not positive definite; no bound ground state exists."""


@record
class CoupledParams:
    """Mass m and the quadratic-form couplings A (diagonal) and C (cross)."""

    m: float
    A: float
    C: float

    def __post_init__(self):
        # as_float reads an int past the float range as inf; the fields keep the values given
        m, A, C = as_float(self.m), as_float(self.A), as_float(self.C)
        if not (math.isfinite(m) and math.isfinite(A) and math.isfinite(C)):
            raise ValueError("parameters must be finite")
        if self.m <= 0.0:
            raise ValueError(f"mass must be positive, got {self.m}")
        if self.A <= 0.0 or abs(self.C) >= self.A:
            raise UnstablePotentialError(
                f"need A > |C| >= 0 for a bound state, got A={self.A}, C={self.C}"
            )


@record
class NormalModeData:
    K: float
    eta: float
    omega: float
    omega_plus: float
    omega_minus: float


def normal_modes(params: CoupledParams) -> NormalModeData:
    """Diagonalize the potential: K, the squeeze parameter eta, and the mode frequencies.

    Where A^2 overflows (A above about 1.3e154), K and eta are taken from the
    halves A/2 -+ C/2, whose sum and difference cannot overflow. Where
    A^2 - C^2 underflows to a subnormal or zero (A below about 1.5e-154), K is
    sqrt(A - C) sqrt(A + C). ValueError when a mode frequency overflows a
    float (K/m too large).
    """
    A, C = params.A, params.C
    try:
        square = A**2 - C**2
        if square >= sys.float_info.min:
            K = math.sqrt(square)
        else:
            K = math.sqrt(A - C) * math.sqrt(A + C)
        ratio = (A - C) / (A + C)
    except OverflowError:
        diff, total = 0.5 * A - 0.5 * C, 0.5 * A + 0.5 * C
        K = 2.0 * math.sqrt(diff) * math.sqrt(total)
        ratio = diff / total
    eta = 0.25 * math.log(ratio)
    omega = math.sqrt(K / params.m)
    modes = NormalModeData(
        K=K,
        eta=eta,
        omega=omega,
        omega_plus=omega * math.exp(eta),
        omega_minus=omega * math.exp(-eta),
    )
    if not math.isfinite(max(modes.omega_plus, modes.omega_minus)):
        raise ValueError(
            f"the mode frequencies sqrt(K/m) e^(+-eta) overflow a float for "
            f"K = {K:g}, m = {params.m:g}; use a larger m or a smaller A"
        )
    return modes


def to_normal(x1, x2):
    """Rotate particle coordinates to normal coordinates (y1, y2)."""
    import numpy as np

    s = 1.0 / math.sqrt(2.0)
    x1, x2 = as_floats(x1, "x1", None), as_floats(x2, "x2", None)
    # elementwise, as numpy: a sum past the float range gives inf and inf - inf NaN, unwarned
    with np.errstate(over="ignore", invalid="ignore"):
        return s * (x1 + x2), s * (x1 - x2)


# the 45-degree rotation is its own inverse, so normal back to particle
# coordinates is the same map
from_normal = to_normal


def ground_state(x1, x2, eta: float):
    """Entangled ground-state wavefunction psi_eta(x1, x2), vectorized: a fresh array (0-d: a float).

    Positive everywhere, peak value 1/sqrt(pi) at the origin, and normalized:
    the squeeze only redistributes the Gaussian between the two normal axes.
    """
    eta = check_eta(eta, EXP_ETA_MAX, "psi_eta")
    import numpy as np

    x1a, x2a = as_floats(x1, "x1"), as_floats(x2, "x2")
    em, ep = np.exp(-eta), np.exp(eta)
    # a product that overflows to inf gives exp(-inf) = 0, the right value
    with np.errstate(over="ignore"):
        # s *= s squares as np.square does, correctly rounded; a 0-d numpy scalar's ** 2 is pow
        s = x1a + x2a
        s *= s
        s *= em
        d = x1a - x2a
        d *= d
        d *= ep
        s += d
        del d  # before exp's argument, so at most two meshes are alive
        s *= -0.25
        out = np.exp(s, out=np.asarray(s))
        out *= np.pi ** -0.5
    return out if out.ndim else float(out)


def hamiltonian_energy(x, p, params: CoupledParams) -> float:
    """Classical energy of a phase-space point ((x1,x2), (p1,p2)).

    ValueError for a non-finite coordinate or momentum, or an energy past the float range.
    """
    x1, x2 = (as_float(v) for v in x)
    p1, p2 = (as_float(v) for v in p)
    energy = 0.5 * (
        (p1 * p1 + p2 * p2) / params.m
        + params.A * (x1 * x1 + x2 * x2)
        + 2.0 * params.C * x1 * x2
    )
    if not math.isfinite(energy):
        raise nonfinite_error(
            "the energy H(x, p)", {"x1": x1, "x2": x2, "p1": p1, "p2": p2},
            "use smaller coordinates or momenta",
        )
    return energy


def normal_mode_energy(y, py, params: CoupledParams) -> float:
    """Same energy in normal coordinates: two uncoupled oscillators.

    H = (py1^2 + py2^2)/(2m) + (K/2)(e^{-2eta} y1^2 + e^{+2eta} y2^2).
    The y1 mode carries stiffness A+C = K e^{-2eta} and y2 carries A-C = K e^{+2eta}.
    ValueError for a non-finite coordinate or momentum, or an energy past the float range.
    """
    modes = normal_modes(params)
    y1, y2 = (as_float(v) for v in y)
    q1, q2 = (as_float(v) for v in py)
    energy = 0.5 * (
        (q1 * q1 + q2 * q2) / params.m
        + modes.K * (math.exp(-2.0 * modes.eta) * y1 * y1 + math.exp(2.0 * modes.eta) * y2 * y2)
    )
    if not math.isfinite(energy):
        raise nonfinite_error(
            "the normal-mode energy", {"y1": y1, "y2": y2, "py1": q1, "py2": q2},
            "use smaller coordinates or momenta",
        )
    return energy
