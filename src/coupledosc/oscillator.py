"""Two coupled oscillators: normal modes, squeeze parameter, entangled ground state.

The Hamiltonian

    H = 1/2 { p1^2/m + p2^2/m + A x1^2 + A x2^2 + 2 C x1 x2 }

decouples in the rotated coordinates y1 = (x1+x2)/sqrt2, y2 = (x1-x2)/sqrt2
with effective stiffnesses A+C and A-C. Writing K = sqrt(A^2-C^2) and

    exp(2 eta) = sqrt((A-C)/(A+C)),

the modes oscillate at omega e^{-eta} (y1) and omega e^{+eta} (y2), where
omega = sqrt(K/m). In units where m = omega = hbar = 1 the ground state is

    psi_eta(x1, x2) = (1/sqrt pi) exp{ -1/4 [ e^{-eta}(x1+x2)^2 + e^{eta}(x1-x2)^2 ] },

a two-mode squeezed Gaussian; eta = 0 is the separable product state.

The parameters, normal modes and energies need only math; the array
functions (to_normal, from_normal, ground_state) import numpy when called.
"""

import math
from dataclasses import dataclass


class UnstablePotentialError(ValueError):
    """Potential is not positive definite; no bound ground state exists."""


@dataclass(frozen=True)
class CoupledParams:
    """Mass m and the quadratic-form couplings A (diagonal) and C (cross)."""

    m: float
    A: float
    C: float

    def __post_init__(self):
        if not (math.isfinite(self.m) and math.isfinite(self.A) and math.isfinite(self.C)):
            raise ValueError("parameters must be finite")
        if self.m <= 0.0:
            raise ValueError(f"mass must be positive, got {self.m}")
        if self.A <= 0.0 or abs(self.C) >= self.A:
            raise UnstablePotentialError(
                f"need A > |C| >= 0 for a bound state, got A={self.A}, C={self.C}"
            )


@dataclass(frozen=True)
class NormalModeData:
    K: float
    eta: float
    omega: float
    omega_plus: float
    omega_minus: float


def normal_modes(params: CoupledParams) -> NormalModeData:
    """Diagonalize the potential: K, the squeeze parameter eta, and the mode frequencies.

    Where A^2 overflows (A above about 1.3e154), K and eta are taken from the
    halves A/2 -+ C/2, whose sum and difference cannot overflow. ValueError
    when a mode frequency overflows a float (K/m too large).
    """
    A, C = params.A, params.C
    try:
        K = math.sqrt(A**2 - C**2)
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
    return s * (np.asarray(x1) + np.asarray(x2)), s * (np.asarray(x1) - np.asarray(x2))


def from_normal(y1, y2):
    import numpy as np

    s = 1.0 / math.sqrt(2.0)
    return s * (np.asarray(y1) + np.asarray(y2)), s * (np.asarray(y1) - np.asarray(y2))


def ground_state(x1, x2, eta: float):
    """Entangled ground-state wavefunction psi_eta(x1, x2), vectorized.

    Positive everywhere, peak value 1/sqrt(pi) at the origin, and normalized:
    the squeeze only redistributes the Gaussian between the two normal axes.
    """
    from .numerics import squeezed_gaussian

    return squeezed_gaussian(x1, x2, eta)


def hamiltonian_energy(x, p, params: CoupledParams) -> float:
    """Classical energy of a phase-space point ((x1,x2), (p1,p2))."""
    x1, x2 = (float(v) for v in x)
    p1, p2 = (float(v) for v in p)
    return 0.5 * (
        (p1 * p1 + p2 * p2) / params.m
        + params.A * (x1 * x1 + x2 * x2)
        + 2.0 * params.C * x1 * x2
    )


def normal_mode_energy(y, py, params: CoupledParams) -> float:
    """Same energy in normal coordinates: two uncoupled oscillators.

    H = (py1^2 + py2^2)/(2m) + (K/2)(e^{-2eta} y1^2 + e^{+2eta} y2^2).
    The y1 mode carries stiffness A+C = K e^{-2eta} and y2 carries A-C = K e^{+2eta}.
    """
    modes = normal_modes(params)
    y1, y2 = (float(v) for v in y)
    q1, q2 = (float(v) for v in py)
    return 0.5 * (
        (q1 * q1 + q2 * q2) / params.m
        + modes.K * (math.exp(-2.0 * modes.eta) * y1 * y1 + math.exp(2.0 * modes.eta) * y2 * y2)
    )
