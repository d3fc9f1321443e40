"""Schmidt expansion of the squeezed ground state and what tracing one mode costs.

The entangled Gaussian separates over the Hermite basis with one index,

    psi_eta(x1, x2) = sum_k c_k phi_k(x1) phi_k(x2),
    c_k = tanh^k(eta/2) / cosh(eta/2),

(a Mehler-kernel identity; note the half-angle in the prefactor, which is what
makes sum_k c_k^2 = 1 exact). Discarding one oscillator leaves the diagonal
mixed state with eigenvalues

    p_k = c_k^2 = tanh^{2k}(eta/2) / cosh^2(eta/2),

a geometric ladder, so everything downstream is closed form: purity
Tr rho^2 = 1/cosh(eta), von Neumann entropy

    S = 2 { cosh^2(eta/2) ln cosh(eta/2) - sinh^2(eta/2) ln sinh(eta/2) },

and the ladder is literally Boltzmann: setting tanh^2(eta/2) = e^{-x} with
x = hbar omega / kB T makes p_k = (1 - e^{-x}) e^{-kx}, so the unobserved
mode looks exactly thermal at temperature T = omega/x. The thermal-side
entropy x/(e^x - 1) - ln(1 - e^{-x}) then equals S identically, not just
asymptotically. S is even in eta and vanishes only at eta = 0.

The same squeeze sets the reduced state's quadrature variance
nu = cosh(eta)/2, so its width is sqrt(nu); this is the width of either
longitudinal marginal of the boosted state (parton re-exports it).

The scalar closed forms (purity, entropy, the thermal map, the width) need
only math; the array functions (schmidt_coefficients, reduced_state,
purity_series, FockExpansion.reconstruct) import numpy when called.
"""

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .floats import COSH_ETA_MAX, EXP_ETA_MAX, check_eta, eta_range_error

if TYPE_CHECKING:
    import numpy as np

# below this |eta|, e^{-|eta|} is too close to 1 for the log1p(+-e^{-|eta|}) forms
SMALL_ETA = 0.01

# largest truncation order accepted, so k_max + 1 floats stay a bounded allocation;
# for |eta| <= 6 (the oracle's cap) every p_k past it is below 1e-300
K_MAX_CAP = 100_000


@dataclass(frozen=True)
class FockExpansion:
    """Truncated Schmidt expansion: coefficients c_0..c_{k_max} and the exact tail.

    tail = sum_{k > k_max} c_k^2 = tanh^{2(k_max+1)}(eta/2), reported with
    every truncation so nothing silently leaks probability.
    """

    eta: float
    k_max: int
    coefficients: "np.ndarray"
    tail: float

    def reconstruct(self, x1, x2):
        """Evaluate sum_{k<=k_max} c_k phi_k(x1) phi_k(x2) pointwise."""
        import numpy as np

        from .numerics import hermite_basis

        x1a = np.atleast_1d(np.asarray(x1, dtype=float))
        x2a = np.atleast_1d(np.asarray(x2, dtype=float))
        shape = np.broadcast_shapes(x1a.shape, x2a.shape)
        b1 = hermite_basis(self.k_max, np.broadcast_to(x1a, shape).ravel())
        b2 = hermite_basis(self.k_max, np.broadcast_to(x2a, shape).ravel())
        vals = (self.coefficients[:, None] * b1 * b2).sum(axis=0).reshape(shape)
        return vals if np.ndim(x1) or np.ndim(x2) else float(vals[0])


@dataclass(frozen=True)
class ReducedState:
    """Spectrum of the one-mode reduced density, truncated at k_max."""

    eta: float
    k_max: int
    eigenvalues: "np.ndarray"
    tail: float


@dataclass(frozen=True)
class ThermalMap:
    """Effective thermal description of the unobserved mode."""

    omega: float
    x: float  # hbar omega / kB T
    temperature: float


def _ln_coth_half(a: float) -> float:
    """ln coth(a/2) = -ln tanh(a/2) for a > 0, to a few ulp over the whole float range."""
    if a >= SMALL_ETA:
        # via log1p, x = 2 ln coth stays alive (~4 e^{-a}) long after tanh itself
        # rounds to 1 (a ~ 37); it underflows only near a ~ 745
        e = math.exp(-a)
        return math.log1p(e) - math.log1p(-e)
    # -ln tanh h = -ln h - ln(tanh(h)/h), h = a/2, with -ln h taken from a, since
    # a/2 drops the last bit of a subnormal a. ln(tanh(h)/h) ~ -h^2/3 is below
    # 1e-16 for h <= 1e-8, so it is skipped there (h is 0 at the smallest a)
    h = 0.5 * a
    return math.log(2.0) - math.log(a) - (math.log(math.tanh(h) / h) if h > 1e-8 else 0.0)


def _check_k_max(k_max: int) -> None:
    if k_max < 0:
        raise ValueError(f"k_max must be nonnegative, got {k_max}")
    if k_max > K_MAX_CAP:
        raise ValueError(f"k_max must be at most {K_MAX_CAP}, got {k_max}")


def schmidt_coefficients(eta: float, k_max: int = 64) -> FockExpansion:
    """Schmidt coefficients c_k = tanh^k(eta/2)/cosh(eta/2) up to k_max."""
    import numpy as np

    eta = check_eta(eta)
    _check_k_max(k_max)
    t = math.tanh(eta / 2.0)
    try:
        coeffs = t ** np.arange(k_max + 1) / math.cosh(eta / 2.0)
    except OverflowError:
        raise eta_range_error(eta, "the Schmidt coefficients", 2.0 * COSH_ETA_MAX) from None
    coeffs.flags.writeable = False
    tail = math.tanh(abs(eta) / 2.0) ** (2 * (k_max + 1))
    return FockExpansion(eta=eta, k_max=int(k_max), coefficients=coeffs, tail=tail)


def reduced_state(eta: float, k_max: int = 64) -> ReducedState:
    """Eigenvalues p_k of the reduced density, a geometric distribution in k."""
    import numpy as np

    eta = check_eta(eta)
    _check_k_max(k_max)
    t2 = math.tanh(abs(eta) / 2.0) ** 2
    try:
        p = t2 ** np.arange(k_max + 1) / math.cosh(eta / 2.0) ** 2
    except OverflowError:
        # cosh^2(eta/2) ~ e^{|eta|}/4
        raise eta_range_error(eta, "the eigenvalues p_k", EXP_ETA_MAX + math.log(4.0)) from None
    p.flags.writeable = False
    return ReducedState(eta=eta, k_max=int(k_max), eigenvalues=p, tail=t2 ** (k_max + 1))


def purity(eta: float) -> float:
    """Tr rho^2 = 1/cosh(eta): 1 iff uncoupled, decays to 0 as |eta| grows."""
    eta = check_eta(eta)
    try:
        return 1.0 / math.cosh(eta)
    except OverflowError:
        raise eta_range_error(eta, "the purity 1/cosh(eta)", COSH_ETA_MAX) from None


def purity_series(eta: float, k_max: int = 64) -> float:
    """Truncated sum_k p_k^2; must agree with the closed form up to the tail."""
    import numpy as np

    p = reduced_state(eta, k_max).eigenvalues
    return float(np.sum(p * p))


def entropy(eta: float) -> float:
    """Von Neumann entropy of the reduced state, in nats. Even in eta; S(0) = 0.

    Closed form 2{cosh^2(eta/2) ln cosh(eta/2) - sinh^2(eta/2) ln sinh(eta/2)},
    evaluated as 2{sinh^2 ln coth + ln cosh} (the same thing, ch^2 = sh^2 + 1)
    so the two large terms never cancel; good out to eta ~ 700, where it joins
    the asymptote S = eta + 1 - 2 ln 2. Below |eta| = 0.01 the terms are
    sinh^2(h) ln coth(h) and ln cosh(h) = log1p(2 sinh^2(h/2)), h = |eta|/2,
    accurate down to the smallest subnormal eta.
    """
    eta = abs(check_eta(eta))
    if eta == 0.0:
        return 0.0
    ln_coth = _ln_coth_half(eta)
    if eta < SMALL_ETA:
        h = 0.5 * eta
        return 2.0 * (math.sinh(h) ** 2 * ln_coth + math.log1p(2.0 * math.sinh(0.5 * h) ** 2))
    e2 = math.exp(-eta)  # e^{-2h} with h = eta/2
    if e2 == 0.0:
        return eta + 1.0 - 2.0 * math.log(2.0)
    ln_ch = 0.5 * eta - math.log(2.0) + math.log1p(e2)
    # sinh^2(h) ln coth(h) = (1 - e2)^2 / 4 * (ln coth / e2), overflow-free
    return 2.0 * (0.25 * (1.0 - e2) ** 2 * (ln_coth / e2) + ln_ch)


def width(eta: float) -> float:
    """sqrt(nu), nu = cosh(eta)/2: the reduced state's quadrature width, which is the
    standard deviation of either longitudinal marginal of the boosted state."""
    eta = check_eta(eta)
    try:
        return math.sqrt(math.cosh(eta) / 2.0)
    except OverflowError:
        raise eta_range_error(eta, "the marginal width sqrt(cosh(eta)/2)", COSH_ETA_MAX) from None


def check_omega(omega) -> float:
    """omega as a float; ValueError unless it is finite and positive."""
    try:
        omega = float(omega)
    except OverflowError:  # an int past the float range
        omega = math.inf if omega > 0 else -math.inf
    if not math.isfinite(omega) or omega <= 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    return omega


def _thermal_map(eta: float, omega) -> tuple[float | None, float]:
    """(x, T) at a checked eta, or (None, 0.0) at eta = 0, the zero-temperature limit;
    ValueError for a bad omega, an x that underflows to zero or a T that overflows
    a float or underflows to zero."""
    omega = check_omega(omega)
    if eta == 0.0:
        return None, 0.0
    x = 2.0 * _ln_coth_half(abs(eta))
    if x <= 0.0:
        raise ValueError(f"|eta| = {abs(eta):g} is too large: x underflows to zero")
    temperature = omega / x
    if not math.isfinite(temperature):
        # here x < 1, so the largest usable omega, x * float max, is finite
        raise ValueError(
            f"T = omega/x overflows a float at |eta| = {abs(eta):g} (x = {x:.6g}); "
            f"omega must be at most {x * sys.float_info.max:.6g}, got {omega:g}"
        )
    if temperature == 0.0:
        # here x > 2, and omega = x times the smallest subnormal gives T >= that subnormal
        raise ValueError(
            f"T = omega/x underflows to zero at |eta| = {abs(eta):g} (x = {x:.6g}); "
            f"omega must be at least {x * math.ulp(0.0):.6g}, got {omega:g}"
        )
    return x, temperature


def effective_temperature(eta: float, omega: float = 1.0) -> ThermalMap:
    """Temperature at which the unobserved mode's ladder is exactly Boltzmann.

    tanh^2(eta/2) = e^{-x} with x = hbar omega / kB T, so T = omega/x (units
    hbar = kB = 1). eta = 0 is the zero-temperature limit (x -> infinity) and
    is rejected explicitly rather than returning an infinity, as is an omega
    so large that omega/x overflows or so small that it underflows to zero.
    """
    x, temperature = _thermal_map(check_eta(eta), omega)
    if x is None:
        raise ValueError("eta = 0 is the zero-temperature limit; no finite x exists")
    return ThermalMap(omega=float(omega), x=x, temperature=temperature)


def thermal_entropy(x: float) -> float:
    """Entropy of a thermal oscillator as a function of x = hbar omega / kB T.

    S(x) = x/(e^x - 1) - ln(1 - e^{-x}); diverges as x -> 0+, vanishes as
    x -> infinity. Composing with the map above reproduces entropy(eta) exactly.
    """
    x = float(x)
    if math.isnan(x) or x <= 0.0:
        raise ValueError(f"x must be positive, got {x}")
    if x >= 700.0:
        # exact tail (x + 1) e^{-x} before expm1(x) overflows; also covers inf
        return (x + 1.0) * math.exp(-x) if math.isfinite(x) else 0.0
    return x / math.expm1(x) - math.log(-math.expm1(-x))
