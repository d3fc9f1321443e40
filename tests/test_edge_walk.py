"""Every public callable over the edges of the float range: a finite result, the documented
NaN of an elementwise function, or a ValueError.

WALK has a row for each callable name in coupledosc._EXPORTS, and a name without one fails.
A row calls the function with its numeric arguments, first at their base values and then
with each argument in turn set to each value of EDGES, with every warning raised as an
error and the tracemalloc peak of the call held under MEMORY_CEILING.
"""

import io
import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import coupledosc
from coupledosc import covariant, entanglement, numerics, oscillator, parton

EDGES = (math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, -0.0, 10**400)

# bytes: the largest call, fourier_consistency on the default grid, peaks near 4.3 MB
MEMORY_CEILING = 16 << 20

# what a call may return besides a ValueError: every number finite (FINITE); finite unless an
# argument is NaN or infinite, where numpy's NaN or inf is documented (ELEMENTWISE); or, for a
# record that holds what it is given, its arguments as its fields (STORES)
FINITE, ELEMENTWISE, STORES = "finite", "elementwise", "stores"


def _exported(eta, n):
    buf = io.StringIO()
    parton.export_gaussian_pdf(eta, n, buf)
    return np.loadtxt(io.StringIO(buf.getvalue()), delimiter=",", skiprows=1)


def _ingested(x, value):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "overlay.csv"
        path.write_text(f"x,value\n{x!r},{value!r}\n1.0,0.5\n", encoding="utf-8")
        return parton.ingest_overlay(path)


def _params(call):
    # the energies and normal_modes take their parameters as a CoupledParams
    return lambda *a: call(*a[:-3], oscillator.CoupledParams(*a[-3:]))


PARAMS = (1.0, 5.0, -3.0)  # m, A, C
FOUR_VECTORS = (1.0, 0.2, -0.3, 0.4, 0.5, -0.1, 0.2, 0.3)

# name -> (call, base values of its numeric arguments, what it may return)
WALK = {
    "MomentumPoint": (covariant.MomentumPoint, (0.5, 0.5), STORES),
    "SpacetimePoint": (covariant.SpacetimePoint, (0.5, 0.5), STORES),
    "boost_matrix": (covariant.boost_matrix, (0.5,), FINITE),
    "boost_point": (lambda z, t, eta: covariant.boost_point(covariant.SpacetimePoint(z, t), eta),
                    (0.3, -0.2, 0.5), FINITE),
    "boosted_wavefunction": (covariant.boosted_wavefunction, (0.3, -0.2, 0.5), ELEMENTWISE),
    "dirac_gaussian": (covariant.dirac_gaussian, (0.3, -0.2), ELEMENTWISE),
    "fourier_consistency": (covariant.fourier_consistency, (0.5,), FINITE),
    "hadron_variables": (lambda *c: covariant.hadron_variables(c[:4], c[4:]), FOUR_VECTORS, FINITE),
    "momentum_variables": (lambda *c: covariant.momentum_variables(c[:4], c[4:]), FOUR_VECTORS, FINITE),
    "momentum_wavefunction": (covariant.momentum_wavefunction, (0.3, -0.2, 0.5), ELEMENTWISE),
    "FockExpansion": (entanglement.FockExpansion, (0.5,) * 4, STORES),
    "FockExpansion.reconstruct": (lambda x1, x2: entanglement.schmidt_coefficients(0.5, 8).reconstruct(x1, x2),
                                  (0.3, -0.2), FINITE),
    "ReducedState": (entanglement.ReducedState, (0.5,) * 4, STORES),
    "ThermalMap": (entanglement.ThermalMap, (0.5,) * 3, STORES),
    "effective_temperature": (entanglement.effective_temperature, (0.5, 1.0), FINITE),
    "entropy": (entanglement.entropy, (0.5,), FINITE),
    "purity": (entanglement.purity, (0.5,), FINITE),
    "purity_series": (entanglement.purity_series, (0.5, 64), FINITE),
    "reduced_state": (entanglement.reduced_state, (0.5, 8), FINITE),
    "schmidt_coefficients": (entanglement.schmidt_coefficients, (0.5, 8), FINITE),
    "thermal_entropy": (entanglement.thermal_entropy, (1.0,), FINITE),
    "width": (entanglement.width, (0.5,), FINITE),
    "DensityKernel": (numerics.DensityKernel, (0.5,) * 2, STORES),
    "GridResolutionError": (lambda: numerics.GridResolutionError("message"), (), FINITE),
    "QuadratureGrid": (numerics.QuadratureGrid, (0.5,) * 4, STORES),
    "default_grid": (numerics.default_grid, (), FINITE),
    "hermite_fn": (numerics.hermite_fn, (3, 0.3), FINITE),
    "integrate_1d": (lambda v: numerics.integrate_1d(lambda x: [v] * x.size), (0.5,), FINITE),
    "integrate_2d": (lambda v: numerics.integrate_2d(lambda a, b: v), (0.5,), FINITE),
    "oracle_reduced_density": (numerics.oracle_reduced_density, (0.5,), FINITE),
    "uniform_grid": (numerics.uniform_grid, (5, 2.0), FINITE),
    "CoupledParams": (oscillator.CoupledParams, PARAMS, FINITE),
    "NormalModeData": (oscillator.NormalModeData, (0.5,) * 5, STORES),
    "UnstablePotentialError": (lambda: oscillator.UnstablePotentialError("message"), (), FINITE),
    "from_normal": (oscillator.from_normal, (0.3, -0.2), ELEMENTWISE),
    "ground_state": (oscillator.ground_state, (0.3, -0.2, 0.5), ELEMENTWISE),
    "hamiltonian_energy": (_params(lambda x1, x2, p1, p2, params: oscillator.hamiltonian_energy(
        (x1, x2), (p1, p2), params)), (0.3, -0.2, 0.1, 0.4, *PARAMS), FINITE),
    "normal_mode_energy": (_params(lambda y1, y2, p1, p2, params: oscillator.normal_mode_energy(
        (y1, y2), (p1, p2), params)), (0.3, -0.2, 0.1, 0.4, *PARAMS), FINITE),
    "normal_modes": (_params(oscillator.normal_modes), PARAMS, FINITE),
    "to_normal": (oscillator.to_normal, (0.3, -0.2), ELEMENTWISE),
    "MarginalDistribution": (parton.MarginalDistribution, (0.5,) * 4, STORES),
    "OverlayParseError": (lambda: parton.OverlayParseError("message"), (), FINITE),
    "OverlaySeries": (parton.OverlaySeries, (0.5,) * 3, STORES),
    "OverlayValidationError": (lambda: parton.OverlayValidationError("message"), (), FINITE),
    "export_gaussian_pdf": (_exported, (0.5, 5), FINITE),
    "ingest_overlay": (_ingested, (0.0, 0.5), FINITE),
    "lightcone_fraction": (parton.lightcone_fraction, (0.5, 0.5), FINITE),
    "longitudinal_density": (parton.longitudinal_density, (0.5,), FINITE),
    "model_density": (lambda eta, x: parton.model_density(eta, [x]), (0.5, 0.3), ELEMENTWISE),
}

CALLABLE_EXPORTS = sorted(name for name in coupledosc._MODULE_OF if callable(getattr(coupledosc, name)))


def _arrays(result):
    """The numbers of result as float arrays, through tuples, lists and records; no text."""
    if isinstance(result, (tuple, list)):
        return [a for item in result for a in _arrays(item)]
    if hasattr(result, "__match_args__"):
        return _arrays(list(vars(result).values()))
    if isinstance(result, str):
        return []
    return [np.asarray(result, dtype=float)]


def _run(call, args):
    """(what call(*args) returns or raises, its tracemalloc peak in bytes), warnings as errors."""
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = call(*args)
    except Exception as exc:
        result = exc
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return result, peak


def _fault(kind, args, result):
    """What is wrong with result, or None when it is one of the three allowed outcomes."""
    if isinstance(result, ValueError):
        return None
    if isinstance(result, BaseException):
        return f"raised {type(result).__name__}: {result}"
    if kind == STORES:
        held = all(vars(result)[name] is arg for name, arg in zip(result.__match_args__, args))
        return None if held else f"stored {vars(result)}"
    if all(np.all(np.isfinite(a)) for a in _arrays(result)):
        return None
    if kind == ELEMENTWISE and not all(math.isfinite(a) for a in args if isinstance(a, float)):
        return None
    return f"returned a non-finite {result!r}"


@pytest.mark.parametrize("name", sorted(set(CALLABLE_EXPORTS) | set(WALK)))
def test_edge_walk(name):
    assert name in WALK, f"{name} is exported but has no row in WALK"
    call, base, kind = WALK[name]
    call(*base)  # the base values are a valid call, so each edge is tried on its own
    cases = [base] + [base[:i] + (edge,) + base[i + 1:] for i in range(len(base)) for edge in EDGES]
    faults = []
    for args in cases:
        result, peak = _run(call, args)
        fault = _fault(kind, args, result)
        if fault is None and peak > MEMORY_CEILING:
            fault = f"peaked at {peak} bytes"
        if fault is not None:
            shown = ", ".join("10**400" if a == 10**400 else repr(a) for a in args)
            faults.append(f"{name}({shown}): {fault}")
    assert not faults, "\n".join(faults)
