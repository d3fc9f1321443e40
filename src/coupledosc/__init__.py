"""Coupled oscillators, the entropy of an unobserved mode, and Lorentz squeezing.

One Gaussian, three readings: the entangled ground state of two coupled
oscillators, a two-mode squeezed state whose traced-out partner is exactly
thermal, and a relativistically boosted bound state flowing into the parton
picture. Closed forms throughout, each one cross-checked by quadrature.

Public names load their module on first use, so importing the package (or
the CLI) does not import numpy until a name or subcommand needs it.
"""

import importlib

__version__ = "0.1.0"

# defining module -> the public names it exports
_EXPORTS = {
    "covariant": (
        "MomentumPoint", "SpacetimePoint", "boost_matrix", "boost_point", "boosted_wavefunction",
        "dirac_gaussian", "fourier_consistency", "hadron_variables", "momentum_variables",
        "momentum_wavefunction",
    ),
    "entanglement": (
        "FockExpansion", "ReducedState", "ThermalMap", "effective_temperature", "entropy",
        "purity", "purity_series", "reduced_state", "schmidt_coefficients", "thermal_entropy",
    ),
    "numerics": (
        "DensityKernel", "GridResolutionError", "QuadratureGrid", "default_grid", "hermite_fn",
        "integrate_1d", "integrate_2d", "oracle_reduced_density", "uniform_grid",
    ),
    "oscillator": (
        "CoupledParams", "NormalModeData", "UnstablePotentialError", "from_normal", "ground_state",
        "hamiltonian_energy", "normal_mode_energy", "normal_modes", "to_normal",
    ),
    "parton": (
        "MarginalDistribution", "OverlayParseError", "OverlaySeries", "OverlayValidationError",
        "export_gaussian_pdf", "ingest_overlay", "lightcone_fraction", "longitudinal_density",
        "width",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
