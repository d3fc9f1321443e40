"""Longitudinal marginals of the boosted state and the parton-limit widths.

Integrating |psi_eta|^2 over t (or |phi_eta|^2 over q0) leaves a plain
Gaussian in the surviving coordinate:

    P(z) = (1/sqrt(pi cosh eta)) exp{-z^2 / cosh eta},

variance cosh(eta)/2. The momentum marginal has the *same* variance, so the
spatial and momentum widths grow together under boosts instead of trading
off; their product cosh(eta)/2 rises from the minimum-uncertainty 1/2 at
eta = 0. At large eta the density |psi_eta|^2 piles up along the light cone:
the narrow axis shrinks as e^{-eta/2} while the long axis stretches as
e^{+eta/2}, which is the parton picture emerging from one squeezed Gaussian.

CSV exports go through numerics.write_csv (15 significant digits, LF, UTF-8,
header row), so ingesting a previously exported overlay and re-exporting
reproduces the bytes exactly.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import covariant
from .numerics import COSH_ETA_MAX, QuadratureGrid, check_eta, check_resolution, default_grid
from .numerics import eta_range_error, write_csv

_VARIABLES = ("z", "qz")


class OverlayParseError(ValueError):
    """A row of an overlay file could not be parsed; message carries the line number."""


class OverlayValidationError(ValueError):
    """Overlay parsed but violates a structural requirement."""


@dataclass(frozen=True)
class MarginalDistribution:
    variable: str
    eta: float
    coordinates: np.ndarray
    density: np.ndarray
    variance: float


@dataclass(frozen=True)
class OverlaySeries:
    """External reference curve: strictly increasing abscissas with finite values."""

    x: np.ndarray
    values: np.ndarray
    source: str

    def to_csv(self, path) -> None:
        write_csv(path, ("x", "value"), (self.x, self.values))


def width(eta: float) -> float:
    """Standard deviation sqrt(cosh(eta)/2) of either longitudinal marginal."""
    eta = check_eta(eta)
    try:
        return math.sqrt(math.cosh(eta) / 2.0)
    except OverflowError:
        raise eta_range_error(eta, "the marginal width sqrt(cosh(eta)/2)", COSH_ETA_MAX) from None


def longitudinal_density(
    eta: float, variable: str = "z", grid: QuadratureGrid | None = None
) -> MarginalDistribution:
    """Marginal of the squared wavefunction along z or qz, by quadrature.

    The conjugate coordinate is integrated out with the grid weights and the
    result renormalized to unit area on the grid; the variance is computed
    from the tabulated density, not from the closed form, so this is an
    independent route to the cosh(eta)/2 law.
    """
    if variable not in _VARIABLES:
        raise ValueError(f"variable must be one of {_VARIABLES}, got {variable!r}")
    g = grid if grid is not None else default_grid()
    eta = check_resolution(eta, g)
    a, b = g.nodes[:, None], g.nodes[None, :]
    if variable == "z":
        amp = covariant.boosted_wavefunction(a, b, eta)
    else:
        amp = covariant.momentum_wavefunction(a, b, eta)
    dens = (amp * amp) @ g.weights
    area = float(g.weights @ dens)
    dens = dens / area
    mean = float(g.weights @ (g.nodes * dens))
    var = float(g.weights @ ((g.nodes - mean) ** 2 * dens))
    dens.flags.writeable = False
    return MarginalDistribution(
        variable=variable, eta=eta, coordinates=g.nodes, density=dens, variance=var
    )


def lightcone_fraction(eta: float, band: float = 0.5, grid: QuadratureGrid | None = None) -> float:
    """Probability mass of |psi_eta|^2 within |v| < band of the light cone u-axis.

    Grows toward 1 as eta increases (the squeezed Gaussian collapses onto
    u = const lines); callers must supply a grid wide enough for e^{eta/2}.
    """
    g = grid if grid is not None else default_grid()
    check_resolution(eta, g)
    z, t = g.nodes[:, None], g.nodes[None, :]
    rho = covariant.boosted_wavefunction(z, t, eta) ** 2
    V = (z - t) / math.sqrt(2.0)
    total = float(g.weights @ rho @ g.weights)
    inside = float(g.weights @ np.where(np.abs(V) < band, rho, 0.0) @ g.weights)
    return inside / total


def model_density(eta: float, coords) -> np.ndarray:
    """Closed-form normalized marginal exp(-x^2/cosh eta)/sqrt(pi cosh eta)."""
    try:
        c = math.cosh(check_eta(eta))
    except OverflowError:
        raise eta_range_error(eta, "the closed-form marginal density", COSH_ETA_MAX) from None
    xa = np.asarray(coords, dtype=float)
    # a square that overflows to inf gives exp(-inf) = 0, the right value
    with np.errstate(over="ignore"):
        return np.exp(-xa * xa / c) / math.sqrt(math.pi * c)


def export_gaussian_pdf(eta: float, n: int, path) -> np.ndarray:
    """Write the closed-form marginal on n points spanning +-6 widths.

    CSV columns (coordinate, model_density); returns the coordinates used.
    """
    if n < 2:
        raise ValueError(f"need at least 2 points, got {n}")
    eta = check_eta(eta)
    half = 6.0 * width(eta)
    coords = np.linspace(-half, half, int(n))
    dens = model_density(eta, coords)
    write_csv(path, ("coordinate", "model_density"), (coords, dens))
    return coords


def ingest_overlay(path) -> OverlaySeries:
    """Read an overlay CSV with header x,value; strict about shape and order.

    Malformed rows raise OverlayParseError naming the offending line (the
    header is line 1). Structural problems (fewer than two rows, abscissas
    not strictly increasing) raise OverlayValidationError.
    """
    xs: list[float] = []
    vals: list[float] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise OverlayValidationError(f"{path}: empty overlay file") from None
        if [c.strip() for c in header] != ["x", "value"]:
            raise OverlayParseError(f"line 1: expected header 'x,value', got {','.join(header)!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise OverlayParseError(f"line {lineno}: expected 2 fields, got {len(row)}")
            try:
                xi, vi = float(row[0]), float(row[1])
            except ValueError:
                raise OverlayParseError(f"line {lineno}: could not parse {row!r}") from None
            if not (math.isfinite(xi) and math.isfinite(vi)):
                raise OverlayParseError(f"line {lineno}: non-finite value in {row!r}")
            xs.append(xi)
            vals.append(vi)
    if len(xs) < 2:
        raise OverlayValidationError(f"{path}: overlay needs at least 2 rows, got {len(xs)}")
    x = np.asarray(xs)
    if not np.all(np.diff(x) > 0.0):
        raise OverlayValidationError(f"{path}: overlay abscissas must be strictly increasing")
    v = np.asarray(vals)
    x.flags.writeable = False
    v.flags.writeable = False
    return OverlaySeries(x=x, values=v, source=str(path))
