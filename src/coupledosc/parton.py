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

The marginal width sqrt(cosh(eta)/2) is also the quadrature width of one
oscillator's reduced state: it is defined as entanglement.width and
re-exported here as width.

CSV exports go through numerics.write_csv (15 significant digits, LF, UTF-8,
header row), so ingesting a previously exported overlay and re-exporting
reproduces the bytes exactly.

Importing this module loads neither numpy nor numerics. Each function imports
them where it uses them, after its guards: export_gaussian_pdf checks n and eta
first, and ingest_overlay reads a file of at most LOOP_MAX_BYTES with its row
loop and builds the arrays only once every row has passed. So a rejected
export or a malformed small overlay exits without numpy.
"""

import csv
import math
import os
import warnings
from typing import TYPE_CHECKING

from .entanglement import width
from .floats import (
    COSH_ETA_MAX, EXP_ETA_MAX, as_float, as_floats, check_count, check_eta, check_table_size, record,
)

if TYPE_CHECKING:
    import numpy as np

    from .numerics import QuadratureGrid

# overlays of at most this many bytes skip np.loadtxt for the row loop. Warm, with numpy
# loaded, the loop reads 1,000 clean rows (32 KiB) in 1.4-1.6 ms against 0.5 ms for
# loadtxt, and 2,000 (64 KiB) in 2.8-3.0 against 0.9-1.0 ms: up to this size a clean file
# pays about 1 ms, while a malformed one skips importing numpy, which takes 70-100 ms
LOOP_MAX_BYTES = 32 * 1024


class OverlayParseError(ValueError):
    """A row of an overlay file could not be parsed; message carries the line number."""


class OverlayValidationError(ValueError):
    """Overlay parsed but violates a structural requirement."""


@record
class MarginalDistribution:
    eta: float
    coordinates: "np.ndarray"
    density: "np.ndarray"
    variance: float


@record
class OverlaySeries:
    """External reference curve: strictly increasing abscissas with finite values."""

    x: "np.ndarray"
    values: "np.ndarray"
    source: str

    def to_csv(self, path) -> None:
        from .numerics import write_csv

        write_csv(path, ("x", "value"), (self.x, self.values))


def longitudinal_density(eta: float, grid: "QuadratureGrid | None" = None) -> MarginalDistribution:
    """Marginal of |psi_eta|^2 along z by quadrature, equal to that of |phi_eta|^2 along qz.

    The conjugate coordinate is integrated out with the grid weights and the
    result renormalized to unit area on the grid; the variance is computed
    from the tabulated density, not from the closed form, so this is an
    independent route to the cosh(eta)/2 law. psi_eta is symmetric in its two
    arguments bit for bit, so the qz marginal of phi_eta(qz, q0) = psi_eta(q0, qz)
    is this z reduction.

    The mesh is evaluated and reduced MESH_BLOCK_ROWS rows at a time, so
    memory is O(MESH_BLOCK_ROWS * N), never N x N. Each row's sum is the one
    the whole mesh would give on the grids verify uses; on other node counts
    (65, 129, 801, 1201) OpenBLAS may group a row's terms differently and the
    density can move in the last bit.
    """
    import numpy as np

    from . import covariant
    from .numerics import MESH_BLOCK_ROWS, GridResolutionError, blocks, check_resolution

    eta, g = check_resolution(eta, grid)
    b = g.nodes[None, :]
    dens = np.empty(g.count)
    for rows in blocks(g.count, MESH_BLOCK_ROWS):
        amp = covariant.boosted_wavefunction(g.nodes[rows, None], b, eta)
        dens[rows] = np.multiply(amp, amp, out=amp) @ g.weights
    area = float(g.weights @ dens)
    if area == 0.0:
        raise GridResolutionError("the density underflows to 0 on every node, as the grid spacing "
                                  "is too coarse; use more nodes")
    dens = dens / area
    mean = float(g.weights @ (g.nodes * dens))
    var = float(g.weights @ ((g.nodes - mean) ** 2 * dens))
    dens.flags.writeable = False
    return MarginalDistribution(eta=eta, coordinates=g.nodes, density=dens, variance=var)


def lightcone_fraction(eta: float, band: float = 0.5) -> float:
    """Probability mass of |psi_eta|^2 within |v| < band of the light cone u-axis.

    |psi_eta|^2 factorises in light-cone variables, and v has variance e^{-eta}/2, so the
    mass is erf(band e^{eta/2}): it nears 1 as the state collapses onto u = const lines.
    e^{eta/2} is positive until it overflows, so band 0 gives 0.0 and band inf gives 1.0.
    """
    eta = check_eta(eta, 2.0 * EXP_ETA_MAX, "the light-cone scale e^(eta/2)")
    band = as_float(band)
    if not band >= 0.0:
        raise ValueError(f"band must be nonnegative, got {band}")
    return math.erf(band * math.exp(0.5 * eta))


def model_density(eta: float, coords) -> "np.ndarray":
    """Closed-form normalized marginal exp(-x^2/cosh eta)/sqrt(pi cosh eta)."""
    c = math.cosh(check_eta(eta, COSH_ETA_MAX, "the closed-form marginal density"))
    import numpy as np

    norm = math.pi * c
    # pi cosh(eta) overflows for 709.33 < |eta| <= 710.47; its root is still a float there
    root = math.sqrt(norm) if norm < math.inf else math.sqrt(math.pi) * math.sqrt(c)
    xa = as_floats(coords, "coords")
    with np.errstate(over="ignore"):
        arg = -xa * xa / c
        far = np.isinf(arg)
        if far.any():
            # x*x overflowed, but x^2/c can still be small: form (x/sqrt c)^2 there only
            arg = np.where(far, -((xa / math.sqrt(c)) ** 2), arg)
        return np.exp(arg) / root


def export_gaussian_pdf(eta: float, n: int, path) -> "np.ndarray":
    """Write the closed-form marginal on n points spanning +-6 widths.

    CSV columns (coordinate, model_density) to ``path``, a path or an open text file;
    returns the coordinates used.
    """
    n = check_count(n, "n", 2)
    check_table_size(n, f"a marginal of n = {n} points", "use fewer points")
    eta = check_eta(eta)
    half = 6.0 * width(eta)
    import numpy as np

    from .numerics import write_csv

    coords = np.linspace(-half, half, n)
    dens = model_density(eta, coords)
    write_csv(path, ("coordinate", "model_density"), (coords, dens))
    return coords


def ingest_overlay(path) -> OverlaySeries:
    """Read an overlay CSV with header x,value; strict about shape and order.

    Malformed rows raise OverlayParseError naming the offending line (the
    header is line 1). Structural problems (fewer than two rows, abscissas
    not strictly increasing) raise OverlayValidationError.

    The grammar is _read_rows: the csv module's default dialect, one float()
    per field, blank lines skipped. A file of at most LOOP_MAX_BYTES goes
    straight to _read_rows, which imports numpy only after every row has
    passed. A larger body is first parsed by one np.loadtxt call; whatever
    that call does not return as a valid table is read again by _read_rows,
    which reports the error.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise OverlayValidationError(f"{path}: empty overlay file") from None
        except csv.Error as exc:
            raise OverlayParseError(f"line {reader.line_num}: {exc}") from None
        if [c.strip() for c in header] != ["x", "value"]:
            raise OverlayParseError(f"line 1: expected header 'x,value', got {','.join(header)!r}")
        table = _load_rows(path) if os.fstat(fh.fileno()).st_size > LOOP_MAX_BYTES else None
        if table is None:
            table = _read_rows(reader, path)
    x, v = table
    x.flags.writeable = False
    v.flags.writeable = False
    return OverlaySeries(x=x, values=v, source=str(path))


def _load_rows(path):
    """(x, values) of the rows after the header line by one np.loadtxt call, or None.

    Given the path, numpy's C reader reads the file in chunks, not one Python
    str per line. A quoted header over several lines leaves a quote to fail on.

    None unless numpy parses every row into two fields, the table has at
    least two rows, every value is finite and x strictly increases, and no
    line is long enough to hold a field past csv.field_size_limit(). Within
    those bounds np.loadtxt and _read_rows accept the same rows with the same
    values (both parse with PyOS_string_to_double; numpy takes ASCII only).
    """
    import numpy as np

    try:
        with warnings.catch_warnings():
            # a header-only file warns "input contained no data"
            warnings.simplefilter("ignore")
            data = np.loadtxt(path, delimiter=",", comments=None, quotechar=None, ndmin=2,
                              skiprows=1, encoding="utf-8")
    except ValueError:
        return None
    if data.shape[0] < 2 or data.shape[1] != 2 or not np.all(np.isfinite(data)):
        return None
    # b > a is np.diff(x) > 0.0 for finite x, without its warning where b - a overflows
    if not np.all(data[1:, 0] > data[:-1, 0]) or not _lines_fit(path, csv.field_size_limit()):
        return None
    return data.T.copy()


def _lines_fit(path, limit: int) -> bool:
    """True when no line of the file can be longer than ``limit`` characters.

    Reads the file in aligned blocks of (limit+1)//2 bytes: a line of more
    than ``limit`` characters, so of more than ``limit`` UTF-8 bytes, holds a
    whole block with no line break.
    """
    with open(path, "rb") as fh:
        if os.fstat(fh.fileno()).st_size <= limit:
            return True
        step = max(1, (limit + 1) // 2)
        while block := fh.read(step):
            if len(block) == step and b"\n" not in block and b"\r" not in block:
                return False
    return True


def _read_rows(reader, path):
    """(x, values) from the rows of a csv reader positioned after the header.

    This loop defines which rows an overlay may hold and every error about them.
    """
    xs: list[float] = []
    vals: list[float] = []
    try:
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
    except csv.Error as exc:
        # a field past csv.field_size_limit(), or a NUL before Python 3.11
        raise OverlayParseError(f"line {reader.line_num}: {exc}") from None
    if len(xs) < 2:
        raise OverlayValidationError(f"{path}: overlay needs at least 2 rows, got {len(xs)}")
    if not all(b - a > 0.0 for a, b in zip(xs, xs[1:])):
        raise OverlayValidationError(f"{path}: overlay abscissas must be strictly increasing")
    import numpy as np

    return np.asarray(xs), np.asarray(vals)
