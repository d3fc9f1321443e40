"""Quadrature grids, the Hermite-Gaussian basis, and brute-force density kernels.

Everything downstream that claims a closed form is cross-checked against the
machinery in this module: uniform trapezoid quadrature on [-L, L] (which is
super-algebraically accurate for the Gaussian-class integrands that appear
here) and the orthonormal Hermite functions

    phi_k(x) = (2^k k! sqrt(pi))^{-1/2} H_k(x) exp(-x^2/2),

evaluated through the normalized three-term recurrence

    phi_{k+1}(x) = x sqrt(2/(k+1)) phi_k(x) - sqrt(k/(k+1)) phi_{k-1}(x),

which stays in range and keeps full relative accuracy to k = 128 and beyond
(the textbook H_k recurrence overflows near k ~ 100).

The reduced-density oracle tabulates a two-argument wavefunction on the grid
and contracts one argument with the quadrature weights; all spectral claims
(Schmidt coefficients, purity, entropy) are validated against it. Every CSV
the package writes goes through write_csv.

The squeezed Gaussian has two routes. squeezed_gaussian, in x1 +- x2, serves
oscillator.ground_state and the oracle; covariant.boosted_wavefunction writes
it in light-cone variables. verify's cross_module_identity compares the two,
so they are kept apart.
"""

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Callable

import numpy as np

DEFAULT_COUNT = 401
DEFAULT_EXTENT = 8.0

# hard cap for the reduced-density oracle; beyond this no sane grid fits the state
MAX_ORACLE_ETA = 6.0

# |eta| beyond which math.cosh(eta) and math.exp(eta) overflow
COSH_ETA_MAX, EXP_ETA_MAX = math.acosh(sys.float_info.max), math.log(sys.float_info.max)

# rows per write_csv block: bounded memory, and each block's fixed cost spread over many rows
CSV_BLOCK_ROWS = 1024

# rows (or columns) of an N x N mesh reduced at a time: 64 x 1201 floats is 0.6 MB, inside L2.
# A multiple of the row groups of OpenBLAS gemv, so each reduced value keeps its bits.
MESH_BLOCK_ROWS = 64

# largest (k_max + 1) * points table hermite_basis builds: 2^24 floats, 128 MiB
HERMITE_MAX_VALUES = 1 << 24


class GridResolutionError(ValueError):
    """Raised when a grid cannot resolve or contain the requested state."""


class EtaRangeError(ValueError):
    """Raised when eta is finite but a closed form overflows a float there."""


def check_eta(eta) -> float:
    """eta as a float; ValueError unless it is finite."""
    eta = float(eta)
    if not math.isfinite(eta):
        raise ValueError("eta must be finite")
    return eta


def eta_range_error(eta: float, form: str, limit: float) -> EtaRangeError:
    """The error for an eta at which ``form`` overflows, as it does beyond |eta| = ``limit``."""
    usable = math.floor(limit * 100.0) / 100.0
    return EtaRangeError(f"|eta| = {abs(eta):g} overflows {form}; the usable range is |eta| <= {usable:g}")


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class QuadratureGrid:
    """Uniform nodes on [-extent, extent] with trapezoid weights.

    Attributes
    ----------
    nodes : ndarray, shape (count,)
        Equally spaced abscissas, endpoints included.
    weights : ndarray, shape (count,)
        Trapezoid weights: spacing h everywhere, h/2 at the two endpoints.
    extent : float
        Half-width L of the integration box.
    count : int
        Number of nodes.
    """

    nodes: np.ndarray
    weights: np.ndarray
    extent: float
    count: int

    @property
    def spacing(self) -> float:
        return 2.0 * self.extent / (self.count - 1)


def uniform_grid(count: int = DEFAULT_COUNT, extent: float = DEFAULT_EXTENT) -> QuadratureGrid:
    """Build the trapezoid grid used by every quadrature oracle and the boost mesh.

    ValueError unless the extent and the spacing 2*extent/(count-1) are both
    finite and positive.
    """
    if count < 2:
        raise ValueError(f"grid needs at least 2 nodes, got {count}")
    h = 2.0 * extent / (count - 1)
    if not 0.0 < h < math.inf:
        raise ValueError(
            f"grid extent must be positive with a finite, nonzero spacing 2*extent/(count-1), "
            f"got extent {extent} for {count} nodes"
        )
    nodes = np.linspace(-extent, extent, count)
    weights = np.full(count, h)
    weights[0] = weights[-1] = 0.5 * h
    return QuadratureGrid(_readonly(nodes), _readonly(weights), float(extent), int(count))


@lru_cache(maxsize=1)
def default_grid() -> QuadratureGrid:
    return uniform_grid()


def blocks(count: int, size: int) -> list[slice]:
    """Consecutive slices of at most ``size`` items that cover range(count) in order."""
    return [slice(start, start + size) for start in range(0, count, size)]


def hermite_fn(k: int, x):
    """Orthonormal Hermite function phi_k evaluated at x (scalar or array).

    Row k of hermite_basis on the flattened points, so both share one
    recurrence and its size cap. Stable and accurate for k up to at least 128.
    """
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise ValueError(f"order k must be an integer, got {k!r}")
    xa = np.asarray(x, dtype=float)
    out = hermite_basis(k, xa.ravel())[k].reshape(xa.shape)
    return out if xa.ndim else float(out)


def hermite_basis(k_max: int, x: np.ndarray) -> np.ndarray:
    """Stack phi_0..phi_{k_max} on the points x; returns shape (k_max+1, len(x)).

    ValueError, before anything is allocated, when the table would hold more
    than HERMITE_MAX_VALUES floats.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be nonnegative, got {k_max}")
    xa = np.asarray(x, dtype=float)
    if (int(k_max) + 1) * xa.size > HERMITE_MAX_VALUES:
        raise ValueError(
            f"a Hermite table of (k_max + 1) x points = {int(k_max) + 1} x {xa.size} values "
            f"exceeds the cap of {HERMITE_MAX_VALUES}; lower k_max or pass fewer points"
        )
    if not np.all(np.isfinite(xa)):
        raise ValueError("hermite_basis requires finite arguments")
    out = np.empty((k_max + 1, xa.size))
    out[0] = np.pi ** -0.25 * np.exp(-0.5 * xa * xa)
    if k_max >= 1:
        out[1] = np.sqrt(2.0) * xa * out[0]
    for j in range(1, k_max):
        out[j + 1] = xa * np.sqrt(2.0 / (j + 1)) * out[j] - np.sqrt(j / (j + 1.0)) * out[j - 1]
    return out


def integrate_1d(f: Callable, grid: QuadratureGrid | None = None) -> float:
    """Trapezoid integral of a vectorized integrand over the grid."""
    g = grid if grid is not None else default_grid()
    vals = np.asarray(f(g.nodes), dtype=float)
    if vals.shape != g.nodes.shape:
        raise ValueError("integrand must return one value per node")
    if not np.all(np.isfinite(vals)):
        raise ValueError("integrand returned non-finite values")
    return float(g.weights @ vals)


def integrate_2d(f: Callable, grid: QuadratureGrid | None = None) -> float:
    """Tensor-product trapezoid integral of f(x, y) on the grid squared (x a column, y a row)."""
    g = grid if grid is not None else default_grid()
    x = g.nodes
    vals = np.asarray(f(x[:, None], x[None, :]), dtype=float)
    try:
        vals = np.ascontiguousarray(np.broadcast_to(vals, (g.count, g.count)))
    except ValueError:
        raise ValueError("integrand must return one value per mesh point") from None
    if not np.all(np.isfinite(vals)):
        raise ValueError("integrand returned non-finite values")
    return float(g.weights @ vals @ g.weights)


@dataclass(frozen=True)
class DensityKernel:
    """Discretized reduced density rho(x, x') on a quadrature grid.

    values[i, j] ~ rho(x_i, x_j); spectral quantities are recovered by
    contracting with the grid weights.
    """

    values: np.ndarray
    grid: QuadratureGrid

    def trace(self) -> float:
        return float(self.grid.weights @ np.diag(self.values))

    def purity(self) -> float:
        # Tr rho^2 = integral rho(x,x') rho(x',x) dx dx'
        w = self.grid.weights
        return float(w @ ((self.values * self.values.T) @ w))

    def fock_projection(self, k: int) -> float:
        """<phi_k| rho |phi_k> by double quadrature."""
        phi = hermite_fn(k, self.grid.nodes) * self.grid.weights
        return float(phi @ self.values @ phi)

    def asymmetry(self) -> float:
        return float(np.max(np.abs(self.values - self.values.T)))

    def to_csv(self, path) -> None:
        """Write (x, x_prime, value) triples for debugging."""
        x = self.grid.nodes
        write_csv(path, ("x", "x_prime", "value"), (x[:, None], x[None, :], self.values))


def squeezed_gaussian(x1, x2, eta: float):
    """psi_eta(x1, x2) = (1/sqrt pi) exp{-1/4 [e^{-eta}(x1+x2)^2 + e^{eta}(x1-x2)^2]}, vectorized."""
    eta = check_eta(eta)
    if abs(eta) > EXP_ETA_MAX:
        raise eta_range_error(eta, "psi_eta", EXP_ETA_MAX)
    x1a = np.asarray(x1, dtype=float)
    x2a = np.asarray(x2, dtype=float)
    em, ep = np.exp(-eta), np.exp(eta)
    # a product that overflows to inf gives exp(-inf) = 0, the right value
    with np.errstate(over="ignore"):
        out = np.pi ** -0.5 * np.exp(-0.25 * (em * (x1a + x2a) ** 2 + ep * (x1a - x2a) ** 2))
    return out if out.ndim else float(out)


def check_resolution(eta: float, grid: QuadratureGrid) -> float:
    """eta as a float; GridResolutionError unless the widest principal-axis standard
    deviation of |psi_eta|^2, sqrt(e^{|eta|}/2), is at most extent/4."""
    eta = check_eta(eta)
    if abs(eta) > EXP_ETA_MAX:
        raise eta_range_error(eta, "the state width sqrt(e^|eta|/2)", EXP_ETA_MAX)
    sigma_max = math.sqrt(math.exp(abs(eta)) / 2.0)
    if sigma_max > grid.extent / 4.0:
        raise GridResolutionError(
            f"state width {sigma_max:.3g} exceeds extent/4 = {grid.extent / 4.0:.3g}; "
            "use a wider grid"
        )
    return eta


def oracle_reduced_density(eta: float, grid: QuadratureGrid | None = None) -> DensityKernel:
    """Reduced density of the two-mode squeezed ground state, by brute quadrature.

    Tabulates psi_eta(x, s) on the grid and integrates out the second argument:

        rho(x, x') = integral psi_eta(x, s) psi_eta(x', s) ds.

    Built as A A^T with A = Psi sqrt(w), so the kernel is symmetric by
    construction. Raises GridResolutionError when the squeezed state does not
    fit the grid (see check_resolution; the default grid is good up to
    |eta| ~ 2.08).
    """
    eta = check_eta(eta)
    if abs(eta) > MAX_ORACLE_ETA:
        raise GridResolutionError(
            f"|eta| = {abs(eta):g} beyond supported range {MAX_ORACLE_ETA:g}"
        )
    g = grid if grid is not None else default_grid()
    check_resolution(eta, g)
    psi = squeezed_gaussian(g.nodes[:, None], g.nodes[None, :], eta)
    a = psi * np.sqrt(g.weights)
    return DensityKernel(_readonly(a @ a.T), g)


def _render(fields: list, rows: int) -> str:
    """``rows`` LF-terminated CSV lines, one field per entry of ``fields``.

    Each field holds one value per row: a float array (written at %.15g), an
    integer array (written as decimals) or a list of strings rendered earlier.
    A block with a numeric field is one %-format call on a row template; a
    block of strings only is joined.
    """
    specs, cells = [], []
    for f in fields:
        if isinstance(f, list):
            specs.append("%s")
            cells.append(f)
        elif f.dtype.kind in "iu":
            specs.append("%d")
            cells.append(f.tolist())
        else:
            specs.append("%.15g")
            cells.append(np.asarray(f, dtype=float).tolist())
    if all(spec == "%s" for spec in specs):
        return "\n".join(map(",".join, zip(*cells))) + "\n"
    flat = cells[0] if len(cells) == 1 else chain.from_iterable(zip(*cells))
    return ((",".join(specs) + "\n") * rows) % tuple(flat)


def write_csv(dest, header, columns) -> None:
    """Write a header row, then one row per entry of the broadcast ``columns``, in C order.

    ``dest`` is a path (written as UTF-8, LF line endings) or an open text file.
    Rows are rendered and written in blocks of about CSV_BLOCK_ROWS, one
    _render call per block. A column smaller than the table, such as a mesh
    axis passed as a broadcast view of its 1-D nodes, is rendered once up
    front; a column passed twice (the same object) is rendered once per
    block. Every other value is formatted inline in its block's row template.
    """
    if not hasattr(dest, "write"):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            write_csv(fh, header, columns)
        return
    arrays = [np.asarray(c) for c in columns]
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    size = math.prod(shape)

    def lines(a):
        return _render([a.ravel()], a.size).splitlines()

    def source(a):
        # (strings rendered up front, their indices) or (None, the values)
        if a.size < size:
            text = np.array(lines(a), dtype=object)
            return text, np.broadcast_to(np.arange(a.size).reshape(a.shape), shape)
        return None, np.broadcast_to(a, shape)

    first = [next(i for i, c in enumerate(columns) if c is col) for col in columns]
    sources = {j: source(arrays[j]) for j in set(first)}
    lead = shape[0] if size else 0
    step = max(1, CSV_BLOCK_ROWS * lead // max(size, 1))
    dest.write(",".join(header) + "\n")
    for rows in blocks(lead, step):
        fields = {}
        for j, (text, values) in sources.items():
            block = values[rows].ravel()
            if text is not None:
                fields[j] = text.take(block).tolist()
            else:
                fields[j] = lines(block) if first.count(j) > 1 else block
        dest.write(_render([fields[j] for j in first], block.size))
