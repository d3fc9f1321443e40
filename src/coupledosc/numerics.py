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
(Schmidt coefficients, purity, entropy) are validated against it. Every
array table the package writes goes through write_csv, which hands its text to
floats.write_text; it casts each column to float64, and its renderer and
entanglement.write_sweep write every number as floats.format_floats does.
The eta, count and table-size guards live in floats, which needs no numpy.

The squeezed Gaussian has two routes. oscillator.ground_state writes it in
x1 +- x2, and the oracle tabulates it; covariant.boosted_wavefunction writes
it in light-cone variables. verify's cross_module_identity compares the two,
so they are kept apart.
"""

import math
from functools import lru_cache
from types import SimpleNamespace
from typing import Callable

import numpy as np

from . import floats
from .floats import EXP_ETA_MAX, as_float, check_count, check_eta, check_table_size, format_floats, record

DEFAULT_COUNT = 401
DEFAULT_EXTENT = 8.0

# hard cap for the reduced-density oracle; beyond this no sane grid fits the state
MAX_ORACLE_ETA = 6.0

# values per write_csv block, in whole rows of the lead axis. _render's fixed cost of about 60
# numpy calls is spread over the block, and its ~20 temporaries stay in L2: on a 2 MiB-L2
# Xeon it takes 272, 70, 48 and 46 ns a log-normal value at 128, 1024, 4096 and 16384, then
# 83 at 65536, once they spill. Bounded memory too: a 401 x 401 mesh writes 10 rows a block
CSV_BLOCK_ROWS = 4096

# rows of an N x N mesh reduced at a time: 64 x 401 floats, the default grid, is 0.2 MB, inside L2.
# A multiple of the row groups of OpenBLAS gemv, so each reduced value keeps its bits.
MESH_BLOCK_ROWS = 64


class GridResolutionError(ValueError):
    """Raised when a grid cannot resolve or contain the requested state."""


@record
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


def uniform_grid(count: int = DEFAULT_COUNT, extent: float = DEFAULT_EXTENT) -> QuadratureGrid:
    """Build the trapezoid grid used by every quadrature oracle and the boost mesh.

    ValueError unless count is an integer of at least 2, the extent and the spacing
    2*extent/(count-1) are both finite and positive, and the count x count mesh fits
    MAX_TABLE_VALUES.
    """
    count = check_count(count, "grid count", 2)
    side = math.isqrt(floats.MAX_TABLE_VALUES)  # the cap check_table_size reads, patched or not
    check_table_size(count ** 2, f"a {count} x {count} mesh", f"use at most {side} grid nodes")
    extent = as_float(extent)
    h = 2.0 * extent / (count - 1)
    if not 0.0 < h < math.inf:
        raise ValueError(
            f"grid extent must be positive with a finite, nonzero spacing 2*extent/(count-1), "
            f"got extent {extent} for {count} nodes"
        )
    nodes = np.linspace(-extent, extent, count)
    weights = np.full(count, h)
    weights[0] = weights[-1] = 0.5 * h
    nodes.flags.writeable = weights.flags.writeable = False
    return QuadratureGrid(nodes, weights, extent, count)


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
    k = check_count(k, "k", 0)
    xa = floats.as_floats(x, "x")
    out = hermite_basis(k, xa.ravel())[k].reshape(xa.shape)
    return out if xa.ndim else float(out)


def hermite_basis(k_max: int, x: np.ndarray) -> np.ndarray:
    """Stack phi_0..phi_{k_max} on the points x; returns shape (k_max+1, len(x)).

    ValueError, before anything is allocated, unless k_max is a nonnegative integer
    and the table holds at most MAX_TABLE_VALUES floats.
    """
    k_max = check_count(k_max, "k_max", 0)
    xa = np.asarray(x, dtype=float)
    rows = k_max + 1
    check_table_size(rows * xa.size, f"a Hermite table of (k_max + 1) x points = {rows} x {xa.size}",
                     "lower k_max or pass fewer points")
    if not np.all(np.isfinite(xa)):
        raise ValueError("hermite_basis requires finite arguments")
    # past |x| ~ 38.6 phi_0 underflows to 0, and every row is a signed zero set by the sign of
    # x alone; clipping at 1e154 keeps x * x and sqrt(2) x finite, so no inf * 0 makes a NaN.
    # Only a call that has such an x pays for the clipped copy.
    if xa.size and max(-xa.min(), xa.max()) > 1e154:
        xa = np.clip(xa, -1e154, 1e154)
    out = np.empty((rows, xa.size))
    out[0] = np.pi ** -0.25 * np.exp(-0.5 * xa * xa)
    if k_max >= 1:
        out[1] = np.sqrt(2.0) * xa * out[0]
    for j in range(1, k_max):
        out[j + 1] = xa * np.sqrt(2.0 / (j + 1)) * out[j] - np.sqrt(j / (j + 1.0)) * out[j - 1]
    return out


def integrate_1d(f: Callable, grid: QuadratureGrid | None = None) -> float:
    """Trapezoid integral of a vectorized integrand over the grid."""
    g = grid if grid is not None else default_grid()
    vals = floats.as_floats(f(g.nodes), "the integrand's values")
    if vals.shape != g.nodes.shape:
        raise ValueError("integrand must return one value per node")
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite_integral(float(g.weights @ vals), vals)


def integrate_2d(f: Callable, grid: QuadratureGrid | None = None) -> float:
    """Tensor-product trapezoid integral of f(x, y) on the grid squared (x a column, y a row)."""
    g = grid if grid is not None else default_grid()
    x = g.nodes
    vals = floats.as_floats(f(x[:, None], x[None, :]), "the integrand's values")
    try:
        vals = np.ascontiguousarray(np.broadcast_to(vals, (g.count, g.count)))
    except ValueError:
        raise ValueError("integrand must return one value per mesh point") from None
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite_integral(float(g.weights @ vals @ g.weights), vals)


def _finite_integral(total: float, vals: np.ndarray) -> float:
    """The contracted sum, or a ValueError naming why it is not finite.

    The weights are positive, so a non-finite value in vals always makes the
    sum non-finite: vals is scanned only on that branch.
    """
    if math.isfinite(total):
        return total
    if not np.all(np.isfinite(vals)):
        raise ValueError("integrand returned non-finite values")
    raise ValueError("the integral overflows the float range; scale the integrand down")


@record
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
        diff = self.values - self.values.T
        return float(np.max(np.abs(diff, out=diff)))

    def to_csv(self, path) -> None:
        """Write (x, x_prime, value) triples for debugging."""
        x = self.grid.nodes
        write_csv(path, ("x", "x_prime", "value"), (x[:, None], x[None, :], self.values))


def check_resolution(eta: float, grid: QuadratureGrid | None = None) -> tuple[float, QuadratureGrid]:
    """(eta as a float, the grid, default_grid() when ``grid`` is None); GridResolutionError
    unless the widest principal-axis standard deviation of |psi_eta|^2, sqrt(e^{|eta|}/2),
    is at most extent/4. The one owner of the default grid for a function of eta."""
    eta = check_eta(eta, EXP_ETA_MAX, "the state width sqrt(e^|eta|/2)")
    grid = grid if grid is not None else default_grid()
    sigma_max = math.sqrt(math.exp(abs(eta)) / 2.0)
    if sigma_max > grid.extent / 4.0:
        raise GridResolutionError(
            f"state width {sigma_max:.3g} exceeds extent/4 = {grid.extent / 4.0:.3g}; "
            "use a wider grid"
        )
    return eta, grid


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
    eta, g = check_resolution(eta, grid)
    from .oscillator import ground_state

    a = ground_state(g.nodes[:, None], g.nodes[None, :], eta)
    a *= np.sqrt(g.weights)
    rho = a @ a.T
    rho.flags.writeable = False
    return DensityKernel(rho, g)


# _render lays each value out in a W-byte cell of four little-endian words, held word-major: the
# sign and a "0.000" prefix; a "0" and the fifteen digits, among which the dot is placed; "e+dd[d]"
# and, in the last byte, the delimiter. Unused bytes are NUL, and write_csv drops them.
W = 32
_WORD = np.dtype("<u8")
_MINUS = np.uint64(ord("-"))
_TINY, _HUGE = np.finfo(float).tiny, np.finfo(float).max
# The tables are indexed by k = e + _E0, over the decimal exponents e of finite doubles.
_E0 = 330
# The scaled value m < 1e15 carries the scale table's error (at most 1 eps, checked by
# tests/test_csv.py) and one rounding, so its fraction is off by less than 2 eps * 1e15.
# A value whose fraction lies within _ROUND_MARGIN of 0.5 might round either way, and
# Python formats it. Where long double is only double, the margin exceeds 0.5 and
# Python formats every value.
_ROUND_MARGIN = 16 * float(np.finfo(np.longdouble).eps) * 1e15
# Python formats a block of fewer values: the vector path's fixed cost, about 60 numpy
# calls, exceeds Python's 0.5-1 us a value below about 128 values
_VECTOR_MIN = 128


@lru_cache(maxsize=1)
def _tables() -> SimpleNamespace:
    """_render's lookup tables, built on first use so that commands writing no CSV skip them.

    scale[k]    10**(14 - e) in long double, each correctly rounded by the parser
    point[k]    digits before the dot: %g writes -4 <= e < 15 in fixed notation,
                keeping every integer digit, else as d.ddd and an exponent
    prefix[k]   "0.", "0.0", ... for fixed notation below 1, after a free sign byte
    exp[k]      "e+dd" or "e-ddd" for exponent notation
    dig4[g]     the four ASCII digits of g < 10**4, as a word's low half (dig4_hi: high)
    end[j][g]   for digit group j, one past g's last nonzero digit in the digit region;
                0 if g = 0
    moved_lo, moved_hi, kept_lo, kept_hi, dot_lo, dot_hi
                low and high words of the digit-region masks at point * 17 + stop. The
                region holds "0" and the fifteen digits. The first ``point`` digits move
                down one byte, over the "0" (moved); a dot takes the byte they free when a
                kept digit follows it; the digits after it stay (kept) up to region byte
                ``stop``, and the trailing zeros past it drop.
    """
    exponents, fixed = range(-_E0, _E0 + 1), range(-4, 15)
    d2 = _cells([b"%02d" % g for g in range(100)])[0]
    dig4 = (d2[:, None] | d2 << 16).ravel()
    # one past the last nonzero digit of two digits g, then of four digits 100 a + b
    last2 = np.array([0] + [1 if g % 10 == 0 else 2 for g in range(1, 100)], np.uint8)
    last4 = np.where(last2 > 0, last2 + 2, last2[:, None]).ravel()
    i = np.arange(16)
    point, stop = np.arange(16)[:, None, None], np.arange(17)[None, :, None]

    def region(name, mask):
        words = np.broadcast_to(mask, (16, 17, 16)).astype(np.uint8).reshape(-1, 16).view(_WORD)
        return {f"{name}_lo": words[:, 0].copy(), f"{name}_hi": words[:, 1].copy()}

    return SimpleNamespace(
        scale=np.fromstring(" ".join(f"1e{14 - e}" for e in exponents), np.longdouble, sep=" "),
        point=np.array([max(e + 1, 0) if e in fixed else 1 for e in exponents]),
        prefix=_cells([b"\0" + b"0.000"[: 1 - e] if e in fixed and e < 0 else b"" for e in exponents])[0],
        exp=_cells([b"" if e in fixed else b"e%+03d" % e for e in exponents])[0],
        dig4=dig4,
        dig4_hi=dig4 << 32,
        end=[np.where(last4 > 0, last4 + 4 * j, 0).astype(np.uint8) for j in range(4)],
        **region("moved", (i < point) * 255),
        **region("kept", ((i > point) & (i < stop)) * 255),
        **region("dot", ((i == point) & (stop > point + 1) & (point > 0)) * ord(".")),
    )


def _cells(text: list) -> np.ndarray:
    """(Byte) strings of at most W - 1 ASCII characters as NUL-padded cells, word-major: (4, len)."""
    return np.array(text, dtype=f"S{W}").view(_WORD).reshape(-1, 4).T


def _render(x: np.ndarray) -> np.ndarray:
    """The 1-D float64 ``x`` as NUL-padded cells, last byte free, word-major: (4, n) words.

    Each value is written exactly as format_floats writes it: m = |x| 10**(14 - e),
    e = floor(log10 |x|), is formed in long double and rounded to the 15-digit
    integer r, whose digits are laid out in %g's fixed or exponent form.
    format_floats formats what this cannot get right for certain: zeros, subnormals,
    non-finite values, values whose e comes out off by one, and values within
    _ROUND_MARGIN of a rounding tie. It also formats blocks of fewer than
    _VECTOR_MIN values, where it is faster.
    """
    if x.size < _VECTOR_MIN or _ROUND_MARGIN >= 0.5:
        return _cells(format_floats(x.tolist()))
    t = _tables()
    a = np.abs(x)
    exact = (a >= _TINY) & (a <= _HUGE)
    a = np.where(exact, a, 1.0)
    # k is e + _E0 give or take one; where it is off, m leaves [1e14, 1e15) and Python
    # formats the value. This takes every m that would round up to 1e15: within 5e-16
    # of the next power of ten, log10 |x| + _E0 rounds up to it, and m falls below 1e14.
    k = (np.log10(a) + _E0).astype(np.intp)
    m = a.astype(np.longdouble) * t.scale[k]
    r = m.astype(np.int64)
    frac = (m - r).astype(float)
    exact &= (r >= 10**14) & (r < 10**15) & (np.abs(frac - 0.5) > _ROUND_MARGIN)
    r += frac > 0.5
    # the digit region: "0" and r's 15 digits, in groups g0..g3 of four, as two words
    hi, mid = r // 10**8, r // 10**4
    g0 = hi // 10**4
    g1, g2, g3 = hi - g0 * 10**4, mid - hi * 10**4, r - mid * 10**4
    dig4, dig4_hi, end = t.dig4, t.dig4_hi, t.end
    w1, w2 = dig4[g0] | dig4_hi[g1], dig4[g2] | dig4_hi[g3]
    stop = np.maximum(np.maximum(end[0][g0], end[1][g1]), np.maximum(end[2][g2], end[3][g3]))
    point = t.point[k]
    code = point * 17 + np.maximum(stop, point + 1)
    cells = np.empty((4, x.size), _WORD)
    cells[0] = t.prefix[k] | np.signbit(x) * _MINUS
    cells[1] = ((w1 >> 8) | (w2 << 56)) & t.moved_lo[code] | w1 & t.kept_lo[code] | t.dot_lo[code]
    cells[2] = (w2 >> 8) & t.moved_hi[code] | w2 & t.kept_hi[code] | t.dot_hi[code]
    cells[3] = t.exp[k]
    inexact = np.flatnonzero(~exact)
    if inexact.size:
        cells[:, inexact] = _cells(format_floats(x[inexact].tolist()))
    return cells


def write_csv(dest, header, columns) -> None:
    """Write a header row, then one row per entry of the broadcast ``columns``, in C order.

    ``dest`` is a path or an open text file, which floats.write_text writes. ValueError,
    before a path is opened, unless ``header`` names each column, every column is of bool,
    integer or float dtype, and the columns broadcast to at least one dimension. Each column is
    then cast to float64, so every value, integers too, is format_floats' text. Rows go in
    blocks of whole lead-axis rows, about CSV_BLOCK_ROWS values each: one (words, rows) table,
    filled in place, in which each column owns whole rows. A full column's four _render rows
    are copied as they are, a "," or LF is OR-ed into the last byte of each column's last
    word, and the transposed table, its NUL padding dropped by bytes.translate, is one string.
    A column smaller than the table, such as a mesh axis, is formatted by format_floats up
    front, kept in its fewest words, and gathered per block; a column passed twice (the same
    object) is filled once a block.
    """
    arrays = [np.asarray(c) for c in columns]
    if len(header) != len(arrays):
        raise ValueError(f"a CSV needs a header name per column, got {len(header)} for {len(arrays)}")
    for name, a in zip(header, arrays):
        if a.dtype.kind not in "biuf":
            raise ValueError(f"CSV column {name!r} must hold real numbers, got dtype {a.dtype}")
    arrays = [a.astype(float, copy=False) for a in arrays]
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    if not shape:
        raise ValueError("a CSV table needs columns that broadcast to at least one dimension")
    size = math.prod(shape)

    def source(a):
        # (cells rendered up front, their indices) or (None, the values)
        if a.size < size:
            text = format_floats(a.ravel().tolist())
            cells = _cells(text)[: max(map(len, text)) // 8 + 1]
            return cells, np.broadcast_to(np.arange(a.size).reshape(a.shape), shape)
        return None, np.broadcast_to(a, shape)

    first = [next(i for i, c in enumerate(columns) if c is col) for col in columns]
    sources = {j: source(arrays[j]) for j in set(first)}
    widths = [W // 8 if sources[j][0] is None else len(sources[j][0]) for j in first]
    ends = np.cumsum(widths)
    starts = ends - widths
    delimiters = np.array([ord(",")] * (len(columns) - 1) + [ord("\n")], _WORD) << 56
    lead, row = (shape[0], size // shape[0]) if size else (0, 1)

    def text():
        yield ",".join(header) + "\n"
        for rows in blocks(lead, max(1, CSV_BLOCK_ROWS // row)):
            table = np.empty((ends[-1], (min(rows.stop, lead) - rows.start) * row), _WORD)
            for i, j in enumerate(first):
                cells, values = sources[j]
                words = table[starts[i]:ends[i]]
                if j < i:
                    words[...] = table[starts[j]:ends[j]]
                elif cells is None:
                    words[...] = _render(values[rows].ravel())
                else:
                    np.take(cells, values[rows].ravel(), axis=1, out=words, mode="clip")
            for end, delimiter in zip(ends, delimiters):
                table[end - 1] |= delimiter
            yield table.T.tobytes().translate(None, b"\0").decode("ascii")

    floats.write_text(dest, text())
