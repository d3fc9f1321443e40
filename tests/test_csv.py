"""write_csv against per-row f-string references, one per CSV the package writes.

Each reference below is the row loop a writer used before write_csv existed;
every writer must still produce exactly those bytes.
"""

import ast
import io
import math
import os
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coupledosc import cli, covariant, entanglement, numerics, parton
from coupledosc.numerics import CSV_BLOCK_ROWS, oracle_reduced_density, uniform_grid, write_csv

SRC = Path(numerics.__file__).parent


def reference(header, rows) -> bytes:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.15g}" for v in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


def written(header, columns) -> bytes:
    buf = io.StringIO()
    write_csv(buf, header, columns)
    return buf.getvalue().encode("utf-8")


# --- write_csv itself ----------------------------------------------------------


@pytest.mark.parametrize(
    "n",
    # 1023-3079 end around the boundaries of an earlier 1024-row block, now inside one
    [0, 1, 1023, 1024, 1025, 3079,
     CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, 3 * CSV_BLOCK_ROWS + 7],
)
def test_row_counts_around_block_boundaries(n):
    rng = np.random.default_rng(n)
    # a few repeated values, so blocks hold duplicates as well as distinct values
    a = np.round(rng.standard_normal(n), 2)
    b = rng.standard_normal(n) * 1e-5
    assert written(("a", "b"), (a, b)) == reference(("a", "b"), zip(a, b))


@pytest.mark.parametrize("width", [1, 7, 1023, 1027, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS + 3])
def test_two_dimensional_columns_follow_c_order(width):
    x = np.linspace(-1.0, 1.0, 5)
    y = np.linspace(-3.0, 2.0, width)
    vals = np.add.outer(x, y) ** 2
    X, Y = np.meshgrid(x, y, indexing="ij")
    expect = reference(("x", "y", "v"), zip(X.ravel(), Y.ravel(), vals.ravel()))
    assert written(("x", "y", "v"), (x[:, None], y[None, :], vals)) == expect


@pytest.mark.parametrize("shape", [(CSV_BLOCK_ROWS + 3, 2), (2, CSV_BLOCK_ROWS + 3), (1, 3 * CSV_BLOCK_ROWS + 5)],
                         ids=str)
def test_meshes_with_rows_longer_or_shorter_than_a_block(shape):
    rng = np.random.default_rng(sum(shape))
    x = np.linspace(-1.0, 1.0, shape[0])
    y = rng.standard_normal(shape[1])
    vals = rng.lognormal(0.0, 5.0, shape)
    X, Y = np.meshgrid(x, y, indexing="ij")
    expect = reference(("x", "y", "v", "y2"), zip(X.ravel(), Y.ravel(), vals.ravel(), Y.ravel()))
    yy = y[None, :]
    assert written(("x", "y", "v", "y2"), (x[:, None], yy, vals, yy)) == expect


def export_shapes():
    """(header, columns, reference rows) for the shapes of the five export tables, smaller."""
    rng = np.random.default_rng(11)
    z, t = np.linspace(-8.0, 8.0, 61), np.linspace(-8.0, 8.0, 150)
    psi = covariant.boosted_wavefunction(z[:, None], t[None, :], 0.44)
    Z, T = np.meshgrid(z, t, indexing="ij")
    kern = oracle_reduced_density(-0.65, uniform_grid(71, 8.0))
    x = kern.grid.nodes
    X, XP = np.meshgrid(x, x, indexing="ij")
    n = 2 * CSV_BLOCK_ROWS + 5
    coords = np.linspace(-6.0, 6.0, n)
    dens = parton.model_density(-0.66, coords)
    overlay = rng.uniform(0.0, 0.6, n)
    sweep = [rng.lognormal(0.0, 4.0, n) for _ in range(4)]
    return [
        (("z", "t", "psi", "qz", "q0", "phi"), (z[:, None], t[None, :], psi, z[:, None], t[None, :], psi),
         zip(Z.ravel(), T.ravel(), psi.ravel(), Z.ravel(), T.ravel(), psi.ravel())),
        (("x", "x_prime", "value"), (x[:, None], x[None, :], kern.values),
         zip(X.ravel(), XP.ravel(), kern.values.ravel())),
        (("coordinate", "model_density"), (coords, dens), zip(coords, dens)),
        (("coordinate", "model_density", "overlay_value"), (coords, dens, overlay), zip(coords, dens, overlay)),
        (("eta", "purity", "entropy", "T", "width_z", "width_qz"), (coords, *sweep, sweep[-1]),
         zip(coords, *sweep, sweep[-1])),
    ]


def test_every_cell_byte_is_set(monkeypatch):
    # np.empty returns 0xFF bytes: any byte the writer leaves unset shows in the
    # output, where uninitialised memory that happens to be NUL would vanish
    empty = np.empty

    def poisoned(*args, **kwargs):
        out = empty(*args, **kwargs)
        out.reshape(-1).view(np.uint8)[:] = 0xFF
        return out

    shapes = export_shapes()
    monkeypatch.setattr(numerics.np, "empty", poisoned)
    for header, columns, rows in shapes:
        assert written(header, columns) == reference(header, rows), header


@pytest.mark.parametrize("table, ceiling_mib", [("boost", 4), ("parton", 2)])
def test_write_memory_is_bounded_by_the_block(table, ceiling_mib):
    # the 401 x 401 boost mesh (161k rows, 10 MB written) and the 100,001-row parton
    # export: what the writer allocates is bounded by its blocks, not by the table
    if table == "boost":
        z = uniform_grid().nodes[:, None]
        psi = covariant.boosted_wavefunction(z, z.T, 0.44)
        header, columns = ("z", "t", "psi", "qz", "q0", "phi"), (z, z.T, psi, z, z.T, psi)
    else:
        coords = np.linspace(-6.0, 6.0, 100_001)
        header, columns = ("coordinate", "model_density"), (coords, parton.model_density(-0.66, coords))
    tracemalloc.start()
    try:
        write_csv(os.devnull, header, columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ceiling_mib * 2**20


def test_signed_zero_stays_signed():
    col = np.array([0.0, -0.0, 1.0, -0.0, 0.0])
    assert written(("z",), (col,)).decode().splitlines()[1:] == ["0", "-0", "1", "-0", "0"]


def test_extreme_floats():
    tiny = 5e-324
    col = np.array([tiny, -tiny, 2.2250738585072014e-308 / 3, 1e308, -1e308,
                    math.ulp(0.0) * 7, np.finfo(float).max, -np.finfo(float).max, np.inf, -np.inf])
    assert written(("v",), (col,)) == reference(("v",), zip(col))


def test_integer_column():
    k = np.arange(2 * CSV_BLOCK_ROWS + 5)
    p = 0.5 ** k.astype(float)
    text = written(("k", "p_k"), (k, p))
    assert text == reference(("k", "p_k"), zip(k.tolist(), p))
    assert text.decode().splitlines()[-1].startswith(f"{k[-1]},")


def test_column_passed_twice_renders_once(monkeypatch):
    a = np.linspace(0.0, 1.0, 3 * CSV_BLOCK_ROWS)
    calls = []
    render = numerics._render
    def spy(values):
        # the number of values this call formats; cells rendered earlier are not counted
        calls.append(values.size)
        return render(values)

    monkeypatch.setattr(numerics, "_render", spy)
    twice = written(("a", "b", "c"), (a, a, a))
    assert sum(calls) == a.size
    assert twice == reference(("a", "b", "c"), zip(a, a, a))


# --- narrow cells: columns rendered up front --------------------------------------

# a value whose %.15g text has the key's length: 7 and 8 characters, with the delimiter
# byte, fill one word and just spill into a second; 15 and 16 do the same at two; 22 is
# the longest %.15g text
LONGEST = {7: -1.2345, 8: -1.23456, 15: -1.234567890123, 16: -1.2345678901234, 22: -1.23456789012345e-100}


def axis(n, longest):
    # n short values, one of them replaced by a value whose text is ``longest`` characters
    values = np.round(np.linspace(-1.0, 1.0, n), 2)
    values[n // 3] = LONGEST[longest]
    assert max(len(f"{v:.15g}") for v in values) == longest
    return values


@pytest.mark.parametrize("longest", sorted(LONGEST))
@pytest.mark.parametrize("n", [numerics._VECTOR_MIN - 1, numerics._VECTOR_MIN + 5], ids=["python", "vector"])
def test_narrow_cells_take_the_fewest_words(monkeypatch, longest, n):
    # write_csv gathers an axis's rows from its cells with np.take: catch the cells there
    gathered = []
    take = np.take
    def spy(cells, *args, **kwargs):
        gathered.append(cells)
        return take(cells, *args, **kwargs)

    monkeypatch.setattr(np, "take", spy)
    a = axis(n, longest)
    vals = np.zeros((n, 3))
    assert written(("a", "v"), (a[:, None], vals)) == reference(("a", "v"), zip(np.repeat(a, 3), vals.ravel()))
    cells = gathered[0]
    assert all(c is cells for c in gathered)
    assert cells.shape == (longest // 8 + 1, n)
    assert cells.T.tobytes().translate(None, b"\0") == "".join(f"{v:.15g}" for v in a).encode()


@pytest.mark.parametrize("table", ["kernel", "boost"])
def test_mesh_csv_sorts_nothing(monkeypatch, tmp_path, table):
    # an axis's cells come straight from their Python text, with no sort to left-justify them
    def argsort(*args, **kwargs):
        raise AssertionError("np.argsort called while writing a mesh CSV")

    monkeypatch.setattr(np, "argsort", argsort)
    path = tmp_path / f"{table}.csv"
    if table == "kernel":
        oracle_reduced_density(0.5, uniform_grid(41, 8.0)).to_csv(path)
    else:
        assert cli.main(["boost", "--eta=0.3", "--grid=41", f"--out={path}"]) == 0
    assert len(path.read_bytes().splitlines()) == 41 * 41 + 1


@pytest.mark.parametrize("longest", sorted(LONGEST))
@pytest.mark.parametrize("n", [numerics._VECTOR_MIN - 1, numerics._VECTOR_MIN + 5], ids=["python", "vector"])
@pytest.mark.parametrize("orientation", ["row-axis", "column-axis"])
def test_narrow_axis_passed_twice(longest, n, orientation):
    rng = np.random.default_rng(longest)
    a = axis(n, longest)
    b = rng.standard_normal(37) * 1e3
    if orientation == "row-axis":
        x, y = a[:, None], b[None, :]
    else:
        x, y = b[:, None], a[None, :]
    vals = rng.lognormal(0.0, 5.0, np.broadcast_shapes(x.shape, y.shape))
    X, Y = np.broadcast_arrays(x, y)
    header = ("x", "y", "v", "x2", "y2")
    expect = reference(header, zip(X.ravel(), Y.ravel(), vals.ravel(), X.ravel(), Y.ravel()))
    assert written(header, (x, y, vals, x, y)) == expect


@pytest.mark.parametrize("n", [5, 9, 100_000 // 37 + 1])
def test_integer_axis(n):
    k = np.arange(n)[:, None]
    y = np.linspace(0.0, 1.0, 37)[None, :]
    vals = np.add.outer(np.arange(n) * 1e-3, np.linspace(0.0, 1.0, 37))
    K, Y = np.broadcast_arrays(k, y)
    header = ("k", "y", "v", "k2")
    expect = reference(header, zip(K.ravel().tolist(), Y.ravel(), vals.ravel(), K.ravel().tolist()))
    assert written(header, (k, y, vals, k)) == expect


@pytest.mark.parametrize("block_rows", [1, 7, 4096])
def test_bytes_do_not_depend_on_the_block_size(monkeypatch, block_rows):
    rng = np.random.default_rng(block_rows)
    z, t = np.linspace(-8.0, 8.0, 61), np.linspace(-8.0, 8.0, 150)
    psi = covariant.boosted_wavefunction(z[:, None], t[None, :], 0.44)
    Z, T = np.meshgrid(z, t, indexing="ij")
    coords = np.linspace(-6.0, 6.0, 301)
    dens = rng.lognormal(0.0, 5.0, coords.size)
    tables = [
        (("z", "t", "psi", "qz", "q0", "phi"), (z[:, None], t[None, :], psi, z[:, None], t[None, :], psi),
         zip(Z.ravel(), T.ravel(), psi.ravel(), Z.ravel(), T.ravel(), psi.ravel())),
        (("k", "coordinate", "density"), (np.arange(coords.size), coords, dens),
         zip(range(coords.size), coords, dens)),
    ]
    monkeypatch.setattr(numerics, "CSV_BLOCK_ROWS", block_rows)
    for header, columns, rows in tables:
        assert written(header, columns) == reference(header, rows), header


# --- the vectorised %.15g renderer against Python's %.15g ----------------------


def values_reference(values) -> bytes:
    return reference(("v",), zip(np.asarray(values, dtype=float)))


def vector_block(values) -> np.ndarray:
    # repeated up to _VECTOR_MIN values, so that the block takes the vector path
    return np.resize(np.array(values, dtype=float), max(len(values), numerics._VECTOR_MIN))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=2 * CSV_BLOCK_ROWS + 5))
def test_matches_python_on_any_floats(values):
    # st.floats() covers nan, +-inf, +-0, subnormals and the whole exponent range
    col = vector_block(values)
    assert written(("v",), (col,)) == values_reference(col)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=CSV_BLOCK_ROWS + 3))
def test_matches_python_on_raw_bit_patterns(bits):
    col = vector_block(np.array(bits, dtype=np.uint64).view(np.float64))
    assert written(("v",), (col,)) == values_reference(col)


EDGES = {
    "carry": [999999999999999.5, 9999999999999995.0, 0.9999999999999996, 9.999999999999996,
              9.999999999999997e-5],
    "fixed-or-exponent": [9.99999999999999e-5, 9.999999999999995e-5, 1e-4, 1e-5, 0.00012345],
    "powers-of-ten": [1e15, 1e16, 1e14, 1e22, 1e23, 0.1, 0.001, 1.0, 10.0, 100.0],
    "three-digit-exponents": [1e100, 1e-100, 1.5e-300, 2.5e300, 1e-99, 9.999999999999999e99],
    "signed-zero": [0.0, -0.0],
    "subnormal": [5e-324, -5e-324, 2.2250738585072014e-308 / 3, 2.225073858507201e-308],
    "float-max": [np.finfo(float).max, -np.finfo(float).max, np.finfo(float).tiny],
    "ties": [0.5, 2.5, 1234567890123445.0, 1234567890123435.0, 100000000000000.5, 100000000000001.5, 1 / 3],
    "integers": [123456789012345.0, 1234567890123456.0, -42.0, 1e15 - 1],
}


@pytest.mark.parametrize("values", EDGES.values(), ids=EDGES.keys())
def test_named_edges(values):
    col = vector_block(values + [-v for v in values])
    assert written(("v",), (col,)) == values_reference(col)


def test_values_next_to_a_rounding_tie():
    # the doubles nearest to d.dddddddddddddd5 x 10^e: their scaled fraction lies
    # within about 0.03 of 0.5, and for some within the rounding error of the scaling
    rng = np.random.default_rng(5)
    n = 400_000
    col = np.array([float(f"{d}5e{e}") for d, e in zip(rng.integers(10**14, 10**15, n).tolist(),
                                                        rng.integers(-300, 300, n).tolist())])
    assert written(("v",), (col,)) == values_reference(col)


def test_forced_fallback_gives_the_same_bytes(monkeypatch):
    # where long double is only double every value takes the Python path
    rng = np.random.default_rng(7)
    col = np.concatenate([rng.standard_normal(CSV_BLOCK_ROWS) * 10.0 ** rng.integers(-30, 30, CSV_BLOCK_ROWS),
                          sum(EDGES.values(), [])])
    exact = written(("a", "k"), (col, np.arange(col.size)))
    monkeypatch.setattr(numerics, "_ROUND_MARGIN", math.inf)
    assert written(("a", "k"), (col, np.arange(col.size))) == exact
    assert exact == reference(("a", "k"), zip(col, range(col.size)))


def test_scale_table_within_one_eps():
    eps = Fraction(float(np.finfo(np.longdouble).eps))
    for k, scale in enumerate(numerics._tables().scale):
        exact = Fraction(10) ** (14 - (k - numerics._E0))
        assert abs(Fraction(*scale.as_integer_ratio()) - exact) <= eps * exact, k


def test_path_destination_is_utf8_with_lf(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("x",), (np.array([1.5, -2.0]),))
    assert path.read_bytes() == b"x\n1.5\n-2\n"


@pytest.mark.parametrize(
    "header, columns, message",
    [
        (("a", "b"), (np.array([1.0, 2.0]),), "a header name per column, got 2 for 1"),
        (("a",), (np.array([1.0]), np.array([2.0])), "a header name per column, got 1 for 2"),
        (("a",), (np.float64(1.5),), "at least one dimension"),
        (("a", "b"), (np.float64(1.5), 2.0), "at least one dimension"),
        ((), (), "at least one dimension"),
        (("a", "b"), (np.zeros(2), np.zeros(3)), "broadcast"),
    ],
    ids=["more-names", "fewer-names", "0-d", "all-0-d", "no-columns", "no-broadcast"],
)
def test_malformed_table_raises_before_the_file_opens(header, columns, message, tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"kept\n")
    with pytest.raises(ValueError, match=message):
        write_csv(path, header, columns)
    assert path.read_bytes() == b"kept\n"
    buf = io.StringIO()
    with pytest.raises(ValueError, match=message):
        write_csv(buf, header, columns)
    assert buf.getvalue() == ""


@pytest.mark.parametrize(
    "column",
    [np.array(["x", "y"]), np.array([1.0 + 2.0j, 3.0]), np.array([None, 1.0]), np.array(["2020-01-01"], "M8[D]")],
    ids=["str", "complex", "object", "datetime"],
)
def test_column_of_no_real_numbers_raises_before_the_file_opens(column, tmp_path):
    columns = (np.array([1.0, 2.0]), column)
    message = re.escape(f"CSV column 'b' must hold real numbers, got dtype {column.dtype}")
    path = tmp_path / "t.csv"
    path.write_bytes(b"kept\n")
    with pytest.raises(ValueError, match=message):
        write_csv(path, ("a", "b"), columns)
    assert path.read_bytes() == b"kept\n"
    buf = io.StringIO()
    with pytest.raises(ValueError, match=message):
        write_csv(buf, ("a", "b"), columns)
    assert buf.getvalue() == ""


def test_bool_and_integer_columns_are_numbers():
    columns = (np.array([True, False]), np.array([3, -4], np.int8), np.array([7, 2**64 - 1], np.uint64),
               np.array([1.5, 2.0], np.float32))
    assert written(("a", "b", "c", "d"), columns) == b"a,b,c,d\n1,3,7,1.5\n0,-4,1.84467440737096e+19,2\n"


def test_only_the_renderer_formats_floats():
    allowed = {("floats.py", "format_floats")}
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        owner = {}
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for line in range(node.lineno, node.end_lineno + 1):
                    owner.setdefault(line, []).append(node.name)
        for lineno, line in enumerate(source.splitlines(), start=1):
            if ".15g" in line:
                names = owner.get(lineno, ["<module>"])
                if not any((path.name, name) in allowed for name in names):
                    offenders.append(f"{path.name}:{lineno}")
    assert offenders == []


# --- the seven writers, each against its row loop ------------------------------


def test_boost_csv(tmp_path):
    out = tmp_path / "boost.csv"
    assert cli.main(["boost", "--eta=-0.8", "--grid=41", "--extent=3", f"--out={out}"]) == 0
    nodes = np.linspace(-3.0, 3.0, 41)
    A, B = np.meshgrid(nodes, nodes, indexing="ij")
    psi = covariant.boosted_wavefunction(A, B, -0.8)
    phi = covariant.momentum_wavefunction(A, B, -0.8)
    rows = zip(A.ravel(), B.ravel(), psi.ravel(), A.ravel(), B.ravel(), phi.ravel())
    assert out.read_bytes() == reference(("z", "t", "psi", "qz", "q0", "phi"), rows)


def test_entangle_eigenvalue_csv(tmp_path, capsys):
    out = tmp_path / "p.csv"
    assert cli.main(["entangle", "--eta=1.1", "--kmax=1500", f"--csv={out}"]) == 0
    p = entanglement.reduced_state(1.1, 1500).eigenvalues
    assert out.read_bytes() == reference(("k", "p_k"), enumerate(p))


def test_kernel_csv(tmp_path):
    g = uniform_grid(count=37, extent=6.0)
    kern = oracle_reduced_density(-0.6, g)
    path = tmp_path / "kernel.csv"
    kern.to_csv(path)
    x = g.nodes
    rows = ((x[i], x[j], kern.values[i, j]) for i in range(g.count) for j in range(g.count))
    assert path.read_bytes() == reference(("x", "x_prime", "value"), rows)


def test_parton_overlay_csv(tmp_path):
    ov = tmp_path / "ov.csv"
    xs = np.linspace(-2.0, 2.0, CSV_BLOCK_ROWS + 1)
    ov.write_text("x,value\n" + "".join(f"{x:.15g},{abs(x):.15g}\n" for x in xs), encoding="utf-8")
    out = tmp_path / "joined.csv"
    assert cli.main(["parton", "--eta=0.7", f"--overlay={ov}", "--rescale=-0.25,1.5", f"--out={out}"]) == 0
    series = parton.ingest_overlay(ov)
    coords = -0.25 + 1.5 * series.x
    dens = parton.model_density(0.7, coords)
    rows = zip(coords, dens, series.values)
    assert out.read_bytes() == reference(("coordinate", "model_density", "overlay_value"), rows)


def test_sweep_csv():
    buf = io.StringIO()
    entanglement.write_sweep(buf, -1.0, 2.0, 13, 1.5)
    rows = []
    for eta in np.linspace(-1.0, 2.0, 13):
        eta = float(eta)
        temp = 0.0 if eta == 0.0 else entanglement.effective_temperature(eta, omega=1.5).temperature
        w = parton.width(eta)
        rows.append((eta, entanglement.purity(eta), entanglement.entropy(eta), temp, w, w))
    header = ("eta", "purity", "entropy", "T", "width_z", "width_qz")
    assert buf.getvalue().encode() == reference(header, rows)


def test_long_sweep_keeps_the_scalar_closed_forms():
    # 10,001 rows, three of the sweep's 4096-row blocks. The closed forms stay one math call
    # per eta: numpy's cosh, exp and log1p differ from math's in the last bit on some etas
    buf = io.StringIO()
    entanglement.write_sweep(buf, 0.99, 2.87, 10_001, 1.0)
    rows = []
    for eta in np.linspace(0.99, 2.87, 10_001).tolist():
        w = parton.width(eta)
        temp = entanglement.effective_temperature(eta).temperature
        rows.append((eta, entanglement.purity(eta), entanglement.entropy(eta), temp, w, w))
    header = ("eta", "purity", "entropy", "T", "width_z", "width_qz")
    assert buf.getvalue().encode() == reference(header, rows)


def test_sweep_memory_is_bounded():
    # 100,001 rows: the five columns are 8-byte doubles (3.8 MiB) and the text is built a
    # block at a time. The ceiling is the 6.3 MiB the sweep took through numpy columns and
    # write_csv, rounded up; each column held as a list of Python floats would add 2.3 MiB
    entanglement.write_sweep(os.devnull, -3.0, 3.0, 11, 1.0)
    tracemalloc.start()
    try:
        entanglement.write_sweep(os.devnull, -3.0, 3.0, 100_001, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.5 * 2**20


def test_overlay_series_csv(tmp_path):
    xs = np.linspace(-1.0, 1.0, 9)
    series = parton.OverlaySeries(x=xs, values=-np.sin(xs), source="synthetic")
    path = tmp_path / "series.csv"
    series.to_csv(path)
    assert path.read_bytes() == reference(("x", "value"), zip(xs, -np.sin(xs)))


def test_export_gaussian_pdf(tmp_path):
    path = tmp_path / "pdf.csv"
    coords = parton.export_gaussian_pdf(1.3, 2 * CSV_BLOCK_ROWS, path)
    dens = parton.model_density(1.3, coords)
    assert path.read_bytes() == reference(("coordinate", "model_density"), zip(coords, dens))
