"""write_csv against per-row f-string references, one per CSV the package writes.

Each reference below is the row loop a writer used before write_csv existed;
every writer must still produce exactly those bytes.
"""

import ast
import io
import math
from pathlib import Path

import numpy as np
import pytest

from coupledosc import cli, covariant, entanglement, numerics, parton
from coupledosc.numerics import CSV_BLOCK_ROWS, oracle_reduced_density, uniform_grid, write_csv

SRC = Path(numerics.__file__).parent


def reference(header, rows) -> bytes:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(v) if isinstance(v, (int, np.integer)) else f"{v:.15g}" for v in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


def written(header, columns) -> bytes:
    buf = io.StringIO()
    write_csv(buf, header, columns)
    return buf.getvalue().encode("utf-8")


# --- write_csv itself ----------------------------------------------------------


@pytest.mark.parametrize(
    "n",
    [0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, 3 * CSV_BLOCK_ROWS + 7],
)
def test_row_counts_around_block_boundaries(n):
    rng = np.random.default_rng(n)
    # a few repeated values, so blocks hold duplicates as well as distinct values
    a = np.round(rng.standard_normal(n), 2)
    b = rng.standard_normal(n) * 1e-5
    assert written(("a", "b"), (a, b)) == reference(("a", "b"), zip(a, b))


@pytest.mark.parametrize("width", [1, 7, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS + 3])
def test_two_dimensional_columns_follow_c_order(width):
    x = np.linspace(-1.0, 1.0, 5)
    y = np.linspace(-3.0, 2.0, width)
    vals = np.add.outer(x, y) ** 2
    X, Y = np.meshgrid(x, y, indexing="ij")
    expect = reference(("x", "y", "v"), zip(X.ravel(), Y.ravel(), vals.ravel()))
    assert written(("x", "y", "v"), (x[:, None], y[None, :], vals)) == expect


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
    def spy(fields, rows):
        # the number of values this call formats; strings rendered earlier are not counted
        calls.append(sum(f.size for f in fields if not isinstance(f, list)))
        return render(fields, rows)

    monkeypatch.setattr(numerics, "_render", spy)
    twice = written(("a", "b", "c"), (a, a, a))
    assert sum(calls) == a.size
    assert twice == reference(("a", "b", "c"), zip(a, a, a))


def test_path_destination_is_utf8_with_lf(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("x",), (np.array([1.5, -2.0]),))
    assert path.read_bytes() == b"x\n1.5\n-2\n"


def test_only_the_renderer_formats_floats():
    allowed = {("numerics.py", "_render"), ("cli.py", "_f")}
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


def test_boost_renders_phi_when_it_differs(tmp_path, monkeypatch):
    def halved(qz, q0, eta):
        return covariant.boosted_wavefunction(qz, q0, eta) * 0.5

    monkeypatch.setattr(covariant, "momentum_wavefunction", halved)
    out = tmp_path / "boost.csv"
    assert cli.main(["boost", "--eta=0.3", "--grid=5", "--extent=2", f"--out={out}"]) == 0
    nodes = np.linspace(-2.0, 2.0, 5)
    A, B = np.meshgrid(nodes, nodes, indexing="ij")
    psi = covariant.boosted_wavefunction(A, B, 0.3)
    rows = zip(A.ravel(), B.ravel(), psi.ravel(), A.ravel(), B.ravel(), 0.5 * psi.ravel())
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
    cli._write_sweep(buf, -1.0, 2.0, 13, 1.5)
    rows = []
    for eta in np.linspace(-1.0, 2.0, 13):
        eta = float(eta)
        temp = 0.0 if eta == 0.0 else entanglement.effective_temperature(eta, omega=1.5).temperature
        w = parton.width(eta)
        rows.append((eta, entanglement.purity(eta), entanglement.entropy(eta), temp, w, w))
    header = ("eta", "purity", "entropy", "T", "width_z", "width_qz")
    assert buf.getvalue().encode() == reference(header, rows)


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
