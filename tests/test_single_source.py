"""Each piece of the numerical core is written once: guards over the source text.

The squeezed Gaussian keeps exactly two routes, the (x1 +- x2) form in
oscillator.ground_state and the light-cone form in
covariant.boosted_wavefunction. verify's cross_module_identity compares them,
so they must stay apart, and neither may be copied elsewhere.
"""

import ast
import re
from pathlib import Path

import pytest

from coupledosc import numerics

SRC = Path(numerics.__file__).parent

# code, not the formulas in docstrings: each pattern starts at an np./math. call, or
# at the in-place scaling `*= -0.25` by which ground_state forms the quarter form
QUARTER_FORM = re.compile(r"\b(np|math)\.exp\(\s*-0\.25\s*\*|\*=\s*-0\.25\b")
LIGHTCONE_FORM = re.compile(r"\b(np|math)\.exp\(\s*-?eta\s*\)\s*\*\s*(\w+)\s*\*\s*\2\b")
RECURRENCE = re.compile(r"\b(np|math)\.sqrt\(\s*\w+(\.\d+)?\s*/\s*\(\s*\w+\s*\+\s*1(\.0)?\s*\)\s*\)")
# every command checks --omega through one helper, at eta = 0 too
OMEGA_CHECK = re.compile(r"omega must be positive")


def sites(pattern):
    """(file, innermost function) of every source line in src/ matching pattern."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        owner = {}
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for line in range(node.lineno, node.end_lineno + 1):
                    owner[line] = node.name
        for lineno, line in enumerate(source.splitlines(), start=1):
            if pattern.search(line):
                found.add((path.name, owner.get(lineno, "<module>")))
    return found


@pytest.mark.parametrize(
    "pattern, home",
    [
        (QUARTER_FORM, ("oscillator.py", "ground_state")),
        (LIGHTCONE_FORM, ("covariant.py", "boosted_wavefunction")),
        (RECURRENCE, ("numerics.py", "hermite_basis")),
        (OMEGA_CHECK, ("entanglement.py", "check_omega")),
    ],
    ids=["quarter-form-gaussian", "lightcone-gaussian", "hermite-recurrence", "omega-check"],
)
def test_written_once(pattern, home):
    assert sites(pattern) == {home}


# an integer test: isinstance against int or bool, float.is_integer, operator.index
INTEGER_TEST = re.compile(r"isinstance\([^)]*\b(int|bool|integer)\b|\.is_integer\(|operator\.index\(")


def test_integer_test_written_once():
    # every order, node count and row count goes through the one count guard
    assert sites(INTEGER_TEST) == {("floats.py", "check_count")}


def test_default_grid_for_an_eta_picked_once():
    # a function of eta that takes a grid leaves the default to check_resolution
    pickers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and {"eta", "grid"} <= {a.arg for a in node.args.args}:
                names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                if "default_grid" in names:
                    pickers.add((path.name, node.name))
    assert pickers == {("numerics.py", "check_resolution")}


@pytest.mark.parametrize("module", ["numerics.py", "covariant.py", "parton.py"])
def test_no_meshgrid(module):
    assert "meshgrid" not in (SRC / module).read_text(encoding="utf-8")


# a write-mode open: a mode of w, a, x or + after the path; and a test for an open text file
WRITE_OPEN = re.compile(r"""\bopen\([^,)]*,\s*(mode\s*=\s*)?["'][rbt]*[wax+]""")
TEXT_FILE_TEST = re.compile(r"""hasattr\(\w+,\s*["']write["']\)""")


def test_one_text_sink():
    # every file the package writes is opened, or written as an open file, by one function
    assert sites(WRITE_OPEN) == {("floats.py", "write_text")}
    assert sites(TEXT_FILE_TEST) == {("floats.py", "write_text")}
    # JSON floats are rounded where the JSON is written, not by a helper at each call site
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    assert "_f" not in {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def test_no_argument_binder():
    # a record's __init__ is compiled from its fields, so Python binds the arguments; no
    # function takes *args and **kwargs to sort them into fields by hand
    binders = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.args.vararg and node.args.kwarg:
                binders.add((path.name, node.name))
    assert binders == set()


# a handler of OverflowError, alone or in a tuple
OVERFLOW_HANDLER = re.compile(r"\bexcept\b[^:]*\bOverflowError\b")


def test_overflow_handled_in_three_places():
    # an int past the float range is caught by as_float for a scalar and by as_floats for an
    # array; normal_modes catches A**2 past the float range
    assert sites(OVERFLOW_HANDLER) == {
        ("floats.py", "as_float"), ("floats.py", "as_floats"), ("oscillator.py", "normal_modes"),
    }
