"""Each piece of the numerical core is written once: guards over the source text.

The squeezed Gaussian keeps exactly two routes, the (x1 +- x2) form in
numerics.squeezed_gaussian and the light-cone form in
covariant.boosted_wavefunction. verify's cross_module_identity compares them,
so they must stay apart, and neither may be copied elsewhere.
"""

import ast
import re
from pathlib import Path

import pytest

from coupledosc import numerics

SRC = Path(numerics.__file__).parent

# code, not the formulas in docstrings: each pattern starts at an np./math. call
QUARTER_FORM = re.compile(r"\b(np|math)\.exp\(\s*-0\.25\s*\*")
LIGHTCONE_FORM = re.compile(r"\b(np|math)\.exp\(\s*-?eta\s*\)\s*\*\s*(\w+)\s*\*\s*\2\b")
RECURRENCE = re.compile(r"\b(np|math)\.sqrt\(\s*\w+(\.\d+)?\s*/\s*\(\s*\w+\s*\+\s*1(\.0)?\s*\)\s*\)")


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
        (QUARTER_FORM, ("numerics.py", "squeezed_gaussian")),
        (LIGHTCONE_FORM, ("covariant.py", "boosted_wavefunction")),
        (RECURRENCE, ("numerics.py", "hermite_basis")),
    ],
    ids=["quarter-form-gaussian", "lightcone-gaussian", "hermite-recurrence"],
)
def test_written_once(pattern, home):
    assert sites(pattern) == {home}


@pytest.mark.parametrize("module", ["numerics.py", "covariant.py", "parton.py"])
def test_no_meshgrid(module):
    assert "meshgrid" not in (SRC / module).read_text(encoding="utf-8")
