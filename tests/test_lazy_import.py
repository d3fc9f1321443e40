"""The package loads each module on first use, so some commands run without numpy."""

import importlib
import os
import subprocess
import sys

import pytest

import coupledosc

ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
# runs cli.main on argv; with "block", importing numpy raises ImportError
MAIN = (
    "import sys\n"
    "if sys.argv[1] == 'block':\n"
    "    sys.modules['numpy'] = None\n"
    "from coupledosc.cli import main\n"
    "sys.exit(main(sys.argv[2:]))\n"
)


def _python(*args):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=ENV, timeout=60)


@pytest.mark.parametrize(
    "argv, code",
    [
        pytest.param(["modes", "--m=1", "--A=5", "--C=-3"], 0, id="modes"),
        pytest.param(["modes", "--m=1", "--A=1", "--C=2"], 1, id="modes-unstable"),
        pytest.param(["--help"], 0, id="help"),
        pytest.param(["modes", "--help"], 0, id="modes-help"),
        pytest.param(["modes", "--m=1"], 2, id="missing-option"),
        pytest.param(["sweep", "--start=0", "--stop=1", "--steps=0", "--out=never.csv"], 2, id="zero-steps"),
        pytest.param(["frobnicate"], 2, id="unknown-command"),
    ],
)
def test_runs_without_numpy(argv, code):
    blocked = _python("-c", MAIN, "block", *argv)
    normal = _python("-c", MAIN, "normal", *argv)
    assert blocked.returncode == normal.returncode == code
    assert (blocked.stdout, blocked.stderr) == (normal.stdout, normal.stderr)
    assert "Traceback" not in blocked.stderr


def test_numpy_commands_still_need_numpy():
    # the block is real: a command that uses numpy fails under it
    blocked = _python("-c", MAIN, "block", "entangle", "--eta=1")
    assert blocked.returncode != 0
    assert "numpy" in blocked.stderr


@pytest.mark.parametrize("name", coupledosc.__all__)
def test_public_name_resolves_to_its_definition(name):
    obj = getattr(coupledosc, name)
    module = importlib.import_module(obj.__module__)
    assert module.__name__.startswith("coupledosc.")
    assert getattr(module, name) is obj
    assert name in dir(coupledosc)


def test_public_names_are_sorted_and_complete():
    assert coupledosc.__all__ == sorted(set(coupledosc.__all__))
    assert len(coupledosc.__all__) == 47


def test_submodules_resolve_on_a_bare_import():
    code = "import coupledosc, sys; print(coupledosc.numerics.__name__, 'numpy' in sys.modules)"
    out = _python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["coupledosc.numerics", "True"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        coupledosc.frobnicate
    assert not hasattr(coupledosc, "check_eta")


def test_star_import():
    namespace = {}
    exec("from coupledosc import *", namespace)
    assert set(coupledosc.__all__) <= set(namespace)
    assert namespace["entropy"] is coupledosc.entanglement.entropy
