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


def _python(*args, cwd=None):
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=ENV, timeout=60, cwd=cwd
    )


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
        pytest.param(["sweep", "--start=-1", "--stop=2", "--steps=5", "--out=s.csv"], 0, id="sweep"),
        pytest.param(["sweep", "--start=-0.0", "--stop=0", "--steps=1", "--out=s.csv"], 0,
                     id="sweep-signed-zero"),
        pytest.param(["sweep", "--start=0", "--stop=5", "--steps=3", "--omega=1e308", "--out=s.csv"], 1,
                     id="sweep-overflowing-temperature"),
        pytest.param(["sweep", "--start=0", "--stop=720", "--steps=3", "--out=s.csv"], 1,
                     id="sweep-huge-eta"),
        pytest.param(["sweep", "--start=-1e308", "--stop=1e308", "--steps=3", "--out=s.csv"], 1,
                     id="sweep-infinite-width"),
        # every entangle input error is found before numpy loads
        pytest.param(["entangle", "--eta=800"], 1, id="entangle-eta-past-spectrum"),
        pytest.param(["entangle", "--eta=-1500"], 1, id="entangle-eta-past-schmidt"),
        pytest.param(["entangle", "--eta=nan"], 1, id="entangle-eta-nan"),
        pytest.param(["entangle", "--eta=1", "--kmax=-1"], 1, id="entangle-negative-kmax"),
        pytest.param(["entangle", "--eta=1", "--kmax=200000"], 1, id="entangle-kmax-past-cap"),
        pytest.param(["entangle", "--eta=800", "--kmax=200000"], 1, id="entangle-kmax-before-spectrum"),
        pytest.param(["entangle", "--eta=800", "--omega=-1"], 1, id="entangle-eta-before-omega"),
        pytest.param(["entangle", "--eta=1", "--omega=nan"], 1, id="entangle-omega-nan"),
        pytest.param(["entangle", "--eta=5", "--omega=1e308"], 1, id="entangle-temperature-overflow"),
        pytest.param(["entangle", "--eta=0.5", "--omega=5e-324"], 1, id="entangle-temperature-underflow"),
        pytest.param(["entangle", "--eta=711", "--csv=p.csv"], 1, id="entangle-eta-past-purity"),
    ],
)
def test_runs_without_numpy(argv, code, tmp_path):
    runs = {}
    for mode in ("block", "normal"):
        (tmp_path / mode).mkdir()
        result = _python("-c", MAIN, mode, *argv, cwd=tmp_path / mode)
        written = sorted((f.name, f.read_bytes()) for f in (tmp_path / mode).iterdir())
        runs[mode] = (result.returncode, result.stdout, result.stderr, written)
    assert runs["block"] == runs["normal"]
    assert runs["block"][0] == code
    assert "Traceback" not in runs["block"][2]


def test_sweep_leaves_numpy_unloaded(tmp_path):
    code = (
        "import sys\n"
        "from coupledosc.cli import main\n"
        "assert main(['sweep', '--start=0', '--stop=1', '--steps=5', '--out=s.csv']) == 0\n"
        "print('numpy' in sys.modules)\n"
    )
    out = _python("-c", code, cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False"]
    assert (tmp_path / "s.csv").read_text(encoding="utf-8").count("\n") == 6


@pytest.mark.parametrize("csv, loaded", [([], False), (["--csv=p.csv"], True)])
def test_entangle_loads_numerics_only_for_a_table(csv, loaded, tmp_path):
    code = (
        "import sys\n"
        "from coupledosc.cli import main\n"
        f"assert main(['entangle', '--eta=1', '--out=e.json', *{csv!r}]) == 0\n"
        "print('coupledosc.numerics' in sys.modules)\n"
    )
    out = _python("-c", code, cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == [str(loaded)]
    assert (tmp_path / "p.csv").exists() == loaded


@pytest.mark.parametrize(
    "argv, code",
    [
        (["modes", "--m=1", "--A=5", "--C=-3"], 0),
        (["sweep", "--start=0", "--stop=1", "--steps=5", "--out=s.csv"], 0),
        (["entangle", "--eta=800"], 1),
    ],
    ids=["modes", "sweep", "entangle-eta-800"],
)
def test_records_load_neither_dataclasses_nor_inspect(argv, code, tmp_path):
    # the result types are floats.record classes, so no command pays for these imports
    script = (
        "import sys\n"
        "from coupledosc.cli import main\n"
        f"assert main({argv!r}) == {code}\n"
        "print('dataclasses' in sys.modules, 'inspect' in sys.modules, file=sys.stderr)\n"
    )
    out = _python("-c", script, cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stderr.splitlines()[-1].split() == ["False", "False"]


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
