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


# overlays that parton rejects; the bad line sits last, so every row is read first
OVERLAYS = {
    "bad-field.csv": "x,value\n0,1\n1,2\n2,abc\n",
    "three-fields.csv": "x,value\n0,1\n1,2\n2,3,4\n",
    "one-field.csv": "x,value\n0,1\n1,2\n2\n",
    "inf.csv": "x,value\n0,1\n1,2\n2,inf\n",
    "not-increasing.csv": "x,value\n0,1\n1,2\n1,3\n",
    "one-row.csv": "x,value\n0,1\n",
    "header-only.csv": "x,value\n",
    "bad-header.csv": "x,val\n0,1\n1,2\n",
    "empty.csv": "",
}


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
        pytest.param(["sweep", "--start=0", "--stop=1", "--steps=0", "--out=never.csv"], 1, id="zero-steps"),
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
        # so is every parton error in a small overlay, in --n or in eta
        *(
            pytest.param(["parton", "--eta=1", f"--overlay={name}", "--out=o.csv"], 1,
                         id=f"parton-overlay-{name.removesuffix('.csv')}")
            for name in OVERLAYS
        ),
        pytest.param(["parton", "--eta=1", "--n=1", "--out=o.csv"], 1, id="parton-one-point"),
        pytest.param(["parton", "--eta=1", "--n=99999999", "--out=o.csv"], 1, id="parton-n-past-cap"),
        pytest.param(["parton", "--eta=nan", "--out=o.csv"], 1, id="parton-eta-nan"),
        pytest.param(["parton", "--eta=800", "--out=o.csv"], 1, id="parton-eta-800"),
    ],
)
def test_runs_without_numpy(argv, code, tmp_path):
    runs = {}
    for mode in ("block", "normal"):
        (tmp_path / mode).mkdir()
        for arg in argv:
            if arg.startswith("--overlay="):
                name = arg.removeprefix("--overlay=")
                (tmp_path / mode / name).write_text(OVERLAYS[name], encoding="utf-8", newline="")
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


def test_verify_loads_neither_numpy_random_nor_hashlib(tmp_path):
    # the seeded checks draw numpy's stream from a pure-Python copy; numpy before
    # 2.0 loads numpy.random on import, so only what verify adds to numpy counts
    script = (
        "import sys\n"
        "import numpy\n"
        "before = set(sys.modules)\n"
        "from coupledosc.cli import main\n"
        "assert main(['verify', '--out', 'report.json']) == 1\n"
        "print(sorted({'numpy.random', 'secrets', 'hashlib'} & set(sys.modules) - before), file=sys.stderr)\n"
    )
    out = _python("-c", script, cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stderr.splitlines()[-1] == "[]"
    assert (tmp_path / "report.json").exists()


def test_parton_import_loads_neither_numpy_nor_numerics():
    # lightcone_fraction is the closed form erf(band e^{eta/2}), in math alone
    out = _python("-c", "import sys, coupledosc.parton as p; p.lightcone_fraction(4.0); "
                        "print('numpy' in sys.modules, 'coupledosc.numerics' in sys.modules)")
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "False"]


def test_small_overlay_loads_numpy_after_its_rows_pass(tmp_path):
    # a finder notes how many rows the row loop holds when numpy is first imported
    rows = 200
    path = tmp_path / "ov.csv"
    path.write_text("x,value\n" + "".join(f"{i},0.5\n" for i in range(rows)), encoding="utf-8")
    script = (
        "import sys\n"
        "class Spy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy':\n"
        "            frame = sys._getframe(1)\n"
        "            while frame.f_code.co_name != '_read_rows':\n"
        "                frame = frame.f_back\n"
        "            print(len(frame.f_locals['xs']), file=sys.stderr)\n"
        "sys.meta_path.insert(0, Spy())\n"
        "from coupledosc import parton\n"
        f"series = parton.ingest_overlay({str(path)!r})\n"
        "print(series.x.size, 'coupledosc.numerics' in sys.modules, file=sys.stderr)\n"
    )
    out = _python("-c", script)
    assert out.returncode == 0, out.stderr
    assert out.stderr.split() == [str(rows), str(rows), "False"]


@pytest.mark.parametrize(
    "call, message",
    [
        ("entanglement.schmidt_coefficients(1.0, 2.5)", "k_max must be an integer, got 2.5"),
        ("entanglement.reduced_state(1.0, float('nan'))", "k_max must be an integer, got nan"),
        ("parton.export_gaussian_pdf(0.5, 2.5, 'p.csv')", "n must be an integer, got 2.5"),
    ],
    ids=["schmidt", "reduced_state", "export"],
)
def test_count_guard_runs_without_numpy(call, message, tmp_path):
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from coupledosc import entanglement, parton\n"
        "try:\n"
        f"    {call}\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    out = _python("-c", script, cwd=tmp_path)
    assert (out.returncode, out.stdout, out.stderr) == (0, message + "\n", "")
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize(
    "eta, error",
    [("float('nan')", "ValueError: eta must be finite"),
     ("800.0", "EtaRangeError: |eta| = 800 overflows psi_eta; the usable range is |eta| <= 709.78")],
    ids=["nan", "800"],
)
def test_ground_state_checks_eta_before_numpy(eta, error):
    script = (
        "import sys\n"
        "from coupledosc.oscillator import ground_state\n"
        "try:\n"
        f"    ground_state(0.0, 0.0, {eta})\n"
        "except ValueError as exc:\n"
        "    print(f'{type(exc).__name__}: {exc}')\n"
        "print('numpy' in sys.modules)\n"
    )
    out = _python("-c", script)
    assert (out.returncode, out.stdout, out.stderr) == (0, f"{error}\nFalse\n", "")


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
    assert len(coupledosc.__all__) == 46


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
