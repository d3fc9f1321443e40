"""The process entry point, cli.run: main(), a flush of both streams, then os._exit.

Skipping the interpreter's teardown is safe only while every command closes
what it opens and run() flushes what it buffered; these tests pin both, and
that a fresh process prints and writes exactly what main() does in-process.
"""

import ast
import gc
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import fresh
from coupledosc import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "coupledosc"
# a fixed help width, so argparse wraps the same way in both processes, and no
# PYTHONUNBUFFERED, so a child's stdout is block-buffered into its pipe
ENV = dict({k: v for k, v in fresh.ENV.items() if k != "PYTHONUNBUFFERED"}, COLUMNS="80")
OVERLAY = "x,value\n0,1\n1,2\n2,3\n"

# argv and exit code, one per subcommand and path; the overlay file is in the working directory
CASES = {
    "modes": (["modes", "--m=1", "--A=5", "--C=-3"], 0),
    "modes-unstable": (["modes", "--m=1", "--A=1", "--C=2"], 1),
    "entangle": (["entangle", "--eta=-0.65", "--kmax=8", "--csv=w.csv", "--kernel-csv=k.csv",
                  "--grid=41", "--extent=6"], 0),
    "entangle-out": (["entangle", "--eta=1", "--out=e.json"], 0),
    "entangle-reject": (["entangle", "--eta=800"], 1),
    "boost": (["boost", "--eta=0.44", "--grid=31", "--out=b.csv"], 0),
    "parton": (["parton", "--eta=-0.66", "--n=1001", "--out=p.csv"], 0),
    "parton-overlay": (["parton", "--eta=1", "--overlay=ov.in", "--rescale=0.5,2", "--out=o.csv"], 0),
    "sweep": (["sweep", "--start=0.99", "--stop=2.87", "--steps=101", "--out=s.csv"], 0),
    "verify": (["verify", "--out=r.json"], 1),
    "usage-error": (["modes", "--m=1"], 2),
    "help": (["--help"], 0),
}

# the tables at export size, the overlay a 100,000-row ov.in, so the joined table is three
# full columns and no axis; and the boosts whose exponents overflow at the mesh corners
EXPORTS = {
    "boost": ["boost", "--eta=0.44", "--out=boost.csv"],
    "kernel": ["entangle", "--eta=-0.65", "--kernel-csv=kernel.csv"],
    "parton": ["parton", "--eta=-0.66", "--n=100001", "--out=parton.csv"],
    "joined": ["parton", "--eta=0.7", "--overlay=ov.in", "--rescale=-0.25,1.5", "--out=joined.csv"],
    "sweep": ["sweep", "--start=0.99", "--stop=2.87", "--steps=10001", "--out=sweep.csv"],
    # one-word axis cells, and a 301-row integer column cast to float64 and rendered as %.15g
    "axes": ["boost", "--eta=0.3", "--grid=41", "--extent=3", "--out=axes.csv"],
    "weights": ["entangle", "--eta=0.5", "--kmax=300", "--csv=weights.csv"],
    "boost-eta-709.7": ["boost", "--eta=709.7", "--grid=41", "--out=b1.csv"],
    "boost-eta--709.7": ["boost", "--eta=-709.7", "--grid=41", "--out=b2.csv"],
}


def _files(directory):
    return sorted((f.name, f.read_bytes()) for f in directory.iterdir())


def _workdir(path, overlay):
    path.mkdir()
    (path / "ov.in").write_text(overlay, encoding="utf-8")
    return path


def _in_process(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def _runs(argv, tmp_path, monkeypatch, capsys, *flags, overlay=OVERLAY):
    """(exit code, stdout, stderr, files) of main(argv), then of a fresh process, each in its own cwd."""
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(_workdir(tmp_path / "inproc", overlay))
    inproc = _in_process(argv, capsys) + (_files(tmp_path / "inproc"),)
    child = fresh.cli(argv, *flags, cwd=_workdir(tmp_path / "child", overlay), env=ENV)
    return inproc, (child.returncode, child.stdout, child.stderr, _files(tmp_path / "child"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_fresh_process_matches_main(name, tmp_path, monkeypatch, capsys):
    argv, code = CASES[name]
    inproc, child = _runs(argv, tmp_path, monkeypatch, capsys)
    assert child == inproc
    assert child[0] == code
    assert "Traceback" not in child[2]


@pytest.fixture(scope="module")
def big_overlay():
    rows = (f"{i * 6e-5 - 3:.15g},{(i * 7919 % 10007) / 16678:.15g}\n" for i in range(100_000))
    return "x,value\n" + "".join(rows)


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_export_matches_main_under_w_error(name, big_overlay, tmp_path, monkeypatch, capsys):
    # write_csv assembles each block of about 4096 values in one table, in place, and the
    # mesh kernels ignore overflow only around the products that may overflow; under
    # -W error a warning from any other step ends the fresh process with an error
    overlay = big_overlay if name == "joined" else OVERLAY
    inproc, child = _runs(EXPORTS[name], tmp_path, monkeypatch, capsys, "-W", "error", overlay=overlay)
    assert child == inproc
    assert child[0] == 0


@pytest.mark.parametrize("kmax", [100_000, 8])
def test_block_buffered_pipe_gets_every_byte(kmax, tmp_path, capsys):
    # without PYTHONUNBUFFERED stdout is block-buffered into the pipe; a JSON
    # smaller than the buffer reaches the reader only through run()'s flush
    argv = ["entangle", "--eta=1", f"--kmax={kmax}"]
    child = fresh.cli(argv, cwd=tmp_path, env=ENV)
    assert (child.returncode, child.stdout, child.stderr) == _in_process(argv, capsys)
    assert len(json.loads(child.stdout)["coeffs"]) == kmax + 1


@pytest.mark.skipif(sys.platform == "win32", reason="closes stdout with a POSIX shell")
class TestClosedStdout:
    def _closed(self, argv, cwd):
        script = '"$0" -m coupledosc.cli "$@" >&-'
        return subprocess.run(
            ["sh", "-c", script, sys.executable, *argv],
            cwd=cwd, env=ENV, capture_output=True, text=True, timeout=60,
        )

    @pytest.mark.parametrize("argv, name", [
        (["boost", "--eta=1", "--grid=5", "--out=b.csv"], "b.csv"),
        (["sweep", "--start=0", "--stop=1", "--steps=5", "--out=s.csv"], "s.csv"),
    ])
    def test_file_writers_exit_0(self, argv, name, tmp_path, monkeypatch):
        child = self._closed(argv, tmp_path)
        assert (child.returncode, child.stderr) == (0, "")
        (tmp_path / "inproc").mkdir()
        monkeypatch.chdir(tmp_path / "inproc")
        assert cli.main(argv) == 0
        assert (tmp_path / name).read_bytes() == (tmp_path / "inproc" / name).read_bytes()

    def test_json_to_closed_stdout_exits_1(self, tmp_path):
        child = self._closed(["modes", "--m=1", "--A=5", "--C=-3"], tmp_path)
        assert child.returncode == 1
        assert child.stderr == (
            "coupledosc: error: stdout is closed; use --out to write the JSON to a file\n"
        )


def test_json_to_missing_stdout_in_process(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", None)
    assert cli.main(["modes", "--m=1", "--A=5", "--C=-3"]) == 1
    assert capsys.readouterr().err.startswith("coupledosc: error: stdout is closed")


@pytest.mark.parametrize("name", sorted(set(CASES) - {"usage-error", "help"}))
def test_every_file_is_closed_before_main_returns(name, tmp_path, monkeypatch, capsys):
    # os._exit closes no Python file object, so an unclosed one could lose bytes
    leaks = []
    monkeypatch.setattr(sys, "unraisablehook", leaks.append)
    monkeypatch.chdir(_workdir(tmp_path / "w", OVERLAY))
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        cli.main(CASES[name][0])
        gc.collect()
    capsys.readouterr()
    assert [repr(leak.exc_value) for leak in leaks] == []


def test_verify_reuses_the_running_module(verify_run):
    # under python -m, cli runs as __main__; verify must not load the front end,
    # which would compile and run cli.py a second time as coupledosc.cli
    child = verify_run[0]
    assert child.returncode == 1
    imported = fresh.imported(child.stderr)
    assert "coupledosc.verify" in imported
    assert "coupledosc.cli" not in imported


class TestRun:
    """run() in-process, with os._exit replaced by a recorder."""

    @pytest.fixture
    def exits(self, monkeypatch):
        codes = []

        def fake_exit(code):
            codes.append(code)
            raise SystemExit("os._exit")

        monkeypatch.setattr(os, "_exit", fake_exit)
        return codes

    @pytest.mark.parametrize("argv, code", [
        (["modes", "--m=1", "--A=5", "--C=-3"], 0),
        (["modes", "--m=1", "--A=1", "--C=2"], 1),
        (["modes", "--m=1"], 2),
        (["--help"], 0),
    ])
    def test_ends_with_the_exit_code_of_main(self, argv, code, exits, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["coupledosc", *argv])
        with pytest.raises(SystemExit, match="os._exit"):
            cli.run()
        assert exits == [code]

    def test_flushes_stdout_before_exit(self, exits, monkeypatch):
        buffered = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", write_through=False)
        monkeypatch.setattr(sys, "stdout", buffered)
        monkeypatch.setattr(sys, "argv", ["coupledosc", "modes", "--m=1", "--A=5", "--C=-3"])
        with pytest.raises(SystemExit, match="os._exit"):
            cli.run()
        assert exits == [0]
        assert json.loads(buffered.buffer.getvalue())["K"] == 4.0

    def test_missing_streams_are_skipped(self, exits, monkeypatch, tmp_path):
        monkeypatch.setattr(sys, "stdout", None)
        monkeypatch.setattr(sys, "stderr", None)
        out = tmp_path / "b.csv"
        monkeypatch.setattr(sys, "argv", ["coupledosc", "boost", "--eta=1", "--grid=5", f"--out={out}"])
        with pytest.raises(SystemExit, match="os._exit"):
            cli.run()
        assert exits == [0]
        assert out.read_bytes().startswith(b"z,t,psi,qz,q0,phi\n")

    def test_failed_flush_falls_back_to_normal_exit(self, exits, monkeypatch):
        class BrokenPipe(io.StringIO):
            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", BrokenPipe())
        monkeypatch.setattr(sys, "argv", ["coupledosc", "modes", "--m=1", "--A=1", "--C=2"])
        with pytest.raises(SystemExit) as exc:
            cli.run()
        assert (exc.value.code, exits) == (1, [])


def test_script_targets_run():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r'^coupledosc\s*=\s*"([^"]*)"', text, re.M) == ["coupledosc.cli:run"]


def _exit_sites(tree, function=None):
    """(enclosing function, line) of every os._exit reference in an AST."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _exit_sites(node, node.name)
            continue
        if isinstance(node, ast.Attribute) and node.attr == "_exit":
            yield function, node.lineno
        if isinstance(node, ast.ImportFrom) and any(a.name == "_exit" for a in node.names):
            yield function, node.lineno
        yield from _exit_sites(node, function)


def test_os_exit_only_inside_run():
    sites = {
        (path.name, function)
        for path in sorted(SRC.glob("*.py"))
        for function, _ in _exit_sites(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert sites == {("cli.py", "run")}
