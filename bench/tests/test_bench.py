"""Tests for the benchmark itself: the output checker and the seeded inputs.

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run_bench  # noqa: E402
import workloads  # noqa: E402

BOOST = workloads.Op("boost", ("boost", "--eta", "1.3", "--grid", "41", "--out", "boost.csv"),
                     out="boost.csv", params={"eta": 1.3, "grid": 41})
ETA800 = workloads.Op("reject_eta800", ("entangle", "--eta", "800"), expect_exit=1)


def cli(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "coupledosc.cli", *args], cwd=cwd, env=env,
                          capture_output=True, timeout=120, check=False)


@pytest.fixture(scope="module")
def boost_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("boost")
    r = cli(BOOST.argv, d)
    assert r.returncode == 0, r.stderr
    return d


def test_real_output_passes(boost_dir):
    out = check.check_op(BOOST, boost_dir, 0, b"", b"")
    assert out.status == "ok", out.problems
    again = check.check_op(BOOST, boost_dir, 0, b"", b"", expected_digest=out.digest)
    assert again.status == "ok" and again.digest == out.digest


def _tampered(boost_dir, tmp_path, edit):
    (tmp_path / "boost.csv").write_bytes(edit((boost_dir / "boost.csv").read_bytes()))
    return tmp_path


def test_flipped_byte_is_wrong(boost_dir, tmp_path):
    good = check.check_op(BOOST, boost_dir, 0, b"", b"")
    data = (boost_dir / "boost.csv").read_bytes()
    # a mantissa digit of phi on the first data row
    pos = data.index(b"\n") + 1 + data.split(b"\n")[1].rindex(b",") + 3
    flipped = bytearray(data)
    flipped[pos] = ord("7") if flipped[pos] != ord("7") else ord("3")
    d = _tampered(boost_dir, tmp_path, lambda _: bytes(flipped))
    out = check.check_op(BOOST, d, 0, b"", b"", expected_digest=good.digest)
    assert out.status == "wrong"
    assert any("differs from the recorded" in p for p in out.problems)
    assert any("psi and phi differ" in p for p in out.problems)


def test_crlf_is_wrong(boost_dir, tmp_path):
    d = _tampered(boost_dir, tmp_path, lambda b: b.replace(b"\n", b"\r\n"))
    out = check.check_op(BOOST, d, 0, b"", b"")
    assert out.status == "wrong"
    assert any("LF only" in p for p in out.problems)


def test_field_that_does_not_rerender_is_wrong(boost_dir, tmp_path):
    d = _tampered(boost_dir, tmp_path, lambda b: b.replace(b"\n-8,", b"\n-8.0,", 1))
    out = check.check_op(BOOST, d, 0, b"", b"")
    assert out.status == "wrong"
    assert any("re-render" in p for p in out.problems)


def test_missing_output_file_fails(tmp_path):
    out = check.check_op(BOOST, tmp_path, 0, b"", b"")
    assert out.status == "failed"
    assert any("missing output file" in p for p in out.problems)


def test_traceback_behind_exit_1_fails(tmp_path):
    r = cli(ETA800.argv, tmp_path)
    out = check.check_op(ETA800, tmp_path, r.returncode, r.stdout, r.stderr)
    assert r.returncode == 1
    assert out.status == "failed"
    assert any("traceback" in p for p in out.problems)


def test_clean_reject_passes(tmp_path):
    op = workloads.Op("reject_modes", ("modes", "--m", "1", "--A", "2", "--C", "2"), expect_exit=1)
    r = cli(op.argv, tmp_path)
    assert check.check_op(op, tmp_path, r.returncode, r.stdout, r.stderr).status == "ok"


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_gives_same_argv_and_inputs(name):
    a, b = workloads.build(name, 7), workloads.build(name, 7)
    assert [[op.argv for op in p] for p in a.passes] == [[op.argv for op in p] for p in b.passes]
    assert a.inputs == b.inputs
    assert len(a.passes) == workloads.VARIANTS
    assert len({tuple(sorted(op.kind for op in p)) for p in a.passes}) == 1


def test_every_argv_parses():
    # negative values in exponent form ("-3e-05") must not read as options
    from coupledosc.cli import build_parser

    parser = build_parser()
    for name in workloads.WORKLOADS:
        for seed in range(1, 41):
            for p in workloads.build(name, seed).passes:
                for op in p:
                    parser.parse_args(op.argv)


def test_seeds_differ_except_verify():
    for name in ("export", "interactive"):
        assert workloads.build(name, 1).passes != workloads.build(name, 2).passes
    assert workloads.build("export", 1).inputs != workloads.build("export", 2).inputs
    assert workloads.build("verify", 1).passes == workloads.build("verify", 2).passes


def test_interactive_reject_share_is_fixed():
    for p in workloads.build("interactive", 3).passes:
        kinds = sorted(op.kind for op in p)
        assert kinds.count("reject_eta800") == 1 and len(kinds) == 12


def test_benchmark_json_lists_every_metric():
    import json

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = set(run_bench.layer_metrics({}, 0)) | {"trace.overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == layer
    assert {f"verify.{n}.ms" for n in check.CHECK_NAMES} <= layer


def test_overlay_is_strictly_increasing():
    lines = workloads.overlay_bytes(5).decode().split("\n")[1:-1]
    xs = [float(line.split(",")[0]) for line in lines]
    assert len(xs) == workloads.OVERLAY_ROWS
    assert all(a < b for a, b in zip(xs, xs[1:]))


def test_tracer_fails_loudly_on_a_missing_layer():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    ok = subprocess.run([sys.executable, str(BENCH / "tracer.py"), "--check"], env=env,
                        capture_output=True, timeout=120, check=False)
    assert ok.returncode == 0, ok.stderr
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import coupledosc.cli, coupledosc.numerics as n; "
            "del n.hermite_fn; import tracer; tracer.install(tracer.Recorder())")
    bad = subprocess.run([sys.executable, "-c", code, str(BENCH)], env=env,
                         capture_output=True, timeout=120, check=False)
    assert bad.returncode != 0
    assert b"LookupError: coupledosc.numerics.hermite_fn is missing" in bad.stderr
