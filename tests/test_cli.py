import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from coupledosc import cli


# the one error line of an omega so small that T = omega/x rounds to zero at eta = 0.5
UNDERFLOW_ERROR = (
    "coupledosc: error: T = omega/x underflows to zero at |eta| = 0.5 (x = 2.81366); "
    "omega must be at least 1.4822e-323, got 4.94066e-324\n"
)


def run(argv):
    return cli.main(argv)


class TestModes:
    def test_json_to_stdout(self, capsys):
        assert run(["modes", "--m", "1", "--A", "5", "--C", "-3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["K"] == 4.0
        assert payload["omega"] == 2.0
        assert_allclose(payload["eta"], 0.34657359027997264, rtol=1e-13)
        assert_allclose(payload["omega_plus"] * payload["omega_minus"], 4.0, rtol=1e-12)

    def test_json_to_file(self, tmp_path):
        out = tmp_path / "modes.json"
        assert run(["modes", "--m", "1", "--A", "2", "--C", "0", "--out", str(out)]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["eta"] == 0.0

    def test_unstable_potential_exits_1(self, capsys):
        assert run(["modes", "--m", "1", "--A", "1", "--C", "2"]) == 1
        assert "bound state" in capsys.readouterr().err

    def test_huge_stiffness(self, capsys):
        # A^2 overflows a float; K = sqrt(A^2 - C^2) is still 1e200
        assert run(["modes", "--m=1", "--A=1e200", "--C=-3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["K"], payload["eta"], payload["omega"]) == (1e200, 0.0, 1e100)

    def test_overflowing_frequency_exits_1(self, capsys):
        assert run(["modes", "--m=1e-300", "--A=1e10", "--C=0"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("coupledosc: error: the mode frequencies")


class TestEntangle:
    def test_summary_payload(self, capsys):
        assert run(["entangle", "--eta", "1", "--kmax", "8"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k_max"] == 8
        assert len(payload["coeffs"]) == 9
        assert len(payload["eigenvalues"]) == 9
        assert_allclose(payload["coeffs"][1], 0.409814221664745, rtol=1e-13)
        assert_allclose(payload["purity"], 0.6480542736638855, rtol=1e-13)
        assert_allclose(payload["entropy"], 0.6594529591680365, rtol=1e-12)
        assert_allclose(payload["x"], 1.5438736658106096, rtol=1e-13)
        assert_allclose(payload["T"], 0.6477213920706075, rtol=1e-13)
        assert_allclose(sum(payload["eigenvalues"]) + payload["tail"], 1.0, atol=1e-12)

    def test_zero_squeeze_reports_limit(self, capsys):
        assert run(["entangle", "--eta", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["x"] is None
        assert payload["T"] == 0.0
        assert payload["purity"] == 1.0

    def test_eigenvalue_csv(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        assert run(["entangle", "--eta", "1", "--kmax", "3", "--csv", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "k,p_k"
        assert len(lines) == 5
        k, p = lines[1].split(",")
        assert k == "0"
        assert_allclose(float(p), 0.7864477329659275, rtol=1e-14)

    def test_kernel_csv(self, tmp_path, capsys):
        out = tmp_path / "kern.csv"
        code = run(
            ["entangle", "--eta", "0.5", "--kernel-csv", str(out), "--grid", "9", "--extent", "6"]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "x,x_prime,value"
        assert len(lines) == 1 + 81

    def test_kmax_past_cap_exits_1(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        assert run(["entangle", "--eta=1", "--kmax=100000000", f"--csv={out}"]) == 1
        assert capsys.readouterr().err == (
            "coupledosc: error: k_max must be at most 100000, got 100000000\n"
        )
        assert not out.exists()

    def test_overflowing_temperature_exits_1(self, capsys):
        assert run(["entangle", "--eta=5", "--omega=1e308"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "omega must be at most 4.84518e+306" in err

    def test_underflowing_temperature_exits_1(self, capsys):
        assert run(["entangle", "--eta=0.5", "--omega=5e-324"]) == 1
        assert capsys.readouterr() == ("", UNDERFLOW_ERROR)

    @pytest.mark.parametrize("omega", ["-1", "0", "nan", "inf"])
    def test_bad_omega_at_zero_squeeze_exits_1(self, omega, capsys):
        # eta = 0 has no temperature to compute, and checks omega all the same
        assert run(["entangle", "--eta=0", f"--omega={omega}", "--kmax=2"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"coupledosc: error: omega must be positive, got {float(omega)}\n"

    def test_underresolved_kernel_exits_1(self, tmp_path, capsys):
        out = tmp_path / "kern.csv"
        assert run(["entangle", "--eta", "3", "--kernel-csv", str(out)]) == 1
        assert "wider grid" in capsys.readouterr().err

    @pytest.mark.parametrize("eta", ["1e-300", "-5e-324"])
    def test_tiny_eta(self, eta, capsys):
        assert run(["entangle", f"--eta={eta}", "--kmax=2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entropy"] == 0.0
        assert math.isfinite(payload["x"]) and payload["x"] > 1000.0


class TestBoost:
    def test_mesh_csv(self, tmp_path):
        out = tmp_path / "boost.csv"
        assert run(["boost", "--eta", "1", "--grid", "5", "--extent", "2", "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "z,t,psi,qz,q0,phi"
        assert len(lines) == 1 + 25
        z, t, psi, qz, q0, phi = lines[1].split(",")
        assert (z, t) == ("-2", "-2")
        # self-duality: the momentum column repeats the position column
        assert psi == phi

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["boost", "--eta", "0.8", "--grid", "7", "--extent", "3", "--out", str(a)])
        run(["boost", "--eta", "0.8", "--grid", "7", "--extent", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestExtent:
    """A grid extent that is not positive, or whose spacing is not finite, exits 1 and writes nothing."""

    @pytest.mark.parametrize("extent", ["-1", "0", "inf", "nan", "1e308"])
    def test_boost(self, extent, tmp_path, capsys):
        out = tmp_path / "boost.csv"
        assert run(["boost", "--eta=1", "--grid=3", f"--extent={extent}", f"--out={out}"]) == 1
        assert "grid extent must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_kernel_csv(self, tmp_path, capsys):
        out = tmp_path / "kern.csv"
        argv = ["entangle", "--eta=2", f"--kernel-csv={out}", "--grid=3", "--extent=1e308"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv) == 1
        assert "grid extent must be positive" in capsys.readouterr().err
        assert not out.exists()


class TestParton:
    def test_export_default(self, tmp_path):
        out = tmp_path / "parton.csv"
        assert run(["parton", "--eta", "1", "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "coordinate,model_density"
        assert len(lines) == 102  # default --n 101

    def test_var_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["parton", "--eta", "1.5", "--var", "z", "--out", str(tmp_path / "p.csv")])
        assert exc.value.code == 2

    def test_overlay_passthrough(self, tmp_path):
        ov = tmp_path / "ov.csv"
        ov.write_text("x,value\n-1,0.1\n0,0.9\n1,0.2\n", encoding="utf-8", newline="")
        out = tmp_path / "joined.csv"
        assert run(["parton", "--eta", "0", "--overlay", str(ov), "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "coordinate,model_density,overlay_value"
        assert len(lines) == 4
        coord, dens, val = lines[2].split(",")
        assert coord == "0"
        assert val == "0.9"
        assert_allclose(float(dens), math.pi**-0.5, rtol=1e-14)

    def test_overlay_rescale_shifts_coordinates(self, tmp_path):
        ov = tmp_path / "ov.csv"
        ov.write_text("x,value\n0,1\n1,2\n", encoding="utf-8", newline="")
        out = tmp_path / "joined.csv"
        assert run(
            ["parton", "--eta", "0", "--overlay", str(ov), "--rescale", "0.5,2", "--out", str(out)]
        ) == 0
        rows = out.read_text(encoding="utf-8").splitlines()[1:]
        coords = [float(r.split(",")[0]) for r in rows]
        assert coords == [0.5, 2.5]

    def test_missing_overlay_exits_1(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = run(["parton", "--eta", "0", "--overlay", str(tmp_path / "nope.csv"), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err != ""

    def test_malformed_overlay_names_line(self, tmp_path, capsys):
        ov = tmp_path / "ov.csv"
        ov.write_text("x,value\n0,1\nbad,row,here\n", encoding="utf-8", newline="")
        assert run(["parton", "--eta", "0", "--overlay", str(ov), "--out", str(tmp_path / "o.csv")]) == 1
        assert "line 3" in capsys.readouterr().err

    def test_rescale_past_float_range_exits_1(self, tmp_path, capsys):
        ov = tmp_path / "ov.csv"
        ov.write_text("x,value\n0,1\n1e300,2\n", encoding="utf-8", newline="")
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["parton", "--eta=1", f"--overlay={ov}", "--rescale=0,1e10", f"--out={out}"])
        assert code == 1
        assert capsys.readouterr().err == (
            "coupledosc: error: --rescale 0,1e+10 takes overlay x = 1e+300 past the float range; "
            "use a smaller scale or shift\n"
        )
        assert not out.exists()

    def test_bad_rescale_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["parton", "--eta", "0", "--rescale", "1;2", "--out", str(tmp_path / "o.csv")])
        assert exc.value.code == 2


class TestSweep:
    def test_single_row(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--start", "0", "--stop", "0", "--steps", "1", "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "eta,purity,entropy,T,width_z,width_qz"
        assert len(lines) == 2
        eta, purity, entropy, temp, wz, wq = lines[1].split(",")
        assert (eta, purity, entropy, temp) == ("0", "1", "0", "0")
        assert wz == wq

    def test_entropy_strictly_increasing(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--start", "0", "--stop", "2", "--steps", "5", "--out", str(out)]) == 0
        rows = out.read_text(encoding="utf-8").splitlines()[1:]
        entropies = [float(r.split(",")[2]) for r in rows]
        assert len(entropies) == 5
        assert np.all(np.diff(entropies) > 0)

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["sweep", "--start", "0", "--stop", "3", "--steps", "13", "--out", str(a)])
        run(["sweep", "--start", "0", "--stop", "3", "--steps", "13", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_overflowing_temperature_exits_1(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run(["sweep", "--start=0", "--stop=5", "--steps=3", "--omega=1e308", f"--out={out}"]) == 1
        assert "T = omega/x overflows a float" in capsys.readouterr().err
        assert not out.exists()

    def test_underflowing_temperature_exits_1(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run(["sweep", "--start=0.5", "--stop=1", "--steps=3", "--omega=5e-324", f"--out={out}"]) == 1
        assert capsys.readouterr().err == UNDERFLOW_ERROR
        assert not out.exists()

    @pytest.mark.parametrize("omega", ["-1", "nan"])
    def test_bad_omega_at_zero_squeeze_exits_1(self, omega, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run(["sweep", "--start=0", "--stop=0", "--steps=1", f"--omega={omega}", f"--out={out}"]) == 1
        assert capsys.readouterr().err == f"coupledosc: error: omega must be positive, got {float(omega)}\n"
        assert not out.exists()

    def test_reversed_range_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["sweep", "--start", "2", "--stop", "1", "--steps", "3", "--out", str(tmp_path / "s.csv")])
        assert exc.value.code == 2

    def test_kmax_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["sweep", "--start", "0", "--stop", "1", "--steps", "2", "--kmax", "5",
                 "--out", str(tmp_path / "s.csv")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("start, stop", [("-1e308", "1e308"), ("-inf", "1"), ("0", "nan")])
    def test_range_without_finite_width_exits_1(self, start, stop, tmp_path, capsys):
        out = tmp_path / "s.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["sweep", f"--start={start}", f"--stop={stop}", "--steps=3", f"--out={out}"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"coupledosc: error: the sweep range {float(start):g} to {float(stop):g} has no finite "
            "width; use a narrower range\n"
        )
        assert not out.exists()

    def test_zero_steps_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["sweep", "--start", "0", "--stop", "1", "--steps", "0", "--out", str(tmp_path / "s.csv")])
        assert exc.value.code == 2

    def test_widest_finite_range_exits_1_without_warning(self, tmp_path, capsys):
        # 3 * (max/3) overflows while the eta grid is built; only the overflowing purity is reported
        out = tmp_path / "s.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["sweep", "--start=0", f"--stop={sys.float_info.max!r}", "--steps=4", f"--out={out}"])
        assert code == 1
        assert capsys.readouterr().err == (
            "coupledosc: error: |eta| = 5.99231e+307 overflows the purity 1/cosh(eta); "
            "the usable range is |eta| <= 710.47\n"
        )
        assert not out.exists()


class TestLinspace:
    """cli._linspace builds the sweep's eta grid without numpy, bit for bit as np.linspace."""

    @staticmethod
    def assert_bits_equal(start, stop, steps):
        ours = np.frombuffer(cli._linspace(start, stop, steps), dtype=float)
        # at the widest ranges i * step overflows for the last i, whose value is then set to stop
        with np.errstate(over="ignore"):
            theirs = np.linspace(start, stop, steps)
        assert np.array_equal(ours.view(np.int64), theirs.view(np.int64)), (start, stop, steps)

    @pytest.mark.parametrize(
        "start, stop, steps",
        [
            (-0.0, 0.0, 1),
            # a step that underflows to 0 takes numpy's i / div * delta branch; at 5 steps
            # the two branches differ, at 3 they happen to agree
            (0.0, 5e-324, 3),
            (0.0, 1e-323, 4),
            (0.0, 1e-323, 5),
            (0.0, -0.0, 3),
            (1.5, 1.5, 7),
            (-0.0, -0.0, 2),
            (-1e308, 7e307, 4097),
            (0.0, 1e308, 5),
            (0.0, sys.float_info.max, 4),
            (-1e308, -1e300, 3),
            (0.0, 1.0, 2),
            (-3.0, 2.5, 4097),
            (0.99, 2.87, 10_001),
        ],
    )
    def test_named_cases(self, start, stop, steps):
        self.assert_bits_equal(start, stop, steps)

    @given(
        ends=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=2),
        steps=st.integers(1, 5000),
    )
    def test_matches_numpy(self, ends, steps):
        start, stop = sorted(ends)
        assume(math.isfinite(stop - start))
        self.assert_bits_equal(start, stop, steps)


class TestHugeEta:
    """Beyond the float range of cosh/exp each command exits 1 naming the usable |eta| range."""

    @pytest.mark.parametrize(
        "argv, limit",
        [
            (["entangle", "--eta=800"], "711.16"),
            (["entangle", "--eta=-1500"], "1420.95"),
            (["sweep", "--start=0", "--stop=720", "--steps=2"], "710.47"),
            (["parton", "--eta=800"], "710.47"),
            (["parton", "--eta=-720", "--overlay"], "710.47"),
            (["boost", "--eta=800", "--grid=3"], "709.78"),
        ],
    )
    def test_exits_1_with_range(self, argv, limit, tmp_path, capsys):
        if argv[-1] == "--overlay":
            ov = tmp_path / "ov.csv"
            ov.write_text("x,value\n0,1\n1,2\n", encoding="utf-8", newline="")
            argv = argv[:-1] + [f"--overlay={ov}"]
        if argv[0] != "entangle":
            argv = argv + [f"--out={tmp_path / 'out.csv'}"]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("coupledosc: error: ")
        assert f"usable range is |eta| <= {limit}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["boost", "--eta=709.7", "--grid=3"],
            ["boost", "--eta=-709.7", "--grid=3"],
            ["parton", "--eta=709.7"],
        ],
    )
    def test_no_overflow_warning_just_inside(self, argv, tmp_path):
        # products that overflow to inf only feed exp(-inf) = 0, which is exact
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv + [f"--out={tmp_path / 'out.csv'}"]) == 0


class TestTableCap:
    """--n, --steps and --grid squared are checked against MAX_TABLE_VALUES before any array exists."""

    SIZES = {"parton": ("--eta=1", "--n={}"), "sweep": ("--start=0", "--stop=1", "--steps={}"),
             "boost": ("--eta=1", "--grid={}")}

    def argv(self, command, size, tmp_path):
        *fixed, sized = self.SIZES[command]
        return [command, *fixed, sized.format(size), f"--out={tmp_path / 'out.csv'}"]

    @pytest.mark.parametrize(
        "command, size, message",
        [
            ("parton", 10**13, "a marginal of n = 10000000000000 points (10000000000000 values) "
                               "exceeds the cap of 16777216; use fewer points"),
            ("sweep", 10**13, "a sweep of --steps=10000000000000 rows (10000000000000 values) "
                              "exceeds the cap of 16777216; use fewer steps"),
            ("boost", 10**8, "a 100000000 x 100000000 mesh (10000000000000000 values) exceeds the cap "
                             "of 16777216; use at most 4096 grid nodes"),
        ],
    )
    def test_huge_size_exits_1(self, command, size, message, tmp_path, capsys):
        # the check runs first: these calls allocate nothing
        assert run(self.argv(command, size, tmp_path)) == 1
        assert capsys.readouterr().err == f"coupledosc: error: {message}\n"
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("command, at_cap", [("parton", 36), ("sweep", 36), ("boost", 6)])
    def test_boundary(self, command, at_cap, tmp_path, monkeypatch, capsys):
        from coupledosc import floats

        monkeypatch.setattr(floats, "MAX_TABLE_VALUES", 36)
        assert run(self.argv(command, at_cap, tmp_path)) == 0
        assert run(self.argv(command, at_cap + 1, tmp_path)) == 1
        assert "exceeds the cap of 36" in capsys.readouterr().err

    def test_kernel_grid(self, tmp_path, capsys):
        assert run(["entangle", "--eta=1", "--grid=4097", f"--kernel-csv={tmp_path / 'k.csv'}"]) == 1
        assert "use at most 4096 grid nodes" in capsys.readouterr().err


class TestVerify:
    def test_report_structure_and_known_failure(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run(["verify", "--out", str(out)])
        report = json.loads(out.read_text(encoding="utf-8"))
        names = [c["name"] for c in report["checks"]]
        assert len(names) == len(set(names))
        failed = [c for c in report["checks"] if not c["passed"]]
        # one known failure: the eta=2 truncation tail sits just above the
        # uniform reconstruction gate (see README, Known limitations)
        assert [c["name"] for c in failed] == ["schmidt_reconstruction"]
        assert report["overall_pass"] is False
        assert code == 1
        text = capsys.readouterr().out
        assert "FAIL schmidt_reconstruction" in text
        assert text.count("PASS") == len(report["checks"]) - 1
        tail_check = next(
            c for c in report["checks"] if c["name"] == "schmidt_truncation_tail_identity"
        )
        assert tail_check["passed"] is True


def test_cli_import_leaves_verify_unloaded():
    # nor numpy, nor any layer module: each command imports what it runs
    code = (
        "import sys, coupledosc.cli; "
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('coupledosc')))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "['coupledosc', 'coupledosc.cli']"


# --- exact JSON text ------------------------------------------------------------

# stdout byte for byte: key order, %.15g values, null x at eta = 0, indent and final LF
PINNED_STDOUT = {
    "modes": (
        ["modes", "--m=1", "--A=5", "--C=-3"],
        '{\n'
        '  "m": 1.0,\n'
        '  "A": 5.0,\n'
        '  "C": -3.0,\n'
        '  "K": 4.0,\n'
        '  "eta": 0.346573590279973,\n'
        '  "omega": 2.0,\n'
        '  "omega_plus": 2.82842712474619,\n'
        '  "omega_minus": 1.4142135623731\n'
        '}\n'
    ),
    "entangle-zero": (
        ["entangle", "--eta=0", "--kmax=2"],
        '{\n'
        '  "eta": 0.0,\n'
        '  "k_max": 2,\n'
        '  "omega": 1.0,\n'
        '  "coeffs": [\n'
        '    1.0,\n'
        '    0.0,\n'
        '    0.0\n'
        '  ],\n'
        '  "eigenvalues": [\n'
        '    1.0,\n'
        '    0.0,\n'
        '    0.0\n'
        '  ],\n'
        '  "tail": 0.0,\n'
        '  "purity": 1.0,\n'
        '  "entropy": 0.0,\n'
        '  "x": null,\n'
        '  "T": 0.0\n'
        '}\n'
    ),
    "entangle-one": (
        ["entangle", "--eta=1", "--kmax=2", "--omega=2"],
        '{\n'
        '  "eta": 1.0,\n'
        '  "k_max": 2,\n'
        '  "omega": 2.0,\n'
        '  "coeffs": [\n'
        '    0.886818883970074,\n'
        '    0.409814221664745,\n'
        '    0.189382183120435\n'
        '  ],\n'
        '  "eigenvalues": [\n'
        '    0.786447732965928,\n'
        '    0.167947696278681,\n'
        '    0.0358656112834621\n'
        '  ],\n'
        '  "tail": 0.00973895947192969,\n'
        '  "purity": 0.648054273663885,\n'
        '  "entropy": 0.659452959168037,\n'
        '  "x": 1.54387366581061,\n'
        '  "T": 1.29544278414122\n'
        '}\n'
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_STDOUT))
def test_json_stdout_is_pinned(name, capsys):
    argv, text = PINNED_STDOUT[name]
    assert run(argv) == 0
    assert capsys.readouterr() == (text, "")


class TestUsage:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            run(["modes", "--m", "1", "--A", "2", "--C", "0", "--frobnicate"])
        assert exc.value.code == 2
