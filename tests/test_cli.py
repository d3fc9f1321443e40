import contextlib
import io
import json
import math
import os
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import fresh
from coupledosc import cli, entanglement, numerics


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

    def test_k_column_is_plain_digits(self, tmp_path, capsys):
        # k is cast to float64 beside p_k and rendered as %.15g, which prints a whole number bare
        out = tmp_path / "weights.csv"
        assert run(["entangle", "--eta=0.5", "--kmax=300", f"--csv={out}"]) == 0
        k = [line.split(",")[0] for line in out.read_text(encoding="utf-8").splitlines()]
        assert k == ["k"] + [str(i) for i in range(301)]

    def test_kernel_csv(self, tmp_path, capsys):
        out = tmp_path / "kern.csv"
        code = run(
            ["entangle", "--eta", "0.5", "--kernel-csv", str(out), "--grid", "9", "--extent", "6"]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "x,x_prime,value"
        assert len(lines) == 1 + 81

    @pytest.mark.parametrize("flags", [["--grid=7"], ["--extent=3"], ["--grid=7", "--extent=3"]],
                             ids=["grid", "extent", "both"])
    def test_grid_without_kernel_csv_is_usage_error(self, flags, tmp_path, capsys):
        # --grid and --extent shape the kernel CSV alone; without it they would be dropped unread
        out = tmp_path / "e.json"
        with pytest.raises(SystemExit) as exc:
            run(["entangle", "--eta=1", "--kmax=2", f"--out={out}", *flags])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("coupledosc: error: --grid and --extent shape the --kernel-csv grid\n")
        assert not out.exists()

    def test_kmax_past_cap_exits_1(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        assert run(["entangle", "--eta=1", "--kmax=100000000", f"--csv={out}"]) == 1
        assert capsys.readouterr().err == (
            "coupledosc: error: k_max must be at most 100000, got 100000000\n"
        )
        assert not out.exists()

    def test_negative_kmax_exits_1(self, capsys):
        assert run(["entangle", "--eta=1", "--kmax=-1"]) == 1
        assert capsys.readouterr() == ("", "coupledosc: error: k_max must be nonnegative, got -1\n")

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

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["--eta=1500", "--kmax=200000"],
             "|eta| = 1500 overflows the eigenvalues p_k; the usable range is |eta| <= 711.16"),
            (["--eta=800", "--kmax=200000"],
             "|eta| = 800 overflows the eigenvalues p_k; the usable range is |eta| <= 711.16"),
            (["--eta=nan", "--kmax=-1"], "eta must be finite"),
            (["--eta=800", "--omega=-1"],
             "|eta| = 800 overflows the eigenvalues p_k; the usable range is |eta| <= 711.16"),
            (["--eta=0", "--omega=-1"], "omega must be positive, got -1.0"),
            (["--eta=711", "--omega=2"],
             "T = omega/x overflows a float at |eta| = 711 (x = 6.58693e-309); "
             "omega must be at most 1.18413, got 2"),
            (["--eta=711", "--kmax=-1"], "k_max must be nonnegative, got -1"),
        ],
    )
    def test_first_fault_is_reported(self, argv, error, capsys):
        # with two faults, the order of the checks decides which one is named
        assert run(["entangle", *argv]) == 1
        assert capsys.readouterr() == ("", f"coupledosc: error: {error}\n")


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

    @pytest.mark.parametrize(
        "argv",
        [["boost", "--eta=1", "--out={out}"], ["entangle", "--eta=1", "--kmax=2", "--kernel-csv={out}"]],
        ids=["boost", "entangle-kernel"],
    )
    @pytest.mark.parametrize("grid", ["1", "0", "-5"])
    def test_grid_below_two_exits_1(self, argv, grid, tmp_path, capsys):
        # one guard, one exit code and one message for --grid in both commands
        out = tmp_path / "mesh.csv"
        assert run([a.format(out=out) for a in argv] + [f"--grid={grid}"]) == 1
        assert capsys.readouterr().err == f"coupledosc: error: grid count must be at least 2, got {grid}\n"
        assert not out.exists()


@pytest.mark.parametrize("argv", [["entangle", "--eta=1", "--kernel-csv={out}"],
                                  ["boost", "--eta=1", "--out={out}"]], ids=["entangle", "boost"])
def test_grid_defaults_are_the_default_grid(argv, tmp_path, capsys):
    # without --grid and --extent the table is written on numerics' default grid
    default, given = tmp_path / "default.csv", tmp_path / "given.csv"
    grid = [f"--grid={numerics.DEFAULT_COUNT}", f"--extent={numerics.DEFAULT_EXTENT!r}"]
    assert run([a.format(out=default) for a in argv]) == 0
    assert run([a.format(out=given) for a in argv] + grid) == 0
    assert default.read_bytes() == given.read_bytes()


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

    @pytest.mark.parametrize(
        "rescale, message",
        [
            ("a,b", "could not parse 'a,b' as shift,scale"),
            ("0,0", "rescale needs finite shift and positive scale"),
            ("0,-1", "rescale needs finite shift and positive scale"),
            ("nan,1", "rescale needs finite shift and positive scale"),
            ("0,inf", "rescale needs finite shift and positive scale"),
        ],
    )
    def test_rejected_rescale_names_why(self, rescale, message, tmp_path, capsys):
        ov = tmp_path / "ov.csv"
        ov.write_text("x,value\n0,1\n1,2\n", encoding="utf-8", newline="")
        out = tmp_path / "o.csv"
        with pytest.raises(SystemExit) as exc:
            run(["parton", "--eta=1", f"--overlay={ov}", f"--rescale={rescale}", f"--out={out}"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"coupledosc parton: error: argument --rescale: {message}\n")
        assert not out.exists()

    def test_rescale_without_overlay_is_usage_error(self, tmp_path, capsys):
        # --rescale moves overlay x alone; without --overlay it would be dropped unread
        out = tmp_path / "p.csv"
        with pytest.raises(SystemExit) as exc:
            run(["parton", "--eta=1", "--rescale=0,2", "--n=5", f"--out={out}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("coupledosc: error: --rescale needs --overlay\n")
        assert not out.exists()

    def test_n_with_overlay_is_usage_error(self, tmp_path, capsys):
        # --n sizes the export alone; with --overlay it would be dropped unread
        ov, out = tmp_path / "ov.csv", tmp_path / "o.csv"
        ov.write_text("x,value\n0,1\n1,2\n", encoding="utf-8", newline="")
        with pytest.raises(SystemExit) as exc:
            run(["parton", "--eta=1", f"--overlay={ov}", "--n=5", f"--out={out}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("coupledosc: error: --n sizes the export without --overlay\n")
        assert not out.exists()


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

    def test_omega_is_checked_once_per_sweep(self, tmp_path, monkeypatch):
        from coupledosc import entanglement

        calls = []
        check = entanglement.check_omega
        monkeypatch.setattr(entanglement, "check_omega", lambda omega: calls.append(omega) or check(omega))
        assert run(["sweep", "--start=0", "--stop=3", "--steps=13", f"--out={tmp_path / 's.csv'}"]) == 0
        assert calls == [1.0]

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

    def test_zero_steps_exits_1(self, tmp_path, capsys):
        # --steps has the one count guard, floats.check_count, like parton --n and boost --grid
        out = tmp_path / "s.csv"
        assert run(["sweep", "--start", "0", "--stop", "1", "--steps", "0", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "coupledosc: error: steps must be at least 1, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("steps, message", [
        (0, "steps must be at least 1, got 0"),
        (-3, "steps must be at least 1, got -3"),
        (2.5, "steps must be an integer, got 2.5"),
        (True, "steps must be an integer, got True"),
    ])
    def test_write_sweep_checks_the_count(self, steps, message):
        with pytest.raises(ValueError) as exc:
            entanglement.write_sweep(io.StringIO(), 0.0, 1.0, steps, 1.0)
        assert str(exc.value) == message

    def test_integral_float_steps_is_a_count(self):
        as_float, as_int = io.StringIO(), io.StringIO()
        entanglement.write_sweep(as_float, 0.0, 1.0, 3.0, 1.0)
        entanglement.write_sweep(as_int, 0.0, 1.0, 3, 1.0)
        assert as_float.getvalue() == as_int.getvalue()

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
    """entanglement._linspace builds the sweep's eta grid without numpy, bit for bit as np.linspace."""

    @staticmethod
    def assert_bits_equal(start, stop, steps):
        ours = np.frombuffer(entanglement._linspace(start, stop, steps), dtype=float)
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
            (["entangle", "--eta=-1500"], "711.16"),
            (["sweep", "--start=0", "--stop=720", "--steps=2"], "710.47"),
            (["parton", "--eta=800"], "710.47"),
            (["parton", "--eta=-720", "--overlay"], "710.47"),
            (["boost", "--eta=800", "--grid=3"], "709.78"),
            # the eta fault is named before the k_max fault
            (["entangle", "--eta=1500", "--kmax=200000"], "711.16"),
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
    out = fresh.python("-c", code, check=True)
    assert out.stdout.strip() == "['coupledosc', 'coupledosc.cli']"


def test_verify_leaves_cli_unloaded():
    # the library's self-check runs without the front end: cli imports verify, not back
    code = (
        "import sys, coupledosc.verify as v; v.run_all(); "
        "print('coupledosc.cli' in sys.modules)"
    )
    out = fresh.python("-c", code, check=True)
    assert out.stdout.strip() == "False"


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


class TestEmitJson:
    def test_floats_are_rounded_at_any_depth(self, capsys):
        payload = {
            "sum": 0.1 + 0.2,
            "nested": [1 / 3, {"deeper": [2 / 3, np.float64(0.1) * 3], "k": 7}],
            "flag": True,
            "count": 3,
            "name": "x",
            "missing": None,
            "inf": math.inf,
        }
        cli._emit_json(payload, None)
        assert capsys.readouterr().out == json.dumps(
            {
                "sum": 0.3,
                "nested": [0.333333333333333, {"deeper": [0.666666666666667, 0.3], "k": 7}],
                "flag": True,
                "count": 3,
                "name": "x",
                "missing": None,
                "inf": math.inf,
            },
            indent=2,
        ) + "\n"

    def test_records_are_not_changed(self, tmp_path):
        from coupledosc.verify import CheckResult

        result = CheckResult("c", True, 0.1 + 0.2, 1 / 3)
        out = tmp_path / "r.json"
        cli._emit_json({"checks": [vars(result)]}, str(out))
        assert json.loads(out.read_text(encoding="utf-8"))["checks"][0]["deviation"] == 0.3
        assert (result.deviation, result.tolerance) == (0.1 + 0.2, 1 / 3)

    def test_floats_next_to_the_float_max_stay_finite(self, capsys):
        # %.15g rounds +-top up to 1.79769313486232e+308, which reads back as inf; the
        # third value rounds down, to a finite text, and so is still rounded
        top = sys.float_info.max
        cli._emit_json({"top": [top, -top, 1.797693134862315e308]}, None)
        assert json.loads(capsys.readouterr().out)["top"] == [top, -top, 1.79769313486231e308]

    def test_modes_at_the_float_max_writes_finite_json(self, capsys):
        assert run(["modes", "--m=1.0", "--A=1.797693134862315e+308", "--C=0.0"]) == 0
        assert math.isfinite(json.loads(capsys.readouterr().out)["K"])


class TestUsage:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            run(["modes", "--m", "1", "--A", "2", "--C", "0", "--frobnicate"])
        assert exc.value.code == 2


# --- random argv ------------------------------------------------------------------

def _rarely(bad, good):
    """``good`` nine times in ten, else ``bad``."""
    return st.integers(0, 9).flatmap(lambda i: bad if i == 9 else good)


# option values as text: small floats, any float (nan, inf, subnormals, huge), ints up
# to a small cap so every run stays cheap, and paths under the example's directory
# ("{dir}"); now and then a text that argparse rejects or an int past the float range
_FLOAT = _rarely(
    st.sampled_from(["x", "1" + "0" * 400]),
    st.one_of(st.floats(-4.0, 4.0), st.floats()).map(repr),
)


def _count(cap):
    return _rarely(st.sampled_from(["1.5", "nan", ""]), st.integers(-3, cap).map(str))


def _path(name):
    return _rarely(st.just("{dir}/missing/" + name), st.just("{dir}/" + name))


_OVERLAYS = ["x,value\n0,1\n1,2\n2,4\n", "x,value\n0,1\n1,2,3\n", "x,value\n1,1\n0,2\n",
             "x,value\n0,nan\n1,2\n", "", "y,value\n0,1\n1,2\n"]

# each subcommand's options: (values, always given); boost and --kernel-csv always take
# --grid, as their default is the 401-node grid
_OPTIONS = {
    "modes": {"--m": (_FLOAT, True), "--A": (_FLOAT, True), "--C": (_FLOAT, True),
              "--out": (_path("modes.json"), False)},
    "entangle": {"--eta": (_FLOAT, True), "--kmax": (_count(128), False), "--omega": (_FLOAT, False),
                 "--out": (_path("entangle.json"), False), "--csv": (_path("p.csv"), False),
                 "--kernel-csv": (_path("k.csv"), False), "--grid": (_count(41), True),
                 "--extent": (_FLOAT, False)},
    "boost": {"--eta": (_FLOAT, True), "--grid": (_count(41), True), "--extent": (_FLOAT, False),
              "--out": (_path("boost.csv"), True)},
    "parton": {"--eta": (_FLOAT, True), "--overlay": (_path("overlay.csv"), False),
               "--n": (_count(101), False),
               "--rescale": (st.tuples(_FLOAT, _FLOAT).map(",".join), False),
               "--out": (_path("parton.csv"), True)},
    "sweep": {"--start": (_FLOAT, True), "--stop": (_FLOAT, True), "--steps": (_count(31), True),
              "--omega": (_FLOAT, False), "--out": (_path("sweep.csv"), True)},
}

# options main() reads only with (True) or only without (False) an earlier one; each is
# drawn only where it is read, so no example spends itself on those usage errors, which
# the usage tests above cover
_PAIRED = {("entangle", "--grid"): ("--kernel-csv", True),
           ("entangle", "--extent"): ("--kernel-csv", True),
           ("parton", "--n"): ("--overlay", False),
           ("parton", "--rescale"): ("--overlay", True)}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    drawn = {}
    for name, (values, given_always) in _OPTIONS[command].items():
        pair = _PAIRED.get((command, name))
        if pair and (pair[0] in drawn) != pair[1]:
            continue
        # a required option is left out now and then, for the usage error
        if draw(st.integers(0, 19)) < 19 if given_always else draw(st.booleans()):
            drawn[name] = draw(values)
    # sweep's bounds are drawn apart; where both parse and the start lies past the stop they
    # are swapped, as that usage error is the sweep usage test's to cover
    with contextlib.suppress(KeyError, ValueError):
        if float(drawn["--start"]) > float(drawn["--stop"]):
            drawn["--start"], drawn["--stop"] = drawn["--stop"], drawn["--start"]
    argv = [command] + [f"{name}={value}" for name, value in drawn.items()]
    if draw(st.integers(0, 9)) == 9:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus=1", "stray", "--eta"])))
    return argv, draw(st.sampled_from(_OVERLAYS))


def _strict_json(text):
    def reject(constant):
        raise AssertionError(f"JSON holds {constant}")

    return json.loads(text, parse_constant=reject)


@settings(max_examples=300, deadline=None)
@given(case=_argvs())
def test_random_argv_exits_cleanly(case):
    argv, overlay = case
    with tempfile.TemporaryDirectory() as d:
        with open(os.path.join(d, "overlay.csv"), "w", encoding="utf-8") as fh:
            fh.write(overlay)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main([arg.replace("{dir}", d) for arg in argv])
            except SystemExit as exc:
                code = exc.code
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2), (argv, code)
        if code == 0:
            assert err == ""
        elif code == 1:
            assert err.startswith("coupledosc: error: ") and err.count("\n") == 1 and err.endswith("\n")
        else:
            assert err.startswith("usage: coupledosc")
        if out:
            _strict_json(out)
        for name in ("modes.json", "entangle.json"):
            if os.path.exists(os.path.join(d, name)):
                with open(os.path.join(d, name), encoding="utf-8") as fh:
                    _strict_json(fh.read())
