"""Acceptance gate: every headline claim at its pinned tolerance.

Each criterion prints one PASS/FAIL line (run with -s to see them; the CLI
`verify` subcommand reports the same substance). Criterion 5 keeps its
uniform 1e-6 reconstruction gate at eta = 2 even though the exact truncation
tail of the 41-term expansion is ~1.57e-6 there; that leg is a strict
expected failure, and a companion criterion proves the measured error equals
the exact tail, so the residual is irreducible truncation rather than an
implementation defect. See README, Known limitations.
"""

import math

import numpy as np
import pytest

from coupledosc import cli, covariant, entanglement, oscillator, parton
from coupledosc.numerics import oracle_reduced_density
from reference import fock_projection

SEED = 20260819


def _report(num, name, ok, text):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({text})")
    return ok


def test_criterion_01_purity_three_routes():
    tol = 1e-6
    dev = 0.0
    for eta in (0.0, 0.5, 1.0, 2.0):
        closed = entanglement.purity(eta)
        dev = max(dev, abs(closed - entanglement.purity_series(eta, k_max=64)))
        dev = max(dev, abs(closed - oracle_reduced_density(eta).purity()))
    golden_dev = abs(entanglement.purity(1.0) - 0.648054)
    ok = dev < tol and golden_dev < 1e-6
    assert _report(1, "purity-three-routes", ok, f"max deviation {dev:.3e}, tolerance {tol:.1e}")


def test_criterion_02_entropy_dual_route():
    tol = 1e-9
    dev = 0.0
    for eta in (0.25, 0.5, 1.0, 2.0):
        p = entanglement.reduced_state(eta, k_max=128).eigenvalues
        p = p[p > 0]
        dev = max(dev, abs(entanglement.entropy(eta) - float(-np.sum(p * np.log(p)))))
    exact_zero = entanglement.entropy(0.0) == 0.0
    golden_dev = abs(entanglement.entropy(1.0) - 0.65948)
    ok = dev < tol and exact_zero and golden_dev < 1e-4
    assert _report(2, "entropy-dual-route", ok, f"max deviation {dev:.3e}, tolerance {tol:.1e}")


def test_criterion_03_thermal_mapping():
    tol = 1e-9
    dev = 0.0
    for eta in (0.5, 1.0, 2.0):
        tm = entanglement.effective_temperature(eta)
        dev = max(dev, abs(entanglement.thermal_entropy(tm.x) - entanglement.entropy(eta)))
    tm1 = entanglement.effective_temperature(1.0)
    goldens = abs(tm1.x - 1.543882) < 1e-3 and abs(tm1.temperature - 0.64772) < 1e-3
    ok = dev < tol and goldens
    assert _report(3, "thermal-mapping", ok, f"max deviation {dev:.3e}, tolerance {tol:.1e}")


def test_criterion_04_reduced_density_oracle():
    tol = 1e-6
    dev = 0.0
    trace_dev = 0.0
    for eta in (0.5, 1.0):
        kern = oracle_reduced_density(eta)
        p = entanglement.reduced_state(eta, k_max=10).eigenvalues
        for k in range(11):
            dev = max(dev, abs(fock_projection(kern, k) - p[k]))
        trace_dev = max(trace_dev, abs(kern.trace() - 1.0))
    ok = dev < tol and trace_dev < 1e-7
    assert _report(
        4,
        "reduced-density-oracle",
        ok,
        f"max projection deviation {dev:.3e} (tol {tol:.1e}), trace deviation {trace_dev:.3e}",
    )


def _reconstruction_deviation(eta):
    x = np.linspace(-3.0, 3.0, 15)
    X1, X2 = np.meshgrid(x, x, indexing="ij")
    exp_ = entanglement.schmidt_coefficients(eta, k_max=40)
    return float(np.max(np.abs(exp_.reconstruct(X1, X2) - oscillator.ground_state(X1, X2, eta))))


def test_criterion_05_schmidt_reconstruction_moderate_squeeze():
    tol = 1e-6
    dev = max(_reconstruction_deviation(eta) for eta in (0.5, 1.0))
    ok = dev < tol
    assert _report(
        5, "schmidt-reconstruction[eta<=1]", ok, f"max deviation {dev:.3e}, tolerance {tol:.1e}"
    )


@pytest.mark.xfail(
    strict=True,
    reason="the exact amplitude tail of the k<=40 expansion at eta=2 is ~1.57e-6, above "
    "the 1e-6 gate; the gate holds only for eta below ~1.9 and is deliberately not loosened",
)
def test_criterion_05_schmidt_reconstruction_eta_2():
    tol = 1e-6
    dev = _reconstruction_deviation(2.0)
    _report(
        5,
        "schmidt-reconstruction[eta=2]",
        dev < tol,
        f"max deviation {dev:.3e}, tolerance {tol:.1e}, expected failure: irreducible tail",
    )
    assert dev < tol


def test_criterion_05b_reconstruction_error_is_the_exact_tail():
    # the eta=2 residual must equal the explicit k>40 tail sum: nothing but
    # truncation separates the expansion from the ground state
    from coupledosc.numerics import hermite_basis

    x = np.linspace(-3.0, 3.0, 15)
    X1, X2 = np.meshgrid(x, x, indexing="ij")
    err = np.abs(
        entanglement.schmidt_coefficients(2.0, k_max=40).reconstruct(X1, X2)
        - oscillator.ground_state(X1, X2, 2.0)
    )
    c = entanglement.schmidt_coefficients(2.0, k_max=200).coefficients
    b1 = hermite_basis(200, X1.ravel())
    b2 = hermite_basis(200, X2.ravel())
    tail = np.abs((c[41:, None] * b1[41:] * b2[41:]).sum(axis=0).reshape(X1.shape))
    dev = float(np.max(np.abs(err - tail)))
    ok = dev < 1e-9
    assert _report(
        5,
        "reconstruction-error-is-exact-tail",
        ok,
        f"residual minus explicit tail {dev:.3e}, tolerance 1e-09",
    )


def test_criterion_06_covariance_suite():
    tol = 1e-12
    rng = np.random.default_rng(SEED)
    dev = 0.0
    det_dev = 0.0
    for _ in range(100):
        z, t = rng.uniform(-4, 4, 2)
        e1, e2 = rng.uniform(-2, 2, 2)
        p = covariant.SpacetimePoint(z=z, t=t)
        q1 = covariant.boost_point(covariant.boost_point(p, e1), e2)
        q2 = covariant.boost_point(p, e1 + e2)
        dev = max(dev, abs(q1.z - q2.z), abs(q1.t - q2.t))
        q = covariant.boost_point(p, e1)
        dev = max(dev, abs((q.z**2 - q.t**2) - (z**2 - t**2)) / max(1.0, abs(z**2 - t**2)))
        dev = max(
            dev,
            abs(covariant.boosted_wavefunction(q.z, q.t, e1) - covariant.dirac_gaussian(z, t)),
        )
        det_dev = max(det_dev, abs(float(np.linalg.det(covariant.boost_matrix(e1))) - 1.0))
    ok = dev < tol and det_dev < 1e-14
    assert _report(
        6,
        "covariance-suite",
        ok,
        f"100 seeded trials, max deviation {dev:.3e} (tol {tol:.1e}), det {det_dev:.3e}",
    )


def test_criterion_07_fourier_consistency():
    tol = 1e-6
    dev = max(covariant.fourier_consistency(eta) for eta in (0.0, 1.0, -1.0))
    ok = dev < tol
    assert _report(7, "fourier-consistency", ok, f"max deviation {dev:.3e}, tolerance {tol:.1e}")


def test_criterion_08_parton_widths_and_concentration():
    tol = 1e-6
    dev = 0.0
    for eta in (0.0, 1.0, 2.0):
        m = parton.longitudinal_density(eta)
        dev = max(dev, abs(m.variance - math.cosh(eta) / 2.0))
    frac = parton.lightcone_fraction(4.0, band=0.5)
    ok = dev < tol and frac > 0.95
    assert _report(
        8,
        "parton-widths-and-concentration",
        ok,
        f"max variance deviation {dev:.3e} (tol {tol:.1e}), lightcone fraction {frac:.4f} > 0.95",
    )


def test_criterion_09_cross_module_identity():
    tol = 1e-14
    x = np.linspace(-3, 3, 20)
    A, B = np.meshgrid(x, x, indexing="ij")
    dev = max(
        float(
            np.max(
                np.abs(oscillator.ground_state(A, B, e) - covariant.boosted_wavefunction(A, B, e))
            )
        )
        for e in (0.0, 0.7, 1.5)
    )
    ok = dev < tol
    assert _report(9, "cross-module-identity", ok, f"max deviation {dev:.3e}, tolerance {tol:.1e}")


def test_criterion_10_overlay_round_trip(tmp_path):
    src = tmp_path / "overlay.csv"
    back = tmp_path / "again.csv"
    xs = np.linspace(-3.0, 3.0, 41)
    parton.OverlaySeries(x=xs, values=parton.model_density(0.8, xs), source="synthetic").to_csv(src)
    parton.ingest_overlay(src).to_csv(back)
    ok = src.read_bytes() == back.read_bytes()
    assert _report(10, "overlay-round-trip", ok, "ingest then re-export is byte-identical")


def test_criterion_cli_end_to_end(tmp_path):
    # the CLI layer on top of the same numbers: entangle JSON and sweep CSV
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--start", "0", "--stop", "2", "--steps", "5", "--out", str(out)]) == 0
    rows = out.read_text(encoding="utf-8").splitlines()
    ok = len(rows) == 6 and rows[0] == "eta,purity,entropy,T,width_z,width_qz"
    entropies = [float(r.split(",")[2]) for r in rows[1:]]
    ok = ok and bool(np.all(np.diff(entropies) > 0))
    assert _report(11, "cli-end-to-end", ok, "sweep emits ordered, monotone rows")
