"""The verify checks that share inputs give the bits of the loops they replaced."""

import math

from coupledosc import entanglement, oscillator, parton, verify
from coupledosc.numerics import hermite_fn, integrate_2d


def count_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: calls.append(a) or fn(*a, **k))
    return calls


def test_schmidt_vs_quadrature_evaluates_the_ground_state_once_per_eta(monkeypatch):
    calls = count_calls(monkeypatch, oscillator, "ground_state")
    result = verify.check_schmidt_vs_quadrature()
    assert [a[2] for a in calls] == [0.5, 1.0]
    # the loop it replaced, with the ground state inside every integrand
    dev = 0.0
    for e in (0.5, 1.0):
        coeffs = entanglement.schmidt_coefficients(e, k_max=10).coefficients
        for k in range(11):
            proj = integrate_2d(
                lambda a, b, e=e, k=k: hermite_fn(k, a) * hermite_fn(k, b) * oscillator.ground_state(a, b, e)
            )
            dev = max(dev, abs(proj - coeffs[k]))
    assert result.deviation == dev


def test_schmidt_offdiagonal_evaluates_the_ground_state_once(monkeypatch):
    calls = count_calls(monkeypatch, oscillator, "ground_state")
    result = verify.check_schmidt_offdiagonal()
    assert [a[2] for a in calls] == [1.0]
    dev = max(
        abs(integrate_2d(
            lambda a, b, j=j, k=k: hermite_fn(j, a) * hermite_fn(k, b) * oscillator.ground_state(a, b, 1.0)
        ))
        for j in range(4) for k in range(4) if j != k
    )
    assert result.deviation == dev


def test_parton_checks_share_the_marginals(monkeypatch):
    monkeypatch.setattr(verify, "_MARGINALS", {})
    calls = count_calls(monkeypatch, parton, "longitudinal_density")
    law, growth = verify.check_marginal_variance_law(), verify.check_width_co_growth()
    assert sorted(calls) == sorted({(e, v) for e in (0.0, 0.5, 1.0, 1.5, 2.0) for v in ("z", "qz")})
    dev = max(abs(parton.longitudinal_density(e, v).variance - math.cosh(e) / 2.0)
              for e in (0.0, 0.5, 1.0, 2.0) for v in ("z", "qz"))
    assert law.deviation == dev
    assert growth.passed
