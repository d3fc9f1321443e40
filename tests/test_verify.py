"""The verify registry, and the checks that share inputs give the bits of the loops they replaced.

The seeded checks draw from a pure-Python copy of np.random.default_rng, started
from numpy's recorded PCG64 states; the states and the copy are tested against
numpy here.
"""

import math
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from coupledosc import covariant, entanglement, numerics, oscillator, parton, verify
from coupledosc.numerics import default_grid, hermite_fn, integrate_2d, oracle_reduced_density
from reference import fock_projection


@pytest.fixture(scope="module")
def results():
    return verify.run_all()


@pytest.fixture
def registry():
    saved = list(verify.CHECKS)
    yield verify.CHECKS
    verify.CHECKS[:] = saved


def test_registry_holds_42_uniquely_named_checks(results):
    assert len(verify.CHECKS) == 42
    assert len({r.name for r in results}) == 42


def test_each_entry_is_the_module_function_named_after_its_result(results):
    for entry, result in zip(verify.CHECKS, results, strict=True):
        assert entry.__name__ == "check_" + result.name
        assert getattr(verify, entry.__name__) is entry


def test_run_all_runs_entries_replaced_in_place(registry, results):
    # the benchmark tracer wraps each entry in place; run_all must run the wrappers
    ran = []
    for i, result in enumerate(results):
        registry[i] = lambda result=result: ran.append(result.name) or result
    assert verify.run_all() == results
    assert ran == [r.name for r in results]


def test_benchmark_tracer_finds_every_check_and_traced_function():
    # bench/tracer.py raises when a verify check or a layer function it wraps is renamed or
    # removed, so deleting a name the benchmark traces fails here, not in a benchmark run
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "bench/tracer.py", "--check"], cwd=root, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_lightcone_concentration_detail_carries_the_fraction():
    result = verify.check_lightcone_concentration()
    frac = parton.lightcone_fraction(4.0, band=0.5)
    assert result.detail == f"mass within |v| < 0.5 at eta=4 is {frac:.6f} (must exceed 0.95)"
    assert result.deviation == max(0.0, 0.95 - frac)


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


@pytest.mark.parametrize("name", ["schmidt_vs_quadrature", "schmidt_offdiagonal"])
def test_schmidt_checks_project_through_one_hermite_table(monkeypatch, name):
    calls = {"hermite_basis": count_calls(monkeypatch, verify, "hermite_basis")}
    calls.update((fn, count_calls(monkeypatch, numerics, fn)) for fn in ("hermite_fn", "integrate_2d"))
    getattr(verify, "check_" + name)()
    assert {fn: len(c) for fn, c in calls.items()} == {"hermite_basis": 1, "hermite_fn": 0, "integrate_2d": 0}


def test_run_all_contracts_tables_not_integrands_rows_or_projections(monkeypatch):
    # every 2-D quantity is contracted on a tabulated mesh and every Hermite row is read from
    # a hermite_basis table, so numerics' per-integrand and per-row routes never run; the
    # per-k projection is no longer in the package, only in tests/reference.py
    assert not hasattr(verify, "integrate_2d") and not hasattr(verify, "hermite_fn")
    assert not hasattr(numerics.DensityKernel, "fock_projection")
    calls = {fn: count_calls(monkeypatch, numerics, fn) for fn in ("integrate_2d", "hermite_fn")}
    verify._kernel.cache_clear()
    verify.run_all()
    assert {fn: len(c) for fn, c in calls.items()} == dict.fromkeys(calls, 0)


def test_mass_checks_give_the_bits_of_integrate_2d():
    # the loops they replaced, with the wavefunction squared inside each integrand
    normalization = max(
        abs(integrate_2d(lambda a, b, e=e: oscillator.ground_state(a, b, e) ** 2) - 1.0)
        for e in (0.0, 1.0, 2.0)
    )
    containment = max(
        abs(integrate_2d(lambda a, b, e=e: covariant.boosted_wavefunction(a, b, e) ** 2) - 1.0)
        for e in (0.0, 1.0, 2.0)
    )
    assert verify.check_ground_state_normalization().deviation == normalization
    assert verify.check_marginal_mass_containment().deviation == containment


def test_schmidt_vs_quadrature_deviation_ignores_the_blas_thread_count():
    # b @ psi @ b.T is a matrix product whose deviation reaches verify --out; the two runs are
    # compared with each other, not with a constant, so the test holds on any BLAS
    code = "from coupledosc import verify; print(repr(verify.check_schmidt_vs_quadrature().deviation))"
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_parton_checks_share_the_marginals(monkeypatch):
    # the qz marginal is the z reduction, so one marginal per eta serves both checks
    verify._marginal.cache_clear()
    calls = count_calls(monkeypatch, parton, "longitudinal_density")
    law, growth = verify.check_marginal_variance_law(), verify.check_width_co_growth()
    assert sorted(calls) == [(e,) for e in (0.0, 0.5, 1.0, 1.5, 2.0)]
    # the deviations of the loops they replaced, which took a z and a qz marginal per eta;
    # one marginal now stands for both
    dev = max(abs(parton.longitudinal_density(e).variance - math.cosh(e) / 2.0)
              for e in (0.0, 0.5, 1.0, 2.0))
    assert law.deviation == dev
    prods, dev = [], 0.0
    for e in (0.0, 0.5, 1.0, 1.5, 2.0):
        sz = sq = math.sqrt(parton.longitudinal_density(e).variance)
        prods.append(sz * sq)
        dev = max(dev, abs(sz * sq - math.cosh(e) / 2.0))
    assert growth.deviation == max(dev, float(np.max(-np.diff(prods))), 0.0)
    assert growth.passed


KERNEL_ETAS = (0.0, 0.5, 1.0, 2.0)
KERNEL_CHECKS = ("oracle_kernel_symmetry", "oracle_kernel_trace",
                 "reduced_eigenvalues_vs_oracle", "purity_closed_vs_grid")


def test_kernel_cache_holds_readings_not_tables():
    verify._kernel.cache_clear()
    verify.run_all()
    info = verify._kernel.cache_info()
    assert info.currsize == len(KERNEL_ETAS)
    readings = [verify._kernel(e) for e in KERNEL_ETAS]
    assert verify._kernel.cache_info().misses == info.misses
    for r in readings:
        assert list(vars(r)) == ["trace", "purity", "asymmetry", "fock"]
        assert all(type(v) is float for v in (r.trace, r.purity, r.asymmetry, *r.fock))


@pytest.mark.parametrize("eta", KERNEL_ETAS)
def test_kernel_readings_are_the_methods_bits(eta):
    kern, r = oracle_reduced_density(eta), verify._kernel(eta)
    assert repr(r.trace) == repr(kern.trace())
    assert repr(r.purity) == repr(kern.purity())
    assert repr(r.asymmetry) == repr(kern.asymmetry())
    assert repr(r.fock) == repr(tuple(fock_projection(kern, k) for k in range(11)))


def test_kernel_checks_keep_the_deviations_of_the_method_calls():
    kern = {e: oracle_reduced_density(e) for e in KERNEL_ETAS}
    assert verify.check_oracle_kernel_symmetry().deviation == kern[1.0].asymmetry()
    assert verify.check_oracle_kernel_trace().deviation == max(
        abs(kern[e].trace() - 1.0) for e in (0.5, 1.0, 2.0))
    dev = 0.0
    for e in (0.5, 1.0, 2.0):
        p = entanglement.reduced_state(e, k_max=10).eigenvalues
        for k in range(11):
            dev = max(dev, abs(fock_projection(kern[e], k) - p[k]))
    assert verify.check_reduced_eigenvalues_vs_oracle().deviation == dev
    assert verify.check_purity_closed_vs_grid().deviation == max(
        abs(entanglement.purity(e) - kern[e].purity()) for e in KERNEL_ETAS)


def test_kernel_checks_hold_one_table_at_a_time():
    # each kernel is read and freed inside _kernel: the table and one temporary at a time
    verify._kernel.cache_clear()
    checks = [c for c in verify.CHECKS if c.__name__.removeprefix("check_") in KERNEL_CHECKS]
    assert len(checks) == len(KERNEL_CHECKS)
    n = default_grid().nodes.size
    tracemalloc.start()
    try:
        for run in checks:
            run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * n * n * 8


# the (low, high) pairs the seeded checks draw over
DRAWS = [(0.5, 5.0), (-0.9, 0.9), (0.2, 3.0), (-3, 3), (-5, 5), (-2, 2)]
SEEDS = [verify._SEED, verify._SEED + 1, verify._SEED + 2]
# numpy's C uniform computes low + range * d; x86-64 rounds it twice, as the copy
# does, where an arm64 compiler may fuse it into one FMA
ROUNDS_TWICE = platform.machine().lower() in ("x86_64", "amd64")


def draw_both(seed, n=2400):
    """n uniform draws from numpy and from verify's copy: scalar and size-2 calls in turn."""
    ours, theirs = [], []
    rng, copy = np.random.default_rng(seed), verify._DefaultRng(seed)
    for i in range(n // 3):
        low, high = DRAWS[i % len(DRAWS)]
        ours += [copy.uniform(low, high), *copy.uniform(low, high, 2)]
        theirs += [rng.uniform(low, high), *rng.uniform(low, high, 2)]
    return ours, theirs


def test_recorded_states_are_the_verify_seeds():
    assert list(verify._PCG64_STATES) == SEEDS


@pytest.mark.parametrize("seed", SEEDS)
def test_recorded_states_are_numpy_s_seeded_pcg64(seed):
    state = np.random.PCG64(seed).state["state"]
    assert verify._PCG64_STATES[seed] == (state["state"], state["inc"])


@pytest.mark.parametrize("seed", SEEDS)
def test_default_rng_copy_draws_numpy_s_doubles(seed):
    rng, copy = np.random.default_rng(seed), verify._DefaultRng(seed)
    assert [copy.random() for _ in range(2000)] == [rng.random() for _ in range(2000)]


@pytest.mark.parametrize("seed", SEEDS)
def test_default_rng_copy_draws_numpy_s_uniforms(seed):
    ours, theirs = draw_both(seed)
    if ROUNDS_TWICE:
        assert ours == theirs
    else:
        assert all(abs(a - b) <= math.ulp(b) for a, b in zip(ours, theirs, strict=True))


@pytest.mark.parametrize("seed", [-1, 0, verify._SEED - 1, verify._SEED + 3, 2**32, 2**64])
def test_default_rng_copy_takes_the_recorded_seeds_only(seed):
    with pytest.raises(KeyError):
        verify._DefaultRng(seed)


@pytest.mark.parametrize(
    "name", ["hamiltonian_form_equivalence", "boost_composition", "boost_invariance", "covariance_identity"]
)
def test_seeded_checks_give_the_bits_of_numpy_s_generator(monkeypatch, name):
    if not ROUNDS_TWICE:
        ours, theirs = draw_both(verify._SEED, n=600)
        if ours != theirs:
            pytest.skip("numpy's uniform rounds low + range * d once here, the copy twice")
    check = getattr(verify, "check_" + name)
    result = check()
    # the generator the checks drew from before the copy
    monkeypatch.setattr(verify, "_DefaultRng", np.random.default_rng)
    assert check() == result
