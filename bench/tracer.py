"""Run one coupledosc CLI call in this process with a span around every layer call.

    PYTHONPATH=src python3 bench/tracer.py SPANS.json -- <coupledosc arguments>
    PYTHONPATH=src python3 bench/tracer.py --check

The wrappers live here, not in ``src/``. ``cli`` and ``verify`` bind layer
functions with ``from ... import``, so every loaded ``coupledosc`` module that
holds a target function gets the wrapper, not only the defining one. Each
``verify.CHECKS`` entry is wrapped in place, and ``numpy.meshgrid`` is wrapped
to count mesh builds and the bytes they allocate. A target that no longer
exists raises at install time, so a rename is an error, not a zero.

Spans are ``[name, start_ns, end_ns, parent_index, bytes]``, kept in memory and
written as JSON when the call ends, also when it ends in an exception (which
then propagates unchanged, so exit code and stderr match an untraced call).
"""

import functools
import json
import sys
import time

# defining module -> functions wrapped there (and wherever they are re-bound)
TARGETS = {
    "cli": ("main", "cmd_modes", "cmd_entangle", "cmd_boost", "cmd_parton", "cmd_sweep", "cmd_verify"),
    "numerics": ("integrate_2d", "hermite_fn", "hermite_basis", "oracle_reduced_density",
                 "DensityKernel.to_csv"),
    "oscillator": ("ground_state",),
    "entanglement": ("purity", "entropy", "effective_temperature", "schmidt_coefficients",
                     "reduced_state"),
    "covariant": ("boosted_wavefunction", "momentum_wavefunction", "fourier_consistency"),
    "parton": ("width", "model_density", "export_gaussian_pdf", "ingest_overlay",
               "longitudinal_density", "lightcone_fraction"),
    "verify": ("_kernel",),
}

# the registry, in order; verify.<name>.ms is reported for each
CHECK_NAMES = (
    "grid_gaussian_integral", "hermite_orthonormality_wide", "hermite_orthonormality_default",
    "hermite_stability_k128", "oracle_kernel_symmetry", "oracle_kernel_trace",
    "pure_state_idempotency", "normal_mode_frequencies", "hamiltonian_form_equivalence",
    "ground_state_normalization", "ground_state_peak_bound", "separability_zero_coupling",
    "schmidt_normalization", "schmidt_vs_quadrature", "schmidt_offdiagonal",
    "reduced_eigenvalues_vs_oracle", "eigenvalue_normalization", "purity_closed_vs_series",
    "purity_closed_vs_grid", "entropy_closed_vs_sum", "entropy_symmetry",
    "entanglement_monotonicity", "thermal_equivalence", "thermal_zero_temperature_limit",
    "schmidt_reconstruction", "schmidt_truncation_tail_identity", "boost_composition",
    "boost_determinant", "boost_invariance", "lightcone_roundtrip", "covariance_identity",
    "squeeze_reciprocity", "cross_module_identity", "fourier_consistency",
    "wave_equation_zero_mode", "marginal_variance_law", "marginal_mass_containment",
    "width_co_growth", "lightcone_concentration", "export_area", "overlay_roundtrip",
    "cli_determinism",
)


class Recorder:
    """Keeps the spans of one process; ``wrap`` makes a function record one per call."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, count_bytes=False):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter_ns(), 0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if count_bytes:
                    span[4] = sum(a.nbytes for a in result)
                return result
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()

        return traced


def install(rec: Recorder) -> None:
    """Wrap every target; raise LookupError when one is missing."""
    import importlib

    import numpy

    import coupledosc.cli  # noqa: F401  (loads every module the CLI reaches)

    modules = [m for n, m in sys.modules.items() if n == "coupledosc" or n.startswith("coupledosc.")]
    for modname, names in TARGETS.items():
        mod = importlib.import_module(f"coupledosc.{modname}")
        for name in names:
            owner_name, _, attr = name.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            orig = getattr(owner, attr, None) if owner is not None else None
            if not callable(orig):
                raise LookupError(f"coupledosc.{modname}.{name} is missing; update bench/tracer.py")
            wrapped = rec.wrap(f"{modname}.{name}", orig)
            if owner_name:
                setattr(owner, attr, wrapped)
                continue
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)

    from coupledosc import verify

    found = tuple(fn.__name__.removeprefix("check_") for fn in verify.CHECKS)
    if found != CHECK_NAMES:
        raise LookupError(
            f"verify.CHECKS changed: missing {sorted(set(CHECK_NAMES) - set(found))}, "
            f"new {sorted(set(found) - set(CHECK_NAMES))}; update bench/tracer.py"
        )
    for i, fn in enumerate(verify.CHECKS):
        verify.CHECKS[i] = rec.wrap(f"verify.{found[i]}", fn)
    numpy.meshgrid = rec.wrap("numpy.meshgrid", numpy.meshgrid, count_bytes=True)


def main(argv: list) -> int:
    rec = Recorder()
    install(rec)
    if argv == ["--check"]:
        return 0
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <coupledosc arguments> | tracer.py --check", file=sys.stderr)
        return 2
    from coupledosc import cli

    try:
        return cli.main(argv[2:])
    finally:
        with open(argv[0], "w", encoding="utf-8") as fh:
            json.dump(rec.spans, fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
