"""Command-line front end: mode data, entanglement summaries, boosted fields,
parton marginals, parameter sweeps, and the self-verification report.

All numeric output has 15 significant digits, from floats.format_floats, and
every file goes through one sink, floats.write_text. Every CSV is UTF-8 with LF
line endings and a header row: numerics.write_csv writes the array tables and
entanglement.write_sweep the sweep's rows, and _emit_json rounds every JSON float
through format_floats.
Every command is deterministic: the same invocation produces the same bytes
for one numpy version, one SIMD dispatch set and one BLAS thread count. At 1
and 2 OpenBLAS threads verify --out first differs at line 13, and the kernel
CSV too (ROADMAP item 2); with numpy's AVX-512 loops disabled, verify --out,
boost, the kernel CSV and the parton export move in their last digit (ROADMAP
item 7).
Each command imports what it runs, so modes, sweep, --help and usage errors
start without numpy. entangle runs every check on its input first and loads
numpy only in the array functions, after their guards, so each entangle input
error also exits without it; numerics loads only for --csv and --kernel-csv.
parton likewise checks --n and eta, and reads an overlay of at most
parton.LOOP_MAX_BYTES with its row loop, before it loads numpy, so a bad --n,
a bad eta or a malformed small overlay exits without it.

Exit codes: 0 success, 1 domain or data error (bad physics parameters,
unreadable overlay, failed verification), 2 usage error.

The coupledosc script and python -m coupledosc.cli enter through run(): it
calls main(), flushes stdout and stderr, and ends the process with os._exit,
skipping the interpreter's teardown of every module and array. Every file a
command writes is closed before main() returns. main() is the in-process API
and returns its exit code normally.
"""

import argparse
import math
import os
import sys

_PROG = "coupledosc"


def _emit_json(payload: dict, out: str | None) -> None:
    """Write ``payload`` as indented JSON to ``out`` or stdout, each float at any depth of dicts
    and lists rounded to its format_floats text, as CSV writes it, unless that text would read
    back as inf; other values pass through."""
    import json

    from .floats import format_floats, write_text

    def rounded(value):
        if isinstance(value, float):
            # the text of a float within half a 15th-digit unit of the float max reads
            # back as inf; such a value is written unrounded, so finite stays finite
            text = float(format_floats((value,))[0])
            return value if math.isinf(text) and not math.isinf(value) else text
        if isinstance(value, dict):
            return {key: rounded(item) for key, item in value.items()}
        return [rounded(item) for item in value] if isinstance(value, list) else value

    text = json.dumps(rounded(payload), indent=2) + "\n"
    if not out and sys.stdout is None:
        raise OSError("stdout is closed; use --out to write the JSON to a file")
    write_text(out or sys.stdout, (text,))


def cmd_modes(args) -> int:
    from . import oscillator

    params = oscillator.CoupledParams(m=args.m, A=args.A, C=args.C)
    modes = oscillator.normal_modes(params)
    # the records' field order is the JSON key order
    _emit_json(vars(params) | vars(modes), args.out)
    return 0


def cmd_entangle(args) -> int:
    from . import entanglement

    # every check that can reject the input runs before numpy loads; schmidt_coefficients takes
    # every input _check_spectrum passes, so the arrays cannot raise and the scalars may run first
    entanglement._check_spectrum(args.eta, args.kmax)
    x, temperature = entanglement._thermal_map(args.eta, entanglement.check_omega(args.omega))
    purity, entropy = entanglement.purity(args.eta), entanglement.entropy(args.eta)
    exp_ = entanglement.schmidt_coefficients(args.eta, k_max=args.kmax)
    rs = entanglement.reduced_state(args.eta, k_max=args.kmax)
    _emit_json(
        {
            "eta": args.eta,
            "k_max": args.kmax,
            "omega": args.omega,
            "coeffs": exp_.coefficients.tolist(),
            "eigenvalues": rs.eigenvalues.tolist(),
            "tail": rs.tail,
            "purity": purity,
            "entropy": entropy,
            "x": x,
            "T": temperature,
        },
        args.out,
    )
    if args.csv:
        import numpy as np

        from .numerics import write_csv

        write_csv(args.csv, ("k", "p_k"), (np.arange(rs.eigenvalues.size), rs.eigenvalues))
    if args.kernel_csv:
        from .numerics import DEFAULT_COUNT, DEFAULT_EXTENT, oracle_reduced_density, uniform_grid

        count = DEFAULT_COUNT if args.grid is None else args.grid
        extent = DEFAULT_EXTENT if args.extent is None else args.extent
        kern = oracle_reduced_density(args.eta, uniform_grid(count, extent))
        kern.to_csv(args.kernel_csv)
    return 0


def cmd_boost(args) -> int:
    from . import covariant
    from .numerics import uniform_grid, write_csv

    nodes = uniform_grid(args.grid, args.extent).nodes
    z, t = nodes[:, None], nodes[None, :]
    psi = covariant.boosted_wavefunction(z, t, args.eta)
    # phi_eta(z, t) = psi_eta(t, z) is bit-equal to psi: t + z == z + t in IEEE
    # arithmetic and t - z is negated, then squared; psi is rendered for both
    write_csv(args.out, ("z", "t", "psi", "qz", "q0", "phi"), (z, t, psi, z, t, psi))
    return 0


def cmd_parton(args) -> int:
    from . import parton

    if args.overlay:
        # a malformed small overlay is rejected before numpy loads
        series = parton.ingest_overlay(args.overlay)
        import numpy as np

        from .numerics import write_csv

        shift, scale = args.rescale if args.rescale else (0.0, 1.0)
        with np.errstate(over="ignore"):
            coords = shift + scale * series.x
        if not np.all(np.isfinite(coords)):
            x = series.x[~np.isfinite(coords)][0]
            raise ValueError(
                f"--rescale {shift:g},{scale:g} takes overlay x = {x:g} past the float range; "
                f"use a smaller scale or shift"
            )
        dens = parton.model_density(args.eta, coords)
        header = ("coordinate", "model_density", "overlay_value")
        write_csv(args.out, header, (coords, dens, series.values))
    else:
        parton.export_gaussian_pdf(args.eta, 101 if args.n is None else args.n, args.out)
    return 0


def cmd_sweep(args) -> int:
    from . import entanglement

    entanglement.write_sweep(args.out, args.start, args.stop, args.steps, args.omega)
    return 0


def cmd_verify(args) -> int:
    from . import verify

    checks = verify.run_all()
    for r in checks:
        status = "PASS" if r.passed else "FAIL"
        line = f"{status} {r.name}: deviation {r.deviation:.3e} vs tolerance {r.tolerance:.3e}"
        if r.detail and not r.passed:
            line += f" ({r.detail})"
        print(line)
    n_pass = sum(1 for r in checks if r.passed)
    overall_pass = n_pass == len(checks)
    print(f"overall: {'PASS' if overall_pass else 'FAIL'} ({n_pass}/{len(checks)} checks)")
    if args.out:
        # CheckResult's field order is the JSON key order
        rows = [vars(r) for r in checks]
        _emit_json({"checks": rows, "overall_pass": overall_pass}, args.out)
    return 0 if overall_pass else 1


def _rescale_arg(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected shift,scale")
    try:
        shift, scale = float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"could not parse {text!r} as shift,scale") from None
    if not (math.isfinite(shift) and math.isfinite(scale)) or scale <= 0.0:
        raise argparse.ArgumentTypeError("rescale needs finite shift and positive scale")
    return shift, scale


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=_PROG, description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("modes", help="normal-mode data for given couplings")
    p.add_argument("--m", type=float, required=True, help="mass")
    p.add_argument("--A", type=float, required=True, help="diagonal stiffness")
    p.add_argument("--C", type=float, required=True, help="cross coupling, |C| < A")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_modes)

    p = sub.add_parser("entangle", help="Schmidt data, purity, entropy, temperature")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--kmax", type=int, default=64)
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.add_argument("--csv", help="also write (k, p_k) rows here")
    p.add_argument("--kernel-csv", dest="kernel_csv", help="dump the quadrature density kernel")
    p.add_argument("--grid", type=int, help="kernel grid nodes")
    p.add_argument("--extent", type=float, help="kernel grid half-width")
    p.set_defaults(func=cmd_entangle)

    p = sub.add_parser("boost", help="tabulate psi_eta and phi_eta on a mesh")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--grid", type=int, default=401)
    p.add_argument("--extent", type=float, default=8.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_boost)

    p = sub.add_parser("parton", help="longitudinal marginal, optionally against an overlay")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--n", type=int, help="points when exporting without overlay")
    p.add_argument("--overlay", help="reference CSV with header x,value")
    p.add_argument("--rescale", type=_rescale_arg, help="shift,scale applied to overlay x")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_parton)

    p = sub.add_parser("sweep", help="CSV of closed-form observables over an eta range")
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run every consistency check and report")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "sweep" and args.start > args.stop:
        parser.error("--start must not exceed --stop")
    if args.command == "parton" and args.rescale and not args.overlay:
        parser.error("--rescale needs --overlay")
    if args.command == "parton" and args.n is not None and args.overlay:
        parser.error("--n sizes the export without --overlay")
    if args.command == "entangle" and (args.grid, args.extent) != (None, None) and not args.kernel_csv:
        parser.error("--grid and --extent shape the --kernel-csv grid")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"{_PROG}: error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """Process entry point: main(), then flush both streams and os._exit without teardown."""
    try:
        code = main()
    except SystemExit as exc:  # argparse's exit code for --help and usage errors
        code = exc.code
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except (OSError, ValueError):
        # a pipe closed early or a full disk: leave the report and the exit
        # status to the normal shutdown
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
