"""Command-line front end: mode data, entanglement summaries, boosted fields,
parton marginals, parameter sweeps, and the self-verification report.

All numeric output is rendered at 15 significant digits. Every CSV is
UTF-8 with LF line endings and a header row: numerics.write_csv writes the
array tables, and sweep writes its rows with floats.format_floats, which
write_csv's renderer also uses for the values it leaves to Python. Every
command is deterministic: the same invocation produces the same bytes. Each
command imports what it runs, so modes, sweep, --help and usage errors
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
from array import array

_PROG = "coupledosc"

# rows of the sweep formatted and written at a time, so its text stays a bounded size
_SWEEP_BLOCK_ROWS = 4096


def _f(x):
    """Round-trip a float through format_floats so JSON and CSV agree on rendering."""
    from .floats import format_floats

    return float(format_floats((x,))[0])


def _emit_json(payload: dict, out: str | None) -> None:
    import json

    text = json.dumps(payload, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    elif sys.stdout is None:
        raise OSError("stdout is closed; use --out to write the JSON to a file")
    else:
        sys.stdout.write(text)


def cmd_modes(args) -> int:
    from . import oscillator

    params = oscillator.CoupledParams(m=args.m, A=args.A, C=args.C)
    modes = oscillator.normal_modes(params)
    # the records' field order is the JSON key order
    _emit_json({k: _f(v) for k, v in (vars(params) | vars(modes)).items()}, args.out)
    return 0


def cmd_entangle(args) -> int:
    from . import entanglement

    # every check that can reject the input runs before numpy loads; once their guards
    # pass, the two arrays cannot raise, so the scalars may run ahead of them
    if args.kmax < 0:
        raise ValueError(f"--kmax must be nonnegative, got {args.kmax}")
    entanglement._check_schmidt(args.eta, args.kmax)
    entanglement._check_spectrum(args.eta, args.kmax)
    x, temperature = entanglement._thermal_map(args.eta, entanglement.check_omega(args.omega))
    purity, entropy = entanglement.purity(args.eta), entanglement.entropy(args.eta)
    exp_ = entanglement.schmidt_coefficients(args.eta, k_max=args.kmax)
    rs = entanglement.reduced_state(args.eta, k_max=args.kmax)
    _emit_json(
        {
            "eta": _f(args.eta),
            "k_max": args.kmax,
            "omega": _f(args.omega),
            "coeffs": [_f(c) for c in exp_.coefficients],
            "eigenvalues": [_f(p) for p in rs.eigenvalues],
            "tail": _f(rs.tail),
            "purity": _f(purity),
            "entropy": _f(entropy),
            "x": None if x is None else _f(x),
            "T": _f(temperature),
        },
        args.out,
    )
    if args.csv:
        import numpy as np

        from .numerics import write_csv

        write_csv(args.csv, ("k", "p_k"), (np.arange(rs.eigenvalues.size), rs.eigenvalues))
    if args.kernel_csv:
        from .numerics import oracle_reduced_density, uniform_grid

        kern = oracle_reduced_density(args.eta, uniform_grid(args.grid, args.extent))
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
        parton.export_gaussian_pdf(args.eta, args.n, args.out)
    return 0


def _linspace(start: float, stop: float, steps: int) -> array:
    """np.linspace(start, stop, steps), bit for bit, as an array of doubles."""
    delta = stop - start
    div = steps - 1
    if div == 0:
        return array("d", [0.0 * delta + start])
    step = delta / div
    if step == 0.0:
        # numpy's branch for a step that underflows: divide i before scaling by delta
        grid = array("d", (i / div * delta + start for i in range(steps)))
    else:
        grid = array("d", (i * step + start for i in range(steps)))
    grid[-1] = stop
    return grid


def _write_sweep(dest, start: float, stop: float, steps: int, omega: float) -> None:
    from . import entanglement
    from .floats import check_table_size, format_floats

    check_table_size(steps, f"a sweep of --steps={steps} rows", "use fewer steps")
    if not math.isfinite(stop - start):
        raise ValueError(
            f"the sweep range {start:g} to {stop:g} has no finite width; use a narrower range"
        )
    omega = entanglement.check_omega(omega)
    etas = _linspace(start, stop, steps)

    def temperature(eta):
        return entanglement._thermal_map(eta, omega)[1]

    # column by column, as doubles: a value that fails raises before any file is opened
    columns = [etas] + [
        array("d", map(f, etas))
        for f in (entanglement.purity, entanglement.entropy, temperature, entanglement.width)
    ]

    def text():
        yield "eta,purity,entropy,T,width_z,width_qz\n"
        for first in range(0, steps, _SWEEP_BLOCK_ROWS):
            block = (format_floats(c[first:first + _SWEEP_BLOCK_ROWS]) for c in columns)
            yield "".join(f"{e},{p},{s},{t},{w},{w}\n" for e, p, s, t, w in zip(*block))

    if hasattr(dest, "write"):
        dest.writelines(text())
    else:
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(text())


def cmd_sweep(args) -> int:
    _write_sweep(args.out, args.start, args.stop, args.steps, args.omega)
    return 0


def cmd_verify(args) -> int:
    from . import verify

    report = verify.run_all()
    for r in report.checks:
        status = "PASS" if r.passed else "FAIL"
        line = f"{status} {r.name}: deviation {r.deviation:.3e} vs tolerance {r.tolerance:.3e}"
        if r.detail and not r.passed:
            line += f" ({r.detail})"
        print(line)
    n_pass = sum(1 for r in report.checks if r.passed)
    print(f"overall: {'PASS' if report.overall_pass else 'FAIL'} ({n_pass}/{len(report.checks)} checks)")
    if args.out:
        _emit_json({
            # CheckResult's field order is the JSON key order
            "checks": [
                vars(r) | {"deviation": _f(r.deviation), "tolerance": _f(r.tolerance)}
                for r in report.checks
            ],
            "overall_pass": report.overall_pass,
        }, args.out)
    return 0 if report.overall_pass else 1


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
    p.add_argument("--grid", type=int, default=401, help="kernel grid nodes")
    p.add_argument("--extent", type=float, default=8.0, help="kernel grid half-width")
    p.set_defaults(func=cmd_entangle)

    p = sub.add_parser("boost", help="tabulate psi_eta and phi_eta on a mesh")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--grid", type=int, default=401)
    p.add_argument("--extent", type=float, default=8.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_boost)

    p = sub.add_parser("parton", help="longitudinal marginal, optionally against an overlay")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--n", type=int, default=101, help="points when exporting without overlay")
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
    if args.command == "sweep":
        if args.steps < 1:
            parser.error("--steps must be at least 1")
        if args.start > args.stop:
            parser.error("--start must not exceed --stop")
    if args.command == "boost" and args.grid < 2:
        parser.error("--grid must be at least 2")
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
    if __spec__ is not None:
        # verify's `from . import cli` then finds this module instead of running cli.py again
        sys.modules.setdefault(__spec__.name, sys.modules[__name__])
    run()
