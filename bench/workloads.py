"""Seeded op lists for the three benchmark workloads.

Every op is one `coupledosc` CLI call run in a fresh process from the work
directory. A workload is a list of pass variants; a run repeats whole passes,
variant ``p % VARIANTS`` on pass ``p``, so every pass has the same mix of op
kinds (and therefore the same layer call counts) while the argument values
move with the variant. The same seed gives the same argv and the same input
file bytes; the CLI sees nothing but those.

Why each workload:

* ``export`` -- the large-table writers at their CLI defaults. Formatting and
  writing take most of each call; the overlay op adds the CSV reader, so a
  writer gain that costs the reader shows.
* ``interactive`` -- many small calls, as in a shell loop, with a fixed share
  of reject-path ops. Start-up, argument handling and error handling dominate;
  it is the no-change control for formatting and quadrature work.
* ``verify`` -- ``coupledosc verify --out report.json``. Nearly all of the
  time is quadrature inside the 42 checks. The registry fixes its inputs, so
  the seed does not change it.
"""

import random
from dataclasses import dataclass, field

WORKLOADS = ("export", "interactive", "verify")
VARIANTS = 8
DEFAULT_SEED = 1

# largest |eta| the default 401-node, extent-8 grid resolves is ln 8 ~ 2.079
RESOLVED_ETA = 2.0
OVERLAY_ROWS = 100_000
BAD_OVERLAY_ROWS = 200
EXPORT_N = 100_001
EXPORT_STEPS = 10_001


@dataclass(frozen=True)
class Op:
    """One CLI call: its kind, argv, expected exit code and output file.

    ``params`` holds the values the checker needs to recompute the output
    from closed forms (the parsed floats of the argv, row counts, the line a
    malformed overlay breaks on).
    """

    kind: str
    argv: tuple
    expect_exit: int = 0
    out: str | None = None
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Plan:
    workload: str
    seed: int
    passes: tuple  # VARIANTS tuples of Op
    inputs: dict  # file name -> bytes, written to the work directory at set-up


def _num(x: float) -> str:
    return f"{x:.6g}"


def _opts(**values) -> tuple:
    # one "--name=value" token each: argparse reads "--eta -3e-05" as two options
    return tuple(f"--{name.replace('_', '-')}={value}" for name, value in values.items())


def _eta(rng: random.Random, lo: float, hi: float) -> float:
    # |eta| in [lo, hi] with a random sign, rounded to what the argv carries
    return float(_num(rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)))


def _sweep(rng: random.Random, steps: int, out: str) -> Op:
    # start > 0 keeps eta = 0 (no effective temperature) out of the sweep,
    # so the number of closed-form calls does not depend on the seed
    start = float(_num(rng.uniform(0.05, 1.0)))
    stop = float(_num(rng.uniform(start + 0.5, 3.0)))
    argv = ("sweep",) + _opts(start=_num(start), stop=_num(stop), steps=steps, out=out)
    return Op("sweep", argv, out=out, params={"start": start, "stop": stop, "steps": steps})


def _boost(rng: random.Random, grid: int | None) -> Op:
    eta = _eta(rng, 0.0, RESOLVED_ETA)
    argv = ("boost",) + _opts(eta=_num(eta), **({"grid": grid} if grid else {}), out="boost.csv")
    return Op("boost", argv, out="boost.csv", params={"eta": eta, "grid": grid or 401})


def _parton(rng: random.Random, n: int | None) -> Op:
    eta = _eta(rng, 0.0, RESOLVED_ETA)
    argv = ("parton",) + _opts(eta=_num(eta), **({"n": n} if n else {}), out="parton.csv")
    return Op("parton", argv, out="parton.csv", params={"eta": eta, "n": n or 101})


def _modes(rng: random.Random, stable: bool) -> Op:
    m = float(_num(rng.uniform(0.2, 3.0)))
    a = float(_num(rng.uniform(0.5, 10.0)))
    ratio = rng.uniform(0.0, 0.95) if stable else rng.uniform(1.0, 1.5)
    c = float(_num(rng.choice((-1.0, 1.0)) * ratio * a))
    if not stable and abs(c) < a:  # rounding the argv must not make it stable
        c = a if c > 0 else -a
    argv = ("modes",) + _opts(m=_num(m), A=_num(a), C=_num(c))
    if stable:
        return Op("modes", argv, params={"m": m, "A": a, "C": c})
    return Op("reject_modes", argv, expect_exit=1)


def _entangle(rng: random.Random) -> Op:
    eta = _eta(rng, 0.05, 3.0)  # nonzero: eta = 0 skips the temperature
    kmax = rng.randint(0, 128)
    argv = ("entangle",) + _opts(eta=_num(eta), kmax=kmax)
    return Op("entangle", argv, params={"eta": eta, "kmax": kmax})


def _export_pass(seed: int, variant: int) -> tuple:
    rng = random.Random(f"export/{seed}/{variant}")
    boost = _boost(rng, None)
    keta = _eta(rng, 0.05, RESOLVED_ETA)
    kernel = Op(
        "kernel_csv",
        ("entangle",) + _opts(eta=_num(keta), kernel_csv="kernel.csv"),
        out="kernel.csv",
        params={"eta": keta},
    )
    parton = _parton(rng, EXPORT_N)
    sweep = _sweep(rng, EXPORT_STEPS, "sweep.csv")
    oeta = _eta(rng, 0.0, RESOLVED_ETA)
    shift, scale = float(_num(rng.uniform(-1.0, 1.0))), float(_num(rng.uniform(0.5, 2.0)))
    overlay = Op(
        "overlay",
        ("parton",) + _opts(eta=_num(oeta), overlay="overlay.csv",
                            rescale=f"{_num(shift)},{_num(scale)}", out="overlay_out.csv"),
        out="overlay_out.csv",
        params={"eta": oeta, "shift": shift, "scale": scale, "overlay": "overlay.csv"},
    )
    return (boost, kernel, parton, sweep, overlay)


def _interactive_pass(seed: int, variant: int) -> tuple:
    rng = random.Random(f"interactive/{seed}/{variant}")
    ops = [
        _modes(rng, True),
        _modes(rng, True),
        _entangle(rng),
        _entangle(rng),
        _sweep(rng, 31, "sweep.csv"),
        _parton(rng, None),
        _parton(rng, None),
        _boost(rng, 41),
        # reject path: each must exit 1 with "coupledosc: error:" and no traceback
        Op(
            "reject_overlay",
            ("parton",) + _opts(eta=_num(_eta(rng, 0.0, RESOLVED_ETA)),
                                overlay=f"bad_overlay_{variant}.csv", out="bad_out.csv"),
            expect_exit=1,
            params={"line": _bad_line(seed, variant)},
        ),
        Op(
            "reject_kernel",
            ("entangle",) + _opts(eta=_num(_eta(rng, 2.2, 5.5)), kernel_csv="bad_kernel.csv"),
            expect_exit=1,
        ),
        _modes(rng, False),
        Op("reject_eta800", ("entangle",) + _opts(eta=800), expect_exit=1),
    ]
    rng.shuffle(ops)
    return tuple(ops)


def _verify_pass(seed: int, variant: int) -> tuple:
    return (Op("verify", ("verify",) + _opts(out="report.json"), expect_exit=1, out="report.json"),)


def overlay_bytes(seed: int) -> bytes:
    """About 100k strictly increasing rows of ``x,value``, written once at set-up."""
    rng = random.Random(f"export/{seed}/overlay")
    x = -6.0
    rows = ["x,value\n"]
    for _ in range(OVERLAY_ROWS):
        x += rng.uniform(0.6e-4, 1.8e-4)
        rows.append(f"{x:.15g},{rng.uniform(0.0, 0.6):.15g}\n")
    return "".join(rows).encode()


def _bad_line(seed: int, variant: int) -> int:
    # header is line 1; rows before the bad one are valid and increasing
    return random.Random(f"interactive/{seed}/{variant}/bad").randint(3, BAD_OVERLAY_ROWS + 1)


def bad_overlay_bytes(seed: int, variant: int) -> bytes:
    """A small overlay whose row at a seeded line cannot be parsed."""
    rng = random.Random(f"interactive/{seed}/{variant}/rows")
    bad = _bad_line(seed, variant)
    rows = ["x,value\n"]
    for line in range(2, BAD_OVERLAY_ROWS + 2):
        x = -2.0 + 0.02 * line
        if line == bad:
            rows.append(rng.choice((f"{x:.15g},abc\n", f"{x:.15g},1,2\n", f"{x:.15g}\n", f"{x:.15g},inf\n")))
        else:
            rows.append(f"{x:.15g},{rng.uniform(0.0, 1.0):.15g}\n")
    return "".join(rows).encode()


def build(workload: str, seed: int) -> Plan:
    """The op list and input files of one workload for one seed."""
    if workload == "export":
        passes = tuple(_export_pass(seed, v) for v in range(VARIANTS))
        inputs = {"overlay.csv": overlay_bytes(seed)}
    elif workload == "interactive":
        passes = tuple(_interactive_pass(seed, v) for v in range(VARIANTS))
        inputs = {f"bad_overlay_{v}.csv": bad_overlay_bytes(seed, v) for v in range(VARIANTS)}
    elif workload == "verify":
        passes = tuple(_verify_pass(seed, v) for v in range(VARIANTS))
        inputs = {}
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return Plan(workload, seed, passes, inputs)
