"""Output checker: every op's exit code, stderr and output bytes.

An op ends in one of three states:

* ``ok`` -- expected exit code, no traceback, outputs as expected;
* ``failed`` -- the call did not finish as expected (wrong exit code, a
  traceback, a missing output file);
* ``wrong`` -- the call finished but its output is wrong (bad header or row
  count, CR line endings, a field that does not re-render to itself under
  ``%.15g``, a value off its closed form, a digest that differs).

Closed forms are computed here, independently of ``src/``, from the values in
the op's argv.
"""

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from tracer import CHECK_NAMES


@dataclass
class Outcome:
    status: str = "ok"
    problems: list = field(default_factory=list)
    digest: str | None = None
    bytes_out: int = 0

    def fail(self, msg: str) -> None:
        self.problems.append(msg)
        self.status = "failed"

    def wrong(self, msg: str) -> None:
        self.problems.append(msg)
        if self.status == "ok":
            self.status = "wrong"


def _close(name: str, got, want, rtol: float, atol: float, out: Outcome) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    err = np.abs(got - want) - (atol + rtol * np.abs(want))
    if got.shape != want.shape:
        out.wrong(f"{name}: shape {got.shape} != {want.shape}")
    elif not np.all(err <= 0.0):
        i = int(np.argmax(err))
        out.wrong(f"{name}: {got.flat[i]!r} vs closed form {want.flat[i]!r} (index {i})")


def read_csv(data: bytes, header: str, rows: int, out: Outcome) -> list | None:
    """Split a CSV into columns after checking line endings, header, shape and rendering.

    Every field must read back to the same text under ``%.15g``; distinct
    field texts are checked once, since mesh coordinates repeat.
    """
    if b"\r" in data:
        out.wrong("CR in output: line endings must be LF only")
    text = data.decode("utf-8", errors="replace")
    if not text.endswith("\n"):
        out.wrong("output does not end with LF")
    head, _, body = text.partition("\n")
    if head != header:
        out.wrong(f"header {head!r} != {header!r}")
        return None
    ncol = header.count(",") + 1
    if body.count("\n") != rows or body.count(",") != rows * (ncol - 1):
        out.wrong(f"{body.count(chr(10))} rows with {body.count(',')} commas, expected {rows} rows "
                  f"of {ncol} fields")
        return None
    cells = body[:-1].replace("\n", ",").split(",")
    for c in set(cells):
        try:
            ok = f"{float(c):.15g}" == c
        except ValueError:
            ok = False
        if not ok:
            out.wrong(f"field {c!r} does not re-render under %.15g")
            return None
    return [cells[j::ncol] for j in range(ncol)]


def _col(cols: list, j: int) -> np.ndarray:
    return np.array(cols[j], dtype=float)


def _same_text(cols: list, a: int, b: int, what: str, out: Outcome) -> None:
    if cols[a] != cols[b]:
        i = next(i for i, (x, y) in enumerate(zip(cols[a], cols[b])) if x != y)
        out.wrong(f"line {i + 2}: {what} differ ({cols[a][i]!r} vs {cols[b][i]!r})")


def psi(z, t, eta):
    u, v = (z + t) / math.sqrt(2.0), (z - t) / math.sqrt(2.0)
    return np.exp(-0.5 * (math.exp(-eta) * u * u + math.exp(eta) * v * v)) / math.sqrt(math.pi)


def marginal(x, eta):
    c = math.cosh(eta)
    return np.exp(-np.asarray(x) ** 2 / c) / math.sqrt(math.pi * c)


def entropy(eta):
    h = abs(eta) / 2.0
    if h == 0.0:
        return 0.0
    ch, sh = math.cosh(h), math.sinh(h)
    return 2.0 * (ch * ch * math.log(ch) - sh * sh * math.log(sh))


def _check_boost(p, data, out, workdir, stdout):
    g = p["grid"]
    t = read_csv(data, "z,t,psi,qz,q0,phi", g * g, out)
    if t is None:
        return
    _same_text(t, 0, 3, "z and qz", out)
    _same_text(t, 1, 4, "t and q0", out)
    _same_text(t, 2, 5, "psi and phi", out)
    nodes = np.linspace(-8.0, 8.0, g)
    z, tt = np.repeat(nodes, g), np.tile(nodes, g)
    _close("z", _col(t, 0), z, 1e-14, 0.0, out)
    _close("t", _col(t, 1), tt, 1e-14, 0.0, out)
    _close("psi", _col(t, 2), psi(z, tt, p["eta"]), 1e-11, 0.0, out)


def _check_kernel(p, data, out, workdir, stdout):
    g = 401
    t = read_csv(data, "x,x_prime,value", g * g, out)
    if t is None:
        return
    nodes = np.linspace(-8.0, 8.0, g)
    x, y = np.repeat(nodes, g), np.tile(nodes, g)
    _close("x", _col(t, 0), x, 1e-14, 0.0, out)
    _close("x_prime", _col(t, 1), y, 1e-14, 0.0, out)
    c = math.cosh(p["eta"])
    rho = np.exp(-0.25 * ((x + y) ** 2 / c + (x - y) ** 2 * c)) / math.sqrt(math.pi * c)
    # quadrature against the closed form; box truncation is ~3e-9 at |eta| = 2
    _close("rho", _col(t, 2), rho, 0.0, 1e-7, out)


def _check_parton(p, data, out, workdir, stdout):
    t = read_csv(data, "coordinate,model_density", p["n"], out)
    if t is None:
        return
    half = 6.0 * math.sqrt(math.cosh(p["eta"]) / 2.0)
    x = np.linspace(-half, half, p["n"])
    _close("coordinate", _col(t, 0), x, 1e-13, 1e-15, out)
    _close("model_density", _col(t, 1), marginal(x, p["eta"]), 1e-11, 0.0, out)


def _check_sweep(p, data, out, workdir, stdout):
    t = read_csv(data, "eta,purity,entropy,T,width_z,width_qz", p["steps"], out)
    if t is None:
        return
    _same_text(t, 4, 5, "width_z and width_qz", out)
    eta = np.linspace(p["start"], p["stop"], p["steps"])
    _close("eta", _col(t, 0), eta, 1e-14, 0.0, out)
    _close("purity", _col(t, 1), 1.0 / np.cosh(eta), 1e-12, 0.0, out)
    _close("entropy", _col(t, 2), [entropy(e) for e in eta], 1e-10, 0.0, out)
    _close("T", _col(t, 3), -0.5 / np.log(np.tanh(eta / 2.0)), 1e-10, 0.0, out)
    _close("width_z", _col(t, 4), np.sqrt(np.cosh(eta) / 2.0), 1e-12, 0.0, out)


def _check_overlay(p, data, out, workdir, stdout):
    src = (workdir / p["overlay"]).read_text(encoding="utf-8").split("\n")[1:-1]
    t = read_csv(data, "coordinate,model_density,overlay_value", len(src), out)
    if t is None:
        return
    xs, vals = zip(*(r.split(",") for r in src))
    _same_text([t[2], list(vals)], 0, 1, "overlay_value and the input value", out)
    x = p["shift"] + p["scale"] * np.array(xs, dtype=float)
    _close("coordinate", _col(t, 0), x, 1e-14, 1e-15, out)
    _close("model_density", _col(t, 1), marginal(x, p["eta"]), 1e-11, 0.0, out)


def _json(data: bytes, out: Outcome):
    try:
        return json.loads(data)
    except ValueError as exc:
        out.wrong(f"output is not JSON: {exc}")
        return None


def _check_modes(p, data, out, workdir, stdout):
    d = _json(data, out)
    if d is None:
        return
    m, a, c = p["m"], p["A"], p["C"]
    k = math.sqrt(a * a - c * c)
    eta = 0.25 * math.log((a - c) / (a + c))
    w = math.sqrt(k / m)
    want = {"m": m, "A": a, "C": c, "K": k, "eta": eta, "omega": w,
            "omega_plus": w * math.exp(eta), "omega_minus": w * math.exp(-eta)}
    if set(d) != set(want):
        out.wrong(f"keys {sorted(d)} != {sorted(want)}")
        return
    for key, val in want.items():
        _close(key, d[key], val, 1e-12, 1e-15, out)


def _check_entangle(p, data, out, workdir, stdout):
    d = _json(data, out)
    if d is None:
        return
    eta, kmax = p["eta"], p["kmax"]
    if d.get("k_max") != kmax or len(d.get("coeffs", ())) != kmax + 1:
        out.wrong(f"k_max {d.get('k_max')!r} or coefficient count does not match --kmax {kmax}")
        return
    k = np.arange(kmax + 1)
    _close("coeffs", d["coeffs"], np.tanh(eta / 2.0) ** k / math.cosh(eta / 2.0), 1e-10, 1e-300, out)
    _close("purity", d["purity"], 1.0 / math.cosh(eta), 1e-12, 0.0, out)
    _close("entropy", d["entropy"], entropy(eta), 1e-10, 0.0, out)
    _close("eigenvalues+tail", sum(d["eigenvalues"]) + d["tail"], 1.0, 1e-12, 0.0, out)


def _check_verify(p, data, out, workdir, stdout):
    d = _json(data, out)
    if d is None:
        return
    names = tuple(c.get("name") for c in d.get("checks", ()))
    failing = [c["name"] for c in d.get("checks", ()) if not c.get("passed")]
    if names != CHECK_NAMES:
        out.wrong(f"report lists {len(names)} checks, not the 42 of the registry")
    elif failing != ["schmidt_reconstruction"] or d.get("overall_pass") is not False:
        out.wrong(f"failing checks {failing}, expected only schmidt_reconstruction")
    if not stdout.rstrip().endswith(b"overall: FAIL (41/42 checks)"):
        out.wrong("stdout does not end with 'overall: FAIL (41/42 checks)'")


# output checks by op kind; reject-path ops have none beyond exit code and stderr
CHECKERS = {
    "boost": _check_boost,
    "kernel_csv": _check_kernel,
    "parton": _check_parton,
    "sweep": _check_sweep,
    "overlay": _check_overlay,
    "modes": _check_modes,
    "entangle": _check_entangle,
    "verify": _check_verify,
}


def check_op(op, workdir, rc: int, stdout: bytes, stderr: bytes, expected_digest=None) -> Outcome:
    """Check one finished op; ``workdir`` holds its output file."""
    out = Outcome()
    if rc != op.expect_exit:
        out.fail(f"exit {rc}, expected {op.expect_exit}")
    if b"Traceback" in stderr:
        out.fail("traceback on stderr")
    if op.kind.startswith("reject_") and b"coupledosc: error:" not in stderr:
        out.fail("stderr lacks 'coupledosc: error:'")
    if op.kind == "reject_overlay" and f"line {op.params['line']}:".encode() not in stderr:
        out.fail(f"error does not name line {op.params['line']}")
    data = stdout
    if op.out is not None:
        try:
            data = (workdir / op.out).read_bytes()
        except FileNotFoundError:
            out.fail(f"missing output file {op.out}")
            return out
    out.bytes_out = len(stdout) + (len(data) if op.out is not None else 0)
    if out.status != "ok":
        return out
    checker = CHECKERS.get(op.kind)
    if checker is not None:
        checker(op.params, data, out, workdir, stdout)
    h = hashlib.sha256(stdout)
    h.update(b"\0" + stderr)
    if op.out is not None:
        h.update(b"\0" + data)
    out.digest = h.hexdigest()
    if expected_digest is not None and out.digest != expected_digest:
        out.wrong(f"sha256 {out.digest} differs from the recorded {expected_digest}")
    return out
