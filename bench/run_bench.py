"""Benchmark for the coupledosc CLI: seeded workloads, checked outputs, traced layers.

    python3 bench/run_bench.py --workload export --seed 3 --seconds 30 --trace 0
    python3 bench/run_bench.py --record-digests

Run from the root of a source checkout; the CLI is run from ``src/`` as
``python3 -m coupledosc.cli`` in a fresh process per op, one at a time (a
closed loop with one client). A run repeats whole passes over the workload's
op list until ``--seconds`` of op time are spent (checking outputs between ops
is not counted), checks every output, and prints a table and then, as its last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Each op's time is reported divided by the time of a fixed probe
job run just before and just after it (see spawn.py).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``--trace 1``
alternates untraced passes with passes whose calls go through ``tracer.py``,
and reports the per-layer metrics: span counts and times per pass, plus the
tracing overhead. ``--record-digests`` re-records ``digests.json``, the sha256
of every output at the default seed, which later runs at that seed compare
against when the numpy version, the CPU model and the BLAS thread variables
match.

Work files go to ``.bench_work/`` in the checkout; a run deletes its own and
keeps its results under ``.bench_work/results/``.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

import check
import spawn
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
DIGESTS = BENCH / "digests.json"
MIN_PASSES = 2
OP_TIMEOUT_S = 120.0
SETUP_CMD = [sys.executable, "-c", "import coupledosc.cli"]
SETUP_EVERY_S = 5.0
TRACE_SETUP_REPEATS = 5
FORMAT_CMDS = ("cli.cmd_boost", "cli.cmd_entangle", "cli.cmd_parton", "cli.cmd_sweep")
CLOSED_FORMS = ("entanglement.purity", "entanglement.entropy",
                "entanglement.effective_temperature", "parton.width")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return env


class Spawner:
    """Starts child processes through ``spawn.py`` and returns what they did."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(BENCH / "spawn.py")], env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )

    def run(self, cmd: list, cwd: Path) -> dict:
        """Run one process to completion; wall time, exit code, max RSS, probe time, output."""
        so, se = cwd / ".stdout", cwd / ".stderr"
        req = {"cmd": cmd, "cwd": str(cwd), "stdout": str(so), "stderr": str(se),
               "timeout": OP_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit("run_bench: the spawner process died")
        r = json.loads(line)
        return {"wall_s": r["wall_s"], "rc": r["rc"], "rss_mb": r["maxrss_kb"] / 1024.0,
                "probe_s": r["probe_s"], "stdout": so.read_bytes(), "stderr": se.read_bytes()}

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def summarize(spans: list) -> dict:
    """Per span name: calls, inclusive ns, self ns (minus child spans), bytes."""
    agg = {}
    child_ns = [0] * len(spans)
    for name, start, end, parent, nbytes in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    for i, (name, start, end, parent, nbytes) in enumerate(spans):
        a = agg.setdefault(name, [0, 0, 0, 0])
        a[0] += 1
        a[1] += end - start
        a[2] += end - start - child_ns[i]
        a[3] += nbytes
    built = sum(1 for s in spans
                if s[0] == "numerics.oracle_reduced_density" and s[3] >= 0
                and spans[s[3]][0] == "verify._kernel")
    agg["verify._kernel.built"] = [built, 0, 0, 0]
    return agg


def merge(total: dict, part: dict) -> None:
    for name, vals in part.items():
        t = total.setdefault(name, [0, 0, 0, 0])
        for i, v in enumerate(vals):
            t[i] += v


class Runner:
    """Runs passes of one plan in a work directory and keeps every op record."""

    def __init__(self, plan, workdir: Path, expected: dict, spawner: Spawner):
        self.plan = plan
        self.workdir = workdir
        self.spawner = spawner
        self.expected = expected  # op id -> recorded sha256 (default seed only)
        self.digests = {}
        self.records = []
        self.setup_s = []

    def timed(self, cmd: list, what: str) -> dict:
        """Run a command that must succeed."""
        r = self.spawner.run(cmd, self.workdir)
        if r["rc"] != 0:
            raise SystemExit(f"run_bench: {what} failed:\n{r['stderr'].decode()}")
        return r

    def sample_setup(self) -> float:
        """Fresh interpreter until ``import coupledosc.cli`` is done; returns the time spent."""
        r = self.timed(SETUP_CMD, "import coupledosc.cli from src/")
        self.setup_s.append(r["wall_s"])
        return r["wall_s"] + 2 * r["probe_s"]

    def run_pass(self, index: int, traced: bool) -> dict:
        variant = index % workloads.VARIANTS
        spans_path = self.workdir / ".spans.json"
        agg, wall, spent, ratio, bytes_out = {}, 0.0, 0.0, 0.0, 0
        for i, op in enumerate(self.plan.passes[variant]):
            op_id = f"v{variant}.{i}.{op.kind}"
            if op.out:
                (self.workdir / op.out).unlink(missing_ok=True)
            if traced:
                spans_path.unlink(missing_ok=True)
                cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans_path), "--", *op.argv]
            else:
                cmd = [sys.executable, "-m", "coupledosc.cli", *op.argv]
            r = self.spawner.run(cmd, self.workdir)
            out = check.check_op(op, self.workdir, r["rc"], r["stdout"], r["stderr"],
                                 self.expected.get(op_id))
            if out.digest is not None:
                if self.digests.setdefault(op_id, out.digest) != out.digest:
                    out.wrong("sha256 differs from an earlier run of the same op in this run")
            if traced:
                if spans_path.exists():
                    merge(agg, summarize(json.loads(spans_path.read_text())))
                else:
                    out.fail("traced call wrote no spans")
            wall += r["wall_s"]
            spent += r["wall_s"] + 2 * r["probe_s"]
            ratio += r["wall_s"] / r["probe_s"]
            bytes_out += out.bytes_out
            self.records.append({
                "op": op_id, "kind": op.kind, "traced": traced, "wall_s": r["wall_s"],
                "probe_s": r["probe_s"], "rc": r["rc"], "rss_mb": r["rss_mb"], "status": out.status,
                "problems": out.problems, "sha256": out.digest,
            })
        return {"wall_s": wall, "spent_s": spent, "ref_ratio": ratio, "spans": agg,
                "bytes_out": bytes_out, "traced": traced}

    def run_for(self, seconds: float, trace: bool) -> list:
        """Whole passes (in trace mode: untraced, traced pairs) for ``seconds`` of child time.

        Child time counts ops, set-up samples and the probes around them;
        checking outputs between ops is not, so the number of samples does not
        depend on the checks.
        """
        self.timed(SETUP_CMD, "import coupledosc.cli from src/")  # compiles bytecode; not counted
        if trace:
            for _ in range(TRACE_SETUP_REPEATS):
                self.sample_setup()
        passes, spent, index, since = [], 0.0, 0, SETUP_EVERY_S
        while True:
            if not trace and since >= SETUP_EVERY_S:
                spent += self.sample_setup()
                since = 0.0
            for traced in (False, True) if trace else (False,):
                passes.append(self.run_pass(index, traced))
                spent += passes[-1]["spent_s"]
                since += passes[-1]["spent_s"]
            index += 1
            if index >= MIN_PASSES and spent * (index + 1) / index > seconds:
                return passes


def layer_metrics(agg: dict, bytes_out: int) -> dict:
    """Per-layer values of one traced pass."""

    def calls(name):
        return agg.get(name, [0])[0]

    def ms(name):
        return agg.get(name, [0, 0])[1] / 1e6

    m = {
        "cli.main.ms": ms("cli.main"),
        "cli.format.self_ms": sum(agg.get(n, [0, 0, 0])[2] for n in FORMAT_CMDS) / 1e6,
        "cli.bytes_out": bytes_out,
        "numerics.DensityKernel.to_csv.ms": ms("numerics.DensityKernel.to_csv"),
        "parton.export_gaussian_pdf.ms": ms("parton.export_gaussian_pdf"),
        "parton.ingest_overlay.ms": ms("parton.ingest_overlay"),
        "covariant.boosted_wavefunction.ms": ms("covariant.boosted_wavefunction"),
        "covariant.momentum_wavefunction.ms": ms("covariant.momentum_wavefunction"),
        "numerics.mesh_builds": calls("numpy.meshgrid"),
        "numerics.mesh_bytes": agg.get("numpy.meshgrid", [0, 0, 0, 0])[3],
        "covariant.fourier_consistency.ms": ms("covariant.fourier_consistency"),
        "parton.longitudinal_density.ms": ms("parton.longitudinal_density"),
        "parton.lightcone_fraction.ms": ms("parton.lightcone_fraction"),
        "numerics.hermite_basis.ms": ms("numerics.hermite_basis"),
        "entanglement.closed_form.calls": sum(calls(n) for n in CLOSED_FORMS),
        "entanglement.closed_form.ms": sum(ms(n) for n in CLOSED_FORMS),
    }
    for name in ("numerics.integrate_2d", "numerics.hermite_fn", "numerics.oracle_reduced_density",
                 "oscillator.ground_state"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.ms"] = ms(name)
    for name in check.CHECK_NAMES:
        m[f"verify.{name}.ms"] = ms(f"verify.{name}")
    requested = calls("verify._kernel")
    m["verify.kernel_cache.hit_ratio"] = (
        (requested - calls("verify._kernel.built")) / requested if requested else 0.0
    )
    return m


def median_of(dicts: list) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def platform_key() -> dict:
    """What output bytes may depend on: digests are compared only when this matches.

    The BLAS thread count changes the last digits of the kernel CSV and the
    verify report. Children run pinned to one CPU (spawn.py), so OpenBLAS
    starts one thread unless one of these variables says otherwise.
    """
    return {"numpy": numpy.__version__, "cpu": cpu_model(), "machine": platform.machine(),
            "blas_threads": {k: os.environ.get(k, "unset") for k in BLAS_THREAD_VARS}}


def provenance(args) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                           timeout=30, check=False)
        commit = r.stdout.strip() or commit
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "pinned_cpu": spawn.CPU,
        "blas_threads": {k: os.environ.get(k, "unset") for k in BLAS_THREAD_VARS},
        "loadavg_start": os.getloadavg(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def stored_digests(workload: str, seed: int) -> tuple:
    """Recorded digests for this workload, or {} with the reason they do not apply."""
    if seed != workloads.DEFAULT_SEED:
        return {}, f"seed {seed} is not the default seed {workloads.DEFAULT_SEED}"
    if not DIGESTS.exists():
        return {}, "no recorded digests"
    rec = json.loads(DIGESTS.read_text())
    if rec["platform"] != platform_key():
        return {}, f"recorded on {rec['platform']}, not this platform"
    return rec["workloads"].get(workload, {}), "compared"


@contextlib.contextmanager
def workspace(plan, tag: str):
    """A work directory holding the plan's input files, and a spawner; both removed after."""
    workdir = WORK / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    spawner = Spawner(child_env())
    try:
        for name, data in plan.inputs.items():
            (workdir / name).write_bytes(data)
        yield workdir, spawner
    finally:
        spawner.close()
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, spec: dict) -> tuple:
    plan = workloads.build(args.workload, args.seed)
    expected, digest_note = stored_digests(args.workload, args.seed)
    with workspace(plan, f"{args.workload}-{args.seed}-{args.trace}") as (workdir, spawner):
        runner = Runner(plan, workdir, expected, spawner)
        if args.trace:
            runner.timed([sys.executable, str(BENCH / "tracer.py"), "--check"], "wrapping the layers")
        passes = runner.run_for(args.seconds, bool(args.trace))

    recs, setup = runner.records, runner.setup_s
    attempted = len(recs)
    failed = sum(r["status"] != "ok" for r in recs)
    untraced = [p for p in passes if not p["traced"]]
    walls = [r["wall_s"] for r in recs if not r["traced"]]
    extra = {
        "error_rate": failed / attempted,
        "setup_runs_s": setup,
        "passes": len(untraced),
        "call_samples": len(walls),
        "digests": digest_note,
    }
    for kind in sorted({r["kind"] for r in recs}):
        extra[f"{kind}_s"] = statistics.median(r["wall_s"] for r in recs if r["kind"] == kind and not r["traced"])
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        per_pass = [layer_metrics(p["spans"], p["bytes_out"]) for p in traced]
        metrics = median_of(per_pass)
        untraced_s = statistics.median(p["wall_s"] for p in untraced)
        traced_s = statistics.median(p["wall_s"] for p in traced)
        metrics["trace.overhead_ratio"] = traced_s / untraced_s
        counts = {k for k in per_pass[0] if k.endswith(".calls") or k == "numerics.mesh_builds"}
        extra["calls_repeat_every_pass"] = all(p[k] == per_pass[0][k] for p in per_pass for k in counts)
        extra["untraced_pass_s"] = untraced_s
        extra["traced_pass_s"] = traced_s
        # on verify: the share of a traced call, past interpreter start-up, that the checks explain
        checks_s = sum(metrics[f"verify.{n}.ms"] for n in check.CHECK_NAMES) / 1e3
        extra["verify_checks_s"] = checks_s
        extra["verify_checks_share"] = checks_s / (traced_s - statistics.median(setup))
        wanted = spec["per_layer"]
    else:
        raw = {
            "pass_s": statistics.median(p["wall_s"] for p in untraced),
            "call_p50_s": statistics.median(walls),
            "call_p90_s": statistics.quantiles(walls, n=10, method="inclusive")[8],
        }
        extra.update(raw, probe_s=statistics.median(r["probe_s"] for r in recs))
        # each op's time over the probe bracketing it; a pass is the sum over its ops
        ratios = {}
        for r in recs:
            ratios.setdefault(r["kind"], []).append(r["wall_s"] / r["probe_s"])
        # Call percentiles are taken over one pass's ops, each at its kind's
        # median over the run. Pooled over the run's 25-75 calls, the 90th
        # percentile falls in the host's noise tail and the median between two
        # op kinds: over ten seeds they spread by up to 14% (quartile distance
        # over median), this way by up to 6.3% in the same runs.
        p50, p90 = numpy.percentile([statistics.median(ratios[op.kind]) for op in plan.passes[0]], [50, 90])
        metrics = {
            "pass_ref": statistics.median(p["ref_ratio"] for p in untraced),
            "call_p50_ref": float(p50),
            "call_p90_ref": float(p90),
        }
        metrics.update(
            setup_s=statistics.median(setup),
            success_ratio=(attempted - failed) / attempted,
            peak_rss_mb=max(r["rss_mb"] for r in recs),
        )
        wanted = spec["end_to_end"]
    names = [w["name"] for w in wanted]
    if sorted(names) != sorted(metrics):
        raise SystemExit(
            f"run_bench: metrics out of step with BENCHMARK.json: missing "
            f"{sorted(set(names) - set(metrics))}, unlisted {sorted(set(metrics) - set(names))}"
        )
    out = {w["name"]: {"value": metrics[w["name"]], "unit": w["unit"]} for w in wanted}
    return recs, runner.digests, out, extra


def record_digests() -> int:
    """Run every pass variant once at the default seed and store its digests."""
    table = {}
    for name in workloads.WORKLOADS:
        plan = workloads.build(name, workloads.DEFAULT_SEED)
        with workspace(plan, f"record-{name}") as (workdir, spawner):
            runner = Runner(plan, workdir, {}, spawner)
            for v in range(workloads.VARIANTS):
                runner.run_pass(v, traced=False)
        bad = [r for r in runner.records if r["status"] == "wrong"]
        if bad:
            print(f"run_bench: not recording, wrong output: {bad[0]}", file=sys.stderr)
            return 1
        table[name] = {r["op"]: r["sha256"] for r in runner.records if r["status"] == "ok"}
    payload = {"seed": workloads.DEFAULT_SEED, "platform": platform_key(), "workloads": table}
    DIGESTS.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"recorded {sum(map(len, table.values()))} digests in {DIGESTS.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "coupledosc" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"run_bench: {ROOT} is not a coupledosc checkout (needs src/coupledosc and "
              "BENCHMARK.json)", file=sys.stderr)
        return 2
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        ap.error("--workload is required")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    prov = provenance(args)
    recs, digests, metrics, extra = measure(args, spec)
    failed = sum(r["status"] != "ok" for r in recs)
    result = {
        "correct": not any(r["status"] == "wrong" for r in recs),
        "attempted": len(recs),
        "failed": failed,
        "metrics": metrics,
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"provenance": prov, "result": result, "extra": extra,
                                "digests": digests, "ops": recs}, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    for name, value in extra.items():
        print(f"  ({name}) {value if not isinstance(value, float) else f'{value:.6g}'}")
    for r in [r for r in recs if r["status"] != "ok"][:10]:
        print(f"  {r['status']}: {r['op']}: {'; '.join(r['problems'])}")
    print(f"  results in {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
