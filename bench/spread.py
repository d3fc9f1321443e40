"""Run the benchmark on several seeds and report each metric's median and spread.

    python3 bench/spread.py --workload export --seeds 1-10 [--trace 0] [--out FILE]

The spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, the figure
compared with each end-to-end metric's bound in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(BENCH / "run_bench.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
        if r.returncode != 0:
            print(r.stdout, r.stderr, file=sys.stderr)
            return 1
        result = json.loads(r.stdout.strip().splitlines()[-1])
        record = ROOT / ".bench_work" / "results" / f"{args.workload}-seed{seed}-trace{args.trace}.json"
        saved = json.loads(record.read_text()) if record.exists() else {}
        runs.append({"seed": seed, **result, "extra": saved.get("extra", {}),
                     "provenance": saved.get("provenance", {})})
        print(f"seed {seed}: " + "  ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bounds.get(name)}
        bound = bounds.get(name)
        flag = "" if bound is None else ("  ok" if spread < bound / 3 else "  WIDE" if spread >= bound else "  <bound")
        print(f"{name:44s} median {med:.5g}  spread {spread:.4f}  bound {bound}{flag}")
    extra = {k: statistics.median(run["extra"][k] for run in runs) for k, v in runs[0]["extra"].items()
             if isinstance(v, (int, float)) and not isinstance(v, bool)}
    for name, value in extra.items():
        print(f"({name}) median {value:.5g}")
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "trace": args.trace, "summary": summary,
                                        "extra_medians": extra, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
