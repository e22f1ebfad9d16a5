"""Run every workload of the benchmark on several seeds and write one point
of the BENCH trajectory.

    python3 bench/record.py --seeds 1 2 3 4 5 6 7 8 9 10 --out bench/BENCH_0.json

Each (workload, seed) pair is one untraced run of bench/run.py, and each
workload gets one traced run on the first seed. For every end-to-end, raw
and stage figure the point holds the per-seed values, their median, their
quartiles and the distance between the quartiles as a share of the median.
Run from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    result = BENCH / ".out" / f"{workload}-seed{seed}-trace{trace}.json"
    result.unlink(missing_ok=True)
    subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                   cwd=ROOT, stdout=subprocess.DEVNULL, timeout=600)
    return json.loads(result.read_text())


def summary(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    point = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for w in (w["name"] for w in spec["workloads"]):
        runs = [bench_run(w, seed, seconds, 0) for seed in args.seeds]
        traced = bench_run(w, args.seeds[0], seconds, 1)
        point["meta"] = {k: v for k, v in traced["meta"].items() if k != "seed"}
        point["workloads"][w] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs + [traced]),
            "end_to_end": {k: summary([r["end_to_end"][k] for r in runs])
                           for k in runs[0]["end_to_end"]},
            "raw": {k: summary([r["raw"][k] for r in runs]) for k in runs[0]["raw"]},
            "stages": {k: summary([r["stages"][k] for r in runs]) for k in runs[0]["stages"]},
            "per_layer": traced["per_layer"],
        }
        entry = point["workloads"][w]
        print(f"{w}: correct {entry['correct']}  failed {entry['failed']}/{entry['attempted']}")
        for k, s in {**entry["end_to_end"], **entry["raw"], **entry["stages"]}.items():
            print(f"  {k:<28} median {s['median']:<12.6g} spread {s['spread']:.4f}")
    args.out.write_text(json.dumps(point, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
