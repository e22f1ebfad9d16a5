"""Benchmark of the xorcast pipeline, run from the root of a source checkout.

    python3 bench/run.py --workload design|stability|memory
                         [--seed 1] [--seconds 36] [--trace 0|1]

One closed-loop caller in one process imports the package from ./src and
repeats the workload's fixed job (a round) until --seconds have passed, at
least once. End-to-end figures come from these untraced rounds: set-up time
(the median of several fresh interpreters each importing the package and
loading the model), the median round time, and peak memory. With --trace 1
one untraced round is followed by one traced round, which gives the
per-layer metrics instead. Every round checks the program's outputs.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the metric names and units are those of
BENCHMARK.json. The lines before it name every figure with its unit. The
full result, with run metadata, and the spans of a traced round are
written under bench/.out/.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / ".out"
MODEL = BENCH / "ref_model.json"
SETUP_REPEATS = 9

# Runs in a fresh interpreter; prints the seconds from before the package
# import to the validated model, and the machine speed right after.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import xorcast
xorcast.load_model(sys.argv[2])
elapsed = time.perf_counter() - t0
sys.path.insert(0, sys.argv[3])
import speed
print(elapsed, speed.burst())
"""


def setup_seconds():
    """Median set-up time over SETUP_REPEATS fresh interpreters, after one
    untimed start that fills the bytecode cache: (speed-adjusted, raw)."""
    raw, adjusted = [], []
    for _ in range(SETUP_REPEATS + 1):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(MODEL), str(BENCH)],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
        elapsed, speed = map(float, out.stdout.split())
        raw.append(elapsed)
        adjusted.append(elapsed * speed)
    return statistics.median(adjusted[1:]), statistics.median(raw[1:])


def git_commit():
    """HEAD of the checkout's own .git, read without calling git; None when
    the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(seed: int) -> dict:
    import numpy
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"commit": git_commit(), "src_sha256": digest.hexdigest(), "src_lines": lines,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
            "seed": seed}


def measure(run, round_fn, seconds: float) -> list:
    """Untraced rounds until the next would end after `seconds`; at least one.
    Returns one (raw time, speed, stage timings, facts) per round."""
    rounds = []
    start = perf_counter()
    while True:
        with speed.Sampler() as sampler:
            t0 = perf_counter()
            stages, facts = round_fn(run)
            wall = perf_counter() - t0
        rounds.append((wall, sampler.speed, stages, facts))
        if perf_counter() - start + statistics.median(r[0] for r in rounds) > seconds:
            return rounds


def _print(name, value, unit):
    print(f"  {name:<44} {value:.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the xorcast pipeline.")
    parser.add_argument("--workload", required=True, help="design, stability or memory")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "xorcast" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup_s, raw_setup_s = setup_seconds()

    sys.path.insert(0, str(SRC))
    from xorcast import channel, filtering, region, sim
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    round_fn = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    t0 = perf_counter()
    model = channel.load_model(MODEL)
    load_model_ms = 1e3 * (perf_counter() - t0)
    selftest_ok = workloads.selftest(model, args.seed, OUT)

    run = workloads.Run(model, args.seed, OUT)
    rounds, per_layer, aborted = [], {}, None
    try:
        rounds = measure(run, round_fn, 0.0 if args.trace else args.seconds)
        if args.trace:
            run.tracer = tracing.Tracer()
            modules = {"channel": channel, "filtering": filtering, "region": region, "sim": sim}
            with run.tracer.installed(modules):
                t0 = perf_counter()
                with run.tracer.span("bench.round"):
                    _, facts = round_fn(run)
                traced_wall = perf_counter() - t0
            per_layer = {m["name"]: 0.0 for m in spec["per_layer"]}
            per_layer.update(facts)
            per_layer.update(tracing.per_layer_metrics(run.tracer, traced_wall, rounds[0][0]))
            per_layer["channel.load_model_ms"] = load_model_ms
            if set(per_layer) != {m["name"] for m in spec["per_layer"]}:
                raise RuntimeError("per-layer metrics differ from BENCHMARK.json: "
                                   f"{sorted(set(per_layer) ^ {m['name'] for m in spec['per_layer']})}")
    except workloads.RoundAborted as e:
        aborted = e

    # Speed-adjusted figures are gated; raw ones are printed and recorded.
    end_to_end = {"setup_s": setup_s,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    raw = {"raw_setup_s": raw_setup_s}
    stages = {}
    if rounds:
        end_to_end["wall_s"] = statistics.median(wall * speed for wall, speed, _, _ in rounds)
        raw["raw_wall_s"] = statistics.median(r[0] for r in rounds)
        raw["speed"] = statistics.median(r[1] for r in rounds)
        for name, unit in workloads.STAGE_UNITS.items():
            if name in rounds[0][2]:
                # times scale with the speed and rates against it
                stages[name] = statistics.median(
                    st[name] * speed if unit == "s" else st[name] / speed
                    for _, speed, st, _ in rounds)
    meta = metadata(args.seed)
    correct = selftest_ok and not run.failures and aborted is None

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {len(rounds)}  selftest {'ok' if selftest_ok else 'FAILED'}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(workloads.STAGE_UNITS, raw_setup_s="s", raw_wall_s="s", speed="x")
    for name, value in {**end_to_end, **raw, **stages}.items():
        _print(name, value, units[name])
    print(f"  {'fail_rate':<44} {len(run.failures)}/{run.attempted} failed/attempted")
    for name, value in sorted(per_layer.items()):
        _print(name, value, units[name])
    for name, problems in run.failures:
        print(f"FAILED {name}:", *problems, sep="\n  ", file=sys.stderr)
    print("meta " + json.dumps(meta))

    chosen = per_layer if args.trace else end_to_end
    result = {"correct": correct, "attempted": run.attempted, "failed": len(run.failures),
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in chosen.items()}}
    record = {"workload": args.workload, "meta": meta,
              "rounds": [{"raw_s": wall, "speed": speed, "stages": st} for wall, speed, st, _ in rounds],
              "end_to_end": end_to_end, "raw": raw, "stages": stages, "per_layer": per_layer,
              "failures": run.failures, **result}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if run.tracer:
        (OUT / f"spans-{tag}.json").write_text(json.dumps(run.tracer.dump()) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
