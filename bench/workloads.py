"""The benchmark's three workloads, their correctness checks and the
self-test of those checks.

Each workload is one fixed job (a "round") that calls the package's public
functions. A round is a sequence of operations; an operation fails when it
raises or when its outputs fail a check, and a round stops at the first
operation that raises. A round returns its stage timings (user-visible
end-to-end figures) and its facts (exact per-layer counts).
"""

from __future__ import annotations

import math
import os
import traceback
from contextlib import contextmanager, nullcontext
from time import perf_counter

from xorcast import channel, filtering, region, sim

BACKOFF = 0.99                # passed to simulation_distribution explicitly
RATE_TOL = 1e-8
RESIDUAL_TOL = 1e-8
TV_TOL = 1e-12
THROUGHPUT_FLOOR = 0.98       # share of the offered rate delivered at 0.95x

# Values at the seed commit, reference model, lambda = 0.5: the symmetric
# boundary rate at L = 4 and L = 2, and the exhaustive forgetting TV at
# horizon 9 for L = 1..4.
R_L4 = 0.368306492052406
R_L2 = 0.3682531330012
TV_HORIZON9 = (0.43578121688021293, 0.2615890181938638,
               0.18297615618112523, 0.11964654732115215)

SWEEP_POINTS = 33
SLOTS = 200_000
LOADS = (("load095", 0.95), ("load110", 1.10))
SCHEDULERS = ("probabilistic", "maxweight")
ROUND_TRIP = ("load095", "probabilistic")
FORGET_LS = (1, 2, 3, 4)
EXHAUSTIVE_HORIZON = 9
EMPIRICAL_HORIZON = 12
EMPIRICAL_SAMPLES = 4096

STAGE_UNITS = {
    "distribution_s": "s", "sweep_s": "s",
    "probabilistic_slots_per_s": "slots/s", "maxweight_slots_per_s": "slots/s",
    "decode_tx_per_s": "tx/s",
    "forgetting_exhaustive_s": "s", "forgetting_empirical_s": "s",
}


class RoundAborted(Exception):
    """An operation raised, so the rest of its round cannot run."""


class Check:
    """Problems found in one operation's outputs."""

    def __init__(self):
        self.problems: list[str] = []

    def __call__(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


class Run:
    """Model, seed and failure ledger shared by the rounds of one run; with
    a tracer attached, operations and layer calls are recorded as spans."""

    def __init__(self, model, seed: int, workdir, tracer=None):
        self.model = model
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[tuple[str, list[str]]] = []

    def span(self, name, **attrs):
        return self.tracer.span(name, **attrs) if self.tracer else nullcontext({})

    @contextmanager
    def op(self, name):
        self.attempted += 1
        check = Check()
        raised = False
        if self.tracer:
            self.tracer.op = f"{name}#{self.attempted}"
        with self.span(f"bench.{name}"):
            try:
                yield check
            except Exception:   # a failed operation is counted, not fatal
                check.problems.append(traceback.format_exc(limit=-3))
                raised = True
        if check.problems:
            self.failures.append((name, check.problems))
        if raised:
            raise RoundAborted(name)


def check_distribution(check, table, wit, dist, rate) -> float:
    """Status, frozen rates, witness residual and achievability of a derived
    distribution; returns the residual."""
    if wit.status != "Optimal":
        check(False, f"region solve status {wit.status}")
        return math.inf
    for name, got in (("R1", wit.R1), ("R2", wit.R2)):
        check(abs(got - rate) <= RATE_TOL, f"{name} = {got!r}, expected {rate!r}")
    residual = region.witness_residual(table, wit)
    check(residual <= RESIDUAL_TOL, f"witness residual {residual:.3g}")
    check(region.achievable_check(table, dist, BACKOFF * wit.R1 - 1e-6,
                                  BACKOFF * wit.R2 - 1e-6),
          "achievable_check failed on the derived distribution")
    return residual


def check_decode(check, trace) -> None:
    report = sim.decode_verify(trace)
    check(report.ok, f"undecodable deliveries {report.failures}")


def design_round(run: Run):
    """L = 4 simulator distribution at lambda = 0.5, then the 33-point L = 3
    boundary sweep."""
    stages, facts = {}, {}
    with run.op("distribution") as check:
        t0 = perf_counter()
        table = filtering.window_table(run.model, 4)
        with run.span("region.simulation_distribution"):
            wit, dist, _ = region.simulation_distribution(table, 0.5, backoff=BACKOFF)
        stages["distribution_s"] = perf_counter() - t0
        residuals = [check_distribution(check, table, wit, dist, R_L4)]
    with run.op("sweep") as check:
        t0 = perf_counter()
        table = filtering.window_table(run.model, 3)
        with run.span("region.sweep_table"):
            points = region.sweep_table(table, SWEEP_POINTS)
        stages["sweep_s"] = perf_counter() - t0
        check(len(points) >= 2, f"sweep returned {len(points)} points")
        for p in points:
            check(p.status == "Optimal", f"sweep point status {p.status}")
            residuals.append(region.witness_residual(table, p))
            check(residuals[-1] <= RESIDUAL_TOL, f"sweep residual {residuals[-1]:.3g}")
            # every point must be optimal for its own weights among all points
            best = max(p.w1 * q.R1 + p.w2 * q.R2 for q in points)
            check(p.value >= best - RESIDUAL_TOL, f"sweep point at w1={p.w1} is not optimal")
    facts["region.sweep_points"] = len(points)
    facts["region.witness_residual_max"] = max(residuals)
    return stages, facts


def _round_trip(run: Run, trace) -> float:
    """save_trace then load_trace, as `xorcast verify` reads a trace;
    returns the file size in MB."""
    path = run.workdir / f"trace-{os.getpid()}.jsonl"
    with run.op("trace-round-trip") as check:
        try:
            with run.span("sim.save_trace"):
                sim.save_trace(trace, path)
            size = path.stat().st_size
            with run.span("sim.load_trace"):
                loaded = sim.load_trace(path)
        finally:
            path.unlink(missing_ok=True)
        check(loaded == trace, "loaded trace differs from the saved one")
        with run.span("sim.decode_verify", tx=len(loaded)):
            check_decode(check, loaded)
    return size / 1e6


def stability_round(run: Run):
    """Both schedulers at 0.95x and 1.10x of the L = 2, lambda = 0.5
    boundary point, with verdicts, decode checks and one trace round trip."""
    stages, facts = {}, dict.fromkeys(
        ("sim.verdicts.stable", "sim.verdicts.unstable", "sim.verdicts.inconclusive"), 0)
    with run.op("distribution") as check:
        table = filtering.window_table(run.model, 2)
        with run.span("region.simulation_distribution"):
            wit, dist, _ = region.simulation_distribution(table, 0.5, backoff=BACKOFF)
        check_distribution(check, table, wit, dist, R_L2)
    sim_s = dict.fromkeys(SCHEDULERS, 0.0)
    decode_s = 0.0
    tx = coded = 0
    for label, load in LOADS:
        rates = (min(1.0, load * wit.R1), min(1.0, load * wit.R2))
        for sched in SCHEDULERS:
            tag = f"{sched}.{label}"
            with run.op(f"simulate.{tag}") as check:
                t0 = perf_counter()
                with run.span("sim.simulate", scheduler=sched, load=label, slots=SLOTS):
                    rep = sim.simulate(run.model, sched, *rates, SLOTS, run.seed,
                                       dist=dist, collect_trace=True)
                sim_s[sched] += perf_counter() - t0
                with run.span("sim.stability_verdict"):
                    verdict = sim.stability_verdict(rep)
                # Inconclusive is not a failure: short runs near the
                # boundary legitimately end between the two thresholds.
                check(not (load < 1.0 and verdict == "Unstable"), f"{tag}: Unstable")
                check(not (load > 1.0 and verdict == "Stable"), f"{tag}: Stable")
                if load < 1.0:
                    for got, rate in zip(rep.throughput(), rates):
                        check(got >= THROUGHPUT_FLOOR * rate,
                              f"{tag}: throughput {got:.5f} below offered {rate:.5f}")
            facts[f"sim.verdicts.{verdict.lower()}"] += 1
            facts[f"sim.idle_share.{tag}"] = rep.action_counts["idle"] / rep.n
            facts[f"sim.delivered_per_slot.{tag}"] = sum(rep.delivered) / rep.n
            facts[f"sim.final_backlog.{tag}"] = rep.final_backlog
            with run.op(f"decode.{tag}") as check:
                t0 = perf_counter()
                with run.span("sim.decode_verify", tx=len(rep.trace)):
                    check_decode(check, rep.trace)
                decode_s += perf_counter() - t0
            tx += len(rep.trace)
            coded += sum(len(row[2]) == 2 for row in rep.trace)
            if (label, sched) == ROUND_TRIP:
                facts["sim.trace_mb"] = _round_trip(run, rep.trace)
            del rep
    slots = SLOTS * len(LOADS)
    stages["probabilistic_slots_per_s"] = slots / sim_s["probabilistic"]
    stages["maxweight_slots_per_s"] = slots / sim_s["maxweight"]
    stages["decode_tx_per_s"] = tx / decode_s
    facts["sim.trace_tx"] = tx
    facts["sim.coded_share"] = coded / tx
    return stages, facts


def memory_round(run: Run):
    """Both paths of `xorcast forgetting`: exhaustive at horizon 9 and
    empirical at horizon 12 with seeded samples, for L = 1..4."""
    stages = {"forgetting_exhaustive_s": 0.0, "forgetting_empirical_s": 0.0}
    sigma = channel.forgetting_rate_bound(run.model)

    def bound(L):
        return math.inf if sigma is None else 2.0 * (1.0 - sigma) ** L + TV_TOL

    previous = math.inf
    for L, frozen in zip(FORGET_LS, TV_HORIZON9):
        with run.op(f"exhaustive.L{L}") as check:
            t0 = perf_counter()
            with run.span("filtering.exhaustive_forgetting", L=L):
                tv = filtering.exhaustive_forgetting(run.model, L, EXHAUSTIVE_HORIZON)
            stages["forgetting_exhaustive_s"] += perf_counter() - t0
            check(tv <= previous + TV_TOL, f"L={L}: TV {tv!r} rose from {previous!r}")
            check(tv <= bound(L), f"L={L}: TV {tv!r} above 2(1-sigma)^L")
            check(abs(tv - frozen) <= TV_TOL, f"L={L}: TV {tv!r}, expected {frozen!r}")
            previous = tv
    for L in FORGET_LS:
        with run.op(f"empirical.L{L}") as check:
            t0 = perf_counter()
            with run.span("filtering.empirical_forgetting", L=L):
                tv = filtering.empirical_forgetting(run.model, L, EMPIRICAL_HORIZON,
                                                    run.seed, EMPIRICAL_SAMPLES)
            stages["forgetting_empirical_s"] += perf_counter() - t0
            check(0.0 <= tv <= bound(L), f"L={L}: sampled TV {tv!r} out of range")
    return stages, {}


WORKLOADS = {"design": design_round, "stability": stability_round, "memory": memory_round}


def selftest(model, seed: int, workdir) -> bool:
    """True when a perturbed distribution and a corrupted trace each register
    as one failed operation while their intact versions pass."""
    probe = Run(model, seed, workdir)
    table = filtering.window_table(model, 2)
    wit, dist, _ = region.simulation_distribution(table, 0.5, backoff=BACKOFF)
    perturbed = dist.table.copy()
    perturbed[:, 4] += perturbed[:, 0]      # fresh-1 mass moved to remedies
    perturbed[:, 0] = 0.0
    rep = sim.simulate(model, "probabilistic", 0.5 * wit.R1, 0.5 * wit.R2, 5000, seed,
                       dist=dist, collect_trace=True)
    corrupted = rep.trace + [(5000, sim.FRESH1, (10 ** 9,), False, False, ((1, 10 ** 9),))]
    cases = (("distribution", lambda c: check_distribution(c, table, wit, dist, R_L2)),
             ("perturbed-distribution", lambda c: check_distribution(
                 c, table, wit, region.ActionDistribution(2, perturbed), R_L2)),
             ("trace", lambda c: check_decode(c, rep.trace)),
             ("corrupted-trace", lambda c: check_decode(c, corrupted)))
    for name, fn in cases:
        with probe.op(name) as check:
            fn(check)
    return [name for name, _ in probe.failures] == ["perturbed-distribution", "corrupted-trace"]
