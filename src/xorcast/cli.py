"""Command line interface.

Subcommands: region, simulate, forgetting, verify, canonicalize,
dump-window-table. Options can come from a JSON config file (--config);
explicit flags win over config values. Exit codes: 0 success, 1 numerical
or verification failure, 2 configuration or file problems, 3 malformed
data files.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from contextlib import contextmanager

from . import __version__
from .channel import forgetting_rate_bound, load_model
from .errors import (ContractViolation, ModelFormatError, NumericalFailure,
                     TraceFormatError, XorcastError)
from .filtering import (dump_window_table, empirical_forgetting,
                        exhaustive_forgetting, window_table)
from .region import (canonicalize, dist_from_dict, dist_to_dict, load_dist,
                     sandwich, simulation_distribution, solve_region, sweep_table)
from .sim import decode_verify, load_trace, save_trace, simulate, stability_verdict


class ConfigError(Exception):
    pass


def _fmt(v: float) -> str:
    return f"{v:.12g}"


class Options:
    """Flag values overlaid on an optional JSON config file."""

    def __init__(self, args):
        self.args = args
        self.cfg = {}
        if getattr(args, "config", None):
            try:
                with open(args.config, "r", encoding="utf-8") as f:
                    self.cfg = json.load(f)
            except json.JSONDecodeError as e:
                raise ConfigError(f"config: line {e.lineno}: {e.msg}") from e
            if not isinstance(self.cfg, dict):
                raise ConfigError("config: expected a JSON object")

    def get(self, name, default=None, required=False, cfg_key=None, kind=None):
        """The flag value, else the config value, else default; kind (int or
        float) parses it as a number."""
        option = "--" + (cfg_key or name).replace("_", "-")
        val = getattr(self.args, name, None)
        if val is None:
            val = self.cfg.get(cfg_key or name, default)
        if required and val is None:
            raise ConfigError(f"missing required option {option}")
        if kind is not None and val is not None:
            val = _number(val, option, kind)
        return val


def _number(raw, option: str, kind):
    """A flag string or a config value as an int or a finite float. Text
    that does not parse, a bool, a fraction where an int is due, nan and
    infinities raise ConfigError naming the option."""
    ok = isinstance(raw, str) or type(raw) is int or (kind is float and type(raw) is float)
    try:
        val = kind(raw) if ok else None
    except (ValueError, OverflowError):
        val = None
    if val is None or (kind is float and not math.isfinite(val)):
        what = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"{option} expects {what}, got {raw!r}")
    return val


@contextmanager
def _output(path):
    """The output file at path, or stdout for None and "-"."""
    if path in (None, "-"):
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8", newline="") as f:
        yield f


def _write_json(path, obj) -> None:
    with _output(path) as out:
        json.dump(obj, out, indent=2)
        out.write("\n")


def _load_model_opt(opts) -> object:
    return load_model(opts.get("model", required=True))


def _parse_rates(raw) -> tuple:
    parts = raw.split(",") if isinstance(raw, str) else raw
    if not isinstance(parts, (list, tuple)) or len(parts) != 2:
        raise ConfigError("--rates expects R1,R2")
    return _number(parts[0], "--rates", float), _number(parts[1], "--rates", float)


def cmd_region(opts) -> int:
    model = _load_model_opt(opts)
    L = opts.get("L", required=True, cfg_key="L", kind=int)
    lam = opts.get("lam", cfg_key="lambda", kind=float)
    witness_out = opts.get("witness_out")
    if witness_out and lam is None:
        raise ConfigError("--witness-out needs --lambda; a sweep has no single witness")
    table = window_table(model, L)
    rows = []
    if opts.get("sandwich", default=False):
        if lam is None:
            raise ConfigError("--sandwich needs --lambda")
        res = sandwich(model, L, lam, 1.0 - lam)
        if res.inner is not None:
            rows.append((lam, res.inner.R1, res.inner.R2, "inner"))
        rows.append((lam, res.nominal.R1, res.nominal.R2, "nominal"))
        if res.outer is not None:
            rows.append((lam, res.outer.R1, res.outer.R2, "outer"))
        if res.degraded:
            print("forgetting rate unavailable; nominal point only", file=sys.stderr)
        wit = res.nominal
    elif lam is not None:
        wit = solve_region(table, lam, 1.0 - lam)
        rows.append((lam, wit.R1, wit.R2, wit.status))
    else:
        k = opts.get("sweep", default=33, kind=int)
        for wit in sweep_table(table, k):
            rows.append((wit.w1, wit.R1, wit.R2, wit.status))
    with _output(opts.get("out")) as out:
        w = csv.writer(out)
        w.writerow(["lambda", "R1", "R2", "status"])
        for lam_v, r1, r2, status in rows:
            w.writerow([_fmt(lam_v), _fmt(r1), _fmt(r2), status])
    if witness_out:
        with open(witness_out, "w", encoding="utf-8") as f:
            json.dump({"lambda": wit.w1, "R1": wit.R1, "R2": wit.R2,
                       "x": list(map(float, wit.x)), "y": list(map(float, wit.y))}, f)
            f.write("\n")
    return 0


def cmd_simulate(opts) -> int:
    model = _load_model_opt(opts)
    scheduler = opts.get("scheduler", required=True)
    r1, r2 = _parse_rates(opts.get("rates", required=True))
    n = opts.get("slots", required=True, kind=int)
    seed = opts.get("seed", default=0, kind=int)
    dist = None
    if scheduler == "probabilistic":
        dist_path = opts.get("dist")
        if dist_path:
            dist = load_dist(dist_path)
        else:
            lam = opts.get("lam", cfg_key="lambda", kind=float)
            L = opts.get("L", cfg_key="L", kind=int)
            if lam is None or L is None:
                raise ConfigError("probabilistic runs need --dist or both --lambda and --L")
            table = window_table(model, L)
            _, dist, _ = simulation_distribution(table, lam)
    trace_path = opts.get("trace")
    csv_path = opts.get("csv")
    report = simulate(model, scheduler, r1, r2, n, seed, dist=dist,
                      collect_trace=bool(trace_path), collect_slots=bool(csv_path))
    if trace_path:
        save_trace(report.trace, trace_path)
    if csv_path:
        with _output(csv_path) as out:
            w = csv.writer(out)
            w.writerow(["slot", "action", "z1", "z2", "totalQ", "delivered1", "delivered2"])
            for row in report.slot_rows:
                w.writerow(row)
    verdict = stability_verdict(report) if n >= 10_000 else None
    summary = {
        "scheduler": report.scheduler,
        "R1": report.R1, "R2": report.R2, "slots": report.n, "seed": report.seed,
        "arrivals": list(report.arrivals), "delivered": list(report.delivered),
        "throughput": [float(_fmt(t)) for t in report.throughput()],
        "final_backlog": report.final_backlog,
        "action_counts": report.action_counts,
        "verdict": verdict,
    }
    _write_json(opts.get("out"), summary)
    return 0


def cmd_forgetting(opts) -> int:
    model = _load_model_opt(opts)
    l_max = opts.get("L", required=True, cfg_key="L", kind=int)
    if l_max < 1:
        raise ContractViolation("window length must be at least 1")
    horizon = opts.get("horizon", default=l_max + 4, kind=int)
    seed = opts.get("seed", default=0, kind=int)
    samples = opts.get("samples", default=256, kind=int)
    sigma = forgetting_rate_bound(model)
    rows = []   # all rows first, so an error leaves no partial CSV
    for L in range(1, l_max + 1):
        if 4 ** (horizon - 1) <= 65536:
            tv = exhaustive_forgetting(model, L, horizon)
            method = "exhaustive"
        else:
            tv = empirical_forgetting(model, L, horizon, seed, samples)
            method = "empirical"
        bound = "" if sigma is None else _fmt(2.0 * (1.0 - sigma) ** L)
        rows.append([L, _fmt(tv), bound, method])
    with _output(opts.get("out")) as out:
        w = csv.writer(out)
        w.writerow(["L", "tv", "bound", "method"])
        w.writerows(rows)
    return 0


def cmd_verify(opts) -> int:
    trace = load_trace(opts.get("trace", required=True))
    report = decode_verify(trace)
    summary = {
        "ok": report.ok,
        "receiver_ok": list(report.receiver_ok),
        "failures": [{"receiver": j, "packet": pid, "slot": slot}
                     for j, pid, slot in report.failures],
        "transmissions": len(trace),
    }
    _write_json(opts.get("out"), summary)
    return 0 if report.ok else 1


def cmd_canonicalize(opts) -> int:
    model = _load_model_opt(opts)
    dist = load_dist(opts.get("dist", required=True))
    table = window_table(model, dist.L)
    new_dist, rep = canonicalize(dist, table)
    payload = dist_to_dict(new_dist)
    payload["case"] = rep.case
    payload["theta"] = rep.theta
    payload["cuts_before"] = {k: list(getattr(rep.cuts_before, k)) for k in "abcd"}
    payload["cuts_after"] = {k: list(getattr(rep.cuts_after, k)) for k in "abcd"}
    _write_json(opts.get("out"), payload)
    return 0


def cmd_dump_window_table(opts) -> int:
    model = _load_model_opt(opts)
    L = opts.get("L", required=True, cfg_key="L", kind=int)
    table = window_table(model, L)
    with _output(opts.get("out")) as out:
        dump_window_table(table, out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="xorcast")
    p.add_argument("--version", action="version", version=f"xorcast {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON file of option defaults")
        sp.add_argument("--model", help="channel model JSON file")
        sp.add_argument("--out", help="output path (default stdout)")

    sp = sub.add_parser("region", help="boundary points of the L-th order region")
    common(sp)
    sp.add_argument("--L")
    sp.add_argument("--lambda", dest="lam", help="single weight point")
    sp.add_argument("--sweep", help="number of sweep weights (default 33)")
    sp.add_argument("--sandwich", action="store_true",
                    help="bracket the --lambda point with inner/outer bounds")
    sp.add_argument("--witness-out", dest="witness_out", help="write the LP witness JSON here")
    sp.set_defaults(func=cmd_region)

    sp = sub.add_parser("simulate", help="run one scheduler on a sampled channel path")
    common(sp)
    sp.add_argument("--scheduler", choices=["maxweight", "probabilistic"])
    sp.add_argument("--rates", help="R1,R2")
    sp.add_argument("--slots")
    sp.add_argument("--seed")
    sp.add_argument("--L")
    sp.add_argument("--lambda", dest="lam",
                    help="derive the action distribution from this boundary point")
    sp.add_argument("--dist", help="action distribution JSON file")
    sp.add_argument("--trace", help="write a JSON-lines transmission trace here")
    sp.add_argument("--csv", help="write a per-slot CSV here")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("forgetting", help="memory decay of the conditional filter")
    common(sp)
    sp.add_argument("--L", help="largest window length to report")
    sp.add_argument("--horizon")
    sp.add_argument("--seed")
    sp.add_argument("--samples")
    sp.set_defaults(func=cmd_forgetting)

    sp = sub.add_parser("verify", help="check delivery claims in a trace are decodable")
    common(sp)
    sp.add_argument("--trace", help="JSON-lines trace file")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("canonicalize", help="reapportion mixing mass in a distribution")
    common(sp)
    sp.add_argument("--dist", help="action distribution JSON file")
    sp.set_defaults(func=cmd_canonicalize)

    sp = sub.add_parser("dump-window-table", help="window probabilities and statistics as CSV")
    common(sp)
    sp.add_argument("--L")
    sp.set_defaults(func=cmd_dump_window_table)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        opts = Options(args)
        return args.func(opts)
    except (ModelFormatError, TraceFormatError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ConfigError, FileNotFoundError, IsADirectoryError, PermissionError,
            ContractViolation) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (NumericalFailure, XorcastError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
