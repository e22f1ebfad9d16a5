"""Command line interface.

Subcommands: region, simulate, forgetting, verify, canonicalize,
dump-window-table. Options can come from a JSON config file (--config);
explicit flags win over config values. Exit codes: 0 success, 1 numerical
or verification failure, 2 configuration or file problems (a window length
or a sampled forgetting draw above a cap among them), 3 malformed data files.
Each subcommand imports the layers it runs, so that `forgetting` and
`dump-window-table` load no LP, region or simulator code, and `verify` and a
max-weight `simulate` no LP or region code.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import asdict

from . import __version__
from .channel import _read_json, forgetting_margin, load_model
from .errors import (ContractViolation, ModelFormatError, NumericalFailure,
                     ResourceLimit, TraceFormatError, XorcastError)


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
                self.cfg = _read_json(args.config)
            except ModelFormatError as e:
                raise ConfigError(f"config: {e}") from e
            if not isinstance(self.cfg, dict):
                raise ConfigError("config: expected a JSON object")
            # one file may serve several subcommands, so a key need only be
            # an option of one of them
            for key in sorted(set(self.cfg) - args.config_keys):
                raise ConfigError(f"config: unknown key {key!r}; it is no option "
                                  "of any subcommand")

    def get(self, name, default=None, required=False, kind=None):
        """The flag value, else the config value, else default; kind int or
        float parses it as a number, and kind str (a file path) requires a
        string. name is the argparse dest and the config key alike."""
        option = "--" + name.replace("_", "-")
        val = getattr(self.args, name, None)
        if val is None:
            val = self.cfg.get(name, default)
        if required and val is None:
            raise ConfigError(f"missing required option {option}")
        if kind is None or val is None:
            return val
        if kind is str:
            if not isinstance(val, str):
                raise ConfigError(f"{option} expects a file path, got {val!r}")
            return val
        return _number(val, option, kind)


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
    return load_model(opts.get("model", required=True, kind=str))


def _parse_rates(raw) -> tuple:
    parts = raw.split(",") if isinstance(raw, str) else raw
    if not isinstance(parts, (list, tuple)) or len(parts) != 2:
        raise ConfigError("--rates expects R1,R2")
    return _number(parts[0], "--rates", float), _number(parts[1], "--rates", float)


def cmd_region(opts) -> int:
    from .filtering import window_table
    from .region import sandwich, solve_region, sweep_table
    model = _load_model_opt(opts)
    L = opts.get("L", required=True, kind=int)
    lam = opts.get("lambda", kind=float)
    witness_out = opts.get("witness_out", kind=str)
    if witness_out and lam is None:
        raise ConfigError("--witness-out needs --lambda; a sweep has no single witness")
    rows = []
    bracket = opts.get("sandwich", default=False)
    if not isinstance(bracket, bool):
        raise ConfigError(f"--sandwich expects true or false, got {bracket!r}")
    if bracket:
        if lam is None:
            raise ConfigError("--sandwich needs --lambda")
        res = sandwich(model, L, lam, 1.0 - lam)
        rows.append((lam, res.inner.R1, res.inner.R2, "inner"))
        rows.append((lam, res.outer.R1, res.outer.R2, "outer"))
        wit = res.inner
    elif lam is not None:
        wit = solve_region(window_table(model, L), lam, 1.0 - lam)
        rows.append((lam, wit.R1, wit.R2, wit.status))
    else:
        k = opts.get("sweep", default=33, kind=int)
        for wit in sweep_table(window_table(model, L), k):
            rows.append((wit.w1, wit.R1, wit.R2, wit.status))
    with _output(opts.get("out", kind=str)) as out:
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
    from .sim import VERDICT_MIN_SLOTS, simulate, stability_verdict, write_trace
    trace_path = opts.get("trace", kind=str)
    csv_path = opts.get("csv", kind=str)
    out_path = opts.get("out", kind=str)
    if [trace_path, csv_path, out_path or "-"].count("-") > 1:
        raise ConfigError("at most one of --out, --csv and --trace may write to stdout")
    model = _load_model_opt(opts)
    scheduler = opts.get("scheduler", required=True)
    r1, r2 = _parse_rates(opts.get("rates", required=True))
    n = opts.get("slots", required=True, kind=int)
    seed = opts.get("seed", default=0, kind=int)
    dist = None
    if scheduler == "probabilistic":
        from .filtering import window_table
        from .region import load_dist, simulation_distribution
        dist_path = opts.get("dist", kind=str)
        if dist_path:
            dist = load_dist(dist_path)
        else:
            lam = opts.get("lambda", kind=float)
            L = opts.get("L", kind=int)
            if lam is None or L is None:
                raise ConfigError("probabilistic runs need --dist or both --lambda and --L")
            table = window_table(model, L)
            _, dist, _ = simulation_distribution(table, lam)
    report = simulate(model, scheduler, r1, r2, n, seed, dist=dist,
                      collect_trace=bool(trace_path), collect_slots=bool(csv_path))
    if trace_path:
        with _output(trace_path) as out:
            write_trace(report.trace, out)
    if csv_path:
        with _output(csv_path) as out:
            w = csv.writer(out)
            w.writerow(["slot", "action", "z1", "z2", "totalQ", "delivered1", "delivered2"])
            for row in report.slot_rows:
                w.writerow(row)
    verdict = stability_verdict(report) if n >= VERDICT_MIN_SLOTS else None
    summary = {
        "scheduler": report.scheduler,
        "R1": report.R1, "R2": report.R2, "slots": report.n, "seed": report.seed,
        "arrivals": list(report.arrivals), "delivered": list(report.delivered),
        "throughput": [float(_fmt(t)) for t in report.throughput()],
        "final_backlog": report.final_backlog,
        "action_counts": report.action_counts,
        "verdict": verdict,
    }
    _write_json(out_path, summary)
    return 0


def cmd_forgetting(opts) -> int:
    from .filtering import _check_window, _exhaustive_tvs, _sampled_tvs
    model = _load_model_opt(opts)
    l_max = opts.get("L", required=True, kind=int)
    _check_window(l_max)
    horizon = opts.get("horizon", default=l_max + 4, kind=int)
    seed = opts.get("seed", default=0, kind=int)
    samples = opts.get("samples", default=256, kind=int)
    ls = range(1, l_max + 1)
    if horizon <= 9:    # at most 4**8 = 65536 histories to enumerate
        tvs, method = _exhaustive_tvs(model, ls, horizon), "exhaustive"
    else:
        tvs, method = _sampled_tvs(model, ls, horizon, seed, samples), "empirical"
    rows = []   # all rows first, so an error leaves no partial CSV
    for L, tv in zip(ls, tvs):
        margin = forgetting_margin(model, L)
        bound = "" if margin is None else _fmt(margin)
        rows.append([L, _fmt(tv), bound, method])
    with _output(opts.get("out", kind=str)) as out:
        w = csv.writer(out)
        w.writerow(["L", "tv", "bound", "method"])
        w.writerows(rows)
    return 0


def cmd_verify(opts) -> int:
    from .sim import decode_verify, load_trace
    trace = load_trace(opts.get("trace", required=True, kind=str))
    report = decode_verify(trace)
    summary = {
        "ok": report.ok,
        "receiver_ok": list(report.receiver_ok),
        "failures": [{"receiver": j, "packet": pid, "slot": slot}
                     for j, pid, slot in report.failures],
        "transmissions": len(trace),
    }
    _write_json(opts.get("out", kind=str), summary)
    return 0 if report.ok else 1


def cmd_canonicalize(opts) -> int:
    from .filtering import window_table
    from .region import canonicalize, dist_to_dict, load_dist
    model = _load_model_opt(opts)
    dist = load_dist(opts.get("dist", required=True, kind=str))
    table = window_table(model, dist.L)
    new_dist, rep = canonicalize(dist, table)
    _write_json(opts.get("out", kind=str), {**dist_to_dict(new_dist), **asdict(rep)})
    return 0


def cmd_dump_window_table(opts) -> int:
    from .filtering import dump_window_table, window_table
    model = _load_model_opt(opts)
    L = opts.get("L", required=True, kind=int)
    table = window_table(model, L)
    with _output(opts.get("out", kind=str)) as out:
        dump_window_table(table, out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="xorcast")
    p.add_argument("--version", action="version", version=f"xorcast {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, model=True):
        sp.add_argument("--config", help="JSON file of option defaults")
        if model:
            sp.add_argument("--model", help="channel model JSON file")
        sp.add_argument("--out", help="output path (default stdout)")

    sp = sub.add_parser("region", help="boundary points of the L-th order region")
    common(sp)
    sp.add_argument("--L")
    sp.add_argument("--lambda", help="single weight point")
    sp.add_argument("--sweep", help="number of sweep weights (default 33)")
    sp.add_argument("--sandwich", action="store_true", default=None,
                    help="bracket the --lambda point with inner/outer bounds")
    sp.add_argument("--witness-out", dest="witness_out", help="write the witness JSON here")
    sp.set_defaults(func=cmd_region)

    sp = sub.add_parser("simulate", help="run one scheduler on a sampled channel path")
    common(sp)
    sp.add_argument("--scheduler", choices=["maxweight", "probabilistic"])
    sp.add_argument("--rates", help="R1,R2")
    sp.add_argument("--slots")
    sp.add_argument("--seed")
    sp.add_argument("--L")
    sp.add_argument("--lambda", help="derive the action distribution from this boundary point")
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
    common(sp, model=False)
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
    # the keys a --config file may hold: every option of every subcommand
    options = set().union(*(vars(cmd.parse_args([])) for cmd in sub.choices.values()))
    p.set_defaults(config_keys=options - {"config", "func"})
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
            ContractViolation, ResourceLimit) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (NumericalFailure, XorcastError) as e:
        detail = ", ".join(f"{k}={v}" for k, v in getattr(e, "diagnostics", {}).items())
        print(f"error: {e}" + (f" ({detail})" if detail else ""), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
