"""Checks on the package source itself, and on the state its objects keep,
rather than on its behaviour."""

import ast
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import xorcast as xc
from xorcast.lp import _Simplex

from test_lp import random_program

SRC = Path(__file__).resolve().parent.parent / "src" / "xorcast"
MODEL = SRC.parent.parent / "bench" / "ref_model.json"

# the names the package bound at import before its layers loaded lazily,
# by the module that defines them
EXPORTS = {
    "channel": ("ChannelModel", "PATTERN_INDEX", "PATTERNS", "ValidationReport",
                "forgetting_margin", "forgetting_rate_bound", "load_model",
                "model_from_dict", "model_to_dict", "sample_trajectory", "save_model",
                "stationary_distribution", "validate_model"),
    "errors": ("ContractViolation", "ModelFormatError", "NoUniqueStationary",
               "NumericalFailure", "ResourceLimit", "StructuralError", "TraceFormatError",
               "XorcastError", "ZeroLikelihood"),
    "filtering": ("ErasureStats", "WindowTable", "dump_window_table", "empirical_forgetting",
                  "exhaustive_forgetting", "filter_step", "init_belief",
                  "predict_pattern_probs", "predict_stats", "window_codes", "window_index",
                  "window_label", "window_table"),
    "lp": ("LinearProgram", "LpSolution", "solve"),
    "region": ("ActionDistribution", "CanonicalizationReport", "CapacitySet", "CutValues",
               "RegionWitness", "SandwichResult", "achievable_check", "boundary_sweep",
               "canonicalize", "cut_values", "dist_from_dict", "dist_to_dict",
               "link_capacities", "load_dist", "max_rate", "robust_witness", "sandwich",
               "save_dist", "simulation_distribution", "solve_region", "sweep_table",
               "witness_residual", "xy_to_actions"),
    "sim": ("DecodeReport", "SimReport", "decode_verify", "load_trace", "maxweight_action",
            "save_trace", "simulate", "stability_verdict", "substitute_action"),
}
PUBLIC = {name for module, names in EXPORTS.items() for name in (module, *names)}


def test_no_bare_assert():
    # invariants raise package errors: python -O strips assert statements
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, "assert statements in src/xorcast: " + ", ".join(found)


def test_runtime_imports_are_stdlib_or_numpy():
    # scipy and the rest stay test-only: the package needs numpy alone
    allowed = set(sys.stdlib_module_names) | {"numpy", "xorcast"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in allowed]
    assert not found, "imports outside the standard library and numpy: " + ", ".join(found)


def test_private_names_are_used():
    # a module-level private name that nothing in the package reads is
    # dead code: the tests may reach into private helpers, but they cannot
    # keep one alive
    defined = {}
    used = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            defined.update((name, f"{path.name}:{node.lineno}") for name in names
                           if name.startswith("_") and not name.startswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [f"{where} {name}" for name, where in sorted(defined.items()) if name not in used]
    assert defined and not unused, "private names nothing in src/xorcast reads: " + ", ".join(unused)


def test_collector_paused_in_one_place():
    # pausing the cyclic collector and moving its generations is one
    # decision, made in sim._gc_paused
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute)
                        and node.attr in ("disable", "enable", "freeze", "unfreeze")
                        and isinstance(node.value, ast.Name) and node.value.id == "gc"):
                    found.add((path.name, getattr(top, "name", None)))
                elif isinstance(node, ast.ImportFrom) and node.module == "gc":
                    found.add((path.name, f"line {node.lineno}: from gc import"))
    assert found == {("sim.py", "_gc_paused")}, found


def test_json_parsed_only_by_load_and_loads():
    # one JSON reader: text becomes values through json.load or json.loads,
    # never through a decoder object or raw_decode of the package's own
    allowed = {"load", "loads", "dump", "dumps", "JSONDecodeError"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("json"):
                found.append(f"{path.name}:{node.lineno} from {node.module} import")
            elif isinstance(node, ast.Attribute) and (
                    node.attr in ("JSONDecoder", "raw_decode")
                    or isinstance(node.value, ast.Name) and node.value.id == "json"
                    and node.attr not in allowed):
                found.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert not found, "JSON parsed outside json.load and json.loads: " + ", ".join(found)


def test_generators_made_once_per_run():
    # a run seeds one generator once, where it is made: reseeding costs more
    # than the doubles a short path draws from it
    reseeded, made = [], set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom) and node.module == "random":
                    made.add((path.name, f"line {node.lineno}: from random import", None))
                if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
                    continue
                if node.func.attr == "seed":
                    reseeded.append(f"{path.name}:{node.lineno}")
                elif (node.func.attr == "Random" and isinstance(node.func.value, ast.Name)
                        and node.func.value.id == "random"):
                    made.add((path.name, getattr(top, "name", None),
                              len(node.args) + len(node.keywords)))
    assert not reseeded, "seed calls in src/xorcast: " + ", ".join(reseeded)
    assert made == {("channel.py", "_draw_codes", 1), ("channel.py", "sample_trajectory", 1),
                    ("sim.py", "simulate", 1)}, made


def test_unread_imports_are_traced_names():
    # an imported name that its module never reads is dead, unless the
    # traced benchmark replaces it there by name (bench/tracing.py WRAPPED)
    # to time the calls made through it
    tracing = SRC.parent.parent / "bench" / "tracing.py"
    wrapped = next(ast.literal_eval(node.value)
                   for node in ast.parse(tracing.read_text(encoding="utf-8")).body
                   if isinstance(node, ast.Assign)
                   and getattr(node.targets[0], "id", None) == "WRAPPED")
    allowed = {(module, name) for module, name, _span, _aggregate in wrapped}
    unread = set()
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread |= {(path.stem, name) for name in imported - read}
    assert unread <= allowed, "imported and never read: " + ", ".join(
        f"{module}.{name}" for module, name in sorted(unread - allowed))


def test_simplex_keeps_each_tableau_fact_once():
    # the pricing signs (zero on blocked columns) and the basic columns'
    # bounds are derived from at_upper, basis and u inside the iteration
    # loop and die with it, so a solved tableau holds no second record of
    # them
    kept = {"lp", "T", "beta", "basis", "u", "at_upper", "is_artificial", "pivots", "cap"}
    rng = random.Random(99)
    programs = [random_program(rng) for _ in range(50)]
    programs.append(xc.LinearProgram([1, 2], [([1, 1], "<=", 1), ([2, 2], "=", 2)],
                                     [(0, 1), (0, 1)]))
    statuses = set()
    for program in programs:
        sx = _Simplex(program)
        assert set(vars(sx)) == kept
        statuses.add(sx.solve().status)
        assert set(vars(sx)) == kept
    assert statuses == {"Optimal", "Infeasible"}


def _loaded_after(code, *args):
    """The xorcast modules a fresh interpreter holds after running code,
    which sees args as sys.argv[1:] and may exit non-zero to fail."""
    script = ("import json, sys\n" + code + "\nprint(json.dumps(sorted("
              "m for m in sys.modules if m.partition('.')[0] == 'xorcast')))")
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout))


BASE = {"xorcast", "xorcast.channel", "xorcast.errors"}


def test_model_only_start_loads_the_channel_layer():
    # a caller that only reads a model compiles no filter, LP, region or
    # simulator code
    assert _loaded_after("import xorcast; xorcast.load_model(sys.argv[1])", MODEL) == BASE


def test_simulator_loads_no_region_or_lp():
    assert _loaded_after("import xorcast.sim") == BASE | {"xorcast.filtering", "xorcast.sim"}


def test_first_layer_attribute_loads_the_layer():
    # xorcast.filtering before anything imported it, then a name of it
    code = ("import xorcast\n"
            "table = xorcast.filtering.window_table(xorcast.load_model(sys.argv[1]), 1)\n"
            "if xorcast.window_table is not xorcast.filtering.window_table or len(table) != 4:\n"
            "    sys.exit('filtering attribute')")
    assert _loaded_after(code, MODEL) == BASE | {"xorcast.filtering"}


def test_cli_commands_load_the_layers_they_run(tmp_path):
    report = xc.simulate(xc.load_model(MODEL), "maxweight", 0.2, 0.2, 200, 1,
                         collect_trace=True)
    trace = tmp_path / "trace.jsonl"
    xc.save_trace(report.trace, trace)
    out = tmp_path / "out"
    commands = {
        ("forgetting", "--model", MODEL, "--L", "2", "--horizon", "3"): set(),
        ("dump-window-table", "--model", MODEL, "--L", "1"): set(),
        ("verify", "--trace", trace): {"xorcast.sim"},
        ("simulate", "--model", MODEL, "--scheduler", "maxweight", "--rates", "0.2,0.2",
         "--slots", "100"): {"xorcast.sim"},
    }
    code = "from xorcast import cli\nif cli.main(sys.argv[1:]) != 0:\n    sys.exit('failed')"
    for argv, extra in commands.items():
        loaded = _loaded_after(code, *argv, "--out", out)
        assert loaded == BASE | {"xorcast.cli", "xorcast.filtering"} | extra, argv[0]


def test_package_names_are_their_modules_objects():
    for module, names in EXPORTS.items():
        layer = getattr(xc, module)
        assert layer is sys.modules[f"xorcast.{module}"]
        for name in names:
            assert getattr(xc, name) is getattr(layer, name), name


def test_package_lists_its_public_names():
    # a submodule imported later (cli) is bound on the package as ever
    assert {name for name in dir(xc) if not name.startswith("_")} - {"cli"} == PUBLIC
    star = {}
    exec("from xorcast import *", star)
    star.pop("__builtins__")
    assert set(star) == PUBLIC
    assert all(star[name] is getattr(xc, name) for name in PUBLIC)


def test_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError) as err:
        xc.no_such_name
    assert str(err.value) == "module 'xorcast' has no attribute 'no_such_name'"
    assert getattr(xc, "no_such_name", None) is None
