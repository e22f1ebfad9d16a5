"""Checks on the package source itself, and on the state its objects keep,
rather than on its behaviour."""

import ast
import random
import sys
from pathlib import Path

import xorcast as xc
from xorcast.lp import _Simplex

from test_lp import random_program

SRC = Path(__file__).resolve().parent.parent / "src" / "xorcast"


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
