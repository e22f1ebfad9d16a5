"""The traced benchmark pass replaces package names listed in
bench/tracing.py's WRAPPED by recording wrappers. A name the package no
longer has would make that pass fail, so every entry must resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_wrapped_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.WRAPPED
    missing = []
    for mod_name, attr, _span, _aggregate in tracing.WRAPPED:
        fn = getattr(importlib.import_module(f"xorcast.{mod_name}"), attr, None)
        if not callable(fn):
            missing.append(f"xorcast.{mod_name}.{attr}")
    assert not missing, missing
