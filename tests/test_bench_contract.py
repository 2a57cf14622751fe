"""The benchmark's traced run wraps trinls names by (module, attribute).

A simplification that drops or renames one of them breaks the traced
benchmark; this test makes it fail in the suite instead.  The list is read
from bench/tracing.py, which is loaded as a plain file and not modified.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_boundary_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{mod}.{attr}" for mod, attr in tracing.BOUNDARIES
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert tracing.BOUNDARIES and missing == []
