"""The benchmark's per-layer tracing still finds every function it wraps.

perfbench/tracing.py measures a layer by replacing a module attribute
with a timing wrapper. A refactor that renames, moves or inlines one of
those functions would make its metric read as missing; this test fails
instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_wrap_point_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while being built
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert tracing.WRAP_POINTS
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr, _span, _counters in tracing.WRAP_POINTS
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert missing == []
