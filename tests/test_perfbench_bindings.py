"""The functions that the perfbench tracer wraps by name still exist."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve annotations through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_binding_is_callable():
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr, *_ in _load_tracing().BINDINGS
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert missing == []
