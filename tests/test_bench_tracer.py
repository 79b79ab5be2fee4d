"""The benchmark tracer names dgcat functions and methods by string; each
must still exist, so a rename or deletion fails here rather than in a later
traced benchmark run."""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "dgbench" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("dgbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracer  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(tracer)
    finally:
        del sys.modules[spec.name]
    entries = [(owner, attr) for _, owner, attr, _ in tracer.SPANS] + [(owner, attr) for _, owner, attr in tracer.COUNTS]
    assert entries
    for owner, attr in entries:
        holder = tracer._resolve(owner)
        # a method is patched on its own class, a function on its module
        found = attr in vars(holder) if isinstance(holder, type) else callable(getattr(holder, attr, None))
        assert found, f"{owner}.{attr} is traced but does not exist"
