"""The benchmark's tracer (perfbench/tracing.py) looks up every function it
times by name; a function deleted or renamed in cspbench must fail here
rather than in a traced benchmark run."""

import importlib
import importlib.util
import os

TRACING = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "perfbench", "tracing.py")


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{name}"
               for module, names in tracing.LAYERS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"cspbench.{module}"), name, None))]
    assert tracing.LAYERS and not missing
