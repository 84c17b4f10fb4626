"""The benchmark's span wrappers (perfbench/tracing.py) name attributes
that exist in the package, so a deletion cannot silently break
``perfbench/run.py --trace 1``."""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_attribute_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    missing = [f"{module}.{attr}" for module, attr, _ in tracing.TRACED
               if not callable(getattr(importlib.import_module(module), attr,
                                       None))]
    assert missing == []
