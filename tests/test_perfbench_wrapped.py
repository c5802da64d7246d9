"""The functions the benchmark's tracer wraps must exist.

``perfbench/spans.py`` names each traced function by module and
attribute; ``perfbench/run.py --trace 1`` fails if one of them is renamed
or deleted.  The perfbench directory is not a package, so the file is
loaded by path.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_wrapped_attribute_is_callable():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.WRAPPED
    for mod_name, entries in spans.WRAPPED.items():
        module = importlib.import_module(f"steepen.{mod_name}")
        for _, attr in entries:
            assert callable(getattr(module, attr, None)), f"steepen.{mod_name}.{attr}"
