"""The names the benchmark tracer (perfbench/tracer.py) wraps resolve in the
package, so renaming one fails here instead of in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

from normplane import models, numerics

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for modname, names in tracer.SPANNED.items():
        module = importlib.import_module(f"normplane.{modname}")
        for fname in names:
            # Tracer.install spans a name the module lacks as a NormModel method
            target = getattr(module, fname, None) or getattr(models.NormModel, fname, None)
            assert callable(target), f"{modname}.{fname}"
    for method in tracer.POINT_METHODS + tracer.CACHE_METHODS:
        assert callable(getattr(models.NormModel, method, None)), method
    for fname in tracer.COUNTED:
        assert callable(getattr(numerics, fname, None)), fname
