"""The benchmark's traced run (pipebench/spans.py) wraps package functions
by their "<module>.<function>" names; a rename or removal breaks it."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "pipebench" / "spans.py"


def test_every_traced_name_is_a_package_callable():
    spec = importlib.util.spec_from_file_location("pipebench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for qual in spans.TRACED:
        module, name = qual.split(".")
        mod = importlib.import_module(f"zooadapt.{module}")
        if not callable(getattr(mod, name, None)):
            missing.append(qual)
    assert spans.TRACED and missing == []
