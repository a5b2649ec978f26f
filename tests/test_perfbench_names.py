"""The traced benchmark wraps functions by name; every name must exist."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_spanned_names_exist():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{layer}.{name}"
        for layer, names in spans.SPANNED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"hibi.{layer}"), name, None))
    ]
    assert missing == []
