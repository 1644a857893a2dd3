"""The traced benchmark run wraps each function that perfbench/tracer.py
names in SPANS, so each must still be defined in the program."""

import importlib.util
from pathlib import Path


def _tracer():
    """perfbench/tracer.py, loaded by path; nothing is installed."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_span_names_a_function_of_the_program():
    tracer = _tracer()
    assert tracer.SPANS
    for name in tracer.SPANS:
        assert callable(getattr(*tracer._owner(name), None)), name
