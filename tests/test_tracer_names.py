"""Every name the benchmark tracer patches must exist in the library.

``perfbench/tracer.py`` looks functions up with ``getattr`` and methods with
``vars(cls)[meth]``, with no default, so moving or renaming one of them
breaks ``perfbench/run.py --trace 1`` with an ``AttributeError`` or a
``KeyError``.  This test turns such a move into a test failure.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    if not TRACER.exists():
        pytest.skip("perfbench/ is absent")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _module(tracer, layer: str):
    return importlib.import_module(f"{tracer.PACKAGE}.{layer}")


def test_traced_functions_exist(tracer):
    for table in (tracer.SPAN_FUNCTIONS, tracer.COUNTED_FUNCTIONS):
        for layer, names in table.items():
            module = _module(tracer, layer)
            for name in names:
                assert callable(getattr(module, name)), f"{layer}.{name}"


def test_traced_methods_exist(tracer):
    methods = [*tracer.SPAN_METHODS, *tracer.HOT_METHODS, ("group", "PermGroup", "elements")]
    for layer, cls_name, meth in methods:
        cls = getattr(_module(tracer, layer), cls_name)
        assert callable(vars(cls)[meth]), f"{layer}.{cls_name}.{meth}"


def test_workload_names_exist(tracer):
    # perfbench/workloads.py runs its campaigns with suite.Limits()
    assert callable(getattr(_module(tracer, "suite"), "Limits"))
