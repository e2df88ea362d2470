"""Every name the benchmark uses must exist in the library.

``perfbench/tracer.py`` looks functions up with ``getattr`` and methods with
``vars(cls)[meth]``, with no default, so moving or renaming one of them
breaks ``perfbench/run.py --trace 1`` with an ``AttributeError`` or a
``KeyError``.  ``perfbench/workloads.py`` builds its groups through
``Config.census_ranges()`` and ``catalog.census_specs``, and the tracer
reads class tables from ``group.cache["class_table"]``.  These tests turn
such a move into a test failure.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(filename: str):
    path = PERFBENCH / filename
    if not path.exists():
        pytest.skip("perfbench/ is absent")
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return _load("tracer.py")


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads.py")


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


def test_workload_setup_runs(workloads):
    from piclass.classes import conjugacy_classes
    from piclass.config import Config

    assert len(workloads.make_groups("hall", 0)) == 153
    groups = workloads.make_groups("quotient", 0)
    assert len(groups) == 101
    assert isinstance(workloads.config_for("quotient"), Config)
    _, g = groups[-1]
    table = conjugacy_classes(g)
    assert g.cache["class_table"] is table
    assert conjugacy_classes(g) is table
