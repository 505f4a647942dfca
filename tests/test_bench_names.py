"""The names the benchmark's tracer and workloads reach into the library by.

perfbench/tracing.py wraps library functions that it looks up by
dotted name, and perfbench/workloads.py imports helpers from inside
functions, so a library change that drops one of them breaks the
benchmark without failing any other test.
"""

import importlib
import importlib.util
import inspect
import pathlib

import ratclass
import ratclass.ffield as ff
import ratclass.ratexpr as rx

BENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(
        "bench_" + name, BENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_to_library_functions():
    tracing = load("tracing")
    names = tracing.SPANS + tracing.ITER_SPANS + tracing.SETUP_SPANS
    assert set(tracing.NOTES) <= set(tracing.SPANS)
    for qualname in names:
        module_name, attr = qualname.rsplit(".", 1)
        fn = getattr(importlib.import_module(module_name), attr)
        assert inspect.isfunction(inspect.unwrap(fn)), qualname
        assert fn.__module__ == module_name, qualname
    for name in tracing.ARITH_DUNDERS:
        assert name in ff.Fel.__dict__, name


def test_wronskian_shape_runs():
    workloads = load("workloads")
    F5 = ff.field_create(5)
    # W = 3x^2 - 3 = 3(x - 1)(x + 1): two rational points, and
    # infinity with order 2
    R = rx.expr(F5, (0, -3, 0, 1))
    assert workloads.wronskian_shape(R) == ("1+1+inf^2", 1)


def test_partition_check_passes_on_real_reports():
    # Partition.check reaches into orbits for the closed-form sizes and
    # reads each class's size and label, so a change there that broke
    # the check would fail every partition op of the benchmark
    workloads = load("workloads")
    bench = workloads.Partition(ratclass, 1)
    F2 = ff.field_create(2)
    for degree in (2, 3):
        inp = {"ctx": F2, "degree": degree}
        report = ratclass.all_classes(F2, degree)
        out = workloads.Outcome(inp, report, None, 0.0, 0.0)
        assert bench.check(out) is None, degree
        report.classes[0]["size"] += 1
        assert "closed form" in bench.check(out), degree
