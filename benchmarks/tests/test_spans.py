import importlib
import itertools
import sys
import types

import numpy as np
import pytest

from spans import Target, Tracer, layer_metrics, patched, self_times


@pytest.fixture
def fake_module():
    """A module whose outer() calls inner() twice through a module lookup."""
    mod = types.ModuleType("fake_layers")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) + mod.inner(x)

    mod.inner, mod.outer = inner, outer
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def test_wrappers_count_calls_and_self_time(fake_module):
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    targets = [Target("fake_layers", "outer", "fake.outer"),
               Target("fake_layers", "inner", "fake.inner")]
    with patched(tracer, targets):
        assert fake_module.outer(1) == 4
    # clock reads: outer 0..5, inner 1..2 and 3..4
    m = layer_metrics(tracer, targets)
    assert m["fake.outer.calls"] == (1, "count")
    assert m["fake.inner.calls"] == (2, "count")
    assert m["fake.outer.s"] == (5.0, "s")
    assert m["fake.outer.self_s"] == (3.0, "s")
    assert m["fake.inner.s"] == (2.0, "s")
    assert m["fake.inner.self_s"] == (2.0, "s")


def test_layer_wrapped_at_two_sites_counts_each_site(fake_module):
    other = types.ModuleType("fake_caller")
    other.inner = fake_module.inner
    sys.modules[other.__name__] = other
    try:
        tracer = Tracer()
        targets = [Target("fake_layers", "inner", "fake.inner"),
                   Target("fake_caller", "inner", "fake.inner")]
        with patched(tracer, targets):
            fake_module.outer(0)
            other.inner(0)
        m = layer_metrics(tracer, targets)
        assert m["fake.inner.calls"][0] == 3
        assert m["fake.inner.from_fake_layers.calls"][0] == 2
        assert m["fake.inner.from_fake_caller.calls"][0] == 1
    finally:
        del sys.modules[other.__name__]


def test_uncalled_layer_reads_zero(fake_module):
    tracer = Tracer()
    targets = [Target("fake_layers", "inner", "fake.inner")]
    with patched(tracer, targets):
        pass
    assert layer_metrics(tracer, targets)["fake.inner.calls"] == (0, "count")


def test_patched_restores_originals_also_on_error(fake_module):
    inner, outer = fake_module.inner, fake_module.outer
    targets = [Target("fake_layers", "inner", "fake.inner"),
               Target("fake_layers", "outer", "fake.outer")]
    with pytest.raises(ZeroDivisionError):
        with patched(Tracer(), targets):
            assert fake_module.inner is not inner
            1 / 0
    assert fake_module.inner is inner and fake_module.outer is outer


def test_hook_sees_arguments_and_result(fake_module):
    seen = []
    tracer = Tracer()
    with patched(tracer, [Target("fake_layers", "inner", "fake.inner",
                                 lambda t, args, kwargs, res: seen.append((args, res)))]):
        fake_module.inner(41)
    assert seen == [((41,), 42)]


def test_self_times_of_nested_spans():
    # root [0, 10] with children [1, 3] and [4, 9]; [4, 9] has child [5, 6]
    start = np.array([0.0, 1.0, 4.0, 5.0])
    end = np.array([10.0, 3.0, 9.0, 6.0])
    parent = np.array([-1, 0, 0, 2])
    assert self_times(start, end, parent).tolist() == [3.0, 2.0, 4.0, 1.0]


def test_traced_sweep_leaves_the_package_unpatched(tmp_path):
    import run
    import workloads

    def current():
        return [getattr(importlib.import_module(t.module), t.attr)
                for t in workloads.TRACE_TARGETS]

    before = current()
    wl = workloads.WORKLOADS["smoke_p6"]
    cfg = workloads.experiment(run.ROOT, wl, tmp_path / "sweep")
    sweep = run.run_once(cfg, 1, workloads.TRACE_TARGETS)
    assert all(a is b for a, b in zip(current(), before))
    assert layer_metrics(sweep.tracer, workloads.TRACE_TARGETS)["numpy.linalg.eigh.calls"][0] > 0
    assert len(sweep.tracer.solves) == 2

    spans = tmp_path / "spans.npz"
    sweep.tracer.write(spans)
    with np.load(spans) as saved:
        assert saved["start"].size == saved["end"].size == saved["parent"].size
        assert "numpy.linalg.eigh@linalg" in saved["names"].tolist()
