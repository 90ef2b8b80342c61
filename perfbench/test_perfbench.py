"""Self-tests of the benchmark's own arithmetic, checks and tracing.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import numpy as np
import pytest

import fzwave
import tracing
import workloads
from tracing import Span
from worker import Loop


def test_self_time_is_taken_per_thread():
    main, other = 1, 2
    spans = [
        Span("kernel.kernel_eps", 0.0, 10.0, None, 0, main),
        Span("rootfinder._zero_pair_batch", 1.0, 3.0, 0, 0, main),
        Span("rootfinder.find_zero_pair", 1.5, 2.0, 1, 0, main),
        Span("quad.adaptive_gk", 4.0, 6.0, 0, 0, main),
        # a row worker's spans: their parent is on the main thread, so they
        # are not subtracted from it, and nest among themselves as usual
        Span("quad.adaptive_gk", 2.0, 9.0, 0, 0, other),
        Span("rootfinder._zero_pair_batch", 2.5, 3.5, 4, 0, other),
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 1.5, 0.5, 2.0, 6.0, 1.0])

    tr = tracing.Tracer()
    tr.spans = spans
    metrics = tracing.layer_metrics(tr)
    assert metrics["kernel.s"] == pytest.approx(6.0)
    assert metrics["quad.s"] == pytest.approx(8.0)
    assert metrics["rootfinder.batch_s"] == pytest.approx(3.0)
    assert metrics["solver.s"] == metrics["cli.s"] == 0.0


def test_shifted_reference_fails_the_operation():
    ref = workloads._load_refs()["solve_data"]
    exact = workloads.make_case("solve_data", 0, refs={"solve_data": ref})
    shifted = workloads.make_case("solve_data", 0, refs={"solve_data": ref + 1e-6})
    for case in (exact, shifted):
        case.run = lambda: ref.copy()  # the stored output, without the computation
    good, bad = Loop(exact), Loop(shifted)
    assert good.attempt() and good.drifts == [0.0]
    assert not bad.attempt()
    assert len(bad.ops) == 1 and len(bad.errors) == 1 and "drift" in bad.errors[0]


def test_traced_run_restores_every_boundary():
    before = tracing.originals()
    entry = fzwave.kernel_eps
    tr = tracing.Tracer()
    p = fzwave.ModelParams(0.25, 0.45, 0.1, 0.01)
    with pytest.raises(RuntimeError, match="inside"):
        with tracing.installed(tr):
            assert fzwave.kernel_eps is not entry
            fzwave.kernel_eps(np.linspace(-1.0, 1.0, 5), (0.5,), p)
            raise RuntimeError("inside the traced block")
    assert all(getattr(module, attr) is original for module, attr, original in before)
    names = {s.name for s in tr.spans}
    assert {"kernel.kernel_eps", "quad.adaptive_gk", "rootfinder._zero_pair_batch"} <= names
    assert tr.counts["kernel.points"] == 5
    assert tr.counts["quad.evals"] > 0


def test_missing_boundary_fails_the_trace(monkeypatch):
    monkeypatch.delattr(fzwave.kernel, "adaptive_gk")
    with pytest.raises(tracing.MissingBoundary, match="adaptive_gk"):
        with tracing.installed(tracing.Tracer()):
            pass
