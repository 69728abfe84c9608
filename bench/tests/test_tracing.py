"""Self-time arithmetic on a synthetic span tree, and the shim itself."""

import numpy as np

import tracing
from tracing import Span


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("complexes.homology", 0, 100),
        Span("f2lin.f2_reduce", 10, 30, parent=0),
        Span("f2lin.f2_reduce", 20, 50, parent=0),   # overlaps its sibling
        Span("f2lin.f2_matmul", 60, 70, parent=0),
        Span("complexes.cycle_matrix", 12, 15, parent=1),
    ]
    assert tracing.self_times(spans) == [50, 17, 30, 10, 3]
    m = tracing.layer_metrics(spans)
    assert m["complexes.self_ms"] == (50 + 3) / 1e6
    assert m["complexes.homology.ms"] == 100 / 1e6
    assert m["f2lin.f2_reduce.ms"] == (20 + 30) / 1e6
    assert m["f2lin.f2_reduce.calls"] == 2


def test_same_name_nesting_counts_the_outer_span_once():
    spans = [Span("cw_fixtures.build", 0, 40, size=12),
             Span("cw_fixtures.build", 5, 35, parent=0, size=12),
             Span("cw_fixtures.build", 50, 60, size=4)]
    m = tracing.layer_metrics(spans)
    assert m["cw_fixtures.build.ms"] == 50 / 1e6
    assert m["cw_fixtures.cells"] == 16


def test_distinct_ratio_counts_inputs_per_job():
    spans = [Span("f2lin.snf", 0, 1, job=0, key="a"),
             Span("f2lin.snf", 1, 2, job=0, key="a"),
             Span("f2lin.snf", 2, 3, job=1, key="a"),
             Span("f2lin.snf", 3, 4, job=1, key="b")]
    assert tracing.layer_metrics(spans)["f2lin.snf.distinct_ratio"] == 0.75


def test_shim_rebinds_importing_modules_and_restores_them():
    from hmrkit import complexes, f2lin, real_spinc
    from hmrkit.morse_blowup import (BaseMorseData, BasePoint,
                                     LinearFlowModel, build_model_complexes)
    originals = (f2lin.f2_rank, complexes.f2_rank,
                 real_spinc.smith_normal_form, f2lin.F2Matrix.__matmul__)
    base = BaseMorseData((BasePoint("q", 0, LinearFlowModel(
        np.diag([-1.0, 2.0, 3.0]))),))
    with tracing.Tracer() as tracer:
        assert complexes.f2_rank is not originals[1]
        assert complexes.f2_rank is f2lin.f2_rank
        assert real_spinc.smith_normal_form is f2lin.smith_normal_form
        cx = complexes.assemble(build_model_complexes(base))
        complexes.homology(cx, "bar")
    assert (f2lin.f2_rank, complexes.f2_rank, real_spinc.smith_normal_form,
            f2lin.F2Matrix.__matmul__) == originals
    names = [s.name for s in tracer.spans]
    assert "complexes.homology" in names
    assert "f2lin.f2_matmul" in names
    homology = names.index("complexes.homology")
    children = [s for s in tracer.spans if s.parent == homology]
    assert children and all(s.start >= tracer.spans[homology].start
                            for s in children)
    assert tracing.layer_metrics(tracer.spans)["complexes.gens"] == 3
