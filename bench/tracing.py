"""Tracing shim: spans around hmrkit's public functions, rebound from outside.

:class:`Tracer` replaces each listed function or method by a wrapper that
records one span (name, start, end, parent span, job id) per call.  A
function is rebound in its defining module and in every ``hmrkit`` module
that imported it by name (``from .f2lin import f2_rank`` binds a second
reference), and methods are rebound on their class.  Nothing under
``src/`` changes; :meth:`Tracer.uninstall` puts the originals back.

Spans stay in memory; :func:`layer_metrics` turns them into the per-layer
numbers when the run ends.  A span's self time is its duration minus the
part of it covered by its children, and a layer's self time is the sum of
its spans' self times: the time during which the innermost open span
belonged to that layer.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field

HMRKIT_MODULES = ("f2lin", "complexes", "morse_blowup", "real_spinc",
                  "cw_fixtures", "seifert_hmr", "index_grading", "cli")


def _dims_matmul(args, kwargs, result):
    a, b = args[0], args[1]
    return max(a.rows, a.cols, b.cols)


def _key_snf(args):
    return hash(args[0].data)


def _key_cycle_matrix(args):
    cx, j = args[0], args[1]
    return hash((cx.gradings, cx.d.ones, j))


def _steps(args, kwargs, result):
    return len(result.times) - 1


def _cells(args, kwargs, result):
    return sum(result.cells_M)


def _gens(args, kwargs, result):
    b = args[0]
    return len(b.gens_o) + len(b.gens_s) + len(b.gens_u)


def _points(args, kwargs, result):
    p, q, r = args[:3]
    resolution = kwargs.get("degree_resolution",
                            args[3] if len(args) > 3 else 4)
    return max(1, resolution) * p * q * r


@dataclass(frozen=True)
class Target:
    """One function or method to wrap, and what its span records."""

    module: str
    attr: str            # "name" or "Class.method"
    span: str            # span name, "<layer>.<operation>"
    key: object = None   # args -> hashable input identity (distinct ratio)
    size: object = None  # (args, kwargs, result) -> number for the span


TARGETS = (
    Target("f2lin", "F2Matrix.__matmul__", "f2lin.f2_matmul",
           size=_dims_matmul),
    Target("f2lin", "f2_rank", "f2lin.f2_reduce"),
    Target("f2lin", "f2_kernel_basis", "f2lin.f2_reduce"),
    Target("f2lin", "smith_normal_form", "f2lin.snf", key=_key_snf),
    Target("f2lin", "IntMatrix.__matmul__", "f2lin.int_matmul"),
    Target("f2lin", "int_det_sign_unimodular", "f2lin.int_det"),
    Target("complexes", "assemble", "complexes.assemble", size=_gens),
    Target("complexes", "homology", "complexes.homology"),
    Target("complexes", "les_maps", "complexes.les_maps"),
    Target("complexes", "verify_les_exact", "complexes.verify_les_exact"),
    Target("complexes", "verify_d_squared", "complexes.verify_d_squared"),
    Target("complexes", "GradedComplex.cycle_matrix",
           "complexes.cycle_matrix", key=_key_cycle_matrix),
    Target("morse_blowup", "integrate_blowup_flow", "morse_blowup.integrate",
           size=_steps),
    Target("morse_blowup", "LinearFlowModel.__post_init__",
           "morse_blowup.model_init"),
    Target("morse_blowup", "closed_form_phi", "morse_blowup.closed_form"),
    Target("morse_blowup", "build_model_complexes",
           "morse_blowup.build_model"),
    Target("real_spinc", "real_spinc_torsor", "real_spinc.census"),
    Target("real_spinc", "real_structure_classes", "real_spinc.classes"),
    Target("real_spinc", "verify_theta_chain_map", "real_spinc.verify"),
    Target("real_spinc", "verify_naturality", "real_spinc.verify"),
    Target("real_spinc", "branched_cover_invariants",
           "real_spinc.branched_cover"),
    Target("cw_fixtures", "build_fixture", "cw_fixtures.build", size=_cells),
    Target("cw_fixtures", "lens_space", "cw_fixtures.build", size=_cells),
    Target("seifert_hmr", "divisor_count", "seifert_hmr.divisor_count",
           size=_points),
    Target("seifert_hmr", "brieskorn_hmr", "seifert_hmr.brieskorn_hmr"),
    Target("cli", "run", "cli.run"),
)


@dataclass
class Span:
    name: str
    start: int          # perf_counter_ns
    end: int = 0
    parent: int = -1    # index into the span list, -1 for a root
    job: int = -1
    size: int = 0
    key: object = None


@dataclass
class Tracer:
    """Installs the wrappers and collects spans; one per traced pass."""

    spans: list = field(default_factory=list)
    job: int = -1
    _stack: list = field(default_factory=list)
    _undo: list = field(default_factory=list)

    def _wrap(self, fn, target: Target):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = Span(target.span, 0, parent=stack[-1] if stack else -1,
                        job=self.job)
            if target.key is not None:
                span.key = target.key(args)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
            if target.size is not None:
                span.size = target.size(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        modules = {name: importlib.import_module(f"hmrkit.{name}")
                   for name in HMRKIT_MODULES}
        for t in TARGETS:
            owner = modules[t.module]
            attr = t.attr
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            wrapped = self._wrap(original, t)
            self._rebind(owner, attr, original, wrapped)
            if owner is modules[t.module]:
                for mod in modules.values():
                    if mod is not owner and \
                            getattr(mod, attr, None) is original:
                        self._rebind(mod, attr, original, wrapped)

    def _rebind(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def _covered(intervals) -> int:
    """Length of the union of [start, end) intervals."""
    total, cur_start, cur_end = 0, None, None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[int]:
    """Per span: duration minus the union of its direct children."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.end - s.start - _covered(children.get(i, ()))
            for i, s in enumerate(spans)]


def _outermost(spans, name):
    """Spans called ``name`` with no enclosing span of the same name."""
    out = []
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p >= 0 and spans[p].name != name:
            p = spans[p].parent
        if p < 0:
            out.append(s)
    return out


def _distinct_ratio(spans, name) -> float:
    """Distinct inputs / calls, with inputs counted distinct per job."""
    calls = [(s.job, s.key) for s in spans if s.name == name]
    return len(set(calls)) / len(calls) if calls else 0.0


def layer_metrics(spans) -> dict[str, float]:
    """The per-layer metrics, by their benchmark names."""
    selfs = self_times(spans)

    def ms(name):
        return sum(s.end - s.start for s in _outermost(spans, name)) / 1e6

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    def total_size(name):
        return sum(s.size for s in _outermost(spans, name))

    def layer_self_ms(layer):
        return sum(t for s, t in zip(spans, selfs)
                   if s.name.startswith(layer + ".")) / 1e6

    steps = total_size("morse_blowup.integrate")
    out = {
        "f2lin.f2_matmul.calls": calls("f2lin.f2_matmul"),
        "f2lin.f2_matmul.ms": ms("f2lin.f2_matmul"),
        "f2lin.f2_matmul.dim_max": max(
            (s.size for s in spans if s.name == "f2lin.f2_matmul"),
            default=0),
        "f2lin.f2_reduce.calls": calls("f2lin.f2_reduce"),
        "f2lin.f2_reduce.ms": ms("f2lin.f2_reduce"),
        "f2lin.snf.calls": calls("f2lin.snf"),
        "f2lin.snf.distinct_ratio": _distinct_ratio(spans, "f2lin.snf"),
        "f2lin.snf.ms": ms("f2lin.snf"),
        "f2lin.int_matmul.calls": calls("f2lin.int_matmul"),
        "f2lin.int_matmul.ms": ms("f2lin.int_matmul"),
        "f2lin.int_det.ms": ms("f2lin.int_det"),
        "complexes.assemble.ms": ms("complexes.assemble"),
        "complexes.homology.ms": ms("complexes.homology"),
        "complexes.les_maps.ms": ms("complexes.les_maps"),
        "complexes.verify_les_exact.ms": ms("complexes.verify_les_exact"),
        "complexes.verify_d_squared.ms": ms("complexes.verify_d_squared"),
        "complexes.self_ms": layer_self_ms("complexes"),
        "complexes.cycle_matrix.calls": calls("complexes.cycle_matrix"),
        "complexes.cycle_matrix.distinct_ratio": _distinct_ratio(
            spans, "complexes.cycle_matrix"),
        "complexes.gens": total_size("complexes.assemble"),
        "morse_blowup.integrate.ms": ms("morse_blowup.integrate"),
        "morse_blowup.integrate.steps": steps,
        "morse_blowup.us_per_step": (
            ms("morse_blowup.integrate") * 1e3 / steps if steps else 0.0),
        "morse_blowup.model_init.ms": ms("morse_blowup.model_init"),
        "morse_blowup.closed_form.ms": ms("morse_blowup.closed_form"),
        "morse_blowup.build_model.ms": ms("morse_blowup.build_model"),
        "real_spinc.census.ms": ms("real_spinc.census"),
        "real_spinc.classes.ms": ms("real_spinc.classes"),
        "real_spinc.verify.ms": ms("real_spinc.verify"),
        "real_spinc.branched_cover.ms": ms("real_spinc.branched_cover"),
        "real_spinc.self_ms": layer_self_ms("real_spinc"),
        "cw_fixtures.build.ms": ms("cw_fixtures.build"),
        "cw_fixtures.cells": total_size("cw_fixtures.build"),
        "seifert_hmr.divisor_count.ms": ms("seifert_hmr.divisor_count"),
        "seifert_hmr.divisor_count.points": total_size(
            "seifert_hmr.divisor_count"),
        "seifert_hmr.brieskorn_hmr.ms": ms("seifert_hmr.brieskorn_hmr"),
        "cli.self_ms": layer_self_ms("cli"),
    }
    return out
