"""In-memory call spans for the traced run, and the per-layer figures built
from them.

``install`` wraps the public functions and methods of each covfield layer by
rebinding their names in the current process only: the defining module, every
other covfield module that imported the name, and the ``covfield`` package.
Nothing under ``src/`` changes.  Each wrapped call appends one span (name,
start, end, parent span) to flat arrays; every span of one worker shares the
tracer's run id.  Spans are written out once, by ``save``, after the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from array import array
from collections import defaultdict

LAYERS = ("geometry", "kernel", "posterior", "bounds", "estimators", "lrsp", "precond", "cli")

_NO_PARENT = -1


class Tracer:
    """Flat span store: span i is (names[name_id[i]], start[i], end[i],
    parent[i]); ``parent`` is -1 for a root span."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [_NO_PARENT]
        # computed counts gathered at layer boundaries (entries, nnz, flops, ...)
        self.counts: dict[str, float] = defaultdict(float)

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str) -> int:
        i = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1])
        self.end.append(math.nan)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(counts, args, result)``
        then adds the call's computed counts, outside the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            if after is not None:
                after(self.counts, args, out)
            return out

        return traced

    def save(self, path, meta: dict) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            run_id=np.full(len(self.start), self.run_id, dtype=np.int32),
            meta=np.array(repr(sorted(meta.items()))),
        )


def self_times(parent, start, end) -> list[float]:
    """Per span: its duration minus the part of its interval covered by its
    direct children (children clipped to the parent, overlaps counted once).
    Grandchildren are covered by their own parent, never subtracted twice."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p != _NO_PARENT:
            children[p].append(i)
    out = [end[i] - start[i] for i in range(len(start))]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        ivs = sorted((max(start[k], lo), min(end[k], hi)) for k in kids)
        covered, cur_s, cur_e = 0.0, None, None
        for s, e in ivs:
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return out


def summarize(tracer: Tracer) -> dict[str, dict[str, dict]]:
    """Per root span name (the benchmark's phases), per span name below it:
    calls, inclusive seconds and self seconds."""
    parent, start, end = tracer.parent, tracer.start, tracer.end
    selfs = self_times(parent, start, end)
    root = []
    for i, p in enumerate(parent):
        # spans are appended in call order, so a parent precedes its children
        root.append(i if p == _NO_PARENT else root[p])
    out: dict[str, dict[str, dict]] = defaultdict(dict)
    for i in range(len(start)):
        phase = out[tracer.names[tracer.name_id[root[i]]]]
        rec = phase.setdefault(tracer.names[tracer.name_id[i]],
                               {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        rec["calls"] += 1
        rec["incl_s"] += end[i] - start[i]
        rec["self_s"] += selfs[i]
    return dict(out)


def merge(*summaries: dict[str, dict]) -> dict[str, dict]:
    """Span-name summaries added together."""
    out: dict[str, dict] = {}
    for summary in summaries:
        for name, rec in summary.items():
            acc = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            for key, value in rec.items():
                acc[key] += value
    return out


# ------------------------------------------------------------ installation


def _count_max(key, value, counts):
    counts[key] = max(counts.get(key, 0.0), value)


def _after_kernel_matrix(counts, args, out):
    counts["kernel.entries"] += args[0].n * args[1].n


def _after_fit(counts, args, out):
    counts["posterior.fit_jittered"] += out.jitter_used > 0


def _after_cov_matrix(counts, args, out):
    counts["posterior.cov_matrix_entries"] += args[1].n * args[2].n


def _after_pattern_by_radius(counts, args, out):
    counts["lrsp.pattern_nnz"] += out.nnz


def _after_geometric_pattern(counts, args, out):
    counts["precond.pattern_nnz_geometric"] += sum(len(J) for J in out)
    _count_max("precond.pattern_max_row_geometric", max(len(J) for J in out), counts)


def _after_random_pattern(counts, args, out):
    counts["precond.pattern_nnz_random"] += sum(len(J) for J in out)


def _after_fsai_build(counts, args, out):
    sizes = [len(J) for J in args[1]]
    counts["precond.fsai_rows"] += len(sizes)
    counts["precond.fsai_flops"] += sum(m**3 for m in sizes) / 3.0
    # the per-call cache holds one m x m identity per distinct row size
    _count_max("precond.fsai_eye_bytes", sum(8 * m * m for m in set(sizes)), counts)


def _after_schur_init(counts, args, out):
    _count_max("precond.schur_jitter", args[0].jitter_used, counts)


def _after_run_methods(counts, args, out):
    for res in out:
        counts[f"precond.pcg_iters_m{res['method']}"] += res["iterations"]


AFTER = {
    "kernel.kernel_matrix": _after_kernel_matrix,
    "posterior.fit": _after_fit,
    "posterior.PosteriorModel.cov_matrix": _after_cov_matrix,
    "lrsp.pattern_by_radius": _after_pattern_by_radius,
    "precond.geometric_pattern": _after_geometric_pattern,
    "precond.random_pattern": _after_random_pattern,
    "precond.fsai_build": _after_fsai_build,
    "precond.SchurComplement.__init__": _after_schur_init,
    "precond.run_methods": _after_run_methods,
}


def install(tracer: Tracer) -> None:
    """Rebind every public function and method of the covfield layers to a
    span-recording wrapper."""
    import covfield

    modules = {layer: importlib.import_module(f"covfield.{layer}") for layer in LAYERS}
    wrapped: dict[int, object] = {}   # id(original function) -> wrapper
    for layer, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                span = f"{layer}.{name}"
                wrapped[id(obj)] = tracer.wrap(span, obj, AFTER.get(span))
            elif inspect.isclass(obj):
                _wrap_methods(tracer, layer, obj, mod.__file__)

    # scipy's cholesky as imported by precond: one call per FSAI row attempt,
    # so calls - rows counts the jitter retries
    precond = modules["precond"]
    precond.cholesky = tracer.wrap("precond.cholesky", precond.cholesky)

    # PointSet constructions are counted, not timed: they are too small and
    # too many for a span each
    point_set = modules["geometry"].PointSet
    post_init = point_set.__post_init__

    @functools.wraps(post_init)
    def counted(self):
        tracer.counts["geometry.pointset_new"] += 1
        post_init(self)

    point_set.__post_init__ = counted

    targets = [covfield, *(importlib.import_module(n) for n in _submodules(covfield))]
    for mod in targets:
        for name, obj in list(vars(mod).items()):
            w = wrapped.get(id(obj))
            if w is not None:
                setattr(mod, name, w)


def _wrap_methods(tracer: Tracer, layer: str, cls, source: str) -> None:
    # methods written in the module itself; dataclass-generated ones
    # (PointSet.__init__, ...) have no source file and are left alone
    for name, obj in list(vars(cls).items()):
        if (inspect.isfunction(obj) and obj.__code__.co_filename == source
                and (not name.startswith("_") or name == "__init__")):
            span = f"{layer}.{cls.__name__}.{name}"
            setattr(cls, name, tracer.wrap(span, obj, AFTER.get(span)))


def _submodules(pkg) -> list[str]:
    import pkgutil

    return [f"{pkg.__name__}.{m.name}" for m in pkgutil.iter_modules(pkg.__path__)]
