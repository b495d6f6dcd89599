"""Outside-in tracer: times calls into each tfgor module's public functions.

The library is not edited.  Instead, every public function of a traced
module is replaced by a timing wrapper at each name a caller resolves at
call time: module globals (``tfgor.criteria.link``), module attributes
(``tfgor._kernels.rank_int``, which homology calls through the module) and
the values of module-level dicts (the survey's FILTERS table).  Three
binding sites need care:

- ``tfgor.survey`` is the survey function (re-exported by the package), so
  modules are looked up in ``sys.modules``, never as package attributes;
- ``criteria._betti`` is an ``lru_cache`` built around ``reduced_betti`` at
  import time, so such a cache is rebuilt with the same parameters around
  the traced function; only cache misses then open a span;
- forked pool workers inherit the wrappers but are terminated without
  running finalizers, so a worker appends its spans to a per-process file
  each time a top-level span closes, before the result travels back.

A span's self time is its duration minus the time covered by its child
spans; a layer's self time is the sum over its spans.  Calls into private
helpers, methods and untraced modules count as self time of the traced
caller.  Blocking waits of the parent on a ``multiprocessing`` pool are
recorded as spans of the pseudo layer ``pool``.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from multiprocessing import pool as mp_pool
from time import perf_counter

# module -> layer.  Modules outside this map are not traced.
LAYERS = {
    "tfgor.graphs": "graphs",
    "tfgor.complexes": "complexes",
    "tfgor.criteria": "criteria",
    "tfgor.homology": "homology",
    "tfgor._kernels": "kernels",
    "tfgor.survey": "survey",
    "tfgor.cli": "cli",
}

# per-call durations are kept for these spans (latency percentiles)
SAMPLED = ("survey.build_record",)


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        fn = getattr(module, name, None)
        if (
            inspect.isfunction(fn)
            and fn.__module__ == module.__name__
            and not inspect.isgeneratorfunction(fn)
        ):
            yield name, fn


def _observe_boundary(tracer, result):
    if not all(hasattr(result, a) for a in ("entries", "nrows", "ncols")):
        return  # another matrix type: leave the counters, never break the call
    c = tracer.counters
    c["homology.boundary_nnz"] += len(result.entries)
    cells = result.nrows * result.ncols
    if cells > c["homology.max_matrix_cells"]:
        c["homology.max_matrix_cells"] = cells


# span name -> hook(tracer, return value)
OBSERVERS = {"homology.boundary_matrix": _observe_boundary}


class Tracer:
    """Span aggregates for one process (and, by file, its forked workers)."""

    def __init__(self, worker_dir: str | None = None, keep_spans: bool = False):
        self.worker_dir = worker_dir
        self.keep_spans = keep_spans
        self.in_worker = False
        self.caches: dict[str, object] = {}
        self._next_id = 0  # span ids stay unique per process across flushes
        self._reset()

    def _reset(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.samples: dict[str, list] = {n: [] for n in SAMPLED}
        self.counters = {"homology.boundary_nnz": 0, "homology.max_matrix_cells": 0}
        self.violations = 0
        self.stack: list[list] = []  # open spans, innermost last
        self.spans: list[tuple] = []  # (id, parent_id, name, start, end)

    # -- spans ---------------------------------------------------------------

    def wrap(self, name: str, fn):
        tr = self
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tr._next_id += 1
            frame = [name, 0.0, tr._next_id]  # name, time of child spans, span id
            tr.stack.append(frame)  # tr.stack, not a captured list: a fork replaces it
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(tr, result)
                return result
            finally:
                tr._close(frame, start, perf_counter())

        return traced

    def _close(self, frame, start, end):
        stack = self.stack
        if stack and stack[-1] is frame:
            stack.pop()
        else:  # only reachable through a tracer bug; counted so the self-test sees it
            self.violations += 1
            while stack and stack.pop() is not frame:
                pass
        name, child_s, span_id = frame
        dur = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child_s
        if name in self.samples:
            self.samples[name].append(dur)
        if self.keep_spans:
            parent = stack[-1][2] if stack else 0
            self.spans.append((span_id, parent, name, start, end))
        if stack:
            stack[-1][1] += dur
        elif self.in_worker:
            self._flush_worker()

    # -- installation --------------------------------------------------------

    def install(self):
        """Patch every binding site; call before the timed pass."""
        wrapped = {}  # id(original function) -> wrapper
        for modname, layer in LAYERS.items():
            module = sys.modules.get(modname)
            if module is None:
                continue
            for name, fn in _public_functions(module):
                wrapped[id(fn)] = self.wrap(f"{layer}.{name}", fn)
        for modname in list(sys.modules):
            module = sys.modules[modname]
            if module is None or not (modname == "tfgor" or modname.startswith("tfgor.")):
                continue
            for attr, value in list(vars(module).items()):
                if attr.startswith("__"):
                    continue
                if id(value) in wrapped:
                    setattr(module, attr, wrapped[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrapped:
                            value[key] = wrapped[id(item)]
                elif hasattr(value, "cache_info") and id(getattr(value, "__wrapped__", None)) in wrapped:
                    params = value.cache_parameters()
                    cache = functools.lru_cache(**params)(wrapped[id(value.__wrapped__)])
                    setattr(module, attr, cache)
            if modname in LAYERS:
                for attr, value in vars(module).items():
                    if hasattr(value, "cache_info"):
                        self.caches[f"{LAYERS[modname]}.{attr}"] = value
        wait = self.wrap("pool.wait", mp_pool.ApplyResult.wait)
        nxt = self.wrap("pool.wait", mp_pool.IMapIterator.next)
        mp_pool.ApplyResult.wait = wait
        mp_pool.IMapIterator.next = mp_pool.IMapIterator.__next__ = nxt
        os.register_at_fork(after_in_child=self._after_fork)

    # -- workers -------------------------------------------------------------

    def _after_fork(self):
        self._reset()
        self.in_worker = True

    def _cache_snapshot(self) -> dict:
        out = {}
        for key, cache in self.caches.items():
            info = cache.cache_info()
            out[key] = [info.hits, info.misses]
        return out

    def _flush_worker(self):
        if self.worker_dir is None:
            return
        line = json.dumps(self.snapshot()) + "\n"
        path = os.path.join(self.worker_dir, f"worker-{os.getpid()}.jsonl")
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, line.encode())
        finally:
            os.close(fd)
        self._reset()

    def snapshot(self) -> dict:
        """Aggregates since the last flush; cache counters are cumulative."""
        return {
            "pid": os.getpid(),
            "stats": self.stats,
            "samples": self.samples,
            "counters": self.counters,
            "caches": self._cache_snapshot(),
            "violations": self.violations + len(self.stack),
            "spans": self.spans,
        }


def merge(parent: dict, worker_dir: str | None) -> dict:
    """Combine the parent's snapshot with every worker's flushed deltas.

    Returns {"parent": parent stats, "stats": all processes, "samples",
    "counters", "caches", "violations", "workers", "spans"}; spans are
    (pid, id, parent id, name, start, end).  Cache counters are cumulative
    per process, so only each worker's last line counts.
    """
    stats = {k: list(v) for k, v in parent["stats"].items()}
    samples = {k: list(v) for k, v in parent["samples"].items()}
    counters = dict(parent["counters"])
    caches = {k: list(v) for k, v in parent["caches"].items()}
    violations = parent["violations"]
    spans = [(parent["pid"], *s) for s in parent["spans"]]
    workers = 0
    if worker_dir is not None and os.path.isdir(worker_dir):
        for fname in sorted(os.listdir(worker_dir)):
            if not fname.startswith("worker-"):
                continue
            workers += 1
            last_caches = {}
            with open(os.path.join(worker_dir, fname), encoding="ascii") as fh:
                for line in fh:
                    snap = json.loads(line)
                    for name, (calls, total, self_s) in snap["stats"].items():
                        st = stats.setdefault(name, [0, 0.0, 0.0])
                        st[0] += calls
                        st[1] += total
                        st[2] += self_s
                    for name, vals in snap["samples"].items():
                        samples.setdefault(name, []).extend(vals)
                    counters["homology.boundary_nnz"] += snap["counters"]["homology.boundary_nnz"]
                    counters["homology.max_matrix_cells"] = max(
                        counters["homology.max_matrix_cells"],
                        snap["counters"]["homology.max_matrix_cells"],
                    )
                    violations += snap["violations"]
                    spans.extend((snap["pid"], *s) for s in snap["spans"])
                    last_caches = snap["caches"]
            for key, (hits, misses) in last_caches.items():
                acc = caches.setdefault(key, [0, 0])
                acc[0] += hits
                acc[1] += misses
    return {
        "parent": parent["stats"],
        "stats": stats,
        "samples": samples,
        "counters": counters,
        "caches": caches,
        "violations": violations,
        "workers": workers,
        "spans": spans,
    }
