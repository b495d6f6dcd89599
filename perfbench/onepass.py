"""One timed pass of one workload, in a process of its own.

Every pass is a fresh interpreter, so the library's process-wide caches
start cold, as they do for a user's CLI call.  The pass sets up its inputs
from the seed, calls ``tfgor.cli.main`` once (traced or not), gates the
report and prints one JSON line with its measurements.  run.py starts it;
``--spawned-at`` is run.py's ``time.monotonic()`` just before the start, so
set-up time includes interpreter start-up.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _import_tfgor():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import tfgor
    import tfgor.cli

    if Path(tfgor.__file__).resolve().parent != src / "tfgor":
        raise ImportError(f"tfgor imported from {tfgor.__file__}, not from {src}")
    return tfgor


def layer_metrics(trace: dict, wall_s: float) -> dict:
    """Per-layer figures from a merged trace (see tracer.merge): name -> (value, unit)."""
    stats = trace["stats"]

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return stats.get(name, [0, 0.0, 0.0])[2]

    def layer_self(layer):
        return sum(v[2] for k, v in stats.items() if k.split(".")[0] == layer)

    def hit_ratio(key):
        hits, misses = trace["caches"].get(key, [0, 0])
        return hits / (hits + misses) if hits + misses else 0.0

    rec = sorted(trace["samples"].get("survey.build_record", []))
    if len(rec) >= 2:
        cuts = statistics.quantiles(rec, n=100, method="inclusive")
        p50, p99 = statistics.median(rec), cuts[98]
    else:
        p50 = p99 = rec[0] if rec else 0.0
    parent_self = sum(v[2] for v in trace["parent"].values())
    out = {}
    for layer in ("graphs", "complexes", "criteria", "homology", "kernels", "survey", "cli"):
        out[f"{layer}.self_s"] = (layer_self(layer), "s")
    for name in ("graphs.parse_graph6", "graphs.is_in_w2", "graphs.independence_number",
                 "complexes.independence_complex", "complexes.link", "criteria.is_cm_graph",
                 "homology.reduced_betti", "homology.boundary_matrix", "kernels.rank_int",
                 "kernels.rank_mod_p"):
        out[f"{name}.calls"] = (calls(name), "count")
    for name in ("complexes.reduced_euler_characteristic", "criteria.is_eulerian",
                 "kernels.rank_int", "kernels.rank_mod_p", "survey.report_to_json"):
        out[f"{name}.self_s"] = (self_s(name), "s")
    out.update({
        "criteria.cm_cache_hit_ratio": (hit_ratio("criteria._cm"), "ratio"),
        "homology.betti_cache_hit_ratio": (hit_ratio("criteria._betti"), "ratio"),
        "homology.boundary_nnz": (trace["counters"]["homology.boundary_nnz"], "count"),
        "homology.max_matrix_cells": (trace["counters"]["homology.max_matrix_cells"], "count"),
        "survey.pool_wait_s": (trace["parent"].get("pool.wait", [0, 0.0, 0.0])[1], "s"),
        "survey.record_ms_p50": (p50 * 1000, "ms"),
        "survey.record_ms_p99": (p99 * 1000, "ms"),
        "unaccounted_s": (wall_s - parent_self, "s"),
    })
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "toy"), default="full")
    ap.add_argument("--traced", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true", help="stop once the inputs are ready")
    args = ap.parse_args(argv)

    tfgor = _import_tfgor()
    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(args.workdir, exist_ok=True)
    inputs = workload.setup(args.seed, args.size, args.workdir)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tr = None
    if args.traced:
        worker_dir = os.path.join(args.workdir, "workers")
        os.makedirs(worker_dir, exist_ok=True)
        tr = tracing.Tracer(worker_dir, keep_spans=args.size == "toy")
        tr.install()
    cli = sys.modules["tfgor.cli"]

    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    stdout = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout):
            exit_code = cli.main(inputs.argv)
    except SystemExit as exc:
        exit_code, error = exc.code, f"SystemExit({exc.code})"
    except Exception as exc:  # a crash is a measured outcome: every graph fails
        exit_code, error = None, f"{type(exc).__name__}: {exc}"
    wall_s = time.perf_counter() - t0
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)

    if inputs.out_path is None:
        text = stdout.getvalue()
    elif exit_code is not None and os.path.exists(inputs.out_path):
        with open(inputs.out_path, encoding="ascii") as fh:
            text = fh.read()
    else:
        text = None
    try:
        failed, problems = workload.gate(inputs, args.size, exit_code, text)
    except (ValueError, KeyError, TypeError) as exc:  # a malformed report fails every graph
        failed, problems = inputs.graphs, [f"unreadable report: {type(exc).__name__}: {exc}"]
    if error:
        problems.insert(0, error)

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": _cpu(self1) - _cpu(self0) + _cpu(kids1) - _cpu(kids0),
        "peak_rss_mb": max(self1.ru_maxrss, kids1.ru_maxrss) / 1024,
        "attempted": inputs.graphs,
        "failed": failed,
        "problems": problems,
        "report_sha256": hashlib.sha256((text or "").encode()).hexdigest(),
        "meta": dict(inputs.meta, backend=tfgor.BACKEND),
    }
    if tr is not None:
        trace = tracing.merge(tr.snapshot(), tr.worker_dir)
        result["layers"] = layer_metrics(trace, wall_s)
        result["trace"] = {k: trace[k] for k in ("violations", "workers", "spans")}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
