#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the tfgor CLI.

    python3 perfbench/run.py --workload survey-q --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

Workloads are defined in workloads.py.  Each run repeats timed passes of
one workload, each pass a fresh process (see onepass.py), until the next
pass would end after ``--seconds``; it always makes at least one pass, and
with ``--trace 1`` at least one untraced and one traced pass, alternating.
Set-up is also timed in a few set-up-only processes.  Figures are medians.
With ``--trace 0`` it reports the end-to-end metrics of the untraced
passes: wall_s, cpu_s (self plus pool workers), peak_rss_mb and setup_s.
With ``--trace 1`` it reports the per-layer metrics of the traced passes
(tracer.py), plus the tracing overhead against the untraced ones.  What
each layer should move: graphs and complexes, wall_s of both surveys;
criteria, wall_s everywhere; homology and kernels, wall_s and peak_rss_mb
of check-planar; survey (pool wait, record latency), wall_s and cpu_s of
survey-3field-j2.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it name every
metric with its unit, and the run's metadata.  The same result, with every
pass's raw figures, is written to ``.perfbench/results/`` in the checkout.
The exit code is 0 when every pass gated correct, 1 otherwise, and 2 when
the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
RUN_LIMIT_S = 170  # a run, all passes together, ends within this
# set-up is short and noisy: each run also times this many set-ups alone
EXTRA_SETUPS = 4

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def run_pass(workload: str, seed: int, size: str, traced: bool, workdir: Path,
             deadline: float, setup_only: bool = False) -> dict:
    """One pass in a fresh interpreter; returns its JSON result."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cmd = [
        sys.executable, str(HERE / "onepass.py"),
        "--workload", workload, "--seed", str(seed), "--size", size,
        "--traced", str(int(traced)), "--workdir", str(workdir),
    ] + (["--setup-only"] if setup_only else [])
    spawned = time.monotonic()
    # a session of its own, so that a pass that overruns is killed with its pool workers
    proc = subprocess.Popen(
        cmd + ["--spawned-at", repr(spawned)], cwd=ROOT, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"pass of {workload} overran the {RUN_LIMIT_S} s run limit") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"pass of {workload} exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """Run passes until the budget is spent; return the aggregated result."""
    workdir = WORK / f"{workload}-{os.getpid()}"
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    setups = [run_pass(workload, seed, size, False, workdir, deadline, setup_only=True)["setup_s"]
              for _ in range(EXTRA_SETUPS)]
    passes = []
    last = 0.0
    while True:
        traced = trace and len(passes) % 2 == 1
        t = time.monotonic()
        passes.append(dict(run_pass(workload, seed, size, traced, workdir, deadline),
                           traced=traced))
        last = max(last, time.monotonic() - t)
        need_more = trace and len(passes) < 2
        if not need_more and time.monotonic() - start + last > seconds:
            break
    shutil.rmtree(workdir, ignore_errors=True)
    return summarize(workload, seed, size, trace, passes, setups)


def summarize(workload: str, seed: int, size: str, trace: bool, passes: list,
              setups: list) -> dict:
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    problems = [f"pass {i}: {msg}" for i, p in enumerate(passes) for msg in p["problems"]]
    if len({p["report_sha256"] for p in passes}) != 1:
        problems.append("reports differ between passes (traced vs untraced or run to run)")
    for i, p in enumerate(traced):
        if p["trace"]["violations"]:
            problems.append(f"traced pass {i}: {p['trace']['violations']} spans did not nest")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if problems and not failed:
        failed = attempted

    def med(key, group):
        return statistics.median(p[key] for p in group)

    if trace:
        metrics = {
            n: {"value": statistics.median(p["layers"][n][0] for p in traced), "unit": unit}
            for n, (_, unit) in traced[0]["layers"].items()
        }
        overhead = med("wall_s", traced) / med("wall_s", untraced) - 1
        metrics["trace_overhead_frac"] = {"value": overhead, "unit": "ratio"}
    else:
        values = {n: med(n, untraced) for n in ("wall_s", "cpu_s", "peak_rss_mb")}
        values["setup_s"] = statistics.median(setups + [p["setup_s"] for p in passes])
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END.items()}
    meta = dict(
        passes[0]["meta"],
        workload=workload, seed=seed, size=size, trace=int(trace),
        passes=len(untraced), traced_passes=len(traced), setups=len(setups) + len(passes),
        python=platform.python_version(), nproc=os.cpu_count(),
    )
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "meta": meta,
        "problems": problems,
        "passes": passes,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="End-to-end and per-layer benchmark of tfgor.")
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "toy"), default="full",
                    help="toy: a 300-graph corpus slice and girth4_planar(4), for the self-test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "tfgor" / "cli.py").is_file():
        print(f"run.py: no tfgor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            res = measure(name, args.seed, args.seconds, bool(args.trace), args.size)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 2
        results[name] = res
        for msg in res["problems"]:
            print(f"{name}: FAILED {msg}")
        print(f"{name}: failed_frac = {res['failed'] / res['attempted']:.6g} "
              f"({res['failed']}/{res['attempted']} graphs)")
        for metric, m in res["metrics"].items():
            print(f"{name}: {metric} = {m['value']:.6g} {m['unit']}")
        print(f"{name}: meta {json.dumps(res['meta'], sort_keys=True)}")
        out = WORK / "results" / f"{name}-seed{args.seed}-trace{args.trace}-{args.size}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(res, indent=1) + "\n", encoding="ascii")

    if len(results) == 1:
        (res,) = results.values()
        metrics = res["metrics"]
    else:
        metrics = {f"{w}.{n}": m for w, r in results.items() for n, m in r["metrics"].items()}
    final = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
