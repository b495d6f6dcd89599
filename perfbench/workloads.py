"""Workload definitions: seeded inputs, the CLI call, and the correctness gate.

survey-q          many small graphs, one field, one process: graph
                  combinatorics and complex construction dominate, and the
                  criteria memo cache is smaller than the number of
                  distinct complexes, so the seeded order matters.
survey-3field-j2  the same corpus over three fields on a pool of two
                  workers: field-independent work is repeated per field,
                  and pool, pickling and the serial parent part are on the
                  path.
check-planar      one large graph, girth4_planar(n) with seeded vertex
                  labels, over q and f2: boundary assembly and rank
                  elimination dominate, integer and mod-p side by side.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from pathlib import Path

import corpus

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

PLANAR_N = {"full": 6, "toy": 4}


@dataclass
class Inputs:
    argv: list[str]
    out_path: str | None  # report file, or None when the report goes to stdout
    graphs: int  # graphs attempted by one pass
    meta: dict
    expect: dict = field(default_factory=dict)


def record_hash(record: dict) -> str:
    """Order-independent fingerprint of one record's verdict fields."""
    body = {k: v for k, v in record.items() if k != "index"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()[:8]


def load_reference(size: str, fields: tuple[str, ...]) -> list[str]:
    with open(REFERENCE_PATH, encoding="ascii") as fh:
        blob = json.load(fh)[size][",".join(fields)]
    return [blob[i:i + 8] for i in range(0, len(blob), 8)]


class Survey:
    def __init__(self, fields: tuple[str, ...], jobs: int):
        self.fields = fields
        self.jobs = jobs

    def setup(self, seed: int, size: str, workdir: str) -> Inputs:
        lines, digest = corpus.load(size)
        order = list(lines)
        random.Random(seed).shuffle(order)
        path = os.path.join(workdir, "corpus.g6")
        text = "".join(ln + "\n" for ln in order)
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
        out = os.path.join(workdir, "report.json")
        argv = ["survey", "--corpus", path, "--filter", "triangle-free,connected"]
        for f in self.fields:
            argv += ["--field", f]
        argv += ["--jobs", str(self.jobs), "--out", out]
        return Inputs(
            argv, out, len(lines),
            meta={"corpus_sha256": digest, "corpus_graphs": len(lines)},
            expect={"lines": lines, "fed_digest": hashlib.sha256(text.encode()).hexdigest()},
        )

    def gate(self, inputs: Inputs, size: str, exit_code, text: str | None) -> tuple[int, list[str]]:
        """Number of failed graphs, and what went wrong."""
        lines = inputs.expect["lines"]
        if exit_code != 0 or text is None:
            return len(lines), [f"cli exit code {exit_code}"]
        report = json.loads(text)
        problems = []
        summary = report["summary"]
        if summary["counterexamples"] != 0:
            problems.append(f"summary.counterexamples = {summary['counterexamples']}")
        if summary["total"] != len(lines) or summary["admitted"] != len(lines):
            problems.append(f"summary admitted {summary['admitted']} of {summary['total']}")
        if report["corpus_digest"] != inputs.expect["fed_digest"]:
            problems.append("corpus_digest does not match the corpus fed in")
        reference = dict(zip(lines, load_reference(size, self.fields)))
        seen = set()
        failed = 0
        for rec in report["records"]:
            g6 = rec["graph6"]
            agree = all(
                rec["w2"] == rec["gorenstein"][f] == rec["second_power_cm"][f]
                for f in self.fields
            )
            ok = (
                g6 in reference
                and g6 not in seen
                and agree
                and rec["consistent"]
                and record_hash(rec) == reference[g6]
            )
            seen.add(g6)
            failed += not ok
        failed += len(set(reference) - seen)
        if failed:
            problems.append(f"{failed} graphs with wrong or missing verdicts")
        if problems and not failed:
            failed = len(lines)
        return failed, problems


class CheckPlanar:
    def __init__(self, fields: tuple[str, ...]):
        self.fields = fields

    def setup(self, seed: int, size: str, workdir: str) -> Inputs:
        from tfgor.graphs import girth4_planar

        n = PLANAR_N[size]
        g = girth4_planar(n)
        perm = list(range(g.n))
        random.Random(seed).shuffle(perm)
        edges = sorted(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges())
        path = os.path.join(workdir, "planar.edges")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(f"{g.n} {len(edges)}\n")
            fh.writelines(f"{u} {v}\n" for u, v in edges)
        argv = ["check", "--edge-file", path]
        for f in self.fields:
            argv += ["--field", f]
        return Inputs(
            argv, None, 1,
            meta={"planar_n": n},
            expect={"n": n, "vertices": g.n, "edges": len(edges)},
        )

    def gate(self, inputs: Inputs, size: str, exit_code, text: str | None) -> tuple[int, list[str]]:
        if exit_code != 0 or text is None:
            return 1, [f"cli exit code {exit_code}"]
        rec = json.loads(text)
        exp = inputs.expect
        problems = []
        flags = ["connected", "no_isolated", "well_covered", "w2", "alpha_critical", "consistent"]
        flags = [k for k in flags if rec[k] is not True]
        flags += [
            f"{k}[{f}]"
            for k in ("gorenstein", "second_power_cm")
            for f in self.fields
            if rec[k][f] is not True
        ]
        if flags:
            problems.append("false verdicts: " + ", ".join(flags))
        if rec["alpha"] != exp["n"]:
            problems.append(f"alpha = {rec['alpha']}, expected {exp['n']}")
        if (rec["n"], rec["edge_count"], rec["girth"]) != (exp["vertices"], exp["edges"], 4):
            problems.append("wrong vertex count, edge count or girth")
        # a Gorenstein complex of dimension n-1 has reduced Euler characteristic (-1)^(n-1)
        if rec["euler_char"] != (-1) ** (exp["n"] - 1):
            problems.append(f"euler_char = {rec['euler_char']}")
        return (1 if problems else 0), problems


WORKLOADS = {
    "survey-q": Survey(("q",), jobs=1),
    "survey-3field-j2": Survey(("q", "f2", "f3"), jobs=2),
    "check-planar": CheckPlanar(("q", "f2")),
}
