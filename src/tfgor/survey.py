"""Corpus classification and machine-readable reports.

A survey consumes a stream of graph6 lines, classifies every admitted
graph with check_theorem for each requested field, and assembles a
deterministic report: record order equals corpus order regardless of the
worker count, and reports carry no timestamps, so identical inputs give
byte-identical output.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing

from ._version import __version__
from .complexes import independence_complex, reduced_euler_characteristic
from .criteria import check_theorem
from .graphs import (
    Graph,
    components,
    girth,
    has_isolated_vertices,
    independence_number,
    is_alpha_critical,
    is_in_w2,
    is_triangle_free,
    is_well_covered,
    parse_graph6,
    write_graph6,
)
from .homology import FieldSpec

__all__ = [
    "FILTERS",
    "FIELD_CHOICES",
    "build_record",
    "survey",
    "report_to_json",
    "report_to_csv",
]

FIELD_CHOICES = ("q", "f2", "f3", "f5")

FILTERS = {
    "triangle-free": is_triangle_free,
    "connected": lambda g: len(components(g)) <= 1,
    "no-isolated": lambda g: not has_isolated_vertices(g),
    "girth-ge-5": lambda g: girth(g) >= 5,
}


def admits(g: Graph, filters, max_n=None) -> bool:
    if max_n is not None and g.n > max_n:
        return False
    for name in filters:
        try:
            pred = FILTERS[name]
        except KeyError:
            raise ValueError(f"unknown filter {name!r}") from None
        if not pred(g):
            return False
    return True


def build_record(index: int, g: Graph, field_labels, graph6: str | None = None) -> dict:
    """Classify one graph into the report record shape."""
    if not field_labels:
        raise ValueError("at least one field label is required")
    gth = girth(g)
    verdicts = {
        label: check_theorem(g, FieldSpec.from_label(label))
        for label in field_labels
    }
    any_verdict = next(iter(verdicts.values()))
    return {
        "index": index,
        "graph6": graph6 if graph6 is not None else write_graph6(g),
        "n": g.n,
        "edge_count": g.edge_count(),
        "girth": None if math.isinf(gth) else int(gth),
        "connected": len(components(g)) <= 1,
        "no_isolated": any_verdict.no_isolated,
        "alpha": independence_number(g),
        "well_covered": is_well_covered(g),
        "w2": any_verdict.is_w2,
        "alpha_critical": is_alpha_critical(g),
        "euler_char": reduced_euler_characteristic(independence_complex(g)),
        "gorenstein": {lb: v.gorenstein for lb, v in verdicts.items()},
        "second_power_cm": {lb: v.second_power_cm for lb, v in verdicts.items()},
        "consistent": all(v.consistent for v in verdicts.values()),
    }


def _record_task(args) -> dict:
    index, line, field_labels = args
    return build_record(index, parse_graph6(line), field_labels, graph6=line)


def survey(
    lines,
    filters=(),
    fields=("q",),
    max_n=None,
    jobs: int = 1,
    strict: bool = False,
):
    """Classify a graph6 corpus; returns (report, skipped).

    skipped is a list of (line_number, message) pairs for malformed lines;
    with strict=True the first malformed line raises ValueError instead.
    Line numbers are 1-based, record indices are 0-based positions among
    the nonblank corpus lines.
    """
    filters = tuple(filters)
    for name in filters:
        if name not in FILTERS:
            raise ValueError(f"unknown filter {name!r}")
    jobs = max(1, int(jobs))
    field_labels = tuple(dict.fromkeys(fields))
    if not field_labels:
        raise ValueError("at least one field label is required")
    for lb in field_labels:
        FieldSpec.from_label(lb)
    digest = hashlib.sha256()
    tasks = []
    skipped = []
    total = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        index = total
        total += 1
        digest.update(line.encode("ascii", "replace") + b"\n")
        try:
            g = parse_graph6(line)
        except ValueError as exc:
            if strict:
                raise ValueError(f"line {lineno}: {exc}") from None
            skipped.append((lineno, str(exc)))
            continue
        if admits(g, filters, max_n):
            tasks.append((index, line, field_labels))

    workers = min(jobs, len(tasks))
    if workers > 1:
        chunk = max(1, len(tasks) // (workers * 8))
        with multiprocessing.Pool(workers) as pool:
            records = pool.map(_record_task, tasks, chunksize=chunk)
    else:
        records = [_record_task(t) for t in tasks]

    counterexamples = [rec["index"] for rec in records if not rec["consistent"]]
    report = {
        "version": __version__,
        "corpus_digest": digest.hexdigest(),
        "filters": list(filters),
        "fields": list(field_labels),
        "summary": {
            "total": total,
            "admitted": len(records),
            "consistent": len(records) - len(counterexamples),
            "counterexamples": len(counterexamples),
        },
        "counterexamples": counterexamples,
        "records": records,
    }
    return report, skipped


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return "inf"
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def report_to_csv(report: dict) -> str:
    """Lossy flat projection of the records: booleans as 0/1, the per-field
    maps flattened to one column per field."""
    fields = report["fields"]
    header = (
        ["index", "graph6", "n", "edge_count", "girth", "connected",
         "no_isolated", "alpha", "well_covered", "w2", "alpha_critical",
         "euler_char"]
        + [f"gorenstein_{lb}" for lb in fields]
        + [f"second_power_cm_{lb}" for lb in fields]
        + ["consistent"]
    )
    out = [",".join(header)]
    for rec in report["records"]:
        row = [
            _csv_cell(rec[k])
            for k in ("index", "graph6", "n", "edge_count", "girth",
                      "connected", "no_isolated", "alpha", "well_covered",
                      "w2", "alpha_critical", "euler_char")
        ]
        row += [_csv_cell(rec["gorenstein"][lb]) for lb in fields]
        row += [_csv_cell(rec["second_power_cm"][lb]) for lb in fields]
        row.append(_csv_cell(rec["consistent"]))
        out.append(",".join(row))
    return "\n".join(out) + "\n"
