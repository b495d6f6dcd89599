"""Corpus classification and machine-readable reports.

A survey consumes a stream of graph6 lines.  Each nonblank line is
classified in one pass, in a worker when there are several: it is parsed
once, filtered, and every admitted graph becomes a record.  A record
reads its field-free columns (girth, triangle-freeness, alpha,
well-coveredness, W2, alpha-criticality) once, and asks each requested
field only for Gorensteinness and the second-power criterion; the
field-free work those two share is memoized in the parsed Graph, so the
fields after the first find it decided.  A malformed line comes back as
its line number and message instead, and a graph beyond the exact
recursion or the available memory is an error naming its line.  The
parent only digests the lines and collects the results in line order,
so record order equals corpus order regardless of the worker count.
Reports carry no timestamps, so identical inputs give byte-identical
output.  A report is written a record at a time, each record by one
template built from the record layout, so it is never held as one
string.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
from json.encoder import encode_basestring_ascii

from ._version import __version__
from .criteria import is_gorenstein_graph, is_second_power_cm
from .graphs import (
    _G6_HEADER,
    Graph,
    girth,
    has_isolated_vertices,
    independence_euler_characteristic,
    independence_number,
    is_alpha_critical,
    is_connected,
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
    "record_to_json",
    "report_to_json",
    "report_to_csv",
]

FIELD_CHOICES = ("q", "f2", "f3", "f5")

FILTERS = {
    "triangle-free": is_triangle_free,
    "connected": is_connected,
    "no-isolated": lambda g: not has_isolated_vertices(g),
    "girth-ge-5": lambda g: girth(g) >= 5,
}


def build_record(index: int, g: Graph, field_labels, graph6: str | None = None) -> dict:
    """Classify one graph into the report record shape.

    The per-field maps are keyed by the caller's label strings, and a given
    graph6 string is recorded without its header.  alpha, well_covered and
    euler_char are read off the graph, without building Ind(g).
    """
    if not field_labels:
        raise ValueError("at least one field label is required")
    gth = girth(g)
    no_isolated = not has_isolated_vertices(g)
    w2 = is_in_w2(g)
    gorenstein, second_power_cm = {}, {}
    for label in field_labels:
        field = FieldSpec.from_label(label)
        gorenstein[label] = is_gorenstein_graph(g, field)
        second_power_cm[label] = is_second_power_cm(g, field)
    # the paper's equivalence of W2, Gorensteinness and the second-power
    # criterion holds for triangle-free graphs without isolated vertices;
    # any other graph is outside its hypothesis and counts as consistent
    in_hypothesis = is_triangle_free(g) and no_isolated
    consistent = not in_hypothesis or all(
        w2 == gorenstein[lb] == second_power_cm[lb] for lb in field_labels
    )
    return {
        "index": index,
        "graph6": write_graph6(g) if graph6 is None else graph6.removeprefix(_G6_HEADER),
        "n": g.n,
        "edge_count": g.edge_count(),
        "girth": None if math.isinf(gth) else int(gth),
        "connected": is_connected(g),
        "no_isolated": no_isolated,
        "alpha": independence_number(g),
        "well_covered": is_well_covered(g),
        "w2": w2,
        "alpha_critical": is_alpha_critical(g),
        "euler_char": independence_euler_characteristic(g),
        "gorenstein": gorenstein,
        "second_power_cm": second_power_cm,
        "consistent": consistent,
    }


def _classify(task):
    """One nonblank corpus line: its record, None when a filter rejects it,
    or (line number, message) when it does not parse.  A graph too deep for
    the recursion or too large for memory, to parse or to classify, raises
    ValueError naming the line, in any worker."""
    lineno, index, line, filters, max_n, field_labels = task
    try:
        g = parse_graph6(line)
    except ValueError as exc:
        return lineno, str(exc)
    except MemoryError:
        raise ValueError(f"line {lineno}: out of memory while parsing the graph") from None
    if max_n is not None and g.n > max_n:
        return None
    try:
        if not all(FILTERS[name](g) for name in filters):
            return None
        return build_record(index, g, field_labels, graph6=line)
    except RecursionError:
        raise ValueError(
            f"line {lineno}: graph on {g.n} vertices is beyond the exact recursion"
        ) from None
    except MemoryError:
        raise ValueError(f"line {lineno}: out of memory on a graph on {g.n} vertices") from None


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
    With one job, classification stops at that line; with several, every
    line is classified before the first malformed one is reported.  Line
    numbers are 1-based, record indices are 0-based positions among the
    nonblank corpus lines.
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
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line:
            digest.update(line.encode("ascii", "replace") + b"\n")
            tasks.append((lineno, len(tasks), line, filters, max_n, field_labels))

    workers = min(jobs, len(tasks))
    if workers > 1:
        chunk = max(1, len(tasks) // (workers * 8))
        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_classify, tasks, chunksize=chunk)
    else:
        results = map(_classify, tasks)

    records = []
    skipped = []
    for res in results:
        if isinstance(res, dict):
            records.append(res)
        elif res is not None:
            if strict:
                raise ValueError(f"line {res[0]}: {res[1]}")
            skipped.append(res)

    counterexamples = [rec["index"] for rec in records if not rec["consistent"]]
    report = {
        "version": __version__,
        "corpus_digest": digest.hexdigest(),
        "filters": list(filters),
        "fields": list(field_labels),
        "summary": {
            "total": len(tasks),
            "admitted": len(records),
            "consistent": len(records) - len(counterexamples),
            "counterexamples": len(counterexamples),
        },
        "counterexamples": counterexamples,
        "records": records,
    }
    return report, skipped


# The record layout: every key of a record, in order.  The JSON template and
# the CSV columns both read it.  A per-field key maps each of the report's
# fields to a verdict, and spreads into one CSV column per field.
_RECORD_KEYS = (
    "index", "graph6", "n", "edge_count", "girth", "connected",
    "no_isolated", "alpha", "well_covered", "w2", "alpha_critical",
    "euler_char", "gorenstein", "second_power_cm", "consistent",
)
_PER_FIELD_KEYS = ("gorenstein", "second_power_cm")


def _leaves(rec: dict, fields):
    # the record's values in layout order, each per-field map spread over fields
    for key in _RECORD_KEYS:
        value = rec[key]
        if key in _PER_FIELD_KEYS:
            yield from map(value.__getitem__, fields)
        else:
            yield value


def _emit(chunks, out):
    # written piece by piece to out when given, else joined and returned
    if out is None:
        return "".join(chunks)
    for chunk in chunks:
        out.write(chunk)
    return None


def _json_leaf(value) -> str:
    # a record's scalar as json.dumps writes it
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    return int.__repr__(value)


def _record_renderer(fields, depth: int):
    """A function of a record giving json.dumps(record, indent=2) as it
    appears `depth` levels deep in an indent=2 document: one %-format of a
    template with a slot per leaf, built once for the fields."""
    # keys and field labels ("q", "f" and a prime) hold no "%" to escape
    pad = "\n" + "  " * (depth + 1)
    name = encode_basestring_ascii
    items = []
    for key in _RECORD_KEYS:
        value = "%s"
        if key in _PER_FIELD_KEYS:
            value = "{" + ",".join(f"{pad}  {name(lb)}: %s" for lb in fields) + pad + "}"
        items.append(f"{pad}{name(key)}: {value}")
    template = "{" + ",".join(items) + "\n" + "  " * depth + "}"
    return lambda rec: template % tuple(map(_json_leaf, _leaves(rec, fields)))


def record_to_json(record: dict) -> str:
    """One record as json.dumps(record, indent=2) writes it, through the
    renderer report_to_json gives every record."""
    return _record_renderer(tuple(record["gorenstein"]), 0)(record)


def _json_chunks(report: dict):
    # the head before the records (survey puts them last) through json,
    # then each record through the renderer for the report's fields
    head = json.dumps({k: v for k, v in report.items() if k != "records"}, indent=2)
    yield head[:-2] + ',\n  "records": ['
    render = _record_renderer(report["fields"], 2)
    sep = "\n    "
    for rec in report["records"]:
        yield sep + render(rec)
        sep = ",\n    "
    yield "\n  ]\n}\n" if report["records"] else "]\n}\n"


def report_to_json(report: dict, out=None) -> str | None:
    """The report as json.dumps(report, indent=2) writes it, plus a newline.

    With out (any object with a write method) the text is written there a
    record at a time and never held whole; without it, it is returned.
    """
    return _emit(_json_chunks(report), out)


def _csv_cell(value) -> str:
    if value is None:
        return "inf"
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def _csv_chunks(report: dict):
    fields = report["fields"]
    columns = []
    for key in _RECORD_KEYS:
        columns += [f"{key}_{lb}" for lb in fields] if key in _PER_FIELD_KEYS else [key]
    yield ",".join(columns) + "\n"
    for rec in report["records"]:
        yield ",".join(map(_csv_cell, _leaves(rec, fields))) + "\n"


def report_to_csv(report: dict, out=None) -> str | None:
    """Lossy flat projection of the records: booleans as 0/1, the per-field
    maps flattened to one column per field.  Written to out a row at a
    time when given, returned otherwise."""
    return _emit(_csv_chunks(report), out)
