"""Corpus classification and machine-readable reports.

A survey reads its iterable of graph6 lines once, lazily: it digests and
counts each nonblank line as it draws it, and each is classified in one
pass, in a worker when there are several: it is parsed once, filtered,
and every admitted graph becomes a record.  A record reads each
field-free column (girth, triangle-freeness, alpha, well-coveredness,
W2, alpha-criticality) once, from the verdicts memoized in the parsed
Graph, and asks each requested field only for Gorensteinness and the
second-power criterion, and only of a well-covered graph: Ind(g) of any
other graph is not pure, so both are False over every field.  The
field-free work those two share is memoized in the Graph too, so the
fields after the first find it decided, and the Graph and its memo are
freed once the record is built.  A malformed line comes back as its
line number and message instead, and a graph beyond the exact recursion
or the available memory is an error naming its line.  The results come
back in line order, so record order equals corpus order regardless of
the worker count, and a SurveyRun yields each admitted record as it
arrives, keeping only the summary counts and the counterexample indices:
the CLI renders the records into a spool, and survey() collects them
into one report.  Reports carry no timestamps, so identical inputs give
byte-identical output.  A report is a head and then a body: its records
and whatever closes them.  The body is rendered a run of records at a
time, each by one %-format of a template built from the record layout,
its slots filled by the type each column has, so the CLI, which spools
the body, never holds its report as one string.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import multiprocessing
from itertools import chain, islice
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
    "REPORT_FORMATS",
    "SurveyRun",
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


# each choice resolved once, at import; another label is resolved per record
_FIELD_SPECS = {lb: FieldSpec.from_label(lb) for lb in FIELD_CHOICES}


def build_record(index: int, g: Graph, field_labels, graph6: str | None = None) -> dict:
    """Classify one graph into the report record shape.

    The per-field maps are keyed by the caller's label strings, and a given
    graph6 string is recorded without its header.  alpha, well_covered and
    euler_char are read off the graph, without building Ind(g).  A graph
    that is not well-covered is neither Gorenstein nor second-power
    Cohen-Macaulay over any field (Ind(g) is not pure), so its per-field
    verdicts are False without asking the criteria.
    """
    if not field_labels:
        raise ValueError("at least one field label is required")
    fields = [_FIELD_SPECS.get(lb) or FieldSpec.from_label(lb) for lb in field_labels]
    gth = girth(g)
    no_isolated = not has_isolated_vertices(g)
    well_covered = is_well_covered(g)
    w2 = is_in_w2(g)
    # the paper's equivalence of W2, Gorensteinness and the second-power
    # criterion holds for triangle-free graphs without isolated vertices;
    # any other graph is outside its hypothesis and counts as consistent
    in_hypothesis = gth != 3 and no_isolated  # triangle-free: girth other than 3
    if well_covered:
        gorenstein = {lb: is_gorenstein_graph(g, f) for lb, f in zip(field_labels, fields)}
        second_power_cm = {lb: is_second_power_cm(g, f) for lb, f in zip(field_labels, fields)}
        consistent = not in_hypothesis or all(
            w2 == gorenstein[lb] == second_power_cm[lb] for lb in field_labels
        )
    else:
        gorenstein = dict.fromkeys(field_labels, False)
        second_power_cm = gorenstein.copy()
        consistent = not in_hypothesis or not w2
    return {
        "index": index,
        "graph6": write_graph6(g) if graph6 is None else graph6.removeprefix(_G6_HEADER),
        "n": g.n,
        "edge_count": g.edge_count(),
        "girth": None if gth == math.inf else gth,
        "connected": is_connected(g),
        "no_isolated": no_isolated,
        "alpha": independence_number(g),
        "well_covered": well_covered,
        "w2": w2,
        "alpha_critical": is_alpha_critical(g),
        "euler_char": independence_euler_characteristic(g),
        "gorenstein": gorenstein,
        "second_power_cm": second_power_cm,
        "consistent": consistent,
    }


def _classify(task):
    """One nonblank corpus line: its record, None when a filter rejects it,
    (line number, message) when it does not parse, or a ValueError naming
    the line when the graph is too deep for the recursion or too large for
    memory, to parse or to classify.  The error is returned, not raised,
    so that the parent raises it in corpus order at any job count."""
    lineno, index, line, filters, max_n, field_labels = task
    try:
        g = parse_graph6(line)
    except ValueError as exc:
        return lineno, str(exc)
    except MemoryError:
        return ValueError(f"line {lineno}: out of memory while parsing the graph")
    if max_n is not None and g.n > max_n:
        return None
    try:
        if not all(FILTERS[name](g) for name in filters):
            return None
        return build_record(index, g, field_labels, graph6=line)
    except RecursionError:
        return ValueError(f"line {lineno}: graph on {g.n} vertices is beyond the exact recursion")
    except MemoryError:
        return ValueError(f"line {lineno}: out of memory on a graph on {g.n} vertices")


class SurveyRun:
    """One survey of graph6 lines, classified as a stream.

    lines is any iterable of lines, such as a list, a generator or the
    CLI's line reader over a pipe; the constructor only checks the
    options.  records(), iterated once, reads the lines once: it digests
    and counts the nonblank ones as it draws them, and classifies them
    lazily, each in one pass, in a pool of min(jobs, nonblank lines)
    workers when that is more than one, in chunks of 512 lines, and yields
    every admitted record in corpus order.  An error the lines raise
    (such as a byte outside ASCII) comes out of records() where the read
    reaches it, at any job count.  It keeps only a tally: the nonblank and
    admitted counts, the counterexample indices and the malformed lines
    (skipped, as (line number, message) pairs).  With strict=True the
    first malformed line in corpus order raises ValueError instead, at any
    job count, and so does a graph beyond the recursion or the memory;
    leaving records() early, by an error or by closing it, terminates the
    pool.  Once records() is exhausted, head() is the report without its
    records.
    """

    def __init__(self, lines, filters=(), fields=("q",), max_n=None, jobs: int = 1,
                 strict: bool = False):
        self.filters = tuple(filters)
        for name in self.filters:
            if name not in FILTERS:
                raise ValueError(f"unknown filter {name!r}")
        self.fields = tuple(dict.fromkeys(fields))
        if not self.fields:
            raise ValueError("at least one field label is required")
        for lb in self.fields:
            FieldSpec.from_label(lb)
        self.lines, self.max_n, self.strict = lines, max_n, strict
        self.jobs = max(1, int(jobs))
        self._digest = hashlib.sha256()
        self.total = 0
        self.admitted = 0
        self.counterexamples = []
        self.skipped = []

    def _tasks(self):
        # the one read, which digests and counts each nonblank line it
        # draws.  Under Pool.imap it runs in the pool's feeder thread, and
        # its count is complete once the results are exhausted
        for lineno, raw in enumerate(self.lines, start=1):
            line = raw.strip()
            if line:
                self._digest.update(line.encode("ascii", "replace") + b"\n")
                yield lineno, self.total, line, self.filters, self.max_n, self.fields
                self.total += 1

    def records(self):
        # the first jobs tasks size the pool, so it never has more workers
        # than lines; a chunk of 512 keeps the records it holds, in a worker
        # and in the parent, from growing with the corpus
        tasks = self._tasks()
        ahead = list(islice(tasks, self.jobs))
        with contextlib.ExitStack() as stack:
            if len(ahead) > 1:
                pool = stack.enter_context(multiprocessing.Pool(len(ahead)))
                results = pool.imap(_classify, chain(ahead, tasks), chunksize=512)
            else:
                results = map(_classify, chain(ahead, tasks))
            for res in results:
                if isinstance(res, dict):
                    self.admitted += 1
                    if not res["consistent"]:
                        self.counterexamples.append(res["index"])
                    yield res
                elif isinstance(res, ValueError):
                    raise res
                elif res is not None:
                    if self.strict:
                        raise ValueError(f"line {res[0]}: {res[1]}")
                    self.skipped.append(res)

    def head(self) -> dict:
        return {
            "version": __version__,
            "corpus_digest": self._digest.hexdigest(),
            "filters": list(self.filters),
            "fields": list(self.fields),
            "summary": {
                "total": self.total,
                "admitted": self.admitted,
                "consistent": self.admitted - len(self.counterexamples),
                "counterexamples": len(self.counterexamples),
            },
            "counterexamples": list(self.counterexamples),
        }


def survey(
    lines,
    filters=(),
    fields=("q",),
    max_n=None,
    jobs: int = 1,
    strict: bool = False,
):
    """Classify a graph6 corpus; returns (report, skipped).

    The report is the head of a SurveyRun of the lines with its records
    collected last; skipped is a list of (line_number, message) pairs for
    malformed lines, and with strict=True the first malformed line raises
    ValueError instead, at any job count.  Line numbers are 1-based,
    record indices are 0-based positions among the nonblank corpus lines.
    """
    run = SurveyRun(lines, filters, fields, max_n, jobs, strict)
    records = list(run.records())
    return dict(run.head(), records=records), run.skipped


# The record layout: every key of a record, in order.  The JSON and CSV
# templates both read it.  A per-field key maps each of the report's
# fields to a verdict, and spreads into one CSV column per field.
_RECORD_KEYS = (
    "index", "graph6", "n", "edge_count", "girth", "connected",
    "no_isolated", "alpha", "well_covered", "w2", "alpha_critical",
    "euler_char", "gorenstein", "second_power_cm", "consistent",
)
_PER_FIELD_KEYS = ("gorenstein", "second_power_cm")

# Records are rendered and written in runs of this many: writing each record
# as it arrives cost about 2 us more per record (some 13 us against 11 us
# for runs of 64), and a run holds only 64 records.
_RUN = 64


def _runs(records):
    # the records in lists of _RUN, the last one shorter
    it = iter(records)
    while run := list(islice(it, _RUN)):
        yield run


def _record_renderer(template: str, fields, bools, none: str, text):
    """A function of a record giving one %-format of template, whose slots
    are the record's leaves in layout order, each per-field map spread
    over fields.

    The record layout fixes each leaf's type, and build_record keeps to it,
    so each slot is filled by the rule for its type, with no call per leaf:
    a bool as bools[False] or bools[True], girth None as none, an int as
    str gives it and graph6 through text."""
    b = bools

    def render(rec):
        girth = rec["girth"]
        return template % (
            rec["index"], text(rec["graph6"]), rec["n"], rec["edge_count"],
            none if girth is None else girth,
            b[rec["connected"]], b[rec["no_isolated"]], rec["alpha"],
            b[rec["well_covered"]], b[rec["w2"]], b[rec["alpha_critical"]], rec["euler_char"],
            *map(b.__getitem__, map(rec["gorenstein"].__getitem__, fields)),
            *map(b.__getitem__, map(rec["second_power_cm"].__getitem__, fields)),
            b[rec["consistent"]],
        )

    return render


def _json_renderer(fields, depth: int):
    """A function of a record giving json.dumps(record, indent=2) as it
    appears `depth` levels deep in an indent=2 document: a bool as false or
    true, girth None as null, an int as str gives it (which is json.dumps's
    int.__repr__) and graph6 through json's own string encoder."""
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
    return _record_renderer(template, fields, ("false", "true"), "null", name)


def record_to_json(record: dict) -> str:
    """One record as json.dumps(record, indent=2) writes it, through the
    renderer report_to_json gives every record."""
    return _json_renderer(tuple(record["gorenstein"]), 0)(record)


def _json_head(head: dict) -> str:
    # the report up to its first record, through json: survey puts the
    # records last, so the head is the report without them
    return json.dumps(head, indent=2)[:-2] + ',\n  "records": ['


def _json_body(records, fields):
    # the records a run at a time, then the closing brackets, which depend
    # only on whether any record came
    render = _json_renderer(fields, 2)
    sep = "\n    "
    for run in _runs(records):
        yield sep + ",\n    ".join(map(render, run))
        sep = ",\n    "
    yield "]\n}\n" if sep == "\n    " else "\n  ]\n}\n"


def _csv_head(head: dict) -> str:
    columns = []
    for key in _RECORD_KEYS:
        columns += [f"{key}_{lb}" for lb in head["fields"]] if key in _PER_FIELD_KEYS else [key]
    return ",".join(columns) + "\n"


def _csv_body(records, fields):
    # a row per record: a bool as 0 or 1, girth None as inf, the rest as str gives it
    slots = len(_RECORD_KEYS) + (len(fields) - 1) * len(_PER_FIELD_KEYS)
    render = _record_renderer(",".join(["%s"] * slots) + "\n", fields, ("0", "1"), "inf", str)
    for run in _runs(records):
        yield "".join(map(render, run))


# Each report format as (head, body): head(report without records) is a
# string, and body(records, fields) yields the rest of the report, the
# rendered records a run at a time.  report_to_json and report_to_csv join
# them in that order; the CLI spools the body as the records arrive and
# writes the head, which needs the summary, once the last one has.
REPORT_FORMATS = {
    "json": (_json_head, _json_body),
    "csv": (_csv_head, _csv_body),
}


def _write(fmt: str, report: dict) -> str:
    head, body = REPORT_FORMATS[fmt]
    rest = {k: v for k, v in report.items() if k != "records"}
    return head(rest) + "".join(body(report["records"], report["fields"]))


def report_to_json(report: dict) -> str:
    """The report as json.dumps(report, indent=2) writes it, plus a newline."""
    return _write("json", report)


def report_to_csv(report: dict) -> str:
    """Lossy flat projection of the records: booleans as 0/1, the per-field
    maps flattened to one column per field."""
    return _write("csv", report)
