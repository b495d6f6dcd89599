"""Command-line front end.

Subcommands: check (classify one graph), survey (classify a graph6
corpus), family (emit a generated family member), homology (print Betti
numbers and the reduced Euler characteristic).  Exit codes: 0 no
counterexamples, 1 counterexample found, 2 usage or input error (a
malformed or unreadable input, or a graph beyond the exact recursion or
the available memory).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import shutil
import stat
import sys
import tempfile

from ._version import __version__
from .graphs import (
    _EDGE_LIST_MAX_N,
    _FAMILIES,
    _components,
    _ind_facets,
    generate,
    parse_edge_list,
    parse_graph6,
    write_edge_list,
    write_graph6,
)
from .homology import FieldSpec, parse_facets, reduced_betti
from .survey import (
    FIELD_CHOICES,
    FILTERS,
    REPORT_FORMATS,
    SurveyRun,
    build_record,
    record_to_json,
)


def _add_field_option(parser, repeatable=True):
    kwargs = dict(
        choices=FIELD_CHOICES,
        help="coefficient field (q = rationals, f2/f3/f5 = prime fields)",
    )
    if repeatable:
        parser.add_argument(
            "--field", action="append", dest="fields", metavar="FIELD", **kwargs
        )
    else:
        parser.add_argument("--field", default="q", metavar="FIELD", **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tfgor",
        description=(
            "Exact decision procedures for well-covered, W2, Cohen-Macaulay "
            "and Gorenstein graphs, with exhaustive corpus verification."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="classify a single graph")
    src = p_check.add_mutually_exclusive_group(required=True)
    src.add_argument("--g6", metavar="STRING", help="graph6-encoded graph")
    src.add_argument(
        "--edge-file", metavar="PATH", help="edge-list file ('n m' header)"
    )
    _add_field_option(p_check)

    p_survey = sub.add_parser("survey", help="classify a graph6 corpus")
    p_survey.add_argument(
        "--corpus", metavar="PATH", default="-",
        help="graph6 lines, one per graph ('-' = stdin)",
    )
    p_survey.add_argument(
        "--filter", metavar="LIST", default="",
        help="comma list of filters: " + ",".join(sorted(FILTERS)),
    )
    p_survey.add_argument("--max-n", type=int, metavar="INT")
    _add_field_option(p_survey)
    p_survey.add_argument(
        "--jobs", type=int, default=1, metavar="INT",
        help="worker processes, fed chunks of 512 lines (the report is the same at any value)",
    )
    p_survey.add_argument("--out", metavar="PATH", help="report path (default stdout)")
    p_survey.add_argument("--format", choices=tuple(REPORT_FORMATS), default="json")
    p_survey.add_argument(
        "--strict", action="store_true",
        help="abort on the first malformed corpus line",
    )

    p_family = sub.add_parser("family", help="emit a generated family member")
    p_family.add_argument("name", choices=_FAMILIES)
    p_family.add_argument("n", type=int)
    p_family.add_argument("--format", choices=("graph6", "edges"), default="graph6")

    p_hom = sub.add_parser(
        "homology", help="print Betti numbers and the Euler characteristic"
    )
    src = p_hom.add_mutually_exclusive_group(required=True)
    src.add_argument("--facets", metavar="PATH", help="facet-list file")
    src.add_argument("--g6", metavar="STRING", help="graph6 graph (independence complex)")
    src.add_argument("--edge-file", metavar="PATH", help="edge-list file (independence complex)")
    _add_field_option(p_hom, repeatable=False)
    return parser


def _open(path: str):
    """A binary file open for reading: stdin for '-', left open on exit."""
    return contextlib.nullcontext(sys.stdin.buffer) if path == "-" else open(path, "rb")


def _lines(fh):
    """The lines of an open binary file, as str.splitlines() gives them
    from its whole text, read once in batches of whole lines of about
    4 KB, so the text is never held.  Every batch but the last ends in a
    newline, and a CR LF pair never straddles two batches, so the batches'
    lines are the whole text's.  A byte outside ASCII is a ValueError
    naming the line str.splitlines() puts it on."""
    lineno = 1
    while batch := fh.readlines(1 << 12):
        data = b"".join(batch)
        try:
            lines = data.decode("ascii").splitlines()
        except UnicodeDecodeError as exc:
            # the ASCII before the bad byte, with one more character, has
            # as many lines as the breaks before it plus one
            pos = exc.start
            lineno += len((data[:pos].decode("ascii") + ".").splitlines()) - 1
            raise ValueError(f"line {lineno}: byte {data[pos]:#04x} is not ASCII") from None
        lineno += len(lines)
        yield from lines


def _read(path: str) -> str:
    """The text of a file ('-' = stdin) with the lines _lines gives, each
    ended by a newline, so its splitlines() are theirs."""
    with _open(path) as fh:
        return "".join(line + "\n" for line in _lines(fh))


def _load_graph(args):
    if getattr(args, "g6", None) is not None:
        return parse_graph6(args.g6)
    return parse_edge_list(_read(args.edge_file))


def _cmd_check(args) -> int:
    fields = tuple(args.fields or ["q"])
    g6 = args.g6.strip() if args.g6 is not None else None
    record = build_record(0, _load_graph(args), fields, graph6=g6)
    print(record_to_json(record))
    return 0 if record["consistent"] else 1


def _cmd_survey(args) -> int:
    with contextlib.ExitStack() as stack:
        # read once, in batches of lines as it arrives, so a file is never
        # held and a pipe is classified while it is written
        corpus = stack.enter_context(_open(args.corpus))
        run = SurveyRun(
            _lines(corpus),
            filters=tuple(t for t in args.filter.split(",") if t),
            fields=tuple(args.fields or ["q"]),
            max_n=args.max_n,
            jobs=args.jobs,
            strict=args.strict,
        )
        # opened before any line is classified, so a bad --out fails fast,
        # but not truncated until the report is written: a survey that
        # fails leaves the file as it was, and --out may name the corpus
        out = (
            stack.enter_context(open(args.out, "a", encoding="ascii"))
            if args.out else sys.stdout
        )
        head, body = REPORT_FORMATS[args.format]
        # the records go to a spool as they are classified, so none is held;
        # the head needs the summary, so nothing reaches out before the last
        spool = stack.enter_context(tempfile.TemporaryFile("w+", encoding="ascii", newline=""))
        records = stack.enter_context(contextlib.closing(run.records()))
        spool.writelines(body(records, run.fields))
        for lineno, msg in run.skipped:
            print(f"tfgor survey: skipped line {lineno}: {msg}", file=sys.stderr)
        # only a regular file is truncated: /dev/null or a FIFO cannot be
        if args.out and stat.S_ISREG(os.fstat(out.fileno()).st_mode):
            out.truncate(0)
        out.write(head(run.head()))
        spool.seek(0)
        shutil.copyfileobj(spool, out)
    return 1 if run.counterexamples else 0


def _cmd_family(args) -> int:
    # a member over the edge-list limit is refused before it is built, so
    # every member written reads back through --edge-file
    n = 3 * args.n - 1 if args.name == "girth4-planar" else args.n
    if n > _EDGE_LIST_MAX_N:
        raise ValueError(
            f"{args.name} {args.n} has {n} vertices, over the limit of {_EDGE_LIST_MAX_N} for an edge list"
        )
    g = generate(args.name, args.n)
    if args.format == "graph6":
        print(write_graph6(g))
    else:
        sys.stdout.write(write_edge_list(g))
    return 0


def _ind_betti(g, field) -> dict[int, int]:
    """The reduced Betti numbers of Ind(g), the join of its components'
    complexes, each given by the masks of its facets, the maximal
    independent sets.  Kunneth for joins over a field: the reduced
    homology of X * Y in degree k is the sum over i + j = k - 1 of
    H~_i(X) (x) H~_j(Y).  An isolated vertex is a cone apex, so it makes
    every Betti number 0."""
    betti = {-1: 1}  # {()}, the join's unit
    for c in _components(g, (1 << g.n) - 1):
        part = reduced_betti(_ind_facets(g, c), field)
        betti = {
            k: sum(b * part.get(k - 1 - i, 0) for i, b in betti.items())
            for k in range(-1, max(betti) + max(part) + 2)
        }
    return betti


def _cmd_homology(args) -> int:
    field = FieldSpec.from_label(args.field)
    if args.facets is not None:
        betti = reduced_betti(parse_facets(_read(args.facets)), field)
    else:
        betti = _ind_betti(_load_graph(args), field)
    print(f"field: {field.label}")
    for i in sorted(betti):
        print(f"H~_{i} = {betti[i]}")
    # Euler-Poincare, over any field: chi~ = sum_i (-1)^i b~_i
    print(f"chi~ = {sum(-b if i % 2 else b for i, b in betti.items())}")
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "survey": _cmd_survey,
    "family": _cmd_family,
    "homology": _cmd_homology,
}


def main(argv=None) -> int:
    """Run one subcommand; bad input (ValueError, OSError) and a graph too
    deep for the recursion or too large for memory all print
    'tfgor <command>: ...' and exit 2."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        message = str(exc)
    except RecursionError:
        message = "the graph is beyond the exact recursion (maximum recursion depth exceeded)"
    except MemoryError:
        message = "out of memory"
    print(f"tfgor {args.command}: {message}", file=sys.stderr)
    return 2


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
