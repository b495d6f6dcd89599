import hashlib
import importlib.util
import io
import json
import multiprocessing
import os
import random
import sys
import threading
import tracemalloc
from functools import reduce
from itertools import combinations
from operator import and_

import pytest

from conftest import FIXTURES
from oracles import (
    face_poset_complement,
    independence_complex,
    oracle_betti,
    read_facets,
    reduced_euler_characteristic,
)
from tfgor import (
    Graph,
    build_record,
    complete_graph,
    cycle_graph,
    disjoint_union,
    generate,
    girth4_planar,
    parse_edge_list,
    parse_graph6,
    path_graph,
    report_to_csv,
    report_to_json,
    survey,
    write_edge_list,
    write_graph6,
)
from tfgor.cli import _lines, main
from tfgor.survey import SurveyRun


def run(capsys, argv, stdin=None, monkeypatch=None):
    """Run the CLI; stdin (str or bytes) becomes a text stream with a .buffer."""
    if stdin is not None:
        data = stdin if isinstance(stdin, bytes) else stdin.encode()
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_c5(capsys):
    code, out, _ = run(capsys, ["check", "--g6", "Dhc"])
    rec = json.loads(out)
    assert code == 0
    assert rec["alpha"] == 2 and rec["euler_char"] == -1
    assert rec["consistent"] and rec["gorenstein"] == {"q": True}
    assert rec["girth"] == 5 and rec["connected"]


def test_check_k2_edge_list(capsys, tmp_path):
    p = tmp_path / "k2.txt"
    p.write_text("2 1\n0 1\n")
    code, out, _ = run(capsys, ["check", "--edge-file", str(p)])
    rec = json.loads(out)
    assert code == 0
    assert rec["gorenstein"]["q"] is True
    assert rec["graph6"] == "A_"


def test_check_records_bare_graph6(capsys):
    code, out, _ = run(capsys, ["check", "--g6", ">>graph6<<A_"])
    assert code == 0 and json.loads(out)["graph6"] == "A_"


@pytest.mark.parametrize(
    "text, line",
    [
        ("3 1\n0 a\n", 2), ("3 1\n\n0 5\n", 3), ("3 -1\n", 1), ("3 2\n0 1\n1 0\n", 3),
        ("1_0 1\n0 1\n", 1), ("3 1\n+0 1\n", 2),
    ],
)
def test_check_edge_file_error_names_line_exit_2(capsys, tmp_path, text, line):
    p = tmp_path / "bad.txt"
    p.write_text(text)
    code, out, err = run(capsys, ["check", "--edge-file", str(p)])
    assert code == 2 and out == ""
    assert err.startswith(f"tfgor check: line {line}: ")


def test_check_edge_file_over_the_vertex_limit_exit_2(capsys, tmp_path):
    # a header of 10^8 vertices is refused before its rows are allocated
    # (800 MB for the row list alone), with no ulimit needed
    p = tmp_path / "huge.edges"
    p.write_text("100000000 0\n")
    tracemalloc.start()
    try:
        code, out, err = run(capsys, ["check", "--edge-file", str(p)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert err.startswith("tfgor check: line 1: 100000000 vertices exceed the limit")
    assert peak < 1 << 20


def test_check_c4_all_false(capsys):
    code, out, _ = run(capsys, ["check", "--g6", write_graph6(cycle_graph(4))])
    rec = json.loads(out)
    assert code == 0 and rec["consistent"]
    assert not rec["w2"]
    assert rec["gorenstein"] == {"q": False}
    assert rec["second_power_cm"] == {"q": False}


def test_check_multiple_fields(capsys):
    code, out, _ = run(capsys, ["check", "--g6", "Dhc", "--field", "q", "--field", "f2"])
    rec = json.loads(out)
    assert code == 0
    assert rec["gorenstein"] == {"q": True, "f2": True}


def test_check_output_is_json_dumps_of_the_record(capsys, corpus_tf_lines):
    # a graph6 string with a backslash, which JSON escapes
    g6 = next(ln for ln in corpus_tf_lines if "\\" in ln)
    code, out, _ = run(capsys, ["check", "--g6", g6, "--field", "q", "--field", "f2"])
    rec = build_record(0, parse_graph6(g6), ("q", "f2"), graph6=g6)
    assert out == json.dumps(rec, indent=2) + "\n"
    assert code == (0 if rec["consistent"] else 1)


def test_check_parse_failure_exit_2(capsys):
    code, _, err = run(capsys, ["check", "--g6", "A" + chr(127)])
    assert code == 2 and "check" in err


def test_check_beyond_recursion_exit_2(capsys, tmp_path):
    # alpha takes a leaf and its neighbor per step, so a path recurses
    # about once per two vertices, past Python's recursion limit
    p = tmp_path / "path2400.edges"
    p.write_text(write_edge_list(path_graph(2400)))
    code, out, err = run(capsys, ["check", "--edge-file", str(p)])
    assert code == 2 and out == ""
    assert err.startswith("tfgor check: ") and "recursion" in err


@pytest.mark.parametrize(
    "g6", ["W" + "?" * 46, "U_" + "?" * 38], ids=["edgeless-24", "k2-plus-20"]
)
def test_check_ranks_no_cone(capsys, monkeypatch, g6):
    # isolated vertices make Ind(g) a cone, Cohen-Macaulay iff its base is;
    # ranking the 23-simplex of the edgeless graph would walk 2^24 faces
    criteria = sys.modules["tfgor.criteria"]
    real = criteria.reduced_betti

    def no_cones(facets, field):
        assert not reduce(and_, facets), facets
        return real(facets, field)

    monkeypatch.setattr(criteria, "reduced_betti", no_cones)
    code, out, err = run(capsys, ["check", "--g6", g6, "--field", "q", "--field", "f2"])
    rec = json.loads(out)
    assert code == 0 and err == ""
    assert rec["gorenstein"] == rec["second_power_cm"] == {"q": True, "f2": True}


def test_graph_path_builds_no_complex(capsys):
    # a graph reaches the link walk as vertex masks of itself and the walk
    # hands masks to reduced_betti: the package has no complex type, and a
    # record and `tfgor check` agree, each on a fresh graph, its memo empty
    assert importlib.util.find_spec("tfgor.complexes") is None
    two_k2 = disjoint_union(complete_graph(2), complete_graph(2))
    k2_isolated = disjoint_union(complete_graph(2), Graph(3))
    fields = ("q", "f2", "f3")
    for g in (girth4_planar(4), cycle_graph(5), two_k2, k2_isolated):
        rec = build_record(0, Graph(g.n, g.edges()), fields)
        assert rec["consistent"] and rec["gorenstein"] == {f: True for f in fields}
        argv = ["check", "--g6", write_graph6(g)]
        code, out, err = run(capsys, argv + [a for f in fields for a in ("--field", f)])
        assert (code, err) == (0, "") and json.loads(out) == rec


@pytest.mark.parametrize(
    "command, target", [("check", "build_record"), ("survey", "SurveyRun")]
)
def test_out_of_memory_exit_2(capsys, monkeypatch, command, target):
    # exit 1 means "counterexample found"; running out of memory is not one
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(sys.modules["tfgor.cli"], target, exhausted)
    argv = ["check", "--g6", "Dhc"] if command == "check" else ["survey"]
    code, out, err = run(capsys, argv, stdin="Dhc\n", monkeypatch=monkeypatch)
    assert code == 2 and out == ""
    assert err == f"tfgor {command}: out of memory\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_survey_out_of_memory_names_line_exit_2(capsys, monkeypatch, jobs):
    # a worker's MemoryError names its line, as a recursion error does,
    # whether it is raised while classifying the graph or while parsing it;
    # the forked workers at --jobs 2 inherit the patched function
    survey_module = sys.modules["tfgor.survey"]
    real_record, real_parse = survey_module.build_record, survey_module.parse_graph6

    def record_exhausted_on_second(index, g, field_labels, graph6=None):
        if index == 1:
            raise MemoryError
        return real_record(index, g, field_labels, graph6)

    def parse_exhausted_on_second(line):
        if line == "Dhc":
            raise MemoryError
        return real_parse(line)

    for target, fake in (
        ("build_record", record_exhausted_on_second),
        ("parse_graph6", parse_exhausted_on_second),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(survey_module, target, fake)
            code, out, err = run(
                capsys, ["survey", "--jobs", jobs], stdin="A_\nDhc\n", monkeypatch=patch
            )
        assert code == 2 and out == "", target
        assert err.startswith("tfgor survey: line 2: ") and "out of memory" in err, target


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_survey_beyond_recursion_names_line_exit_2(capsys, monkeypatch, jobs):
    # alpha of 1,200 disjoint edges takes one edge per step, past Python's
    # recursion limit; the second line goes to a worker at --jobs 2
    matching = Graph(2400, [(2 * i, 2 * i + 1) for i in range(1200)])
    code, out, err = run(
        capsys, ["survey", "--jobs", jobs],
        stdin=f"A_\n{write_graph6(matching)}\n", monkeypatch=monkeypatch,
    )
    assert code == 2 and out == ""
    assert err.startswith("tfgor survey: line 2: ") and "recursion" in err


def test_survey_single_c5(capsys, monkeypatch):
    code, out, _ = run(capsys, ["survey"], stdin="Dhc\n", monkeypatch=monkeypatch)
    rep = json.loads(out)
    assert code == 0
    assert rep["summary"] == {
        "total": 1, "admitted": 1, "consistent": 1, "counterexamples": 0
    }
    assert rep["counterexamples"] == []
    assert rep["records"][0]["index"] == 0
    assert rep["fields"] == ["q"]
    assert rep["version"]


def test_survey_records_bare_graph6(capsys, monkeypatch):
    # the record drops the header; the digest still hashes the raw lines
    corpus = ">>graph6<<Dhc\nA_\n"
    code, out, _ = run(capsys, ["survey"], stdin=corpus, monkeypatch=monkeypatch)
    rep = json.loads(out)
    assert code == 0
    assert [rec["graph6"] for rec in rep["records"]] == ["Dhc", "A_"]
    assert rep["corpus_digest"] == hashlib.sha256(corpus.encode()).hexdigest()


def test_survey_k3_out_of_hypothesis(capsys, monkeypatch):
    code, out, _ = run(capsys, ["survey"], stdin="Bw\n", monkeypatch=monkeypatch)
    rep = json.loads(out)
    assert code == 0
    rec = rep["records"][0]
    assert rec["w2"] is True
    assert rec["gorenstein"]["q"] is False
    assert rec["consistent"] is True


def test_survey_filters_and_max_n(capsys, monkeypatch):
    corpus = "Dhc\nBw\nA_\n"  # C5, K3, K2
    code, out, _ = run(
        capsys,
        ["survey", "--filter", "triangle-free,connected", "--max-n", "4"],
        stdin=corpus,
        monkeypatch=monkeypatch,
    )
    rep = json.loads(out)
    assert code == 0
    assert rep["summary"]["total"] == 3
    assert rep["summary"]["admitted"] == 1
    assert rep["records"][0]["graph6"] == "A_"
    assert rep["records"][0]["index"] == 2
    assert rep["filters"] == ["triangle-free", "connected"]


def test_survey_malformed_line_skipped(capsys, monkeypatch):
    code, out, err = run(
        capsys, ["survey"], stdin="Dhc\n##bad##\n", monkeypatch=monkeypatch
    )
    rep = json.loads(out)
    assert code == 0
    assert rep["summary"]["total"] == 2 and rep["summary"]["admitted"] == 1
    assert "line 2" in err


def test_survey_strict_exit_2(capsys, monkeypatch):
    code, _, err = run(
        capsys, ["survey", "--strict"], stdin="##bad##\n", monkeypatch=monkeypatch
    )
    assert code == 2 and "line 1" in err


def test_survey_unknown_filter_exit_2(capsys, monkeypatch):
    code, _, err = run(
        capsys, ["survey", "--filter", "nope"], stdin="", monkeypatch=monkeypatch
    )
    assert code == 2


def test_survey_counterexample_exit_1(capsys, monkeypatch):
    # no real graph violates the equivalence, so fake a verdict to pin the
    # CI contract: counterexample present -> exit code 1
    survey_module = sys.modules["tfgor.survey"]
    monkeypatch.setattr(survey_module, "is_gorenstein_graph", lambda g, field: False)
    code, out, _ = run(capsys, ["survey"], stdin="Dhc\n", monkeypatch=monkeypatch)
    rep = json.loads(out)
    assert code == 1
    assert rep["counterexamples"] == [0]
    assert rep["summary"]["counterexamples"] == 1


def test_survey_csv(capsys, monkeypatch):
    code, out, _ = run(
        capsys, ["survey", "--format", "csv", "--field", "q", "--field", "f2"],
        stdin="Dhc\n", monkeypatch=monkeypatch,
    )
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    assert "gorenstein_q" in header and "gorenstein_f2" in header
    row = dict(zip(header, lines[1].split(",")))
    assert row["graph6"] == "Dhc" and row["gorenstein_q"] == "1"
    assert row["well_covered"] == "1" and row["girth"] == "5"


def test_survey_csv_infinite_girth(capsys, monkeypatch):
    code, out, _ = run(
        capsys, ["survey", "--format", "csv"], stdin="A_\n", monkeypatch=monkeypatch
    )
    row = out.strip().splitlines()[1].split(",")
    header = out.strip().splitlines()[0].split(",")
    assert dict(zip(header, row))["girth"] == "inf"


def test_survey_out_file(capsys, monkeypatch, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, ["survey", "--out", str(out_path)],
        stdin="Dhc\n", monkeypatch=monkeypatch,
    )
    assert code == 0 and out == ""
    rep = json.loads(out_path.read_text())
    assert rep["summary"]["admitted"] == 1


def test_survey_out_in_missing_directory_exit_2(capsys, monkeypatch, tmp_path, parsed):
    out_path = tmp_path / "missing" / "report.json"
    code, out, err = run(
        capsys, ["survey", "--out", str(out_path)],
        stdin="Dhc\n", monkeypatch=monkeypatch,
    )
    assert code == 2 and out == ""
    assert err.startswith("tfgor survey: ") and str(out_path) in err
    assert parsed == []  # failed before any line was classified
    assert not out_path.parent.exists()


def test_survey_determinism_and_jobs(capsys, monkeypatch, corpus_tf_lines):
    corpus = "\n".join(corpus_tf_lines[:80]) + "\n"
    outputs = []
    for jobs in ("1", "3", "1"):
        _, out, _ = run(
            capsys, ["survey", "--jobs", jobs], stdin=corpus, monkeypatch=monkeypatch
        )
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.fixture
def serial_pool(monkeypatch):
    """Replace the survey's process pool by an in-process one; returns the
    pool sizes and chunk sizes it was asked for."""
    log = {"sizes": [], "chunks": []}

    class SerialPool:
        def __init__(self, processes):
            log["sizes"].append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, tasks, chunksize):
            # lazy, as Pool.imap is: a task is classified when its result is drawn
            log["chunks"].append(chunksize)
            return map(fn, tasks)

    monkeypatch.setattr(sys.modules["tfgor.survey"].multiprocessing, "Pool", SerialPool)
    return log


def test_survey_pool_never_exceeds_tasks(capsys, monkeypatch, serial_pool):
    corpus = "Dhc\nA_\nCr\n"
    outputs = []
    for jobs in ("1", "5000", "2"):
        code, out, _ = run(
            capsys, ["survey", "--jobs", jobs], stdin=corpus, monkeypatch=monkeypatch
        )
        assert code == 0
        outputs.append(out)
    assert serial_pool["sizes"] == [3, 2] and serial_pool["chunks"] == [512, 512]
    assert outputs[0] == outputs[1] == outputs[2]


def test_survey_pool_chunk_is_capped(capsys, monkeypatch, serial_pool):
    # a chunk is 512 lines at any corpus size, so what a chunk holds does
    # not grow with the corpus
    code, _, _ = run(
        capsys, ["survey", "--jobs", "2", "--max-n", "1"], stdin="A_\n" * 20000,
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert serial_pool["sizes"] == [2] and serial_pool["chunks"] == [512]


# C5, a blank line, a bad line, K3, K2, another bad line, the claw
MIXED_CORPUS = "Dhc\n\n##bad##\nBw\nA_\n#bad\nCs\n"
MIXED_NONBLANK = ["Dhc", "##bad##", "Bw", "A_", "#bad", "Cs"]


@pytest.fixture
def parsed(monkeypatch):
    """Every string the survey hands to parse_graph6, in call order."""
    survey_module = sys.modules["tfgor.survey"]
    real = survey_module.parse_graph6
    calls = []

    def counting(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(survey_module, "parse_graph6", counting)
    return calls


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_survey_parses_each_line_once(capsys, monkeypatch, serial_pool, parsed, jobs):
    code, out, err = run(
        capsys, ["survey", "--filter", "triangle-free", "--jobs", jobs],
        stdin=MIXED_CORPUS, monkeypatch=monkeypatch,
    )
    assert code == 0
    assert parsed == MIXED_NONBLANK
    assert serial_pool["sizes"] == ([] if jobs == "1" else [2])
    rep = json.loads(out)
    assert rep["summary"]["total"] == 6 and rep["summary"]["admitted"] == 3
    assert [r["index"] for r in rep["records"]] == [0, 3, 5]
    skips = err.splitlines()
    assert len(skips) == 2
    assert skips[0].startswith("tfgor survey: skipped line 3:")
    assert skips[1].startswith("tfgor survey: skipped line 6:")


def test_survey_skipped_lines_keep_line_order_across_workers():
    lines = MIXED_CORPUS.splitlines() * 3
    report, skipped = survey(lines, jobs=2)
    assert [lineno for lineno, _ in skipped] == [3, 6, 10, 13, 17, 20]
    assert [r["index"] for r in report["records"]] == [0, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17]
    assert report == survey(lines, jobs=1)[0]


@pytest.mark.parametrize("jobs, parses", [("1", 2), ("2", 2)])
def test_survey_strict_names_first_malformed_line(
    capsys, monkeypatch, serial_pool, parsed, jobs, parses
):
    code, out, err = run(
        capsys, ["survey", "--strict", "--jobs", jobs],
        stdin=MIXED_CORPUS, monkeypatch=monkeypatch,
    )
    assert code == 2 and out == ""
    assert "line 3:" in err and "line 6" not in err
    # one job and a pool alike stop at the bad line: results are drawn in
    # corpus order and the first malformed one ends the survey
    assert len(parsed) == parses


def test_survey_strict_terminates_the_pool(capsys, monkeypatch, corpus_tf_lines):
    corpus = "Dhc\n##bad##\n" + "\n".join(corpus_tf_lines[:200]) + "\n"
    code, out, err = run(
        capsys, ["survey", "--strict", "--jobs", "2"], stdin=corpus, monkeypatch=monkeypatch
    )
    assert code == 2 and out == "" and "line 2:" in err
    assert multiprocessing.active_children() == []


# the CLI streams what the report writers write for the collected report:
# skipped lines, a corpus the filter empties, and a faked counterexample
STREAM_CASES = {
    "mixed": (MIXED_CORPUS, ("triangle-free",), False),
    "filtered-empty": ("Bw\n\nBw\n", ("triangle-free",), False),
    "counterexample": ("Dhc\nA_\nCs\n", (), True),
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("case", list(STREAM_CASES))
def test_survey_streams_the_bytes_of_the_report_writers(capsys, monkeypatch, case, jobs, fmt):
    corpus, filters, fake = STREAM_CASES[case]
    if fake:  # the forked workers at --jobs 2 inherit the patch
        monkeypatch.setattr(sys.modules["tfgor.survey"], "is_gorenstein_graph", lambda g, f: False)
    argv = ["survey", "--jobs", jobs, "--format", fmt, "--field", "q", "--field", "f2"]
    argv += ["--filter", ",".join(filters)] if filters else []
    code, out, _ = run(capsys, argv, stdin=corpus, monkeypatch=monkeypatch)
    report, _ = survey(corpus.splitlines(), filters=filters, fields=("q", "f2"))
    write = report_to_json if fmt == "json" else report_to_csv
    assert out == write(report)
    assert code == (1 if fake else 0)
    assert report["counterexamples"] == ([0, 1] if fake else [])
    assert report["records"] or case == "filtered-empty"


def test_survey_beyond_recursion_writes_no_csv(capsys, monkeypatch):
    matching = Graph(2400, [(2 * i, 2 * i + 1) for i in range(1200)])
    code, out, err = run(
        capsys, ["survey", "--format", "csv"],
        stdin=f"A_\n{write_graph6(matching)}\n", monkeypatch=monkeypatch,
    )
    assert code == 2 and out == ""
    assert err.startswith("tfgor survey: line 2: ") and "recursion" in err


def test_survey_memory_does_not_grow_with_the_corpus(tmp_path, corpus_tf_lines):
    # the parent holds no record: surveying all 1,736 lines of the fixture
    # peaks within 400 KB of surveying its first 400 (a held record costs
    # about 1 KB)
    def peak(lines):
        corpus = tmp_path / f"corpus{len(lines)}.g6"
        corpus.write_text("".join(ln + "\n" for ln in lines))
        tracemalloc.start()
        try:
            assert main(["survey", "--corpus", str(corpus), "--out", str(tmp_path / "r.json")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(corpus_tf_lines[:5])  # lazy imports and caches settle first
    small, large = peak(corpus_tf_lines[:400]), peak(corpus_tf_lines)
    assert len(corpus_tf_lines) == 1736
    assert large - small < 400_000, (small, large)


def test_survey_reads_the_corpus_a_line_at_a_time(tmp_path, corpus_tf_lines):
    # the corpus file is read once a line at a time, never held: the
    # fixture concatenated four times peaks within 100 KB of the fixture
    # alone, reading included (holding its 6,944 lines costs about 600 KB)
    text = "".join(ln + "\n" for ln in corpus_tf_lines)

    def peak(copies):
        corpus = tmp_path / f"corpus-x{copies}.g6"
        corpus.write_text(text * copies)
        tracemalloc.start()
        try:
            assert main(["survey", "--corpus", str(corpus), "--out", str(tmp_path / "r.json")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # lazy imports and caches settle first
    one, four = peak(1), peak(4)
    assert four - one < 100_000, (one, four)


def _through_a_pipe(data: bytes, read):
    # read(fd) with data written to the other end of a pipe by a thread,
    # which may block once the pipe's buffer is full
    r, w = os.pipe()

    def write():
        with open(w, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=write)
    writer.start()
    try:
        return read(r)
    finally:
        os.close(r)
        writer.join(timeout=10)
        assert not writer.is_alive()


def test_survey_spools_a_corpus_that_cannot_seek(capsys, monkeypatch, tmp_path):
    # a pipe, named by a path or as stdin, is read once as it arrives and
    # gives the report of the regular file with the same bytes
    data = (FIXTURES / "connected_trifree_2to9.g6").read_bytes()
    path = tmp_path / "corpus.g6"
    path.write_bytes(data)
    argv = ["survey", "--corpus"]
    want = run(capsys, argv + [str(path)])
    assert want[0] == 0 and len(data) > 1 << 12
    assert _through_a_pipe(data, lambda r: run(capsys, argv + [f"/dev/fd/{r}"])) == want

    def from_stdin(r):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(open(r, "rb", closefd=False)))
        return run(capsys, argv + ["-"])

    assert _through_a_pipe(data, from_stdin) == want


@pytest.mark.parametrize("jobs", [1, 2])
def test_survey_run_reads_an_iterator_once(jobs):
    # the lines are read once, so an iterator, which gives them once, is
    # surveyed whole; at two jobs the lines are drawn in the pool's feeder
    run = SurveyRun(iter(["Dhc", "A_", "Cr"]), jobs=jobs)
    assert len(list(run.records())) == 3 and run.total == 3


def test_survey_run_classifies_before_it_reads_on():
    # one job yields a line's record before it draws the lines after it
    drawn = []

    def lines():
        for line in ["Dhc", "A_", "Cr"]:
            drawn.append(line)
            yield line

    records = SurveyRun(lines()).records()
    assert next(records)["graph6"] == "Dhc" and len(drawn) < 3
    assert len(list(records)) == 2 and drawn == ["Dhc", "A_", "Cr"]


def test_survey_that_fails_keeps_the_report_at_out(capsys, tmp_path):
    # --out is truncated only once the report is written, so a survey that
    # ends with exit code 2 leaves an earlier report byte for byte, and a
    # shorter report replaces a longer one whole
    good, bad, out = tmp_path / "ok.g6", tmp_path / "bad.g6", tmp_path / "report.json"
    good.write_text("Dhc\nA_\n")
    bad.write_text("Dhc\n#bad\n")
    assert run(capsys, ["survey", "--corpus", str(good), "--out", str(out)]) == (0, "", "")
    before = out.read_bytes()
    code, _, err = run(capsys, ["survey", "--strict", "--corpus", str(bad), "--out", str(out)])
    assert code == 2 and err.startswith("tfgor survey: line 2: ")
    assert out.read_bytes() == before
    good.write_text("A_\n")
    _, want, _ = run(capsys, ["survey", "--corpus", str(good)])
    assert run(capsys, ["survey", "--corpus", str(good), "--out", str(out)]) == (0, "", "")
    assert out.read_text() == want and len(want) < len(before)


def test_survey_out_may_name_its_corpus(capsys, tmp_path):
    path = tmp_path / "corpus.g6"
    path.write_text("Dhc\nA_\n")
    _, want, _ = run(capsys, ["survey", "--corpus", str(path)])
    assert run(capsys, ["survey", "--corpus", str(path), "--out", str(path)]) == (0, "", "")
    assert path.read_text() == want


def test_survey_out_to_a_device_or_fifo(capsys, tmp_path):
    # /dev/null and a FIFO are written to, not truncated
    path = tmp_path / "corpus.g6"
    path.write_text("Dhc\nA_\n")
    argv = ["survey", "--corpus", str(path), "--out"]
    _, want, _ = run(capsys, ["survey", "--corpus", str(path)])
    assert run(capsys, argv + [os.devnull]) == (0, "", "")
    fifo = tmp_path / "report.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    assert run(capsys, argv + [str(fifo)]) == (0, "", "")
    reader.join(timeout=10)
    assert got == [want]


def test_corpus_lines_are_the_splitlines_of_the_text():
    # read a newline byte at a time, the lines are those of the whole text
    # under every line break splitlines() knows in ASCII
    rng = random.Random(31)
    for _ in range(3000):
        text = "".join(rng.choice("ab \r\n\v\f\x1c\x1d\x1e") for _ in range(rng.randint(0, 12)))
        assert list(_lines(io.BytesIO(text.encode()))) == text.splitlines(), repr(text)


def test_survey_non_ascii_corpus_exit_2(capsys, monkeypatch, tmp_path):
    # the same bytes give the same verdict from --corpus and from stdin
    data = b"Dhc\nD\xc3\xa9c\n"
    path = tmp_path / "bad.g6"
    path.write_bytes(data)
    from_file = run(capsys, ["survey", "--corpus", str(path)])
    from_stdin = run(capsys, ["survey"], stdin=data, monkeypatch=monkeypatch)
    assert from_file == from_stdin == (2, "", "tfgor survey: line 2: byte 0xc3 is not ASCII\n")
    # past the first batches and 512-line chunks the read reaches a bad
    # byte while lines before it are classified: at two jobs in the pool's
    # feeder, whose error comes back through Pool.imap in corpus order
    data = b"Dhc\n" * 3000 + b"\xff\n" + b"A_\n" * 10
    path.write_bytes(data)
    want = (2, "", "tfgor survey: line 3001: byte 0xff is not ASCII\n")
    for jobs in ("1", "2"):
        argv = ["survey", "--jobs", jobs, "--corpus"]
        assert run(capsys, argv + [str(path)]) == want, jobs
        assert _through_a_pipe(data, lambda r: run(capsys, argv + [f"/dev/fd/{r}"])) == want, jobs


@pytest.mark.parametrize(
    "head",
    ["Dhc\rDhc\n", "Dhc\vDhc\n", "Dhc\fDhc\n", "Dhc\x1cDhc\n", "Dhc\x1dDhc\n", "Dhc\x1eDhc\n",
     "Dhc\fDhc\r\n" * 500],
    ids=["cr", "vt", "ff", "fs", "gs", "rs", "crlf-past-a-batch"],
)
def test_non_ascii_byte_is_on_the_line_splitlines_gives_it(capsys, monkeypatch, tmp_path, head):
    # every reader, from a file and from stdin, numbers the line of a byte
    # outside ASCII as the survey numbers the line it skips: as
    # str.splitlines() splits the text, CR LF one break.  500 lines of 10
    # bytes span two batches of _lines, the first ending in a CR LF
    lineno = len(head.splitlines()) + 1
    path = tmp_path / "skip.g6"
    path.write_bytes(head.encode() + b"##bad\n")
    _, _, err = run(capsys, ["survey", "--corpus", str(path)])
    assert err.startswith(f"tfgor survey: skipped line {lineno}: "), err
    data = head.encode() + b"\xff\n"
    path = tmp_path / "bad"
    path.write_bytes(data)
    for argv in (["survey", "--corpus"], ["check", "--edge-file"], ["homology", "--facets"]):
        want = (2, "", f"tfgor {argv[0]}: line {lineno}: byte 0xff is not ASCII\n")
        assert run(capsys, argv + [str(path)]) == want, argv
        assert run(capsys, argv + ["-"], stdin=data, monkeypatch=monkeypatch) == want, argv


def test_survey_summary_self_consistent(capsys, monkeypatch, corpus_tf_lines):
    corpus = "\n".join(corpus_tf_lines[:60]) + "\n"
    _, out, _ = run(capsys, ["survey"], stdin=corpus, monkeypatch=monkeypatch)
    rep = json.loads(out)
    records = rep["records"]
    assert rep["summary"]["admitted"] == len(records)
    assert rep["summary"]["consistent"] == sum(r["consistent"] for r in records)
    assert rep["counterexamples"] == [
        r["index"] for r in records if not r["consistent"]
    ]
    assert rep["summary"]["counterexamples"] == len(rep["counterexamples"])


def test_family_edges_girth4_planar(capsys):
    code, out, _ = run(capsys, ["family", "girth4-planar", "3", "--format", "edges"])
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "8 10"
    assert len(lines) == 11


def test_family_graph6_roundtrip(capsys):
    code, out, _ = run(capsys, ["family", "girth4-planar", "4"])
    assert code == 0
    assert parse_graph6(out.strip()) == girth4_planar(4)


def test_family_emit_counts_n5(capsys):
    # 3n-1 vertices and 1 + 4(n-1) + (n-2) edges
    code, out, _ = run(capsys, ["family", "girth4-planar", "5", "--format", "edges"])
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "14 20"


def test_family_below_minimum_exit_2(capsys):
    code, _, err = run(capsys, ["family", "girth4-planar", "2"])
    assert code == 2 and "n >= 3" in err


@pytest.mark.parametrize(
    "name, n, vertices",
    [("path", "10001", 10001), ("cycle", "10001", 10001), ("girth4-planar", "3334", 10001)],
)
def test_family_over_the_vertex_limit_exit_2(capsys, name, n, vertices):
    # a member of more vertices than an edge list may declare is refused
    # before it is built, with no ulimit needed
    tracemalloc.start()
    try:
        code, out, err = run(capsys, ["family", name, n, "--format", "edges"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert err == f"tfgor family: {name} {n} has {vertices} vertices, over the limit of 10000 for an edge list\n"
    assert peak < 1 << 20


@pytest.mark.parametrize("name, n, vertices", [("path", "10000", 10000), ("girth4-planar", "3333", 9998)])
def test_family_at_the_vertex_limit_reads_back(capsys, name, n, vertices):
    # the largest members written are edge lists that --edge-file reads
    code, out, _ = run(capsys, ["family", name, n, "--format", "edges"])
    assert code == 0
    assert parse_edge_list(out) == generate(name, int(n)) and int(out.split()[0]) == vertices


def test_homology_facet_file(capsys, tmp_path):
    p = tmp_path / "hollow.facets"
    p.write_text("0 1\n1 2\n0 2\n")
    code, out, _ = run(capsys, ["homology", "--facets", str(p), "--field", "q"])
    assert code == 0
    assert "H~_0 = 0" in out and "H~_1 = 1" in out and "chi~ = -1" in out


def test_homology_rp2_f2(capsys):
    code, out, _ = run(
        capsys,
        ["homology", "--facets", str(FIXTURES / "rp2_minimal.facets"),
         "--field", "f2"],
    )
    assert code == 0
    assert "H~_1 = 1" in out and "H~_2 = 1" in out


# the complement of the face poset's comparability graph of the RP^2 fixture,
# faces by size and then lexicographically: Ind(G) is sd(RP^2)
RP2_SD_G6 = "^~~xy|n\\zvr~j~l~v^}^~t~~Z~~N~~V~~r~~FM~xYz~it}~Yt~n[x~vr^Z^|Nxz~k~fv~F~d~}V~T~w"


def test_rp2_subdivision_graph_is_its_oracle(rp2):
    g = face_poset_complement(rp2)
    assert (g.n, g.edge_count()) == (31, 375)
    assert write_graph6(g) == RP2_SD_G6


@pytest.mark.parametrize(
    "field, betti", [("q", "0000"), ("f2", "0011"), ("f3", "0000")]
)
def test_homology_of_the_rp2_subdivision_graph(capsys, field, betti):
    # H~_-1 through H~_2 of sd(RP^2), which has homology over f2 only, and
    # chi~ = 0 in every field
    code, out, _ = run(capsys, ["homology", "--g6", RP2_SD_G6, "--field", field])
    want = [f"field: {field}"] + [f"H~_{i - 1} = {b}" for i, b in enumerate(betti)] + ["chi~ = 0"]
    assert (code, out.splitlines()) == (0, want)


def test_homology_chi_is_alternating_betti_sum(capsys, tmp_path):
    rng = random.Random(606)
    paths = [FIXTURES / "rp2_minimal.facets"]
    for k in range(12):
        nv = rng.randint(1, 9)
        facets = [
            rng.sample(range(nv), rng.randint(1, min(nv, 5)))
            for _ in range(rng.randint(1, 7))
        ]
        p = tmp_path / f"random{k}.facets"
        p.write_text("".join(" ".join(map(str, f)) + "\n" for f in facets))
        paths.append(p)
    for p in paths:
        chi = reduced_euler_characteristic(read_facets(p.read_text()))
        for field in ("q", "f2"):
            code, out, _ = run(capsys, ["homology", "--facets", str(p), "--field", field])
            assert code == 0
            assert out.splitlines()[-1] == f"chi~ = {chi}"


def test_homology_graph_uses_independence_complex(capsys):
    code, out, _ = run(capsys, ["homology", "--g6", "Dhc", "--field", "q"])
    assert code == 0 and "H~_1 = 1" in out


def test_homology_graph_joins_its_components(capsys):
    # Ind of a disjoint union is the join of the parts' complexes, whose
    # Betti numbers Kunneth gives; an isolated vertex makes a cone
    rng = random.Random(909)
    two_k2 = disjoint_union(complete_graph(2), complete_graph(2))
    graphs = [Graph(0), Graph(1), Graph(3), two_k2, disjoint_union(cycle_graph(4), cycle_graph(5))]
    for _ in range(30):
        parts = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
        g = Graph(0)
        for n in parts:
            edges = [e for e in combinations(range(n), 2) if rng.random() < 0.6]
            g = disjoint_union(g, Graph(n, edges))
        graphs.append(g)
    for g in graphs:
        for field, char in (("q", 0), ("f2", 2), ("f3", 3)):
            betti = oracle_betti(independence_complex(g), char)
            want = [f"field: {field}"] + [f"H~_{i} = {betti[i]}" for i in sorted(betti)]
            want.append(f"chi~ = {reduced_euler_characteristic(independence_complex(g))}")
            code, out, _ = run(capsys, ["homology", "--g6", write_graph6(g), "--field", field])
            assert code == 0 and out.splitlines() == want, (g, field)


def test_homology_disjoint_edges_is_a_sphere(capsys):
    # 12 disjoint edges: Ind is the boundary of the 12-cross-polytope, an
    # 11-sphere of 3^12 faces, never enumerated
    g = Graph(24, [(2 * i, 2 * i + 1) for i in range(12)])
    code, out, _ = run(capsys, ["homology", "--g6", write_graph6(g), "--field", "f2"])
    assert code == 0
    assert out.splitlines() == (
        ["field: f2"] + [f"H~_{i} = {int(i == 11)}" for i in range(-1, 12)] + ["chi~ = -1"]
    )
    rec = build_record(0, g, ("q", "f2"))
    assert rec["gorenstein"] == rec["second_power_cm"] == {"q": True, "f2": True}


def test_homology_parse_failure_exit_2(capsys, tmp_path):
    p = tmp_path / "bad.facets"
    cases = [
        ("0 0\n", "line 1: duplicate"),
        ("# c\n0 1\n1_0 2\n", "line 3: malformed"),
        ("+1 2\n", "line 1: malformed"),
        ("0 1\n\n2 -3\n", "line 3: negative"),
    ]
    for text, message in cases:
        p.write_text(text)
        code, out, err = run(capsys, ["homology", "--facets", str(p)])
        assert (code, out) == (2, "") and err.startswith(f"tfgor homology: {message}"), text


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["check"])
    assert exc.value.code == 2
