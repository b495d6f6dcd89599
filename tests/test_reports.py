"""Golden reports: the survey's JSON and CSV output, byte for byte.

The digests were recorded from the reports of tfgor 0.1.0 and must
not change unless the report format does (then bump the version).  A
faster invariant or a short-cut in a criterion must leave them alone.
The JSON writer is also checked against json.dumps(report, indent=2).
"""

import hashlib
import json
import sys

import pytest

from conftest import load_corpus
from tfgor import (
    build_record,
    parse_graph6,
    record_to_json,
    report_to_csv,
    report_to_json,
    survey,
)
from tfgor.survey import FIELD_CHOICES

survey_module = sys.modules["tfgor.survey"]

GOLDEN = {
    ("connected_trifree_2to9.g6", ()): (
        "4ebe1c3d106cc8af9d510aa6a072f73d5dc0a18e2ce144947203521c92fc38d0",
        "2b1bd2a1f6a42ca4a6c0cdb9c405aa748a1cb602542c0439ae17090497f34762",
    ),
    ("connected_girth5_1to10.g6", ()): (
        "61f55d0894ea1203f54972d024ce5f56cf913ef9bb9e495de4ddb380f4644edc",
        "1fcd7f7cfca89fe3ca53d9b7879923f46389225abaf8df78bcf6427289001b68",
    ),
    ("connected_girth5_1to10.g6", ("girth-ge-5",)): (
        "b62a356335b28dec4e2f32e13bc5d973030a22107f91062ce63fc080d4d703ce",
        "1fcd7f7cfca89fe3ca53d9b7879923f46389225abaf8df78bcf6427289001b68",
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@pytest.mark.parametrize("corpus, filters", list(GOLDEN), ids=["trifree", "girth5", "girth5-filtered"])
def test_report_bytes_are_golden(corpus, filters):
    report, skipped = survey(load_corpus(corpus), filters=filters, fields=("q", "f2"))
    assert skipped == []
    assert report["summary"]["counterexamples"] == 0
    assert (_sha256(report_to_json(report)), _sha256(report_to_csv(report))) == GOLDEN[corpus, filters]


# a tree (girth null), C5 (chi~ = -1), a graph6 string with a backslash,
# and K3, which the triangle-free filter rejects
WRITER_CORPUS = ["A_", "Dhc", "EC\\o", "Bw"]


def _writer_reports():
    one, _ = survey(WRITER_CORPUS, fields=("q",))
    four, _ = survey(WRITER_CORPUS, fields=FIELD_CHOICES)
    empty, _ = survey(["Bw"], filters=("triangle-free",), fields=("q", "f2"))
    flagged, _ = survey(WRITER_CORPUS, fields=("f2", "q"))
    flagged["counterexamples"] = [1, 3]
    return {"one-field": one, "four-fields": four, "no-records": empty, "counterexamples": flagged}


def test_writer_corpus_covers_every_leaf_kind():
    records = _writer_reports()["one-field"]["records"]
    assert any(rec["girth"] is None for rec in records)
    assert any(rec["euler_char"] < 0 for rec in records)
    assert any("\\" in rec["graph6"] for rec in records)
    assert {type(rec["consistent"]) for rec in records} == {bool}


@pytest.mark.parametrize("name", ["one-field", "four-fields", "no-records", "counterexamples"])
def test_report_to_json_matches_json_dumps(name):
    report = _writer_reports()[name]
    text = report_to_json(report)
    assert text == json.dumps(report, indent=2) + "\n"


def test_record_to_json_matches_json_dumps(corpus_tf_lines):
    for i, line in enumerate(corpus_tf_lines[::40]):
        rec = build_record(i, parse_graph6(line), ("f3", "q"), graph6=line)
        assert record_to_json(rec) == json.dumps(rec, indent=2)


# a record's boolean leaves: the scalar columns and the per-field maps
BOOL_KEYS = ("connected", "no_isolated", "well_covered", "w2", "alpha_critical", "consistent")


def _bool_leaves(rec):
    for key in BOOL_KEYS:
        yield key, rec[key]
    for key in survey_module._PER_FIELD_KEYS:
        for lb, value in rec[key].items():
            yield f"{key}_{lb}", value


# between them: K2 (a tree, girth null), C5 (in W2, Gorenstein), C4
# (well-covered, not in W2), P3 (not well-covered), K3, 2K2 (disconnected),
# K2 beside two isolated vertices, a girth-4 graph whose graph6 holds a
# backslash, and a triangle with two pendant vertices
TYPED_GRAPHS = ["A_", "Dhc", "Cr", "Bg", "Bw", "CK", "C@", "EC\\o", "D{O"]


def _csv_row(rec, fields):
    # the record's CSV row read leaf by leaf: a bool as 0 or 1, girth None
    # as inf, anything else as str gives it
    cells = []
    for value in rec.values():
        for leaf in [value[lb] for lb in fields] if isinstance(value, dict) else [value]:
            if type(leaf) is bool:
                cells.append("1" if leaf else "0")
            else:
                cells.append("inf" if leaf is None else str(leaf))
    return ",".join(cells)


@pytest.mark.parametrize("fields", [("q",), ("f3", "q"), FIELD_CHOICES], ids=["q", "f3-q", "all"])
def test_typed_renderer_matches_json_dumps_on_every_leaf_value(monkeypatch, fields):
    # the renderer fills each slot by its column's type, so the records pin
    # those types, and between them they put True and False in every
    # boolean column; a counterexample, faked by a field that finds C5 not
    # Gorenstein, gives consistent False.  Each CSV row matches a reading
    # of its record leaf by leaf
    records = [build_record(i, parse_graph6(g6), fields, g6) for i, g6 in enumerate(TYPED_GRAPHS)]
    monkeypatch.setattr(survey_module, "is_gorenstein_graph", lambda g, f: False)
    records.append(build_record(len(records), parse_graph6("Dhc"), fields, "Dhc"))
    seen = {}
    for rec in records:
        assert record_to_json(rec) == json.dumps(rec, indent=2)
        for key, value in _bool_leaves(rec):
            assert type(value) is bool, (key, rec)
            seen.setdefault(key, set()).add(value)
        assert rec["girth"] is None or type(rec["girth"]) is int, rec
        for key in ("index", "n", "edge_count", "alpha", "euler_char"):
            assert type(rec[key]) is int, (key, rec)
        assert type(rec["graph6"]) is str
    assert len(seen) == len(BOOL_KEYS) + 2 * len(fields)
    assert all(values == {False, True} for values in seen.values()), seen
    assert {rec["girth"] for rec in records} >= {None, 3, 4, 5}
    rows = report_to_csv({"fields": list(fields), "records": records}).splitlines()
    assert rows[1:] == [_csv_row(rec, fields) for rec in records]


def test_record_keys_follow_the_layout():
    rec = build_record(0, parse_graph6("EC\\o"), ("f2", "q", "f5"))
    assert tuple(rec) == survey_module._RECORD_KEYS
    for key in survey_module._PER_FIELD_KEYS:
        assert list(rec[key]) == ["f2", "q", "f5"]

