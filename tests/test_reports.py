"""Golden reports: the survey's JSON and CSV output, byte for byte.

The digests were recorded from the reports of tfgor 0.1.0 and must
not change unless the report format does (then bump the version).  A
faster invariant or a short-cut in a criterion must leave them alone.
"""

import hashlib

import pytest

from conftest import load_corpus
from tfgor import report_to_csv, report_to_json, survey

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
