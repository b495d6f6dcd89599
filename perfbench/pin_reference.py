#!/usr/bin/env python3
"""Write reference.json: the pinned per-graph verdict fingerprints.

For both corpus sizes and both survey field sets it classifies the corpus
in file order with the library's survey and stores one 8-hex-digit
fingerprint per graph (workloads.record_hash), concatenated in corpus
order.  It refuses to pin a survey with a counterexample or a record on
which W2, Gorenstein and the second-power criterion disagree.  Only rerun
it when a change to the record format is intended:

    python3 perfbench/pin_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import corpus  # noqa: E402
import workloads  # noqa: E402
from tfgor.survey import survey  # noqa: E402


def main() -> int:
    surveys = [w for w in workloads.WORKLOADS.values() if isinstance(w, workloads.Survey)]
    pinned = {}
    for size in ("full", "toy"):
        lines, _ = corpus.load(size)
        pinned[size] = {}
        for w in surveys:
            report, skipped = survey(lines, filters=("triangle-free", "connected"),
                                     fields=w.fields, jobs=2)
            recs = report["records"]
            bad = [
                r["graph6"] for r in recs
                if not r["consistent"] or any(
                    not r["w2"] == r["gorenstein"][f] == r["second_power_cm"][f]
                    for f in w.fields
                )
            ]
            if skipped or bad or len(recs) != len(lines):
                print(f"refusing to pin {size}/{w.fields}: {skipped[:3]} {bad[:3]}")
                return 1
            pinned[size][",".join(w.fields)] = "".join(workloads.record_hash(r) for r in recs)
            print(f"{size} {','.join(w.fields)}: {len(recs)} graphs")
    with open(workloads.REFERENCE_PATH, "w", encoding="ascii") as fh:
        json.dump(pinned, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
