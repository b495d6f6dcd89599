"""Self-test of the benchmark harness, at toy size (well under a minute):

    python3 -m pytest -q perfbench

Set PERFBENCH_SLOW=1 to also regenerate the n = 10 corpus (about 30 s).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

LAYERS = ("graphs", "complexes", "criteria", "homology", "kernels", "survey", "cli")


def _benchmark_json() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="ascii") as fh:
        return json.load(fh)


def _span_self_by_layer(spans, pid=None) -> dict:
    """Per-layer self time recomputed from raw spans (all pids, or one)."""
    child = {}
    for p, sid, parent, _name, start, end in spans:
        child[(p, parent)] = child.get((p, parent), 0.0) + (end - start)
    out = {}
    for p, sid, _parent, name, start, end in spans:
        if pid is None or p == pid:
            layer = name.split(".")[0]
            out[layer] = out.get(layer, 0.0) + (end - start) - child.get((p, sid), 0.0)
    return out


@pytest.fixture(scope="module")
def toy_results():
    return {w: run.measure(w, seed=5, seconds=0, trace=True, size="toy") for w in workloads.WORKLOADS}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_toy_run_is_correct_and_reports_every_metric(toy_results, workload):
    res = toy_results[workload]
    assert res["correct"], res["problems"]
    assert res["failed"] == 0 and res["attempted"] > 0
    wanted = {m["name"] for m in _benchmark_json()["per_layer"]}
    assert set(res["metrics"]) == wanted
    meta = res["meta"]
    for key in ("seed", "backend", "python", "nproc"):
        assert key in meta
    assert ("corpus_sha256" in meta) != ("planar_n" in meta)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_spans_nest_and_self_times_add_up(toy_results, workload):
    res = toy_results[workload]
    traced = [p for p in res["passes"] if p["traced"]]
    assert traced
    for p in traced:
        tr = p["trace"]
        assert tr["violations"] == 0
        spans = [tuple(s) for s in tr["spans"]]
        by_id = {(s[0], s[1]): s for s in spans}
        for pid, sid, parent, name, start, end in spans:
            assert start <= end
            if parent:
                _, _, _, _, pstart, pend = by_id[(pid, parent)]
                assert pstart <= start and end <= pend, (name, parent)
        parent_pid = next(s[0] for s in spans if s[3] == "cli.main")
        assert sum(s[3] == "cli.main" for s in spans) == 1
        # aggregated layer self times match the raw spans, over all processes
        recomputed = _span_self_by_layer(spans)
        for layer in LAYERS:
            got = p["layers"][f"{layer}.self_s"][0]
            assert got == pytest.approx(recomputed.get(layer, 0.0), abs=1e-6)
        # in the parent, self times plus the unaccounted remainder make up wall_s
        parent_self = sum(_span_self_by_layer(spans, parent_pid).values())
        unaccounted = p["layers"]["unaccounted_s"][0]
        assert parent_self + unaccounted == pytest.approx(p["wall_s"], abs=1e-6)
        assert 0 <= unaccounted < 0.01 + 0.05 * p["wall_s"]
        if workload == "survey-3field-j2":
            assert tr["workers"] >= 1
            assert any(s[0] != parent_pid for s in spans), "no worker spans reached the trace"
            assert p["layers"]["survey.pool_wait_s"][0] > 0


def test_toy_split_matches_workload_intent(toy_results):
    def share(res, layers):
        m = res["metrics"]
        total = sum(m[f"{layer}.self_s"]["value"] for layer in LAYERS)
        return sum(m[f"{layer}.self_s"]["value"] for layer in layers) / total

    assert share(toy_results["survey-q"], ("graphs", "complexes")) > 0.5
    assert share(toy_results["check-planar"], ("homology", "kernels")) > 0.5
    m = toy_results["survey-3field-j2"]["metrics"]
    assert m["graphs.is_in_w2.calls"]["value"] == 3 * corpus.TOY_COUNT


def _toy_survey_report(tmp_path, workload):
    from tfgor import cli

    inputs = workload.setup(seed=2, size="toy", workdir=str(tmp_path))
    assert cli.main(inputs.argv) == 0
    with open(inputs.out_path, encoding="ascii") as fh:
        return inputs, json.load(fh)


def test_gate_counts_each_wrong_verdict(tmp_path):
    w = workloads.WORKLOADS["survey-q"]
    inputs, report = _toy_survey_report(tmp_path, w)
    assert w.gate(inputs, "toy", 0, json.dumps(report)) == (0, [])

    report["records"][3]["alpha"] += 1
    report["records"][7]["gorenstein"]["q"] = not report["records"][7]["gorenstein"]["q"]
    del report["records"][11]
    failed, problems = w.gate(inputs, "toy", 0, json.dumps(report))
    assert failed == 3 and problems

    assert w.gate(inputs, "toy", 1, json.dumps(report))[0] == corpus.TOY_COUNT
    assert w.gate(inputs, "toy", 0, None)[0] == corpus.TOY_COUNT


def test_gate_rejects_a_false_planar_verdict(tmp_path):
    from tfgor import cli

    w = workloads.WORKLOADS["check-planar"]
    inputs = w.setup(seed=4, size="toy", workdir=str(tmp_path))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(inputs.argv) == 0
    record = json.loads(out.getvalue())
    assert w.gate(inputs, "toy", 0, json.dumps(record)) == (0, [])
    record["second_power_cm"]["f2"] = False
    assert w.gate(inputs, "toy", 0, json.dumps(record))[0] == 1


def test_corpus_verification_rejects_bad_lines():
    lines, digest = corpus.load("full")
    assert len(lines) == corpus.FULL_COUNT and digest == corpus.FULL_SHA256
    with pytest.raises(corpus.CorpusError):
        corpus.verify(lines[:-1] + lines[:1], corpus.FULL_COUNT)  # a repeat
    with pytest.raises(corpus.CorpusError):
        corpus.verify(lines[:-1] + ["Bw"], corpus.FULL_COUNT)  # a triangle
    with pytest.raises(corpus.CorpusError):
        corpus.verify(lines[:-1] + ["C?"], corpus.FULL_COUNT)  # disconnected


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in _benchmark_json()["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    cmd = _benchmark_json()["command"]
    proc = subprocess.run(
        [sys.executable if c == "python3" else c for c in cmd]
        + ["--workload", "check-planar", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.skipif(not os.environ.get("PERFBENCH_SLOW"), reason="set PERFBENCH_SLOW=1")
def test_corpus_regenerates_byte_for_byte():
    committed = corpus.FULL_PATH.read_text(encoding="ascii").splitlines()
    assert corpus.regenerate() == committed
