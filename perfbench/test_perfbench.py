"""Tests of the benchmark itself, at smoke size.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from forecastability.errors import DegenerateSample  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402
from workloads import BudgetSeasonal, ProfileSeasonal, SignificanceAr1  # noqa: E402

SMALL = {
    ProfileSeasonal.name: {"n": 600, "horizons": 3, "probe_rows": 50},
    SignificanceAr1.name: {"n": 200, "replicates": 19},
    BudgetSeasonal.name: {"n": 600},
}


def span(id, name, start, end, parent=None, **attrs):
    return Span(id=id, name=name, start=start, end=end, parent=parent, workload="w",
                attrs=attrs)


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        span(0, "root", 0.0, 10.0),
        span(1, "a", 1.0, 4.0, parent=0),
        span(2, "b", 3.0, 6.0, parent=0),  # overlaps a: [1, 6] is covered once
        span(3, "a", 2.0, 3.0, parent=1),  # grandchild: not subtracted from root
        span(4, "b", 8.0, 9.0, parent=0),
    ]
    own = tracing.self_times(spans)
    assert own == {0: 10.0 - 5.0 - 1.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 1.0}
    table = tracing.summarise(spans)
    assert table["a"] == {"calls": 2, "errors": 0, "total_s": 4.0, "self_s": 3.0}
    assert table["b"]["self_s"] == 4.0


def test_layer_metrics_from_synthetic_spans():
    spans = [
        span(0, "significance.permutation_test", 0.0, 1.0),
        span(1, "estimators.estimate_profile", 0.1, 0.3, parent=0),
        span(2, "estimators.ksg_mutual_information", 0.1, 0.2, parent=1,
             points=999, **{"class": "n1000-d2"}),
        span(3, "estimators.estimate_profile", 0.4, 0.9, parent=0),
        span(4, "estimators.estimate_profile", 2.0, 2.1),  # not a replicate
    ]
    m = tracing.layer_metrics(spans)
    assert m["significance.permutation_test.self_s"] == pytest.approx(0.3)
    assert m["significance.replicate.p50_ms"] == pytest.approx(200.0)
    assert m["significance.replicate.p95_ms"] == pytest.approx(500.0)
    assert m["estimators.ksg.n1000-d2.p50_ms"] == pytest.approx(100.0)
    assert m["estimators.ksg.n20000-d14.p50_ms"] == 0.0
    assert m["estimators.ksg_mutual_information.points"] == 999
    assert tracing.ksg_size_class(988) == 1000 and tracing.ksg_size_class(19964) == 20000


def test_install_covers_rebound_names_and_restore_puts_every_binding_back():
    modules = {name: importlib.import_module(f"forecastability.{name}")
               for name in tracing.MODULES}
    before = tracing.bindings(modules)
    tracer = tracing.Tracer("w")
    tracer.install(modules)
    try:
        for qualified in ("estimators.lag_embed", "estimators.digamma",
                          "estimators.ksg_mutual_information", "significance.estimate_profile",
                          "cli.estimate_profile", "cli.permutation_test",
                          "cli.render_profile_svg", "diagnostics.kl_entropy",
                          "cli.RunManifest.build"):
            assert qualified in tracing.changed(before, modules), qualified
        modules["estimators"].digamma(3.0)
        with pytest.raises(DegenerateSample):
            modules["diagnostics"].kl_entropy([1.0, 1.0, 2.0, 3.0], k=1)
        modules["cli"].RunManifest.build("x", {}, [], None)
    finally:
        tracer.restore()
    assert tracing.changed(before, modules) == []
    assert [(s.name, s.parent, s.error) for s in tracer.spans] == [
        ("estimators.digamma", None, None),
        ("estimators.kl_entropy", None, "DegenerateSample"),
        ("cli.RunManifest.build", None, None),
    ]
    assert tracing.summarise(tracer.spans)["estimators.kl_entropy"]["errors"] == 1


@pytest.mark.parametrize("workload", [ProfileSeasonal, SignificanceAr1, BudgetSeasonal],
                         ids=lambda w: w.name)
def test_traced_run_matches_untraced_and_restores(workload, tmp_path):
    sizes = SMALL[workload.name]
    traced = run.run_traced(workload(**sizes), 3, tmp_path, sizes)
    assert traced["child"]["unrestored"] == []
    assert [p for op in traced["ops"] for p in op.problems] == []
    outputs = traced["outputs"]
    assert outputs["traced"] == outputs["untraced"] == outputs["untraced-2"]
    assert outputs["traced"]
    assert traced["child"]["layers"]["trace.errors"] == 0


def test_end_to_end_run_reports_what_benchmark_json_names(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUP_RUNS", 2)
    sizes = SMALL[BudgetSeasonal.name]
    result = run.run_end_to_end(BudgetSeasonal(**sizes), 3, 0.5, tmp_path, sizes)
    assert [op.label for op in result["ops"]][:3] == ["setup0-budget", "setup1-budget", "it0-budget"]
    assert all(not op.problems for op in result["ops"])
    assert len(result["setup_s"]) == 3
    metrics = run.end_to_end_metrics(result)
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == [
        (name, m["unit"]) for name, m in metrics.items()]
    assert all(m["value"] > 0 for m in metrics.values())
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == [
        (name, run.layer_unit(name)) for name in run.REPORTED_LAYERS]


def test_corrupted_output_counts_as_a_failure(tmp_path, monkeypatch):
    def corrupted(workload, work):
        outputs = run_read_outputs(workload, work)
        data = outputs["significance.csv"]
        digit = data.index(b"0.")  # first value digit of the first row
        outputs["significance.csv"] = data[:digit] + b"9" + data[digit + 1:]
        return outputs

    run_read_outputs = run.read_outputs
    monkeypatch.setattr(run, "read_outputs", corrupted)
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    sizes = SMALL[SignificanceAr1.name]
    result = run.run_end_to_end(SignificanceAr1(**sizes), 3, 0.0, tmp_path, sizes)
    failed = [op for op in result["ops"] if op.problems]
    assert [op.label for op in failed] == ["it0-significance"]
    assert "differs from the in-process library result" in failed[0].problems[0]
