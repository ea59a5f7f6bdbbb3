"""Tests of the benchmark itself, one operation per workload.

    python3 -m pytest perfbench -q
"""
import copy
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run  # first: puts the checkout's src/ on sys.path
import spans
import workloads
import ptcsearch
from ptcsearch import mesh, pdk, permutation, search

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
PER_LAYER_NAMES = [name for name, _ in run.PER_LAYER]


@pytest.fixture(scope="module")
def results():
    """One operation of every workload, untraced and traced."""
    return {(name, trace): run.run_workload(name, seed=5, seconds=0, trace=trace,
                                            probes=1, count=1)
            for name in workloads.WORKLOADS for trace in (0, 1)}


def _driver_line(doc):
    return json.loads(run.result_line(doc))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(results, name):
    doc = results[name, 0]
    metrics = doc["metrics"]
    expected = {"setup_s", "op_s_p50", "steps_per_s", "peak_rss_mb", "fail_rate"}
    if doc["failed"] < doc["attempted"]:
        expected.add("task_loss")
    if workloads.WORKLOADS[name].kind == "eval":
        expected.add("noisy_loss")
    assert set(metrics) == expected
    for m in metrics.values():
        assert m["unit"] and math.isfinite(m["value"])
    assert metrics["fail_rate"]["value"] == doc["failed"] / doc["attempted"]
    line = _driver_line(doc)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    if workloads.WORKLOADS[name].driver:
        assert list(line["metrics"]) == list(run.END_TO_END)
        assert all(m["value"] > 0 for m in line["metrics"].values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(results, name):
    line = _driver_line(results[name, 1])
    assert list(line["metrics"]) == PER_LAYER_NAMES
    for m in line["metrics"].values():
        assert m["unit"] and math.isfinite(m["value"])
    assert line["correct"] is True


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tracing_changes_no_result(results, name):
    untraced, traced = results[name, 0], results[name, 1]
    assert traced["traced_matches_untraced"]
    keys = ("task_loss", "noisy_loss", "error")
    assert [[o[k] for k in keys] for o in untraced["outcomes"]] == \
        [[o[k] for k in keys] for o in traced["outcomes"]]


def test_traced_run_reports_spans_and_overhead(results):
    doc = results["search_k32", 1]
    table = doc["spans"]
    assert table["op"]["share_pct"] == pytest.approx(100.0)
    for name in ("search.search_step", "mesh.forward", "mesh.backward",
                 "pdk.footprint_expected", "permutation.reparametrize",
                 "optim.Adam.step"):
        assert table[name]["calls"] > 0
        assert 0.0 < table[name]["share_pct"] < 100.0
    assert doc["traced_op_s_p50"] > 0 and doc["untraced_op_s_p50"] > 0
    eval_table = results["eval_robust", 1]["spans"]
    for name in ("tasks.fit_mesh", "tasks.noisy_metric", "netlist.write_netlist",
                 "netlist.read_netlist"):
        assert eval_table[name]["calls"] > 0
    assert results["eval_robust", 1]["metrics"]["netlist.write_netlist.bytes"]["value"] > 0


def test_per_step_counts_repeat_across_seeds(results):
    other = run.run_workload("search_k32", seed=6, seconds=0, trace=1, probes=1,
                             count=1)
    for name in ("permutation.reparametrize.calls_per_block_step",
                 "pdk.count_crossings.calls_per_step",
                 "mesh.coupler_matrix.calls_per_step"):
        a = results["search_k32", 1]["metrics"][name]["value"]
        assert a > 0
        assert other["metrics"][name]["value"] == a


def test_benchmark_json_records_workloads_and_layers():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert BENCH["paths"] == ["perfbench"]
    assert BENCH["command"] == ["python3", "perfbench/run.py"]
    assert [(w["name"], w["why"]) for w in BENCH["workloads"]] == \
        [(w.name, w.why) for w in workloads.driver_workloads()]
    assert all(len(w["why"]) <= 200 for w in BENCH["workloads"])
    e2e = {m["name"]: m for m in BENCH["end_to_end"]}
    assert list(e2e) == list(run.END_TO_END)
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == \
        list(run.PER_LAYER)
    layers = {name.split(".")[0] for name, *_ in spans.traced_targets()}
    assert {m["name"].split(".")[0] for m in BENCH["per_layer"]} == layers | {"trace"}


def test_benchmark_json_units_match_the_run(results):
    units = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    metrics = results["search_k8", 0]["metrics"]
    assert {n: metrics[n]["unit"] for n in units} == units


def test_tracer_wraps_every_binding_and_restores_them():
    original = {
        "footprint_expected": pdk.footprint_expected,
        "reparametrize": permutation.reparametrize,
        "count_crossings": pdk.count_crossings,
        "forward": mesh.SuperMesh.__dict__["forward"],
        "backward": mesh.SuperMesh.__dict__["backward"],
    }
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert search.footprint_expected is pdk.footprint_expected
        assert search.footprint_expected.__wrapped__ is original["footprint_expected"]
        assert ptcsearch.footprint_expected is search.footprint_expected
        assert mesh.reparametrize is search.reparametrize is permutation.reparametrize
        assert mesh.reparametrize.__wrapped__ is original["reparametrize"]
        assert permutation.count_crossings is pdk.count_crossings
        assert pdk.count_crossings.__wrapped__ is original["count_crossings"]
        assert mesh.SuperMesh.forward.__wrapped__ is original["forward"]
        assert mesh.SuperMesh.backward.__wrapped__ is original["backward"]
    finally:
        tracer.uninstall()
    assert search.footprint_expected is original["footprint_expected"]
    assert mesh.reparametrize is search.reparametrize is original["reparametrize"]
    assert permutation.count_crossings is original["count_crossings"]
    assert mesh.SuperMesh.__dict__["forward"] is original["forward"]


def test_tracer_records_parents_and_self_time():
    tracer = spans.Tracer()
    for name in ("op", "a", "b"):
        tracer.name_id(name)
    tracer.spans.extend([[0, 0.0, 10.0, -1], [1, 1.0, 4.0, 0],
                         [1, 5.0, 6.0, 0], [2, 2.0, 3.0, 1]])
    nid, start, end, parent, self_time = tracer.arrays()
    assert parent.tolist() == [-1, 0, 0, 1]
    assert self_time.tolist() == [6.0, 2.0, 1.0, 1.0]
    assert tracer.ancestors_with("a", parent, nid).tolist() == [False, True, True, True]


def test_tracer_records_nested_calls_only_while_active():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4 and tracer.spans == []
    tracer.active = True
    assert outer(1) == 4
    (o_id, o_start, o_end, o_parent), (i_id, i_start, i_end, i_parent) = tracer.spans
    assert (tracer.names[o_id], o_parent) == ("outer", -1)
    assert (tracer.names[i_id], i_parent) == ("inner", 0)
    assert o_start <= i_start <= i_end <= o_end


def test_check_rejects_wrong_search_outputs():
    wl = workloads.WORKLOADS["search_k8"]
    workdir = run.OUT_DIR / "test-check"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = wl.make_inputs(7, str(workdir))
        result = workloads.run_op(wl, inputs, 7, 0)
        steps = workloads.steps_per_op(wl)
        assert workloads.check_op(wl, inputs, result, steps).error is None

        mesh_, topology, logs = copy.deepcopy(result)
        logs[-1]["task"] = float("nan")
        bad = workloads.check_op(wl, inputs, (mesh_, topology, logs), steps)
        assert bad.wrong and "non-finite" in bad.error

        mesh_, topology, logs = copy.deepcopy(result)
        topology.blocks_u = topology.blocks_u[:1]
        topology.blocks_v = topology.blocks_v[:1]
        bad = workloads.check_op(wl, inputs, (mesh_, topology, logs), steps)
        assert bad.wrong and "outside the window" in bad.error
    finally:
        shutil.rmtree(workdir)


def test_fails_without_program_sources():
    """In a directory holding only the benchmark, the run exits non-zero and
    prints no result."""
    bare = run.OUT_DIR / "test-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "search_k8",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)


def test_percentile_is_nearest_rank():
    values = list(np.arange(1, 101, dtype=float))
    assert run.percentile(values, 50) == 50.0
    assert run.percentile(values, 99) == 99.0
    assert run.tail_percentile(values[:50]) is None
    assert run.tail_percentile(values) == (90, 90.0)
