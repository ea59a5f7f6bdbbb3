"""Golden regression test: fixed-seed runs must reproduce pinned results.

Each search case runs a full ``run_search`` and compares it with
``golden.json``: the per-epoch task, ALM and footprint losses to 1e-10
relative, and the extracted topology exactly (perms, coupler masks, offsets
and the U/V block split). The eval case retrains a fixed K=16 topology with
phase noise (``variation_aware_train``) and sweeps its robustness; it pins the
fit-loss trace, the returned metrics and the sweep rows to 1e-10 relative.
Its mesh holds permutations and couplers frozen, a path the search cases
reach only after SPL legalization. A refactor or optimisation of the step
engine must leave every case unchanged.

Regenerate the pinned file only for an intended behaviour change, for every
case or for the ones named:

    PYTHONPATH=src python tests/test_golden.py --regenerate [CASE ...]
"""
import json
import os
import sys

import numpy as np
import pytest

from ptcsearch import FootprintConstraint, MatrixFitTask, run_search
from ptcsearch.search import SearchConfig, SearchSchedule
from ptcsearch import tasks
from ptcsearch.tasks import (
    ClassifyTask,
    NoiseModel,
    random_unitary,
    robustness_sweep,
    variation_aware_train,
)

from helpers import random_topology

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
TRACE_KEYS = ("task", "alm", "footprint")
TRACE_RTOL = 1e-10
WINDOW = FootprintConstraint(240_000.0, 300_000.0)
FIT_SEEDS = (0, 1, 2)
CLASSIFY_SEED = 3
SEARCH_CASES = [f"fit_seed{s}" for s in FIT_SEEDS] + ["classify_10x64"]
EVAL_CASE = "eval_k16"
EVAL_SEED = 4
EVAL_SIGMAS = (0.0, 0.01, 0.02, 0.04, 0.08)
CASES = SEARCH_CASES + [EVAL_CASE]


def _classify_task(seed, n_classes=10, n_features=64, n_samples=200):
    """Gaussian blobs, one centre per class: a 10 x 64 weight, 2 x 8 tiles."""
    rng = np.random.default_rng(seed)
    centres = rng.normal(0.0, 1.0, (n_classes, n_features))
    labels = rng.integers(0, n_classes, n_samples)
    feats = centres[labels] + rng.normal(0.0, 0.5, (n_samples, n_features))
    n_train = n_samples * 4 // 5
    return ClassifyTask(feats[:n_train], labels[:n_train],
                        feats[n_train:], labels[n_train:], n_classes=n_classes)


def _task_and_seed(name):
    """The acceptance-test task for a fit seed, or the classify task."""
    if name == "classify_10x64":
        return _classify_task(100 + CLASSIFY_SEED), CLASSIFY_SEED
    seed = int(name.removeprefix("fit_seed"))
    return MatrixFitTask(random_unitary(8, np.random.default_rng(1000 + seed))), seed


def run_eval_case():
    """Noise-aware retrain of a seeded K=16 8+8 topology, then a sigma sweep;
    return the fit-loss trace, the metrics and the sweep rows."""
    rng = np.random.default_rng(EVAL_SEED)
    topology = random_topology(16, 8, 8, rng)
    task = MatrixFitTask(random_unitary(16, rng))
    traces = []
    fit_mesh = tasks.fit_mesh

    def recording_fit_mesh(*args, **kwargs):
        traces.append(fit_mesh(*args, **kwargs))
        return traces[-1]

    tasks.fit_mesh = recording_fit_mesh
    try:
        mesh, metrics = variation_aware_train(topology, task, NoiseModel(0.02),
                                              steps=200, rng=rng)
    finally:
        tasks.fit_mesh = fit_mesh
    rows = robustness_sweep(mesh, task, EVAL_SIGMAS, 20, rng)
    return {
        "trace": [float(v) for v in traces[0]],
        "metrics": [float(metrics[key]) for key in ("clean", "noisy", "noisy_std")],
        "sweep": [[float(v) for v in row] for row in rows],
    }


def run_case(name):
    """Run one golden case; return its pinned quantities as plain data."""
    if name == EVAL_CASE:
        return run_eval_case()
    task, seed = _task_and_seed(name)
    config = SearchConfig(k=8, pdk="amf", constraint=WINDOW)
    schedule = SearchSchedule(steps_per_epoch=2)
    _, topo, logs = run_search(config, schedule, task, np.random.default_rng(seed))

    def blocks(chain):
        return [{"perm": blk.perm.tolist(),
                 "coupler_mask": blk.coupler_mask.tolist(),
                 "offset": int(blk.offset)} for blk in chain]

    return {
        "trace": [[float(rec[key]) for key in TRACE_KEYS] for rec in logs],
        "topology": {"blocks_u": blocks(topo.blocks_u),
                     "blocks_v": blocks(topo.blocks_v)},
    }


def _load_golden():
    with open(GOLDEN_PATH, "r") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", SEARCH_CASES)
def test_golden_case(name):
    pinned = _load_golden()[name]
    got = run_case(name)
    assert got["topology"] == pinned["topology"]
    np.testing.assert_allclose(np.array(got["trace"]), np.array(pinned["trace"]),
                               rtol=TRACE_RTOL, atol=0.0)


def test_golden_eval_case():
    pinned = _load_golden()[EVAL_CASE]
    got = run_eval_case()
    assert len(got["trace"]) == 200
    assert [row[0] for row in got["sweep"]] == list(EVAL_SIGMAS)
    for key in ("trace", "metrics", "sweep"):
        np.testing.assert_allclose(np.array(got[key]), np.array(pinned[key]),
                                   rtol=TRACE_RTOL, atol=0.0, err_msg=key)


def test_golden_file_covers_every_case():
    assert set(_load_golden()) == set(CASES)


def test_classify_case_spans_multiple_tiles():
    task, _ = _task_and_seed("classify_10x64")
    assert (task.m_rows, task.n_cols) == (10, 64)


if __name__ == "__main__":
    names = sys.argv[2:] or CASES
    if sys.argv[1:2] != ["--regenerate"] or not set(names) <= set(CASES):
        sys.exit("usage: python tests/test_golden.py --regenerate [CASE ...]")
    golden = _load_golden() if os.path.exists(GOLDEN_PATH) else {}
    golden.update({name: run_case(name) for name in names})
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")
