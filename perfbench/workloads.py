"""Benchmark workloads: seeded inputs, one operation, and its output check.

Every workload is a closed loop: one process runs one operation at a time,
back to back. The workload seed makes the inputs; operation ``i`` draws its
own generator from ``(seed, i)``, so a run's i-th operation is the same
whether or not it is traced.
"""
import math
import os
from dataclasses import dataclass

import numpy as np

from ptcsearch import netlist, pdk, search, tasks
from ptcsearch.errors import PtcError
from ptcsearch.permutation import is_permutation, perm_array_to_matrix
from ptcsearch.topology import TopoBlock, Topology, coupler_offset, n_coupler_slots

# Search runs use the default schedule with two steps per epoch: 180 steps.
SEARCH_SCHEDULE = dict(steps_per_epoch=2)
EVAL_TRAIN_STEPS = 200
EVAL_TRAIN_SIGMA = 0.02
EVAL_SIGMAS = (0.0, 0.01, 0.02, 0.04, 0.08)
EVAL_TRIALS = 20
EVAL_CASES = 8


class CheckError(Exception):
    """An operation returned an output that fails the benchmark's check."""


@dataclass
class Workload:
    name: str
    kind: str          # "search" or "eval"
    why: str
    driver: bool       # listed in BENCHMARK.json and run by the driver
    make_inputs: object
    step_span: str     # span that contains exactly one gradient step's work


@dataclass
class Outcome:
    """What one operation produced, after its check."""

    steps: int
    task_loss: float = None
    noisy_loss: float = None
    error: str = None          # why the operation failed: exception class,
                               # plus the message for a failed check
    wrong: bool = False        # True when the output check failed


# ---------------------------------------------------------------------------
# inputs

def _matrix_fit_search(k, f_min, f_max):
    def make(seed, workdir):
        rng = np.random.default_rng(seed)
        config = search.SearchConfig(
            k=k, pdk=pdk.load_pdk("amf"),
            constraint=pdk.FootprintConstraint(f_min, f_max))
        task = tasks.MatrixFitTask(tasks.random_unitary(k, rng))
        return {"config": config, "task": task, "workdir": workdir}
    return make


def _classify_search(seed, workdir, n_classes=10, n_features=64, n_samples=480):
    """Gaussian blobs, one centre per class, features scaled to [0, 1]."""
    rng = np.random.default_rng(seed)
    centres = rng.normal(0.0, 1.0, (n_classes, n_features))
    labels = rng.integers(0, n_classes, n_samples)
    feats = centres[labels] + rng.normal(0.0, 0.5, (n_samples, n_features))
    feats = (feats - feats.min(axis=0)) / np.ptp(feats, axis=0)
    n_train = n_samples * 4 // 5
    task = tasks.ClassifyTask(feats[:n_train], labels[:n_train],
                              feats[n_train:], labels[n_train:],
                              n_classes=n_classes)
    config = search.SearchConfig(
        k=8, pdk=pdk.load_pdk("amf"),
        constraint=pdk.FootprintConstraint(240_000.0, 300_000.0))
    return {"config": config, "task": task, "workdir": workdir}


def _eval_inputs(seed, workdir, k=16, n_per=8, n_cases=EVAL_CASES):
    """Seeded fixed topologies (random perms, couplers, phases) with targets.

    How well a random topology fits its target varies by several percent
    from one draw to the next, so operations cycle through a pool of cases
    and task_loss averages over all of them.
    """
    rng = np.random.default_rng(seed)

    def block(i):
        offset = coupler_offset(i)
        return TopoBlock(phases=rng.uniform(-np.pi, np.pi, k),
                         coupler_mask=rng.uniform(size=n_coupler_slots(k, offset)) < 0.5,
                         offset=offset, perm=rng.permutation(k))

    cases = []
    for _ in range(n_cases):
        topology = Topology(k=k, pdk_name="amf",
                            blocks_u=[block(i) for i in range(n_per)],
                            blocks_v=[block(i) for i in range(n_per)])
        cases.append((topology, tasks.MatrixFitTask(tasks.random_unitary(k, rng))))
    return {"cases": cases, "pdk": pdk.load_pdk("amf"), "workdir": workdir}


WORKLOADS = {w.name: w for w in [
    Workload("search_k32", "search",
             "K=32 fit, [2.0M, 2.5M] um^2, 6+6 blocks: per-block O(K^2) "
             "footprint counting and K x K matmuls dominate; the tile loop "
             "runs once", True,
             _matrix_fit_search(32, 2.0e6, 2.5e6), "search.search_step"),
    Workload("search_tiles", "search",
             "K=8 classifier, 10 classes x 64 features = 16 tiles, "
             "[240k, 300k] um^2: per-tile mesh loops dominate; per-block pdk "
             "and permutation work is shared", True,
             _classify_search, "search.search_step"),
    Workload("search_k8", "search",
             "K=8 fit, one tile, [240k, 300k] um^2: the smallest step that "
             "lands in its window, so fixed per-step overhead shows most", True,
             _matrix_fit_search(8, 240_000.0, 300_000.0), "search.search_step"),
    Workload("eval_robust", "eval",
             "8 seeded fixed K=16 topologies, 8+8 blocks: netlist round trip, "
             "noise-aware retraining and a forward-only sigma sweep; no ALM "
             "or footprint terms", True,
             _eval_inputs, "tasks.fit_mesh"),
    Workload("search_narrow", "search",
             "K=8 fit, one tile, [120k, 140k] um^2: extraction ends in "
             "InfeasibleError on the seed code, so fail_rate shows that defect",
             False, _matrix_fit_search(8, 120_000.0, 140_000.0),
             "search.search_step"),
]}


def driver_workloads():
    return [w for w in WORKLOADS.values() if w.driver]


def steps_per_op(workload):
    """Gradient steps in one operation, from the schedule."""
    if workload.kind == "eval":
        return EVAL_TRAIN_STEPS
    sched = search.SearchSchedule(**SEARCH_SCHEDULE)
    return sched.total_epochs * sched.steps_per_epoch


# ---------------------------------------------------------------------------
# operations

def run_op(workload, inputs, seed, index):
    """Run operation ``index``; return its result for ``check_op``.

    A PtcError raised by the program is the operation's result, not a crash
    of the benchmark.
    """
    rng = np.random.default_rng([seed, index])
    try:
        if workload.kind == "search":
            schedule = search.SearchSchedule(**SEARCH_SCHEDULE)
            return search.run_search(inputs["config"], schedule,
                                     inputs["task"], rng)
        topology, task = inputs["cases"][index % len(inputs["cases"])]
        path = os.path.join(inputs["workdir"], f"{workload.name}.net.json")
        doc = netlist.topology_to_doc(topology, inputs["pdk"],
                                      provenance={"seed": seed, "op": index})
        netlist.write_netlist(path, doc)
        topology = netlist.doc_to_topology(netlist.read_netlist(path))
        _remove(path)
        trained, metrics = tasks.variation_aware_train(
            topology, task, tasks.NoiseModel(EVAL_TRAIN_SIGMA),
            steps=EVAL_TRAIN_STEPS, rng=rng)
        rows = tasks.robustness_sweep(trained, task, EVAL_SIGMAS, EVAL_TRIALS, rng)
        return doc, topology, metrics, rows
    except PtcError as exc:
        return exc


def _check_finite(values, what):
    for v in values:
        if not math.isfinite(v):
            raise CheckError(f"non-finite {what}: {v}")


def _remove(path):
    # Replacing an existing file can force a flush to disk, which would time
    # the disk; removing it after each read makes every write a new file.
    os.remove(path)


def _check_round_trip(doc, read_back, pdk_spec):
    """The topology read back from ``doc``'s file gives ``doc`` again."""
    again = netlist.topology_to_doc(read_back, pdk_spec,
                                    provenance=doc["provenance"])
    if netlist.dumps_canonical(again) != netlist.dumps_canonical(doc):
        raise CheckError("netlist changed in a write/read round trip")


def _check_perms(topology):
    for blk in topology.blocks:
        if not is_permutation(perm_array_to_matrix(blk.perm)):
            raise CheckError("kept block permutation is not a permutation")


def check_op(workload, inputs, result, steps):
    """Check one operation's output and reduce it to an Outcome."""
    if isinstance(result, PtcError):
        return Outcome(steps=steps, error=type(result).__name__)
    try:
        if workload.kind == "search":
            _, topology, logs = result
            config = inputs["config"]
            _check_perms(topology)
            area = pdk.footprint_exact(topology, config.pdk)
            if not config.constraint.contains(area):
                raise CheckError(f"footprint {area} outside the window")
            path = os.path.join(inputs["workdir"], f"{workload.name}.check.json")
            doc = netlist.topology_to_doc(topology, config.pdk,
                                          provenance={"workload": workload.name})
            netlist.write_netlist(path, doc)
            read_back = netlist.doc_to_topology(netlist.read_netlist(path))
            _remove(path)
            _check_round_trip(doc, read_back, config.pdk)
            _check_finite([v for rec in logs for v in
                           (rec["task"], rec["alm"], rec["footprint"], rec["total"])],
                          "search loss")
            return Outcome(steps=steps, task_loss=float(logs[-1]["task"]))
        doc, read_back, metrics, rows = result
        _check_perms(read_back)
        _check_round_trip(doc, read_back, inputs["pdk"])
        _check_finite([metrics["clean"], metrics["noisy"]]
                      + [v for row in rows for v in row[1:]], "eval loss")
        if [row[0] for row in rows] != list(EVAL_SIGMAS):
            raise CheckError("robustness sweep skipped a sigma")
        return Outcome(steps=steps, task_loss=float(metrics["clean"]),
                       noisy_loss=float(rows[-1][1]))
    except CheckError as exc:
        return Outcome(steps=steps, error=type(exc).__name__ + ": " + str(exc),
                       wrong=True)
