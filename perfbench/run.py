"""ptcsearch benchmark: one workload, one process, closed loop.

    python3 perfbench/run.py --workload search_k32 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 5 --trace 0

Run from the repository root; ptcsearch is imported from ``src/``. With
``--trace 0`` the run measures the end-to-end metrics untraced. With
``--trace 1`` it runs the same operations twice, first untraced and then
with every public ptcsearch function wrapped in a span, and reports the
per-layer metrics and the tracing overhead. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Full results, with the environment record and, for traced runs, the spans,
go to ``.perfbench_out/``. ``--workload all`` runs every workload, each in a
process of its own.
"""
import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS runs single-threaded in every benchmark process; this must precede
# the first numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# ptcsearch is used from the checkout's sources, never from an installed copy.
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from ptcsearch import pdk  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60

# Per-layer metrics of the traced run, as (name, unit). A name is a span
# (layer.function) plus a suffix that says what is computed from its spans:
#   ms          milliseconds per operation spent inside the span
#   share       percent of operation time spent inside the span
#   ms_p50/p99  percentiles of one call's duration
#   self_ms     self time (duration minus child spans) per gradient step
#   calls       calls per operation
#   calls_per_step, calls_per_block_step
#               calls inside the workload's step span per step (per block)
#   mflop_computed, bytes
#               flops derived from shapes, or bytes written, per operation
#   topology, infeasible
#               operations whose extraction gave a topology / InfeasibleError
PER_LAYER = [
    ("search.search_step.ms_p50", "ms"),
    ("search.search_step.ms_p99", "ms"),
    ("search.search_step.self_ms", "ms/step"),
    ("search.sample_gates.ms", "ms/op"),
    ("search.sample_submesh.ms", "ms/op"),
    ("search.sample_submesh.topology", "count"),
    ("search.sample_submesh.infeasible", "count"),
    ("search.legalize_mesh.ms", "ms/op"),
    ("mesh.forward.ms", "ms/op"),
    ("mesh.forward.share", "%"),
    ("mesh.backward.ms", "ms/op"),
    ("mesh.backward.share", "%"),
    ("mesh.coupler_matrix.calls_per_step", "1/step"),
    ("mesh.forward.mflop_computed", "MFLOP/op"),
    ("mesh.backward.mflop_computed", "MFLOP/op"),
    ("pdk.footprint_expected.ms", "ms/op"),
    ("pdk.footprint_expected.share", "%"),
    ("pdk.footprint_proxy.ms", "ms/op"),
    ("pdk.count_crossings.calls_per_step", "1/step"),
    ("permutation.reparametrize.calls_per_block_step", "1/block/step"),
    ("permutation.alm_loss.ms", "ms/op"),
    ("permutation.dual_update.ms", "ms/op"),
    ("permutation.spl_legalize.calls", "1/op"),
    ("permutation.spl_legalize.ms", "ms/op"),
    ("tasks.loss_and_grad.ms", "ms/op"),
    ("tasks.fit_mesh.ms", "ms/op"),
    ("tasks.noisy_metric.ms", "ms/op"),
    ("optim.Adam.step.ms", "ms/op"),
    ("optim.Adam.step.share", "%"),
    ("netlist.write_netlist.ms", "ms/op"),
    ("netlist.read_netlist.ms", "ms/op"),
    ("netlist.write_netlist.bytes", "B/op"),
    ("trace.overhead", "%"),   # traced op_s_p50 over untraced op_s_p50, minus 1
    ("trace.spans", "1/op"),
]

# End-to-end metrics of the untraced run that the driver compares. The run
# also reports fail_rate, and noisy_loss on eval_robust; they are not in this
# list because they are 0 or absent on some workloads.
END_TO_END = ("setup_s", "op_s_p50", "steps_per_s", "peak_rss_mb", "task_loss")


# ---------------------------------------------------------------------------
# environment

def _git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_bytes(level):
    """Size of cpu0's unified or data cache at ``level``, or None."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            if int((index / "level").read_text()) != level or \
                    (index / "type").read_text().strip() == "Instruction":
                continue
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        units = {"K": 1024, "M": 1024 ** 2}
        return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
    return None


def environment(seed):
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l2_bytes": _cache_bytes(2),
        "l3_bytes": _cache_bytes(3),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_commit": _git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# measurement

def percentile(values, q):
    """Nearest-rank percentile (q in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def tail_percentile(values):
    """Highest of p99/p90 with at least ten samples beyond it, else None."""
    for q in (99, 90):
        if len(values) * (100 - q) / 100 >= 10:
            return q, percentile(values, q)
    return None


def measure_setup(workload_name, seed, probes):
    """Median set-up time over fresh processes: interpreter start, imports,
    PDK loading and input generation, timed from just before the spawn."""
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload_name, "--seed", str(seed), "--seconds", "0",
             "--trace", "0", "--setup-probe", repr(t0)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times), times


def run_ops(wl, inputs, seed, steps, deadline=None, count=None, tracer=None):
    """Closed loop over operations 0, 1, ... until the deadline (at least one
    operation) or for ``count`` operations. Returns (outcomes, seconds)."""
    outcomes, times = [], []
    index = 0
    while True:
        if count is not None and index >= count:
            break
        if count is None and index > 0 and time.perf_counter() >= deadline:
            break
        if tracer is not None:
            tracer.active = True
            span = tracer.begin("op")
        t0 = time.perf_counter()
        result = workloads.run_op(wl, inputs, seed, index)
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.end(span)
            tracer.active = False
        outcomes.append(workloads.check_op(wl, inputs, result, steps))
        times.append(elapsed)
        index += 1
    return outcomes, times


def end_to_end(outcomes, times, setup_s):
    ok = [o for o in outcomes if o.error is None]
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_s_p50": (statistics.median(times), "s"),
        "steps_per_s": (sum(o.steps for o in outcomes) / sum(times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }
    if ok:
        metrics["task_loss"] = (statistics.fmean(o.task_loss for o in ok), "loss")
    noisy = [o.noisy_loss for o in ok if o.noisy_loss is not None]
    if noisy:
        metrics["noisy_loss"] = (statistics.fmean(noisy), "loss")
    metrics["fail_rate"] = (sum(o.error is not None for o in outcomes) / len(outcomes),
                            "1")
    return metrics


def per_layer(tracer, wl, outcomes, times, untraced_times, n_blocks):
    """Per-layer metrics and the full span table from a traced run."""
    nid, start, end, parent, self_time = tracer.arrays()
    dur = end - start
    n_ops = len(times)
    steps = sum(o.steps for o in outcomes)
    op_total = float(dur[nid == tracer.name_id("op")].sum())
    in_step = tracer.ancestors_with(wl.step_span, parent, nid)
    infeasible = sum(o.error == "InfeasibleError" for o in outcomes)

    table = {}
    for i, name in enumerate(tracer.names):
        mask = nid == i
        table[name] = {
            "calls": int(mask.sum()),
            "calls_in_step": int((mask & in_step).sum()),
            "ms_per_op": float(dur[mask].sum()) * 1e3 / n_ops,
            "self_ms_per_op": float(self_time[mask].sum()) * 1e3 / n_ops,
            "share_pct": 100.0 * float(dur[mask].sum()) / op_total,
            "extra_per_op": tracer.extra.get(name, 0) / n_ops,
        }

    def value(span, suffix):
        row, d = table[span], dur[nid == tracer.name_id(span)] * 1e3
        return {
            "ms": lambda: row["ms_per_op"],
            "share": lambda: row["share_pct"],
            "ms_p50": lambda: percentile(list(d), 50) if len(d) else 0.0,
            "ms_p99": lambda: percentile(list(d), 99) if len(d) else 0.0,
            "self_ms": lambda: row["self_ms_per_op"] * n_ops / steps,
            "calls": lambda: row["calls"] / n_ops,
            "calls_per_step": lambda: row["calls_in_step"] / steps,
            "calls_per_block_step": lambda: row["calls_in_step"] / steps / n_blocks,
            "mflop_computed": lambda: row["extra_per_op"] / 1e6,
            "bytes": lambda: row["extra_per_op"],
            "topology": lambda: row["calls"] - infeasible,
            "infeasible": lambda: infeasible,
        }[suffix]()

    metrics = {
        "trace.overhead": 100.0 * (statistics.median(times)
                                   / statistics.median(untraced_times) - 1.0),
        "trace.spans": len(nid) / n_ops,
    }
    units = dict(PER_LAYER)
    for name in units:
        if name not in metrics:
            metrics[name] = value(*name.rsplit(".", 1))
    return {n: (metrics[n], units[n]) for n in units}, table


def _same_results(a, b):
    return [(o.task_loss, o.noisy_loss, o.error) for o in a] == \
        [(o.task_loss, o.noisy_loss, o.error) for o in b]


def run_workload(name, seed, seconds, trace, probes=SETUP_PROBES, count=None):
    """Run one workload in this process and return its result document."""
    wl = workloads.WORKLOADS[name]
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = wl.make_inputs(seed, str(workdir))
        steps = workloads.steps_per_op(wl)
        doc = {"workload": name, "seed": seed, "seconds": seconds,
               "trace": trace, "why": wl.why, "env": environment(seed)}
        if not trace:
            setup_s, probe_times = measure_setup(name, seed, probes)
            doc["setup_probe_s"] = probe_times
            deadline = time.perf_counter() + seconds
            outcomes, times = run_ops(wl, inputs, seed, steps, deadline, count)
            metrics = end_to_end(outcomes, times, setup_s)
            all_outcomes = outcomes
        else:
            deadline = time.perf_counter() + seconds / 2.0
            plain, plain_times = run_ops(wl, inputs, seed, steps, deadline, count)
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced, traced_times = run_ops(wl, inputs, seed, steps,
                                               count=len(plain), tracer=tracer)
            finally:
                tracer.uninstall()
            n_blocks = _n_blocks(wl, inputs)
            metrics, doc["spans"] = per_layer(tracer, wl, traced, traced_times,
                                              plain_times, n_blocks)
            doc["traced_matches_untraced"] = _same_results(plain, traced)
            doc["untraced_op_s_p50"] = statistics.median(plain_times)
            doc["traced_op_s_p50"] = statistics.median(traced_times)
            outcomes, times = traced, traced_times
            all_outcomes = plain + traced
            _write_spans(tracer, name, seed)
        n = len(times)
        tail = tail_percentile(times)
        doc.update({
            "ops": n,
            "op_s": times,
            "op_s_tail": None if tail is None else {"percentile": tail[0],
                                                   "value": tail[1]},
            "outcomes": [vars(o) for o in outcomes],
            "errors": sorted({o.error for o in outcomes if o.error}),
            "attempted": len(all_outcomes),
            "failed": sum(o.error is not None for o in all_outcomes),
            "correct": not any(o.wrong for o in all_outcomes)
            and doc.get("traced_matches_untraced", True),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        })
        return doc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _n_blocks(wl, inputs):
    """Blocks in the workload's SuperMesh, sized as run_search sizes it."""
    if wl.kind == "eval":
        return inputs["cases"][0][0].n_blocks
    config = inputs["config"]
    bounds = pdk.block_bounds(config.pdk, config.k, config.constraint)
    return 2 * bounds.per_unitary_max


def _write_spans(tracer, name, seed):
    nid, start, end, parent, self_time = tracer.arrays()
    t0 = start.min() if len(start) else 0.0
    np.savez_compressed(OUT_DIR / f"spans_{name}_seed{seed}.npz",
                        names=np.array(tracer.names), name_id=nid,
                        start_s=start - t0, end_s=end - t0, parent=parent,
                        self_s=self_time)


# ---------------------------------------------------------------------------
# reporting

def report_lines(doc):
    """Human-readable lines: every metric with its unit and operation count."""
    lines = [f"# workload {doc['workload']} seed {doc['seed']} "
             f"trace {doc['trace']}: {doc['ops']} ops, "
             f"{doc['failed']}/{doc['attempted']} failed "
             f"{doc['errors'] or ''}".rstrip()]
    lines.append("# env " + json.dumps(doc["env"], sort_keys=True))
    for name, m in doc["metrics"].items():
        lines.append(f"# {name:48s} {m['value']:.6g} {m['unit']} (n={doc['ops']})")
    if doc["trace"]:
        lines.append(f"# tracing overhead: op_s_p50 {doc['traced_op_s_p50']:.6g} s "
                     f"traced vs {doc['untraced_op_s_p50']:.6g} s untraced")
        lines.append(f"# {'span':40s} {'calls':>9s} {'ms/op':>10s} "
                     f"{'self ms/op':>10s} {'share %':>8s}")
        for name, row in sorted(doc["spans"].items(),
                                key=lambda kv: -kv[1]["ms_per_op"]):
            lines.append(f"# {name:40s} {row['calls']:9d} {row['ms_per_op']:10.3f} "
                         f"{row['self_ms_per_op']:10.3f} {row['share_pct']:8.2f}")
    elif doc["op_s_tail"] is None:
        lines.append(f"# no tail percentile: {doc['ops']} ops leave fewer than "
                     "ten samples beyond p90")
    else:
        tail = doc["op_s_tail"]
        lines.append(f"# op_s_p{tail['percentile']} {tail['value']:.6g} s")
    return lines


def result_line(doc):
    """The driver's JSON line: only the metrics it compares."""
    wanted = END_TO_END if not doc["trace"] else [n for n, _ in PER_LAYER]
    return json.dumps({
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {n: doc["metrics"][n] for n in wanted if n in doc["metrics"]},
    })


def run_all(args):
    """Every workload, each in its own process; relays their reports."""
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=float, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    source = Path(workloads.search.__file__).resolve().parent
    if source != ROOT / "src" / "ptcsearch":
        print(f"error: ptcsearch imported from {source}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    if args.setup_probe is not None:
        workloads.WORKLOADS[args.workload].make_inputs(args.seed, str(OUT_DIR))
        print(repr(time.perf_counter() - args.setup_probe))
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    doc = run_workload(args.workload, args.seed, args.seconds, args.trace)
    out = OUT_DIR / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(doc, indent=1, default=float) + "\n")
    print("\n".join(report_lines(doc)))
    print(result_line(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
