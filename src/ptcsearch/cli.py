"""Command-line surface: search, eval, footprint, legalize, report."""
import argparse
import json
import sys

import numpy as np

from . import schema
from .errors import ConfigError, PtcError
from .netlist import (
    atomic_write_text,
    config_hash,
    doc_to_topology,
    dumps_canonical,
    read_json,
    read_netlist,
    topology_to_doc,
    write_netlist,
)
from .pdk import (
    FootprintConstraint,
    PenaltyConfig,
    block_bounds,
    block_footprint,
    footprint_exact,
    load_pdk,
    read_yaml,
)
from .permutation import SPL_MAX_ATTEMPTS, perm_matrix_to_array, spl_legalize
from .search import SearchConfig, SearchSchedule, run_search
from .tasks import (
    MatrixFitTask,
    NoiseModel,
    check_phase_sigma,
    load_dataset,
    random_unitary,
    robustness_sweep,
    variation_aware_train,
)

# Published device counts (#Blk, #DC, #CR) of the handcrafted baselines;
# identical across PDKs, only the per-device areas change.
BASELINE_COUNTS = {
    ("mzi", 8): (32, 112, 0),
    ("mzi", 16): (64, 480, 0),
    ("mzi", 32): (128, 1984, 0),
    ("fft", 8): (6, 24, 16),
    ("fft", 16): (8, 64, 88),
    ("fft", 32): (10, 160, 416),
}


def baseline_footprint(name: str, size: int, pdk_name: str):
    """Exact area (um^2) and rounded 1/1000 um^2 of a baseline design."""
    key = (name, size)
    if key not in BASELINE_COUNTS:
        raise PtcError(f"unknown baseline '{name}' at size {size}")
    n_blk, n_dc, n_cr = BASELINE_COUNTS[key]
    area = block_footprint(load_pdk(pdk_name), n_blk * size, n_dc, n_cr)
    return area, round(area / 1000.0)


def _build_task(task_doc: dict, k: int, rng):
    """The task of a task document that schema.TASK has checked."""
    if task_doc.get("kind", "matrix_fit") == "matrix_fit":
        return MatrixFitTask(random_unitary(k, rng))
    if "path" not in task_doc:
        raise ConfigError("classify task is missing 'path'")
    return load_dataset(task_doc["path"], fmt=task_doc.get("format", "csv"),
                        split=task_doc.get("split", 0.8),
                        seed=task_doc.get("split_seed", 0),
                        labels_path=task_doc.get("labels_path"))


def cmd_search(args):
    doc = read_yaml(args.config)
    checked = schema.RUN_CONFIG(doc)
    rng = np.random.default_rng(args.seed)
    schedule = SearchSchedule(**checked.get("schedule", {}))
    config = SearchConfig(
        pdk=checked["pdk"], **schema.present(checked, schema.SEARCH),
        constraint=FootprintConstraint(**schema.present(checked, schema.WINDOW)),
        penalty=PenaltyConfig(**schema.present(checked, schema.PENALTY)))
    # a window that admits no design fails before a K x K task is built
    pdk = load_pdk(config.pdk)
    block_bounds(pdk, config.k, config.constraint)
    task = _build_task(checked.get("task", {}), config.k,
                       np.random.default_rng(args.seed + 1))
    mesh, topology, logs = run_search(config, schedule, task, rng)
    provenance = {"seed": args.seed, "config_hash": config_hash(doc),
                  "schedule": {"warmup_epochs": schedule.warmup_epochs,
                               "spl_epoch": schedule.spl_epoch,
                               "total_epochs": schedule.total_epochs,
                               "steps_per_epoch": schedule.steps_per_epoch}}
    net_doc = topology_to_doc(topology, pdk, provenance)
    write_netlist(args.out, net_doc)
    n_cr, n_dc, n_blk = topology.device_counts()
    report = {
        "final_losses": {key: logs[-1][key] for key in
                         ("task", "alm", "footprint", "total")},
        "footprint_um2": net_doc["footprint"]["area_um2"],
        "footprint_kum2": round(net_doc["footprint"]["area_um2"] / 1000.0),
        "devices": {"n_cr": n_cr, "n_dc": n_dc, "n_blk": n_blk},
    }
    if args.report:
        atomic_write_text(args.report,
                          json.dumps(report, indent=2, sort_keys=True) + "\n")
    if args.log:
        lines = [json.dumps(record, sort_keys=True) for record in logs]
        atomic_write_text(args.log, "\n".join(lines) + "\n")
    print(json.dumps(report, sort_keys=True))
    return 0


def _parse_sigma_grid(text):
    """Comma-separated phase sigmas, each finite and nonnegative."""
    sigmas = []
    for item in text.split(","):
        try:
            sigma = float(item)
        except ValueError:
            raise ConfigError(f"--sigma-grid entry {item!r} is not a number") from None
        sigmas.append(check_phase_sigma(sigma))
    return sigmas


def cmd_eval(args):
    doc = read_netlist(args.netlist)
    topology = doc_to_topology(doc)
    rng = np.random.default_rng(args.seed)
    task_doc = schema.TASK(read_yaml(args.task)) if args.task else {}
    task = _build_task(task_doc, topology.k, np.random.default_rng(args.seed + 1))
    sigmas = _parse_sigma_grid(args.sigma_grid)
    noise = NoiseModel(phase_sigma=args.train_sigma)
    mesh, metrics = variation_aware_train(topology, task, noise,
                                          steps=args.train_steps, rng=rng)
    rows = robustness_sweep(mesh, task, sigmas, args.trials, rng)
    n_cr, n_dc, n_blk = topology.device_counts()
    lines = ["sigma,mean_metric,std_metric,n_cr,n_dc,n_blk"]
    for sigma, mean, std in rows:
        lines.append(f"{sigma!r},{mean!r},{std!r},{n_cr},{n_dc},{n_blk}")
    text = "\n".join(lines) + "\n"
    if args.out:
        atomic_write_text(args.out, text)
    print(text, end="")
    print(json.dumps({"clean": metrics["clean"], "noisy": metrics["noisy"]},
                     sort_keys=True), file=sys.stderr)
    return 0


def cmd_footprint(args):
    pdk = load_pdk(args.pdk)
    if args.netlist:
        topology = doc_to_topology(read_netlist(args.netlist))
        n_cr, n_dc, n_blk = topology.device_counts()
        area = footprint_exact(topology, pdk)
        name, size = "netlist", topology.k
    else:
        name, size = args.baseline, args.size
        area, _ = baseline_footprint(name, size, args.pdk)
        n_blk, n_dc, n_cr = BASELINE_COUNTS[(name, size)]
    rounded = round(area / 1000.0)
    print("design,size,pdk,n_blk,n_dc,n_cr,footprint_kum2")
    print(f"{name},{size},{pdk.name},{n_blk},{n_dc},{n_cr},{rounded}")
    return 0


def cmd_legalize(args):
    doc = schema.CHECKPOINT(read_json(args.checkpoint))
    k, p_raw = doc["k"], doc["p_raw"]
    if len(p_raw) and p_raw.shape[1:] != (k, k):
        raise ConfigError("checkpoint p_raw must be a list of k x k matrices")
    rng = np.random.default_rng(args.seed)
    perms = []
    for raw in p_raw:
        legal = spl_legalize(raw, rng, max_attempts=args.max_attempts)
        perms.append([int(v) for v in perm_matrix_to_array(legal)])
    out_doc = {"k": k, "permutations": perms, "seed": args.seed}
    text = dumps_canonical(out_doc)
    if args.out:
        atomic_write_text(args.out, text)
    print(text, end="")
    return 0


def cmd_report(args):
    doc = read_netlist(args.netlist)
    topology = doc_to_topology(doc)
    pdk = load_pdk(doc["pdk"])
    n_cr, n_dc, n_blk = topology.device_counts()
    area = footprint_exact(topology, pdk)
    report = {
        "k": topology.k,
        "pdk": pdk.name,
        "devices": {"n_cr": n_cr, "n_dc": n_dc, "n_blk": n_blk},
        "footprint_um2": area,
        "footprint_kum2": round(area / 1000.0),
        "provenance": doc.get("provenance", {}),
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _integer_arg(ge):
    """argparse type: an integer >= ge by the schema's integer rule; a bad
    value exits 2 before any input is read."""
    rule = schema.integer(ge=ge)

    def integer(text):
        try:
            return rule(int(text))
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return integer


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ptcsearch",
        description="Footprint-constrained photonic tensor-core topology search.")
    sub = parser.add_subparsers(dest="command", required=True)
    # every command takes a seed; numpy's generators take no negative one
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=_integer_arg(0), required=True)

    p = sub.add_parser("search", parents=[seeded], help="run a topology search")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.add_argument("--log")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("eval", parents=[seeded],
                       help="variation-aware retraining + noise sweep")
    p.add_argument("--netlist", required=True)
    p.add_argument("--task")
    p.add_argument("--sigma-grid", default="0,0.01,0.02,0.04,0.08")
    p.add_argument("--trials", type=_integer_arg(2), default=20)
    p.add_argument("--train-steps", type=_integer_arg(0), default=300)
    p.add_argument("--train-sigma", type=float, default=0.02)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("footprint", parents=[seeded],
                       help="footprint of a netlist or baseline")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--netlist")
    group.add_argument("--baseline", choices=["mzi", "fft"])
    p.add_argument("--size", type=int, default=8)
    p.add_argument("--pdk", default="amf")
    p.set_defaults(func=cmd_footprint)

    p = sub.add_parser("legalize", parents=[seeded],
                       help="run SPL on a relaxed mesh checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--max-attempts", type=_integer_arg(1),
                   default=SPL_MAX_ATTEMPTS)
    p.add_argument("--out")
    p.set_defaults(func=cmd_legalize)

    p = sub.add_parser("report", parents=[seeded], help="summarize a netlist")
    p.add_argument("--netlist", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PtcError, OSError) as exc:
        # a missing or unreadable input, or an unwritable output, is an
        # error record like any other, not a traceback
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
