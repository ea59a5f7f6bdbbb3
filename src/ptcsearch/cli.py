"""Command-line surface: search, eval, footprint, legalize, report."""
import argparse
import dataclasses
import json
import sys

import numpy as np
import yaml

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
    footprint_exact,
    footprint_from_counts,
    load_pdk,
)
from .permutation import SplConfig, perm_matrix_to_array, spl_legalize
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
    pdk = load_pdk(pdk_name)
    n_blk, n_dc, n_cr = BASELINE_COUNTS[key]
    area = footprint_from_counts(pdk, size, n_blk, n_dc, n_cr)
    return area, round(area / 1000.0)


def _build_task(task_doc: dict, k: int, rng):
    if not isinstance(task_doc, dict):
        raise ConfigError("task must be a mapping")
    kind = task_doc.get("kind", "matrix_fit")
    if kind == "matrix_fit":
        target_kind = task_doc.get("target", "random_unitary")
        if target_kind == "random_unitary":
            return MatrixFitTask(random_unitary(k, rng))
        raise PtcError(f"unknown matrix-fit target '{target_kind}'")
    if kind == "classify":
        if "path" not in task_doc:
            raise ConfigError("classify task is missing 'path'")
        return load_dataset(task_doc["path"], fmt=task_doc.get("format", "csv"),
                            split=float(task_doc.get("split", 0.8)),
                            seed=int(task_doc.get("split_seed", 0)),
                            labels_path=task_doc.get("labels_path"))
    raise PtcError(f"unknown task kind '{kind}'")


def _load_run_config(path):
    with open(path, "r") as fh:
        doc = yaml.safe_load(fh)
    if not isinstance(doc, dict):
        raise PtcError("run config must be a mapping")
    for key in ("k", "pdk", "f_min", "f_max"):
        if key not in doc:
            raise PtcError(f"run config is missing '{key}'")
    return doc


def _number(doc, key, kind, default=None):
    """Run-config field `key` (or default) converted by kind (int or float)."""
    try:
        return kind(doc.get(key, default))
    except (TypeError, ValueError):
        raise ConfigError(f"run config '{key}' is not a number") from None


def _schedule(doc):
    schedule = doc.get("schedule", {})
    if not isinstance(schedule, dict):
        raise ConfigError("run config 'schedule' must be a mapping")
    # YAML reads 1e-3 as a string: convert the float fields as _number does;
    # the integer fields are checked, not rounded, by SearchSchedule
    float_fields = {f.name for f in dataclasses.fields(SearchSchedule)
                    if f.type is float}
    schedule = {key: _number(schedule, key, float) if key in float_fields
                else value for key, value in schedule.items()}
    try:
        return SearchSchedule(**schedule)
    except TypeError as exc:   # an unknown key
        raise ConfigError(f"run config 'schedule': {exc}") from None


def cmd_search(args):
    doc = _load_run_config(args.config)
    rng = np.random.default_rng(args.seed)
    k = _number(doc, "k", int)
    constraint = FootprintConstraint(_number(doc, "f_min", float),
                                     _number(doc, "f_max", float),
                                     margin=_number(doc, "margin", float, 0.05))
    penalty = PenaltyConfig(beta=_number(doc, "beta", float, 10.0),
                            beta_cr=_number(doc, "beta_cr", float, 100.0))
    schedule = _schedule(doc)
    config = SearchConfig(k=k, pdk=doc["pdk"], constraint=constraint,
                          penalty=penalty,
                          rho0=None if doc.get("rho0") is None
                          else _number(doc, "rho0", float))
    task = _build_task(doc.get("task", {}), k, np.random.default_rng(args.seed + 1))
    mesh, topology, logs = run_search(config, schedule, task, rng)
    pdk = load_pdk(doc["pdk"])
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
    if args.task:
        with open(args.task, "r") as fh:
            task_doc = yaml.safe_load(fh)
    else:
        task_doc = {"kind": "matrix_fit", "target": "random_unitary"}
    task = _build_task(task_doc, topology.k, np.random.default_rng(args.seed + 1))
    sigmas = _parse_sigma_grid(args.sigma_grid)
    noise = NoiseModel(phase_sigma=args.train_sigma)
    mesh, metrics = variation_aware_train(topology, task, noise,
                                          steps=args.train_steps, rng=rng)
    rows = robustness_sweep(mesh, task, sigmas, max(2, args.trials), rng)
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
    doc = read_json(args.checkpoint)
    for key in ("k", "p_raw"):
        if not isinstance(doc, dict) or key not in doc:
            raise ConfigError(f"checkpoint is missing field '{key}'")
    try:
        p_raw = np.asarray(doc["p_raw"], dtype=float)
    except (TypeError, ValueError):
        raise ConfigError("checkpoint p_raw is not a numeric array") from None
    k = doc["k"]
    if p_raw.size and (p_raw.ndim != 3 or p_raw.shape[1:] != (k, k)):
        raise ConfigError("checkpoint p_raw must be a list of k x k matrices")
    rng = np.random.default_rng(args.seed)
    cfg = SplConfig(max_attempts=args.max_attempts)
    perms = []
    for raw in p_raw:
        legal = spl_legalize(raw, cfg, rng)
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


def nonnegative_int(text):
    """argparse type of --seed: numpy's generators take no negative seed."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ptcsearch",
        description="Footprint-constrained photonic tensor-core topology search.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", help="run a topology search")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=nonnegative_int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.add_argument("--log")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("eval", help="variation-aware retraining + noise sweep")
    p.add_argument("--netlist", required=True)
    p.add_argument("--seed", type=nonnegative_int, required=True)
    p.add_argument("--task")
    p.add_argument("--sigma-grid", default="0,0.01,0.02,0.04,0.08")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--train-steps", type=int, default=300)
    p.add_argument("--train-sigma", type=float, default=0.02)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("footprint", help="footprint of a netlist or baseline")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--netlist")
    group.add_argument("--baseline", choices=["mzi", "fft"])
    p.add_argument("--size", type=int, default=8)
    p.add_argument("--pdk", default="amf")
    p.add_argument("--seed", type=nonnegative_int, required=True)
    p.set_defaults(func=cmd_footprint)

    p = sub.add_parser("legalize", help="run SPL on a relaxed mesh checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--seed", type=nonnegative_int, required=True)
    p.add_argument("--max-attempts", type=int, default=200)
    p.add_argument("--out")
    p.set_defaults(func=cmd_legalize)

    p = sub.add_parser("report", help="summarize a netlist")
    p.add_argument("--netlist", required=True)
    p.add_argument("--seed", type=nonnegative_int, required=True)
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
