"""Command-line surface and netlist round trips."""
import copy
import json
import math
import os

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import MALFORMED_DATASETS, random_topology, write_malformed_dataset
from ptcsearch import ConfigError, footprint_exact, load_pdk
from ptcsearch import cli as cli_module
from ptcsearch import search as search_module
from ptcsearch.cli import baseline_footprint, main
from ptcsearch.netlist import (
    doc_to_topology,
    dumps_canonical,
    read_netlist,
    topology_to_doc,
    write_netlist,
)

BASELINE_ROWS = [
    ("mzi", 8, "amf", 1909),
    ("mzi", 16, "amf", 7683),
    ("mzi", 32, "amf", 30829),
    ("fft", 8, "amf", 363),
    ("fft", 16, "amf", 972),
    ("fft", 32, "amf", 2443),
    ("mzi", 16, "aim", 4480),
    ("fft", 16, "aim", 1007),
]


# ---------------------------------------------------------------------------
# netlist round trips

def _netlist_doc(seed=0):
    topo = random_topology(8, 2, 2, np.random.default_rng(seed))
    return topology_to_doc(topo, load_pdk("amf"), {"seed": seed})


def test_netlist_round_trip_byte_identical(tmp_path):
    doc = _netlist_doc()
    path1 = tmp_path / "a.json"
    path2 = tmp_path / "b.json"
    write_netlist(path1, doc)
    reloaded = read_netlist(path1)
    topo = doc_to_topology(reloaded)
    write_netlist(path2, topology_to_doc(topo, load_pdk("amf"),
                                         reloaded.get("provenance")))
    assert path1.read_bytes() == path2.read_bytes()


def test_netlist_reload_passes_invariants(tmp_path):
    doc = _netlist_doc(seed=1)
    path = tmp_path / "net.json"
    write_netlist(path, doc)
    topo = doc_to_topology(read_netlist(path))
    pdk = load_pdk("amf")
    assert footprint_exact(topo, pdk) == doc["footprint"]["area_um2"]


def test_netlist_tampered_permutation_rejected():
    doc = _netlist_doc(seed=2)
    doc["unitaries"]["u"][0]["cr"] = [0, 0, 1, 2, 3, 4, 5, 6]
    with pytest.raises(ConfigError, match="cr not a permutation"):
        doc_to_topology(doc)


def test_netlist_tampered_footprint_rejected():
    doc = _netlist_doc(seed=3)
    doc["footprint"]["area_um2"] += 1.0
    with pytest.raises(ConfigError, match="footprint"):
        doc_to_topology(doc)


def test_netlist_missing_field_rejected():
    doc = _netlist_doc(seed=4)
    del doc["footprint"]
    with pytest.raises(ConfigError, match="footprint"):
        doc_to_topology(doc)


# ---------------------------------------------------------------------------
# footprint command

@pytest.mark.parametrize("name,size,pdk,expected", BASELINE_ROWS)
def test_baseline_footprints(name, size, pdk, expected):
    _, rounded = baseline_footprint(name, size, pdk)
    assert rounded == expected


@pytest.mark.parametrize("name,size,pdk,expected", BASELINE_ROWS)
def test_footprint_command(capsys, name, size, pdk, expected):
    code = main(["footprint", "--baseline", name, "--size", str(size),
                 "--pdk", pdk, "--seed", "0"])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1].endswith(f",{expected}")


def test_footprint_unknown_baseline_size(capsys):
    code = main(["footprint", "--baseline", "mzi", "--size", "12",
                 "--pdk", "amf", "--seed", "0"])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert "unknown baseline" in err["message"]


# ---------------------------------------------------------------------------
# search / eval / report commands

def _write_config(path, f_min=240_000.0, f_max=300_000.0, pdk="amf"):
    doc = {
        "k": 8,
        "pdk": pdk,
        "f_min": f_min,
        "f_max": f_max,
        "schedule": {"warmup_epochs": 1, "spl_epoch": 2, "total_epochs": 4,
                     "steps_per_epoch": 4},
        "task": {"kind": "matrix_fit", "target": "random_unitary"},
    }
    path.write_text(yaml.safe_dump(doc))


def test_search_command_emits_valid_netlist(tmp_path, capsys):
    config = tmp_path / "run.yaml"
    _write_config(config)
    out = tmp_path / "net.json"
    report = tmp_path / "report.json"
    log = tmp_path / "log.jsonl"
    code = main(["search", "--config", str(config), "--seed", "11",
                 "--out", str(out), "--report", str(report), "--log", str(log)])
    assert code == 0
    topo = doc_to_topology(read_netlist(out))
    area = footprint_exact(topo, load_pdk("amf"))
    assert 240_000.0 <= area <= 300_000.0
    rep = json.loads(report.read_text())
    assert rep["footprint_um2"] == area
    assert set(rep["devices"]) == {"n_cr", "n_dc", "n_blk"}
    assert len(log.read_text().strip().splitlines()) == 4
    capsys.readouterr()


def test_search_command_deterministic(tmp_path, capsys):
    config = tmp_path / "run.yaml"
    _write_config(config)
    blobs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["search", "--config", str(config), "--seed", "42",
                     "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    capsys.readouterr()
    assert blobs[0] == blobs[1]


def test_custom_pdk_netlist_is_read_by_every_command(tmp_path, capsys):
    # the PDK's name is neither a builtin nor its file's path, so the netlist
    # carries the PDK document itself, and needs the file no more
    pdk_doc = {"name": "custom", "f_ps": 6800.5, "f_dc": 1500.25, "f_cr": 64.0}
    pdk_path = tmp_path / "custom.yaml"
    pdk_path.write_text(yaml.safe_dump(pdk_doc))
    config = tmp_path / "run.yaml"
    _write_config(config, pdk=str(pdk_path))
    net = tmp_path / "net.json"
    assert main(["search", "--config", str(config), "--seed", "3",
                 "--out", str(net)]) == 0
    doc = read_netlist(net)
    assert doc["pdk"] == pdk_doc
    pdk_path.unlink()
    capsys.readouterr()
    assert main(["report", "--netlist", str(net), "--seed", "0"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["pdk"] == "custom"
    assert rep["footprint_um2"] == doc["footprint"]["area_um2"]
    assert main(["footprint", "--netlist", str(net), "--seed", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("netlist,8,amf,")
    assert main(["eval", "--netlist", str(net), "--seed", "0", "--train-steps",
                 "2", "--trials", "2", "--sigma-grid", "0"]) == 0
    capsys.readouterr()


def test_netlist_names_a_pdk_only_when_it_is_the_builtin():
    topo = random_topology(8, 2, 2, np.random.default_rng(6))
    assert topology_to_doc(topo, load_pdk("amf"))["pdk"] == "amf"
    # a builtin's name with other areas is not that builtin
    renamed = {"name": "amf", "f_ps": 1.0, "f_dc": 2.0, "f_cr": 3.0}
    doc = topology_to_doc(topo, load_pdk(renamed))
    assert doc["pdk"] == renamed
    assert doc["footprint"]["area_um2"] == footprint_exact(topo, load_pdk(renamed))
    assert doc_to_topology(json.loads(dumps_canonical(doc))).pdk_name == "amf"


def test_search_command_infeasible_window(tmp_path, capsys):
    config = tmp_path / "run.yaml"
    _write_config(config, f_min=10.0, f_max=20.0)
    code = main(["search", "--config", str(config), "--seed", "0",
                 "--out", str(tmp_path / "net.json")])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "InfeasibleError"


def test_search_config_missing_key(tmp_path, capsys):
    config = tmp_path / "run.yaml"
    config.write_text(yaml.safe_dump({"k": 8, "pdk": "amf", "f_min": 1.0}))
    code = main(["search", "--config", str(config), "--seed", "0",
                 "--out", str(tmp_path / "net.json")])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert "f_max" in err["message"]


def _no_training(*args, **kwargs):
    raise AssertionError("a malformed config reached training")


TINY_SCHEDULE = {"warmup_epochs": 1, "spl_epoch": 2, "total_epochs": 4,
                 "steps_per_epoch": 1}

MALFORMED_RUN_CONFIGS = {
    "k.not_a_number": {"k": "eight"},
    "schedule.not_a_mapping": {"schedule": 5},
    "schedule.order": {"schedule": {"warmup_epochs": 60}},
    "schedule.unknown_key": {"schedule": {"warmup": 1}},
    "schedule.steps_per_epoch": {"schedule": dict(TINY_SCHEDULE, steps_per_epoch=0)},
    "schedule.weight_arch_ratio": {"schedule": dict(TINY_SCHEDULE, weight_arch_ratio=-1)},
    "schedule.tau_start": {"schedule": dict(TINY_SCHEDULE, tau_start=0)},
    "schedule.tau_end": {"schedule": dict(TINY_SCHEDULE, tau_end=0)},
    "schedule.lr_not_a_number": {"schedule": dict(TINY_SCHEDULE, lr="abc")},
    "schedule.lr_negative": {"schedule": dict(TINY_SCHEDULE, lr=-1e-3)},
    "schedule.arch_lr_negative": {"schedule": dict(TINY_SCHEDULE, arch_lr=-1)},
    "schedule.steps_per_epoch_fraction": {"schedule": dict(TINY_SCHEDULE,
                                                           steps_per_epoch=1.5)},
    "schedule.weight_decay_negative": {"schedule": dict(TINY_SCHEDULE,
                                                        weight_decay=-1e-4)},
    "rho0.not_a_number": {"rho0": "abc"},
    "rho0.negative": {"rho0": -1},
    "task.not_a_mapping": {"task": 5},
    "task.classify_without_path": {"task": {"kind": "classify"}},
    "k.fraction": {"k": 8.5},
    "margin.nan": {"margin": math.nan},
    "beta.nan": {"beta": math.nan},
    "beta.inf": {"beta": math.inf},
    "f_max.inf": {"f_max": math.inf},
    "pdk.list": {"pdk": [1]},
    "k.huge": {"k": 10 ** 300},
    "task.split_leaves_no_training_rows":
        lambda tmp_path: {"task": _two_row_task(tmp_path, split=0.2)},
    "task.split_leaves_no_validation_rows":
        lambda tmp_path: {"task": _two_row_task(tmp_path, split=0.8)},
}


def _two_row_task(tmp_path, split):
    data = tmp_path / "two-rows.csv"
    data.write_text("f0,f1,label\n0.1,0.2,0\n0.3,0.4,1\n")
    return {"kind": "classify", "path": str(data), "split": split}


@pytest.mark.parametrize("case", sorted(MALFORMED_RUN_CONFIGS))
def test_malformed_run_config_gives_json_error(tmp_path, capsys, monkeypatch, case):
    doc = {"k": 8, "pdk": "amf", "f_min": 240_000.0, "f_max": 300_000.0,
           "schedule": TINY_SCHEDULE}
    edit = MALFORMED_RUN_CONFIGS[case]
    doc.update(edit(tmp_path) if callable(edit) else edit)
    config = tmp_path / "run.yaml"
    config.write_text(yaml.safe_dump(doc))
    monkeypatch.setattr(search_module, "search_step", _no_training)
    out = tmp_path / "net.json"
    code = main(["search", "--config", str(config), "--seed", "0",
                 "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.strip())["error"] == "ConfigError"
    assert not out.exists()


def test_schedule_rates_in_exponent_notation_are_numbers(tmp_path, capsys,
                                                         monkeypatch):
    # PyYAML reads 1e-3 (no decimal point) as a string
    text = ("k: 8\npdk: amf\nf_min: 240000\nf_max: 300000\nschedule:\n"
            "  warmup_epochs: 1\n  spl_epoch: 2\n  total_epochs: 4\n"
            "  steps_per_epoch: 1\n  lr: 1e-3\n  arch_lr: 25e-3\n")
    assert yaml.safe_load(text)["schedule"]["lr"] == "1e-3"
    config = tmp_path / "run.yaml"
    config.write_text(text)
    schedules = []

    def recording(config, schedule, *args):
        schedules.append(schedule)
        return search_module.run_search(config, schedule, *args)

    monkeypatch.setattr(cli_module, "run_search", recording)
    assert main(["search", "--config", str(config), "--seed", "0",
                 "--out", str(tmp_path / "net.json")]) == 0
    capsys.readouterr()
    assert (schedules[0].lr, schedules[0].arch_lr) == (0.001, 0.025)


def _emit_netlist(tmp_path, seed=5):
    path = tmp_path / "net.json"
    write_netlist(path, _netlist_doc(seed))
    return path


def test_eval_command_single_sigma_csv(tmp_path, capsys):
    net = _emit_netlist(tmp_path)
    out = tmp_path / "metrics.csv"
    code = main(["eval", "--netlist", str(net), "--seed", "3",
                 "--sigma-grid", "0", "--trials", "3", "--train-steps", "20",
                 "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "sigma,mean_metric,std_metric,n_cr,n_dc,n_blk"
    assert len(lines) == 2
    topo = doc_to_topology(read_netlist(net))
    n_cr, n_dc, n_blk = topo.device_counts()
    assert lines[1].endswith(f",{n_cr},{n_dc},{n_blk}")


def test_eval_classify_task_without_path_gives_json_error(tmp_path, capsys,
                                                         monkeypatch):
    net = _emit_netlist(tmp_path)
    task = tmp_path / "task.yaml"
    task.write_text(yaml.safe_dump({"kind": "classify"}))
    monkeypatch.setattr(cli_module, "variation_aware_train", _no_training)
    out = tmp_path / "sweep.csv"
    code = main(["eval", "--netlist", str(net), "--seed", "3",
                 "--task", str(task), "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.strip())["error"] == "ConfigError"
    assert not out.exists()


@pytest.mark.parametrize("case", MALFORMED_DATASETS)
def test_eval_malformed_dataset_gives_json_error_before_training(
        tmp_path, capsys, monkeypatch, case):
    net = _emit_netlist(tmp_path)
    path, fmt, labels_path, named = write_malformed_dataset(tmp_path, case)
    task_doc = {"kind": "classify", "path": path, "format": fmt}
    if labels_path is not None:
        task_doc["labels_path"] = labels_path
    task = tmp_path / "task.yaml"
    task.write_text(yaml.safe_dump(task_doc))
    monkeypatch.setattr(cli_module, "variation_aware_train", _no_training)
    out = tmp_path / "sweep.csv"
    code = main(["eval", "--netlist", str(net), "--seed", "3",
                 "--task", str(task), "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    record = json.loads(captured.err.strip())
    assert record["error"] == "ConfigError"
    assert str(named) in record["message"]
    assert not out.exists()


def test_eval_command_rejects_tampered_netlist(tmp_path, capsys):
    net = _emit_netlist(tmp_path, seed=6)
    doc = read_netlist(net)
    doc["unitaries"]["v"][0]["cr"][0] = doc["unitaries"]["v"][0]["cr"][1]
    net.write_text(json.dumps(doc))
    code = main(["eval", "--netlist", str(net), "--seed", "3",
                 "--sigma-grid", "0", "--trials", "3", "--train-steps", "5"])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert "cr not a permutation" in err["message"]


@pytest.mark.parametrize("grid, error", [("0,-0.01", "DomainError"),
                                         ("0,nan", "DomainError"),
                                         ("0,abc", "ConfigError")])
def test_eval_command_rejects_bad_sigma_grid(tmp_path, capsys, grid, error):
    net = _emit_netlist(tmp_path, seed=8)
    out = tmp_path / "metrics.csv"
    code = main(["eval", "--netlist", str(net), "--seed", "3",
                 "--sigma-grid", grid, "--trials", "3", "--train-steps", "5",
                 "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert json.loads(captured.err.strip())["error"] == error
    assert captured.out == "" and not out.exists()


def test_report_command(tmp_path, capsys):
    net = _emit_netlist(tmp_path, seed=7)
    code = main(["report", "--netlist", str(net), "--seed", "0"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    topo = doc_to_topology(read_netlist(net))
    n_cr, n_dc, n_blk = topo.device_counts()
    assert rep["devices"] == {"n_cr": n_cr, "n_dc": n_dc, "n_blk": n_blk}


def test_report_footprint_matches_netlist_area(tmp_path, capsys):
    # non-integer device areas: summing per block and multiplying totals
    # round differently, and the report must print the netlist's own area
    pdk_path = tmp_path / "fractional.yaml"
    pdk_path.write_text(yaml.safe_dump({"name": str(pdk_path), "f_ps": 6800.3,
                                        "f_dc": 1500.7, "f_cr": 64.1}))
    topo = random_topology(8, 3, 3, np.random.default_rng(2))
    net = tmp_path / "net.json"
    write_netlist(net, topology_to_doc(topo, load_pdk(str(pdk_path)), {"seed": 2}))
    doc = read_netlist(net)
    code = main(["report", "--netlist", str(net), "--seed", "0"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["footprint_um2"] == doc["footprint"]["area_um2"]


def _drop(*path):
    """Edit that deletes the field at path from a netlist document."""
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        del doc[path[-1]]
    return edit


MALFORMED_NETLISTS = {
    "unitaries.u": _drop("unitaries", "u"),
    "unitaries.v": _drop("unitaries", "v"),
    "block.ps": _drop("unitaries", "u", 0, "ps"),
    "block.dc": _drop("unitaries", "v", 1, "dc"),
    "block.dc.mask": _drop("unitaries", "u", 1, "dc", "mask"),
    "block.dc.offset": _drop("unitaries", "v", 0, "dc", "offset"),
    "block.cr": _drop("unitaries", "u", 0, "cr"),
    "footprint.n_blocks": _drop("footprint", "n_blocks"),
    "footprint.n_dc": _drop("footprint", "n_dc"),
    "footprint.n_cr": _drop("footprint", "n_cr"),
    "footprint.area_um2": _drop("footprint", "area_um2"),
    "ps.not_numbers": lambda doc: doc["unitaries"]["u"][0].update(ps=["x"] * 8),
    "unitaries.not_a_mapping": lambda doc: doc.update(unitaries=[]),
    "pdk.unknown": lambda doc: doc.update(pdk="no-such-pdk"),
    "truncated": None,
    "pdk.list": lambda doc: doc.update(pdk=[]),
    "pdk.zero": lambda doc: doc.update(pdk=0),
    "pdk.null": lambda doc: doc.update(pdk=None),
    "k.fraction": lambda doc: doc.update(k=8.7),
    "version.true": lambda doc: doc.update(version=True),
    "block.dc.offset_fraction":
        lambda doc: doc["unitaries"]["u"][0]["dc"].update(offset=0.5),
    "block.dc.mask_string": lambda doc: doc["unitaries"]["u"][0]["dc"].update(
        mask="x" * len(doc["unitaries"]["u"][0]["dc"]["mask"])),
    "ps.nan": lambda doc: doc["unitaries"]["v"][0]["ps"].__setitem__(2, math.nan),
    "ps.inf": lambda doc: doc["unitaries"]["v"][1]["ps"].__setitem__(0, math.inf),
}

NETLIST_COMMANDS = {
    "report": [],
    "eval": ["--train-steps", "5", "--trials", "2"],
    "footprint": [],
}


@pytest.mark.parametrize("command", sorted(NETLIST_COMMANDS))
@pytest.mark.parametrize("case", sorted(MALFORMED_NETLISTS))
def test_malformed_netlist_gives_json_error(tmp_path, capsys, case, command):
    net = _emit_netlist(tmp_path, seed=9)
    if MALFORMED_NETLISTS[case] is None:
        net.write_text(net.read_text()[:200])
    else:
        doc = read_netlist(net)
        MALFORMED_NETLISTS[case](doc)
        net.write_text(json.dumps(doc))
    code = main([command, "--netlist", str(net), "--seed", "0"]
                + NETLIST_COMMANDS[command])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.strip())["error"] == "ConfigError"


@pytest.mark.parametrize("checkpoint", [
    '{"k": 4}',
    '{"p_raw": [[[1, 0], [0, 1]]]}',
    '{"k": 2, "p_raw": [[[1, 0], [0, 1]]',
    '{"k": 2, "p_raw": [[1, 0], [0, 1]]}',
    '{"k": 2, "p_raw": [[[1, 0], [0]]]}',
    '[1, 2]',
])
def test_malformed_checkpoint_gives_json_error(tmp_path, capsys, checkpoint):
    path = tmp_path / "ckpt.json"
    path.write_text(checkpoint)
    code = main(["legalize", "--checkpoint", str(path), "--seed", "0"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.strip())["error"] == "ConfigError"


def _missing_file_args(tmp_path):
    """Per command, arguments naming one file that does not exist (or an
    output under a directory that does not exist); every other file is
    valid."""
    config = tmp_path / "run.yaml"
    config.write_text(yaml.safe_dump({"k": 8, "pdk": "amf", "f_min": 240_000.0,
                                      "f_max": 300_000.0,
                                      "schedule": {"steps_per_epoch": 1}}))
    net = str(_emit_netlist(tmp_path))
    missing = str(tmp_path / "missing.json")
    return {
        "report": ["report", "--netlist", missing],
        "eval": ["eval", "--netlist", missing],
        "footprint": ["footprint", "--netlist", missing],
        "legalize": ["legalize", "--checkpoint", missing],
        "search-config": ["search", "--config", missing, "--out", net],
        "eval-task": ["eval", "--netlist", net, "--task", missing],
        "search-out": ["search", "--config", str(config),
                       "--out", str(tmp_path / "no-such-dir" / "net.json")],
    }


@pytest.mark.parametrize("case", ["report", "eval", "footprint", "legalize",
                                  "search-config", "eval-task", "search-out"])
def test_missing_file_gives_json_error(tmp_path, capsys, case):
    code = main(_missing_file_args(tmp_path)[case] + ["--seed", "0"])
    assert code == 1
    captured = capsys.readouterr()
    err = json.loads(captured.err.strip())
    assert err["error"] == "FileNotFoundError"
    assert "No such file or directory" in err["message"]


def test_legalize_command(tmp_path, capsys):
    rng = np.random.default_rng(8)
    checkpoint = tmp_path / "ckpt.json"
    checkpoint.write_text(json.dumps(
        {"k": 4, "p_raw": [rng.uniform(0.0, 1.0, (4, 4)).tolist()
                           for _ in range(2)]}))
    out = tmp_path / "perms.json"
    code = main(["legalize", "--checkpoint", str(checkpoint), "--seed", "1",
                 "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    for perm in doc["permutations"]:
        assert sorted(perm) == [0, 1, 2, 3]


def _legalize_saddle(tmp_path, capsys, seed, *budget):
    """Run legalize on a one-matrix 2 x 2 saddle checkpoint; returns (exit
    code, captured output, output path)."""
    checkpoint = tmp_path / "saddle.json"
    checkpoint.write_text(json.dumps({"k": 2, "p_raw": [[[0.5, 0.5],
                                                         [0.5, 0.5]]]}))
    out = tmp_path / f"perms-{seed}.json"
    code = main(["legalize", "--checkpoint", str(checkpoint),
                 "--seed", str(seed), "--out", str(out), *budget])
    return code, capsys.readouterr(), out


def test_legalize_one_attempt_fails_some_saddle_seeds_with_an_error_record(
        tmp_path, capsys):
    codes = []
    for seed in range(10):
        code, captured, out = _legalize_saddle(tmp_path, capsys, seed,
                                               "--max-attempts", "1")
        codes.append(code)
        if code == 0:
            assert sorted(json.loads(out.read_text())["permutations"][0]) == [0, 1]
        else:
            assert code == 1
            assert captured.out == ""
            assert json.loads(captured.err.strip())["error"] == "LegalizationError"
            assert not out.exists()
    assert 1 in codes


def test_legalize_default_budget_resolves_every_saddle_seed(tmp_path, capsys):
    for seed in range(10):
        code, _, out = _legalize_saddle(tmp_path, capsys, seed)
        assert code == 0
        assert sorted(json.loads(out.read_text())["permutations"][0]) == [0, 1]


def _failing_replace(src, dst):
    raise OSError("rename refused")


@pytest.mark.parametrize("writer", ["cli", "netlist"])
def test_failed_rename_leaves_no_temp_file(tmp_path, monkeypatch, capsys, writer):
    monkeypatch.setattr(os, "replace", _failing_replace)
    out = tmp_path / "out.json"
    if writer == "cli":
        # the CLI reports the failed write as a JSON error record
        checkpoint = tmp_path / "ckpt.json"
        checkpoint.write_text(json.dumps({"k": 2, "p_raw": [[[1.0, 0.0],
                                                             [0.0, 1.0]]]}))
        assert main(["legalize", "--checkpoint", str(checkpoint), "--seed", "1",
                     "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "OSError", "message": "rename refused"}
    else:
        with pytest.raises(OSError, match="rename refused"):
            write_netlist(out, _netlist_doc())
    capsys.readouterr()
    assert not out.exists()
    assert list(tmp_path.glob("*.tmp")) == []


def test_seed_flag_is_required(capsys):
    with pytest.raises(SystemExit):
        main(["footprint", "--baseline", "mzi", "--size", "8", "--pdk", "amf"])
    capsys.readouterr()


BAD_ARGUMENTS = {
    "search": ("search", "--seed", "-1", "--seed: must be nonnegative"),
    "eval": ("eval", "--seed", "-1", "--seed: must be nonnegative"),
    "legalize": ("legalize", "--seed", "-1", "--seed: must be nonnegative"),
    "eval-trials": ("eval", "--trials", "0", "--trials: must be >= 2"),
    "eval-train-steps": ("eval", "--train-steps", "-3",
                         "--train-steps: must be nonnegative"),
    "legalize-max-attempts": ("legalize", "--max-attempts", "0",
                              "--max-attempts: must be >= 1"),
}


@pytest.mark.parametrize("case", sorted(BAD_ARGUMENTS))
def test_negative_seed_is_an_argument_error(tmp_path, capsys, case):
    # numpy's generators take no negative seed: argparse rejects it, as it
    # does a seed that is not an integer, before any input is read; so it
    # does a count below its bound (--trials, --train-steps, --max-attempts)
    command, flag, value, message = BAD_ARGUMENTS[case]
    config = tmp_path / "run.yaml"
    config.write_text(yaml.safe_dump({"k": 8, "pdk": "amf", "f_min": 240_000.0,
                                      "f_max": 300_000.0,
                                      "schedule": TINY_SCHEDULE}))
    checkpoint = tmp_path / "ckpt.json"
    checkpoint.write_text(json.dumps({"k": 2, "p_raw": [[[1.0, 0.0],
                                                         [0.0, 1.0]]]}))
    args = {"search": ["--config", str(config), "--out", str(tmp_path / "o.json")],
            "eval": ["--netlist", str(_emit_netlist(tmp_path)),
                     "--train-steps", "1", "--trials", "2"],
            "legalize": ["--checkpoint", str(checkpoint)]}
    seed = [] if flag == "--seed" else ["--seed", "0"]
    with pytest.raises(SystemExit) as exc:
        main([command] + args[command] + seed + [flag, value])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_canonical_dump_stable():
    doc = _netlist_doc(seed=9)
    assert dumps_canonical(doc) == dumps_canonical(json.loads(dumps_canonical(doc)))


# ---------------------------------------------------------------------------
# fuzz: one field of a valid input document changed or dropped

HOSTILE = (None, "x", -1, 1.5, [], {}, math.nan, math.inf, True, 10**6, 0)
DROP = object()
SEARCH_STEP = search_module.search_step


class _LongRun(Exception):
    """A fuzzed run config was accepted and trains longer than the valid one."""


def _capped_search_step(limit):
    calls = []

    def step(*args, **kwargs):
        calls.append(None)
        if len(calls) > limit:
            raise _LongRun
        return SEARCH_STEP(*args, **kwargs)
    return step


def _field_paths(doc, prefix=()):
    """The path (keys and list indices) of every field nested in doc."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _field_paths(value, prefix + (key,))


def _fuzz_inputs(tmp_path):
    """Per command: the valid documents it reads, by file name, and its
    arguments. Every command exits 0 on these documents."""
    rng = np.random.default_rng(0)
    data = tmp_path / "data.csv"
    rows = [",".join([f"f{i}" for i in range(8)] + ["label"])]
    rows += [",".join([f"{v:.3f}" for v in rng.uniform(size=8)] + [str(i % 3)])
             for i in range(12)]
    data.write_text("\n".join(rows) + "\n")
    run = {"k": 8, "pdk": str(tmp_path / "pdk.yaml"), "f_min": 240_000.0,
           "f_max": 300_000.0, "margin": 0.05, "beta": 10.0, "beta_cr": 100.0,
           "rho0": 1.0, "schedule": {
               "warmup_epochs": 0, "spl_epoch": 1, "total_epochs": 2,
               "steps_per_epoch": 1, "weight_arch_ratio": 3, "tau_start": 5.0,
               "tau_end": 0.5, "lr": 1e-3, "arch_lr": 0.025,
               "weight_decay": 1e-4, "arch_weight_decay": 5e-4},
           "task": {"kind": "matrix_fit", "target": "random_unitary"}}
    pdk = {"name": "amf-copy", "f_ps": 6800.0, "f_dc": 1500.0, "f_cr": 64.0}
    task = {"kind": "classify", "path": str(data), "format": "csv",
            "split": 0.75, "split_seed": 1}
    net = _netlist_doc(seed=10)
    checkpoint = {"k": 3, "p_raw": rng.uniform(size=(2, 3, 3)).tolist()}
    path = {name: str(tmp_path / name) for name in
            ("run.yaml", "net.json", "task.yaml", "ckpt.json", "out.json")}
    return {
        "search": ({"run.yaml": run, "pdk.yaml": pdk},
                   ["search", "--config", path["run.yaml"], "--out", path["out.json"]]),
        "eval": ({"net.json": net, "task.yaml": task},
                 ["eval", "--netlist", path["net.json"], "--task", path["task.yaml"],
                  "--sigma-grid", "0,0.01", "--train-steps", "2", "--trials", "2"]),
        "report": ({"net.json": net}, ["report", "--netlist", path["net.json"]]),
        "footprint": ({"net.json": net},
                      ["footprint", "--netlist", path["net.json"]]),
        "legalize": ({"ckpt.json": checkpoint},
                     ["legalize", "--checkpoint", path["ckpt.json"]]),
    }


def _write_documents(tmp_path, docs):
    for name, doc in docs.items():
        text = yaml.safe_dump(doc) if name.endswith(".yaml") else json.dumps(doc)
        (tmp_path / name).write_text(text)


@pytest.mark.parametrize("command", ["search", "eval", "report", "footprint",
                                     "legalize"])
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_document_exits_0_or_1_with_one_error_record(
        tmp_path, capsys, monkeypatch, command, data):
    docs, argv = _fuzz_inputs(tmp_path)[command]
    name = data.draw(st.sampled_from(sorted(docs)))
    field = data.draw(st.sampled_from(list(_field_paths(docs[name]))))
    value = data.draw(st.sampled_from(HOSTILE + (DROP,)))
    parent = docs[name]
    for key in field[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[field[-1]]
    else:
        parent[field[-1]] = copy.deepcopy(value)
    _write_documents(tmp_path, docs)
    # a fuzzed schedule may ask for 10**6 epochs: past the valid config's two
    # steps, training counts as accepted input
    monkeypatch.setattr(search_module, "search_step", _capped_search_step(2))
    capsys.readouterr()
    try:
        code = main(argv + ["--seed", "0"])
    except _LongRun:
        code = 0
    captured = capsys.readouterr()
    assert code in (0, 1)
    if code == 1:
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert set(json.loads(lines[0])) == {"error", "message"}


@pytest.mark.parametrize("command", ["search", "eval", "report", "footprint",
                                     "legalize"])
def test_fuzz_inputs_are_valid(tmp_path, capsys, command):
    docs, argv = _fuzz_inputs(tmp_path)[command]
    _write_documents(tmp_path, docs)
    assert main(argv + ["--seed", "0"]) == 0
    capsys.readouterr()
