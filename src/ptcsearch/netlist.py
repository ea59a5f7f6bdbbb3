"""Versioned netlist documents: export/import of legalized topologies."""
import hashlib
import json
import os
import tempfile

import numpy as np

from .errors import ConfigError
from .pdk import PdkSpec, footprint_exact, load_pdk
from .topology import TopoBlock, Topology, n_coupler_slots

NETLIST_VERSION = 1


def _block_doc(block: TopoBlock) -> dict:
    return {
        "ps": [float(v) for v in block.phases],
        "dc": {"mask": [int(v) for v in block.coupler_mask],
               "offset": int(block.offset)},
        "cr": [int(v) for v in block.perm],
    }


def topology_to_doc(topology: Topology, pdk: PdkSpec, provenance=None) -> dict:
    n_cr, n_dc, n_blk = topology.device_counts()
    return {
        "version": NETLIST_VERSION,
        "k": topology.k,
        "pdk": pdk.name,
        "unitaries": {
            "u": [_block_doc(b) for b in topology.blocks_u],
            "v": [_block_doc(b) for b in topology.blocks_v],
        },
        "footprint": {
            "n_blocks": n_blk,
            "n_dc": n_dc,
            "n_cr": n_cr,
            "area_um2": footprint_exact(topology, pdk),
        },
        "provenance": provenance or {},
    }


def _field(mapping, key: str, where: str = ""):
    """mapping[key] of a parsed document; ConfigError names a missing field,
    or a parent that is not a mapping, by its dotted path."""
    name = f"{where}.{key}" if where else key
    if not isinstance(mapping, dict) or key not in mapping:
        raise ConfigError(f"netlist is missing field '{name}'")
    return mapping[key]


def doc_to_topology(doc: dict) -> Topology:
    """Validate and rebuild a topology; raises ConfigError on violations."""
    for key in ("version", "k", "pdk", "unitaries", "footprint"):
        _field(doc, key)
    if doc["version"] != NETLIST_VERSION:
        raise ConfigError(f"unsupported netlist version {doc['version']}")
    try:
        k = int(doc["k"])
    except (TypeError, ValueError):
        raise ConfigError(f"netlist k {doc['k']!r} is not an integer") from None

    def parse_blocks(name):
        entries = _field(doc["unitaries"], name, "unitaries")
        if not isinstance(entries, list):
            raise ConfigError(f"netlist field 'unitaries.{name}' must be a list")
        blocks = []
        for i, entry in enumerate(entries):
            where = f"unitaries.{name}[{i}]"
            perm = _field(entry, "cr", where)
            dc = _field(entry, "dc", where)
            mask = _field(dc, "mask", where + ".dc")
            offset = _field(dc, "offset", where + ".dc")
            phases = _field(entry, "ps", where)
            try:
                if sorted(perm) != list(range(k)):
                    raise ConfigError("cr not a permutation")
                offset = int(offset)
                if len(mask) != n_coupler_slots(k, offset):
                    raise ConfigError("dc mask length does not match K and offset")
                if len(phases) != k:
                    raise ConfigError("ps column must hold K phases")
                blocks.append(TopoBlock(
                    phases=np.asarray(phases, dtype=float),
                    coupler_mask=np.asarray(mask, dtype=bool),
                    offset=offset,
                    perm=np.asarray(perm, dtype=int),
                ))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"netlist block {where} is malformed: {exc}") \
                    from None
        return blocks

    topology = Topology(
        k=k,
        pdk_name=str(doc["pdk"]),
        blocks_u=parse_blocks("u"),
        blocks_v=parse_blocks("v"),
    )
    pdk = load_pdk(doc["pdk"])
    fp = doc["footprint"]
    claimed = tuple(_field(fp, key, "footprint")
                    for key in ("n_blocks", "n_dc", "n_cr", "area_um2"))
    n_cr, n_dc, n_blk = topology.device_counts()
    if claimed[:3] != (n_blk, n_dc, n_cr):
        raise ConfigError("netlist device counts do not match its blocks")
    if claimed[3] != footprint_exact(topology, pdk):
        raise ConfigError("netlist footprint summary does not match its counts")
    return topology


def dumps_canonical(doc: dict) -> str:
    """Stable text form used for byte-identical round trips."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_netlist(path, doc: dict):
    """Write the canonical text of doc atomically."""
    atomic_write_text(path, dumps_canonical(doc))


def atomic_write_text(path, text: str):
    """Atomic write: temp file in the target directory, then rename. The temp
    file is removed if the write or the rename fails."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read_json(path):
    """Parse a JSON file; ConfigError if its text is not JSON."""
    with open(path, "r") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:   # JSONDecodeError, UnicodeDecodeError
            raise ConfigError(f"{path} is not a JSON document: {exc}") from None


def read_netlist(path) -> dict:
    """Parse a netlist file (validate it with doc_to_topology)."""
    return read_json(path)


def config_hash(config_doc) -> str:
    blob = json.dumps(config_doc, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
