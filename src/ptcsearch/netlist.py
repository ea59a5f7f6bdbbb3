"""Versioned netlist documents: export/import of legalized topologies."""
import dataclasses
import hashlib
import json
import os
import tempfile

from . import schema
from .errors import ConfigError, DomainError
from .pdk import BUILTIN_PDKS, PdkSpec, footprint_exact, load_pdk
from .schema import NETLIST_VERSION
from .topology import TopoBlock, Topology


def _block_doc(block: TopoBlock) -> dict:
    return {
        "ps": [float(v) for v in block.phases],
        "dc": {"mask": [int(v) for v in block.coupler_mask],
               "offset": int(block.offset)},
        "cr": [int(v) for v in block.perm],
    }


def _pdk_source(pdk: PdkSpec):
    """The netlist's pdk field: a builtin's name, or any other PDK's document
    itself, which load_pdk reads back without the file it came from."""
    if BUILTIN_PDKS.get(pdk.name) == pdk:
        return pdk.name
    return dataclasses.asdict(pdk)


def topology_to_doc(topology: Topology, pdk: PdkSpec, provenance=None) -> dict:
    n_cr, n_dc, n_blk = topology.device_counts()
    return {
        "version": NETLIST_VERSION,
        "k": topology.k,
        "pdk": _pdk_source(pdk),
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


def doc_to_topology(doc: dict) -> Topology:
    """Validate and rebuild a topology; raises ConfigError on violations."""
    checked = schema.NETLIST(doc)
    k = checked["k"]

    def parse_blocks(name):
        blocks = []
        for i, entry in enumerate(checked["unitaries"][name]):
            where = f"unitaries.{name}[{i}]"
            if entry["ps"].shape != (k,):
                raise ConfigError(f"{where}.ps must hold k = {k} phases")
            try:
                blocks.append(TopoBlock(phases=entry["ps"],
                                        coupler_mask=entry["dc"]["mask"],
                                        offset=entry["dc"]["offset"],
                                        perm=entry["cr"]))
            except DomainError as exc:
                raise ConfigError(f"{where}: {exc}") from None
        return blocks

    blocks_u, blocks_v = parse_blocks("u"), parse_blocks("v")
    pdk = load_pdk(checked["pdk"])
    topology = Topology(k=k, pdk_name=pdk.name, blocks_u=blocks_u,
                        blocks_v=blocks_v)
    fp = checked["footprint"]
    n_cr, n_dc, n_blk = topology.device_counts()
    if (fp["n_blocks"], fp["n_dc"], fp["n_cr"]) != (n_blk, n_dc, n_cr):
        raise ConfigError("netlist device counts do not match its blocks")
    if fp["area_um2"] != footprint_exact(topology, pdk):
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
