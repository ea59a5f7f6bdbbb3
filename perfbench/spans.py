"""In-memory span tracer that wraps ptcsearch's public functions from outside.

Each traced function is replaced, in every ptcsearch module that holds a
reference to it, by one wrapper. That way a call is recorded under the name its
caller resolves: ``ptcsearch.search.footprint_expected`` and
``ptcsearch.pdk.footprint_expected`` are the same wrapper, as are
``ptcsearch.mesh.reparametrize`` and ``ptcsearch.search.reparametrize``.
Methods are patched on their class. ``uninstall`` restores every binding.

A span is ``[name_id, start, end, parent]`` with times from
``time.perf_counter``; spans are kept in a list and summarised or written out
once the run ends. Wrappers read only the clock, so they consume no randomness.
"""
import functools
import os
import sys
import time

import numpy as np


def _mesh_flops(mesh, backward):
    """Complex-matmul flops of one SuperMesh pass, computed from its shapes.

    A K x K x K complex matmul counts 8 K^3 real flops. Per tile the forward
    pass does two per block (block transfer, chain product) plus the tile
    product; the backward pass does two for the tile and five per block.
    """
    tiles = mesh.p_tiles * mesh.q_tiles
    unit = 8 * mesh.k ** 3
    per_tile = (2 + 5 * mesh.n_blocks) if backward else (2 * mesh.n_blocks + 1)
    return tiles * per_tile * unit


def _written_bytes(args, kwargs):
    return os.path.getsize(kwargs.get("path", args[0] if args else None))


def traced_targets():
    """(span name, owner, attribute, extra) for every traced function.

    The first part of a span name is its layer: the ptcsearch module that
    defines the function. ``extra`` maps a call's arguments to a quantity
    summed per span name (computed flops, bytes written).
    """
    from ptcsearch import mesh, netlist, optim, pdk, permutation, search, tasks

    return [
        ("search.search_step", search, "search_step", None),
        ("search.sample_gates", search, "sample_gates", None),
        ("search.legalize_mesh", search, "legalize_mesh", None),
        ("search.sample_submesh", search, "sample_submesh", None),
        ("search.mesh_to_topology", search, "mesh_to_topology", None),
        ("mesh.forward", mesh.SuperMesh, "forward",
         lambda args, kwargs: _mesh_flops(args[0], backward=False)),
        ("mesh.backward", mesh.SuperMesh, "backward",
         lambda args, kwargs: _mesh_flops(args[0], backward=True)),
        ("mesh.coupler_matrix", mesh, "coupler_matrix", None),
        ("pdk.load_pdk", pdk, "load_pdk", None),
        ("pdk.block_bounds", pdk, "block_bounds", None),
        ("pdk.footprint_expected", pdk, "footprint_expected", None),
        ("pdk.footprint_proxy", pdk, "footprint_proxy", None),
        ("pdk.footprint_penalty", pdk, "footprint_penalty", None),
        ("pdk.count_crossings", pdk, "count_crossings", None),
        ("permutation.reparametrize", permutation, "reparametrize", None),
        ("permutation.reparametrize_backward", permutation,
         "reparametrize_backward", None),
        ("permutation.alm_loss", permutation, "alm_loss", None),
        ("permutation.dual_update", permutation, "dual_update", None),
        ("permutation.rho_schedule", permutation, "rho_schedule", None),
        ("permutation.spl_legalize", permutation, "spl_legalize", None),
        ("tasks.loss_and_grad", tasks.MatrixFitTask, "loss_and_grad", None),
        ("tasks.loss_and_grad", tasks.ClassifyTask, "loss_and_grad", None),
        ("tasks.fit_mesh", tasks, "fit_mesh", None),
        ("tasks.clean_metric", tasks, "clean_metric", None),
        ("tasks.noisy_metric", tasks, "noisy_metric", None),
        ("tasks.variation_aware_train", tasks, "variation_aware_train", None),
        ("tasks.robustness_sweep", tasks, "robustness_sweep", None),
        ("optim.Adam.step", optim.Adam, "step", None),
        ("netlist.topology_to_doc", netlist, "topology_to_doc", None),
        ("netlist.write_netlist", netlist, "write_netlist", _written_bytes),
        ("netlist.read_netlist", netlist, "read_netlist", None),
        ("netlist.doc_to_topology", netlist, "doc_to_topology", None),
    ]


class Tracer:
    """Records spans for wrapped calls while ``active`` is true."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []
        self.extra = {}
        self.active = False
        self._stack = []
        self._restore = []

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin(self, name):
        """Open a span by hand (the benchmark's own operation span)."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.name_id(name), time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError("span closed out of order")

    def wrap(self, name, fn, extra=None):
        nid = self.name_id(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [nid, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if extra is not None:
                    self.extra[name] = self.extra.get(name, 0) + extra(args, kwargs)

        return functools.wraps(fn)(wrapper)

    def install(self):
        """Replace every binding of each target in the loaded ptcsearch modules."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for name, owner, attr, extra in traced_targets():
            original = owner.__dict__[attr]
            wrapper = self.wrap(name, original, extra)
            if isinstance(owner, type):
                self._rebind(owner, attr, wrapper)
                continue
            modules = [m for key, m in list(sys.modules.items())
                       if m is not None and (key == "ptcsearch"
                                             or key.startswith("ptcsearch."))]
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapper)

    def _rebind(self, owner, key, wrapper):
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore = []

    # -- summaries ----------------------------------------------------------

    def arrays(self):
        """Spans as (name_id, start, end, parent) numpy arrays, plus self time."""
        if not self.spans:
            empty = np.zeros(0)
            return empty.astype(int), empty, empty, empty.astype(int), empty
        s = np.array(self.spans, dtype=float)
        nid, start, end, parent = s[:, 0].astype(int), s[:, 1], s[:, 2], s[:, 3].astype(int)
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return nid, start, end, parent, dur - child

    def ancestors_with(self, name, parent, nid):
        """Boolean mask: span has an ancestor (or is) a span named ``name``."""
        if name not in self._name_ids:
            return np.zeros(len(parent), dtype=bool)
        target = self._name_ids[name]
        inside = np.zeros(len(parent), dtype=bool)
        # parents always precede their children, so one forward pass suffices
        for i in range(len(parent)):
            p = parent[i]
            inside[i] = nid[i] == target or (p >= 0 and inside[p])
        return inside
