"""Shared builders and oracles for the test suite."""
import math
import struct

import numpy as np

from ptcsearch import (
    MatrixFitTask,
    SuperMesh,
    alm_loss,
    footprint_expected,
    footprint_penalty,
    footprint_proxy,
)
from ptcsearch.pdk import _DC_COUNT_SLOPE
from ptcsearch.search import gumbel_sample, sample_gates
from ptcsearch.tasks import ClassifyTask
from ptcsearch.topology import TopoBlock, Topology, coupler_offset, n_coupler_slots


def bubble_sort_swaps(perm):
    """Brute-force oracle: count of swaps an adjacent-swap sort performs."""
    p = list(perm)
    swaps = 0
    changed = True
    while changed:
        changed = False
        for i in range(len(p) - 1):
            if p[i] > p[i + 1]:
                p[i], p[i + 1] = p[i + 1], p[i]
                swaps += 1
                changed = True
    return swaps


def random_topology(k, n_u, n_v, rng):
    """Legal topology with random phases, coupler masks, and permutations."""
    def blocks(n):
        out = []
        for i in range(n):
            off = coupler_offset(i)
            slots = n_coupler_slots(k, off)
            out.append(TopoBlock(
                phases=rng.uniform(-np.pi, np.pi, k),
                coupler_mask=rng.uniform(size=slots) < 0.5,
                offset=off,
                perm=rng.permutation(k),
            ))
        return out
    return Topology(k=k, pdk_name="amf", blocks_u=blocks(n_u), blocks_v=blocks(n_v))


def blob_task(rng, n_per=40, k=8, n_classes=4, spread=0.1):
    """Linearly separable Gaussian-blob classification fixture."""
    centers = rng.normal(size=(n_classes, k))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    xs, ys = [], []
    for c in range(n_classes):
        xs.append(centers[c] + spread * rng.normal(size=(n_per, k)))
        ys.append(np.full(n_per, c))
    x = np.vstack(xs)
    y = np.concatenate(ys)
    order = rng.permutation(len(y))
    x, y = x[order], y[order]
    n_tr = int(0.8 * len(y))
    return ClassifyTask(x[:n_tr], y[:n_tr], x[n_tr:], y[n_tr:], n_classes=n_classes)


def make_checkable_mesh(k=8, n_u=2, n_v=2, m_rows=None, n_cols=None, seed=0,
                        n_frozen=1):
    """Mesh positioned away from every non-smooth point of the surrogate loss:
    coupler latents off zero, permutations un-rounded, gates unfrozen except
    the last block of each unitary."""
    rng = np.random.default_rng(seed)
    mesh = SuperMesh(k, n_u, n_v, m_rows=m_rows, n_cols=n_cols,
                     n_frozen=n_frozen, rng=rng)
    for b in range(mesh.n_blocks):
        t = mesh.t_latent[b]
        t[:] = np.sign(t) * (0.2 + 0.7 * np.abs(t))
        mesh.p_raw[b] = mesh.p_raw[b] + rng.uniform(0.0, 0.02, (k, k))
    mesh.theta = rng.normal(0.0, 0.5, mesh.theta.shape)
    return mesh


def linear_dc_counts(t, slot_block, n_blocks):
    """Per-block sums of the line through (sqrt(2)/2, 1) and (1, 0), whose
    slope is the proxy's straight-through coupler-count gradient, over a flat
    transmission array whose slot s belongs to block slot_block[s]."""
    per_slot = _DC_COUNT_SLOPE * np.asarray(t, dtype=float) + 2.0 / (2.0 - math.sqrt(2.0))
    return np.bincount(slot_block, weights=per_slot, minlength=n_blocks)


class ContinuousCouplers:
    """View of a mesh whose footprint proxy counts couplers by the linear
    form of the raw latents, making the surrogate loss smooth in t for
    finite-difference checks."""

    def __init__(self, mesh):
        self._mesh = mesh

    def __getattr__(self, name):
        return getattr(self._mesh, name)

    def footprint_counts(self):
        counts = self._mesh.footprint_counts()
        return counts._replace(n_dc=linear_dc_counts(
            self._mesh.t_flat, counts.slot_block, self._mesh.n_blocks))


def surrogate_total_loss(mesh, task, m_weights, alm_state, pdk, penalty,
                         constraint):
    """Smooth surrogate of the search objective: task loss on the continuous
    (non-binarized) forward pass, plus ALM and the footprint penalty with the
    proxy evaluated on raw coupler latents. Returns (value, pieces)."""
    w, cache = mesh.forward(m_weights, binarize=False)
    task_val, g_w = task.loss_and_grad(w)
    alm_val, alm_grads = alm_loss(cache["p_tildes"], alm_state)
    view = ContinuousCouplers(mesh)
    exp_exact = footprint_expected(mesh, pdk)
    prox_val, prox_grads = footprint_proxy(view, pdk, penalty)
    lf_val, coeff = footprint_penalty(prox_val, exp_exact, constraint, penalty)
    total = task_val + alm_val + lf_val
    pieces = {"cache": cache, "g_w": g_w, "alm_grads": alm_grads,
              "prox_grads": prox_grads, "coeff": coeff, "task": task_val,
              "alm": alm_val, "footprint": lf_val}
    return total, pieces


def surrogate_gradients(mesh, task, alm_state, pdk, penalty, constraint,
                        gumbel_noise, tau):
    """Analytic gradients of the surrogate loss for every trainable group."""
    m = sample_gates(mesh, tau, None, noise=gumbel_noise)
    total, pieces = surrogate_total_loss(mesh, task, m, alm_state, pdk,
                                         penalty, constraint)
    coeff = pieces["coeff"]
    extra_ptilde = [pieces["alm_grads"][b] + coeff * pieces["prox_grads"].d_ptilde[b]
                    for b in range(mesh.n_blocks)]
    grads = mesh.backward(pieces["cache"], pieces["g_w"],
                          extra_ptilde=extra_ptilde,
                          extra_tq=coeff * pieces["prox_grads"].d_tq)
    from ptcsearch.search import gumbel_backward
    g_theta = np.zeros_like(mesh.theta)
    for b in range(mesh.n_blocks):
        g_theta[b] = gumbel_backward(m[b], tau, grads.m[b],
                                     frozen=bool(mesh.frozen[b]))
    g_theta += mesh.keep_prob_theta_grad(coeff * pieces["prox_grads"].d_keep)
    return total, grads, g_theta


def surrogate_value(mesh, task, alm_state, pdk, penalty, constraint,
                    gumbel_noise, tau):
    m = sample_gates(mesh, tau, None, noise=gumbel_noise)
    return surrogate_total_loss(mesh, task, m, alm_state, pdk, penalty,
                                constraint)[0]


def fd_check(get_value, param, analytic, coords, h=1e-5):
    """Central finite differences on the listed flat coordinates of `param`.

    Returns a list of (analytic, numeric, rel_err) triples.
    """
    flat = param.reshape(-1)
    a_flat = np.asarray(analytic).reshape(-1)
    out = []
    for idx in coords:
        orig = flat[idx]
        flat[idx] = orig + h
        up = get_value()
        flat[idx] = orig - h
        down = get_value()
        flat[idx] = orig
        numeric = (up - down) / (2 * h)
        a = float(a_flat[idx])
        rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
        out.append((a, numeric, rel))
    return out


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-12)


def idx_bytes(arr):
    """An unsigned-byte IDX file holding arr."""
    arr = np.asarray(arr, dtype=np.uint8)
    header = struct.pack(">BBBB", 0, 0, 0x08, arr.ndim)
    return header + struct.pack(f">{arr.ndim}I", *arr.shape) + arr.tobytes()


_MALFORMED_CSV = {
    "csv_nan_feature": "f0,f1,label\n0.1,0.2,0\n0.3,nan,1\n0.5,0.6,0\n",
    "csv_negative_label": "f0,f1,label\n0.1,0.2,0\n0.3,0.4,-1\n0.5,0.6,0\n",
    "csv_no_features": "label\n0\n1\n0\n1\n",
}
MALFORMED_DATASETS = ["idx_zero_items", "idx_short_header", "idx_labels_not_1d",
                      "idx_count_mismatch", *_MALFORMED_CSV]


def write_malformed_dataset(tmp_path, case):
    """Write the files of one MALFORMED_DATASETS case under tmp_path.

    Returns (path, fmt, labels_path, named): the load_dataset arguments and
    the file whose name the resulting error must carry.
    """
    if case in _MALFORMED_CSV:
        path = tmp_path / "data.csv"
        path.write_text(_MALFORMED_CSV[case])
        return str(path), "csv", None, path
    images = np.arange(16, dtype=np.uint8).reshape(4, 2, 2)
    labels = np.array([0, 1, 0, 1])
    images_path, labels_path = tmp_path / "images.idx", tmp_path / "labels.idx"
    named = images_path
    if case == "idx_zero_items":
        images, labels = images[:0], labels[:0]
    elif case == "idx_labels_not_1d":
        labels, named = labels[:, None], labels_path
    elif case == "idx_count_mismatch":
        labels = labels[:3]
    images_bytes = idx_bytes(images)
    if case == "idx_short_header":
        # ndim says 3, so 12 dimension bytes, but only 8 follow the magic
        images_bytes = images_bytes[:12]
    images_path.write_bytes(images_bytes)
    labels_path.write_bytes(idx_bytes(labels))
    return str(images_path), "idx", str(labels_path), named
