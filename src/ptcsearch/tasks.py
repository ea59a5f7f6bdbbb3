"""Desk-scale tasks, phase-noise injection, and robustness evaluation."""
import csv
import struct
from dataclasses import dataclass

import numpy as np

from . import schema
from .errors import ConfigError, DivergenceError, DomainError, StateError
from .mesh import SuperMesh, certainty_gates
from .optim import Adam
from .topology import Topology

BATCH_SIZE = 32   # rows ClassifyTask.sample_batch draws per training step


# ---------------------------------------------------------------------------
# tasks

@dataclass
class MatrixFitTask:
    """Fit the assembled complex weight to a fixed target matrix."""

    target: np.ndarray

    def __post_init__(self):
        self.target = np.asarray(self.target, dtype=complex)

    @property
    def m_rows(self):
        return self.target.shape[0]

    @property
    def n_cols(self):
        return self.target.shape[1]

    def sample_batch(self, rng):
        return None

    def loss_and_grad(self, w, batch=None):
        diff = w - self.target
        mn = self.target.size
        loss = float(np.sum(np.abs(diff) ** 2)) / mn
        return loss, 2.0 * diff / mn

    def evaluate(self, w):
        return self.loss_and_grad(w)[0]


@dataclass
class ClassifyTask:
    """Tiny linear classifier: logits are the real part of W x. evaluate
    (cross-entropy) and accuracy read the validation split."""

    x_train: np.ndarray
    y_train: np.ndarray
    x_val: np.ndarray
    y_val: np.ndarray
    n_classes: int

    @property
    def m_rows(self):
        return self.n_classes

    @property
    def n_cols(self):
        return self.x_train.shape[1]

    def sample_batch(self, rng):
        idx = rng.integers(0, self.x_train.shape[0], size=BATCH_SIZE)
        return self.x_train[idx], self.y_train[idx]

    def _ce(self, w, x, y):
        logits = (x @ w.T).real
        logits -= logits.max(axis=1, keepdims=True)
        e = np.exp(logits)
        probs = e / e.sum(axis=1, keepdims=True)
        n = x.shape[0]
        loss = -float(np.mean(np.log(probs[np.arange(n), y] + 1e-300)))
        g_logits = probs.copy()
        g_logits[np.arange(n), y] -= 1.0
        g_logits /= n
        return loss, g_logits, probs

    def loss_and_grad(self, w, batch=None):
        x, y = batch if batch is not None else (self.x_train, self.y_train)
        loss, g_logits, _ = self._ce(w, x, y)
        # logits take only the real part, so the cotangent on W is real
        g_w = (g_logits.T @ x).astype(complex)
        return loss, g_w

    def evaluate(self, w):
        return self._ce(w, self.x_val, self.y_val)[0]

    def accuracy(self, w):
        pred = np.argmax((self.x_val @ w.T).real, axis=1)
        return float(np.mean(pred == self.y_val))


def random_unitary(k: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish unitary from the QR of a complex Gaussian."""
    z = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))[None, :]


# ---------------------------------------------------------------------------
# dataset loading

def check_phase_sigma(sigma) -> float:
    """A phase-noise standard deviation as a float; DomainError unless it is
    finite and nonnegative (schema.NONNEGATIVE)."""
    try:
        return schema.NONNEGATIVE(sigma, "phase sigma")
    except ConfigError as exc:
        raise DomainError(str(exc)) from None


@dataclass
class NoiseModel:
    """Gaussian phase perturbation in radians."""

    phase_sigma: float = 0.02

    def __post_init__(self):
        check_phase_sigma(self.phase_sigma)


def load_dataset(path, fmt="csv", split=0.8, seed=0, labels_path=None):
    """Load a classification task from CSV or IDX files.

    CSV schema: header f0..fn,label; decimal features, integer labels.
    IDX: standard big-endian magic-number layout; labels_path required.
    Rows are split at random, then min-max scaled by the training rows'
    min and max, so validation features may fall outside [0, 1].
    """
    if fmt == "csv":
        features, labels = _load_csv(path)
    elif fmt == "idx":
        if labels_path is None:
            raise ConfigError("idx format requires labels_path")
        features, labels = _load_idx(path, labels_path)
    else:
        raise ConfigError(f"unknown dataset format '{fmt}'")
    n = features.shape[0]
    order = np.random.default_rng(seed).permutation(n)
    n_train = int(round(split * n))
    if not 0 < n_train < n:
        side = "training" if n_train == 0 else "validation"
        raise ConfigError(f"split {split} of {n} rows leaves no {side} rows")
    train, val = order[:n_train], order[n_train:]
    x_train, x_val = features[train], features[val]
    lo = x_train.min(axis=0)
    span = x_train.max(axis=0) - lo
    span[span == 0] = 1.0
    return ClassifyTask((x_train - lo) / span, labels[train], (x_val - lo) / span,
                        labels[val], n_classes=int(labels.max()) + 1)


def _load_csv(path):
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: empty CSV")
        if not header or header[-1].strip() != "label":
            raise ConfigError(f"{path}: last CSV column must be 'label'")
        n_feat = len(header) - 1
        if n_feat == 0:
            raise ConfigError(f"{path}: CSV has no feature columns")
        feats, labels = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != n_feat + 1:
                raise ConfigError(f"{path}: row {lineno} has {len(row)} fields, "
                                  f"expected {n_feat + 1}")
            try:
                feats.append([float(v) for v in row[:-1]])
                labels.append(int(row[-1]))
            except ValueError as exc:
                raise ConfigError(f"{path}: row {lineno}: {exc}") from exc
            if not np.all(np.isfinite(feats[-1])):
                raise ConfigError(f"{path}: row {lineno} has a non-finite feature")
            if labels[-1] < 0:
                raise ConfigError(f"{path}: row {lineno} has a negative label")
    if not feats:
        raise ConfigError(f"{path}: no data rows")
    return np.asarray(feats, dtype=float), np.asarray(labels, dtype=int)


def _load_idx(images_path, labels_path):
    def read_idx(path):
        with open(path, "rb") as fh:
            data = fh.read()
        if len(data) < 4 or data[0] != 0 or data[1] != 0:
            raise ConfigError(f"{path}: bad IDX magic")
        dtype_code, ndim = data[2], data[3]
        if dtype_code != 0x08:
            raise ConfigError(f"{path}: only unsigned-byte IDX supported")
        if len(data) < 4 + 4 * ndim:
            raise ConfigError(f"{path}: IDX header shorter than its {ndim} dims")
        dims = struct.unpack(f">{ndim}I", data[4:4 + 4 * ndim])
        arr = np.frombuffer(data, dtype=np.uint8, offset=4 + 4 * ndim)
        if arr.size != int(np.prod(dims)):
            raise ConfigError(f"{path}: IDX payload size mismatch")
        if ndim == 0 or arr.size == 0:
            raise ConfigError(f"{path}: IDX file holds no items")
        return arr.reshape(dims)

    images = read_idx(images_path)
    labels = read_idx(labels_path)
    if labels.ndim != 1:
        raise ConfigError(f"{labels_path}: IDX labels must be 1-D")
    if images.shape[0] != labels.shape[0]:
        raise ConfigError(f"{images_path} holds {images.shape[0]} items, "
                          f"{labels_path} {labels.shape[0]}")
    feats = images.reshape(images.shape[0], -1).astype(float)
    return feats, labels.astype(int)


# ---------------------------------------------------------------------------
# noise injection and variation-aware training

def fit_mesh(mesh, task, steps, rng, lr=5e-3, noise=None, target_loss=None):
    """Train a mesh with every gate certain; returns the loss trace.

    One Adam steps phi, sigma and the mesh's trainable structure_groups, of
    which a from_topology mesh has none.
    noise: optional NoiseModel applied as a fresh phase draw per forward pass.
    target_loss: optional early stop once the clean loss falls below it.
    """
    gates = certainty_gates(mesh.n_blocks)
    opt = Adam(lr=lr)
    trace = []
    for _ in range(steps):
        phi_noise = None
        if noise is not None and noise.phase_sigma > 0:
            phi_noise = rng.normal(0.0, noise.phase_sigma, size=mesh.phi.shape)
        batch = task.sample_batch(rng)
        w, cache = mesh.forward(gates, binarize=True, phi_noise=phi_noise)
        loss, g_w = task.loss_and_grad(w, batch)
        if not np.isfinite(loss):
            raise DivergenceError("training loss is not finite", snapshot=trace)
        trace.append(loss)
        grads = mesh.backward(cache, g_w)
        struct_params, struct_grads = mesh.structure_groups(grads)
        opt.step([mesh.phi, mesh.sigma] + struct_params,
                 [grads.phi, grads.sigma] + struct_grads)
        if target_loss is not None:
            clean_w, _ = mesh.forward(gates, binarize=True)
            if task.evaluate(clean_w) <= target_loss:
                break
    return trace


def clean_metric(mesh, task):
    w, _ = mesh.forward(certainty_gates(mesh.n_blocks), binarize=True)
    return task.evaluate(w)


def noisy_metric(mesh, task, sigma, rng, trials=20):
    """Mean and std of the metric over phase-noise draws of std sigma; at
    sigma 0 it is the clean metric with std 0, from one pass and no draw."""
    sigma = check_phase_sigma(sigma)
    if sigma == 0:
        return clean_metric(mesh, task), 0.0
    gates = certainty_gates(mesh.n_blocks)
    vals = []
    for _ in range(trials):
        phi_noise = rng.normal(0.0, sigma, size=mesh.phi.shape)
        w, _ = mesh.forward(gates, binarize=True, phi_noise=phi_noise)
        vals.append(task.evaluate(w))
    return float(np.mean(vals)), float(np.std(vals))


def variation_aware_train(topology: Topology, task, noise: NoiseModel,
                          steps=400, rng=None):
    """Retrain phi/sigma of a fixed topology with per-pass phase noise.

    Returns (mesh, metrics) with clean and noisy validation metrics.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    mesh = SuperMesh.from_topology(topology, m_rows=task.m_rows,
                                   n_cols=task.n_cols, rng=rng)
    fit_mesh(mesh, task, steps, rng, noise=noise)
    clean = clean_metric(mesh, task)
    noisy_mean, noisy_std = noisy_metric(mesh, task, noise.phase_sigma, rng)
    return mesh, {"clean": clean, "noisy": noisy_mean, "noisy_std": noisy_std}


def robustness_sweep(mesh, task, sigmas, trials, rng):
    """Evaluate a trained mesh under phase noise.

    A Topology raises StateError: it carries no trained sigma, so retrain it
    first (variation_aware_train returns the mesh to sweep). Returns a list
    of (sigma, mean_metric, std_metric) rows.
    """
    if isinstance(mesh, Topology):
        raise StateError("a topology has no trained weights to sweep")
    if trials < 2:
        raise DomainError("robustness sweep needs at least 2 trials")
    sigmas = [check_phase_sigma(sigma) for sigma in sigmas]
    return [(sigma, *noisy_metric(mesh, task, sigma, rng, trials=trials))
            for sigma in sigmas]
