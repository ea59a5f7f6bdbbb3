"""Layer-by-layer reference model the tests hold the SuperMesh engine to.

Every function here acts on one state vector, one block or one tile at a
time, and shares no code with the engine: coupler columns are built slot by
slot from an explicit 2x2 transfer, and couplers are binarized by a local
np.where.
"""
import math
from dataclasses import dataclass

import numpy as np

from ptcsearch import DegeneracyError, DomainError, reparametrize

ROOT2_OVER_2 = math.sqrt(2.0) / 2.0


def binarized(t_latent):
    """sqrt(2)/2 (coupler placed) for a negative latent, 1 (pass-through)
    otherwise."""
    return np.where(np.asarray(t_latent, dtype=float) < 0.0, ROOT2_OVER_2, 1.0)


def coupler_column(t, k: int, offset: int) -> np.ndarray:
    """K x K transfer of one coupler column: slot i couples waveguides
    offset + 2i and offset + 2i + 1 by [[t_i, jc_i], [jc_i, t_i]] with
    c_i = sqrt(1 - t_i^2); every other waveguide passes through."""
    t = np.asarray(t, dtype=float)
    if t.shape != ((k - offset) // 2,):
        raise DomainError("transmission vector length does not match K and offset")
    mat = np.eye(k, dtype=complex)
    for i, t_i in enumerate(t.tolist()):
        a = offset + 2 * i
        cross = 1j * math.sqrt(max(1.0 - t_i * t_i, 0.0))
        mat[a:a + 2, a:a + 2] = [[t_i, cross], [cross, t_i]]
    return mat


def count_couplers(t_binarized, tol: float = 1e-9) -> int:
    """Count entries equal to sqrt(2)/2 in a binarized transmission vector."""
    t = np.asarray(t_binarized, dtype=float)
    is_on = np.abs(t - ROOT2_OVER_2) <= tol
    is_off = np.abs(t - 1.0) <= tol
    if not np.all(is_on | is_off):
        raise DomainError("transmission vector contains non-binarized entries")
    return int(is_on.sum())


# ---------------------------------------------------------------------------
# single layers acting on complex state vectors

def ps_apply(phi, x):
    """Phase-shifter column: y_i = exp(-j phi_i) x_i."""
    phi = np.asarray(phi, dtype=float)
    x = np.asarray(x, dtype=complex)
    if phi.shape[0] != x.shape[0]:
        raise DomainError("phase vector and input dimension mismatch")
    return np.exp(-1j * phi) * x


def dc_apply(t, offset, x, binarize=False):
    """Coupler column acting on a state vector; untouched channels pass through."""
    x = np.asarray(x, dtype=complex)
    t_eff = binarized(t) if binarize else np.asarray(t, dtype=float)
    return coupler_column(t_eff, x.shape[0], offset) @ x


def cr_apply(p_tilde, x):
    """Crossing layer: y = P~ x with the current relaxed or legal matrix."""
    p_tilde = np.asarray(p_tilde, dtype=float)
    x = np.asarray(x, dtype=complex)
    if p_tilde.shape[1] != x.shape[0]:
        raise DomainError("permutation matrix and input dimension mismatch")
    return p_tilde @ x


def normalize_unitary(u, mode: str):
    """Scale each row ('row') or column ('column') to unit l2 norm."""
    u = np.asarray(u, dtype=complex)
    axis = 1 if mode == "row" else 0
    if mode not in ("row", "column"):
        raise DomainError("mode must be 'row' or 'column'")
    norms = np.sqrt(np.sum(np.abs(u) ** 2, axis=axis, keepdims=True))
    if np.any(norms < 1e-150):
        raise DegeneracyError(f"zero {mode} norm in unitary normalization")
    return u / norms


# ---------------------------------------------------------------------------
# tiles and partitioned weights

@dataclass
class WeightPartition:
    """Tiling of an M x N weight into K x K tiles, each (U, sigma, V)."""

    m_rows: int
    n_cols: int
    k: int
    tiles: list  # nested [p][q] -> (U, sigma, V)

    @property
    def p_tiles(self) -> int:
        return (self.m_rows + self.k - 1) // self.k

    @property
    def q_tiles(self) -> int:
        return (self.n_cols + self.k - 1) // self.k

    def assemble(self) -> np.ndarray:
        """Dense M x N matrix equal to the partitioned operator."""
        k = self.k
        full = np.zeros((self.p_tiles * k, self.q_tiles * k), dtype=complex)
        for p in range(self.p_tiles):
            for q in range(self.q_tiles):
                u, sigma, v = self.tiles[p][q]
                full[p * k:(p + 1) * k, q * k:(q + 1) * k] = u @ np.diag(sigma) @ v
        return full[: self.m_rows, : self.n_cols]


def tile_forward(u, sigma, v, x):
    """One weight tile: y = U diag(sigma) V x."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    sigma = np.asarray(sigma, dtype=float)
    x = np.asarray(x, dtype=complex)
    return u @ (sigma * (v @ x))


def partition_matmul(wp: WeightPartition, x):
    """y = W x for a partitioned weight, zero-padding x and truncating y."""
    x = np.asarray(x, dtype=complex)
    if x.shape[0] != wp.n_cols:
        raise DomainError("input length does not match the partition's N")
    k = wp.k
    x_pad = np.zeros(wp.q_tiles * k, dtype=complex)
    x_pad[: wp.n_cols] = x
    y_pad = np.zeros(wp.p_tiles * k, dtype=complex)
    for p in range(wp.p_tiles):
        acc = np.zeros(k, dtype=complex)
        for q in range(wp.q_tiles):
            u, sigma, v = wp.tiles[p][q]
            acc += tile_forward(u, sigma, v, x_pad[q * k:(q + 1) * k])
        y_pad[p * k:(p + 1) * k] = acc
    return y_pad[: wp.m_rows]


# ---------------------------------------------------------------------------
# block chains, one block and one tile at a time

def block_transfer(phi, t_eff, p_tilde, offset):
    """Transfer matrix of one block: P~ @ T @ R(phi)."""
    k = len(phi)
    r = np.exp(-1j * np.asarray(phi, dtype=float))
    t_mat = coupler_column(t_eff, k, offset)
    return np.asarray(p_tilde) @ (t_mat * r[None, :])


def build_unitary(phis, ts, perms, offsets, gates=None, binarize=True):
    """Compose blocks into a K x K matrix, each blended with identity by its
    gate weights (m_skip, m_keep). gates=None means every block is certain."""
    if len(phis) == 0:
        raise DomainError("block list must be nonempty")
    k = len(phis[0])
    u = np.eye(k, dtype=complex)
    for b in range(len(phis)):
        t_eff = binarized(ts[b]) if binarize else np.asarray(ts[b], dtype=float)
        a = block_transfer(phis[b], t_eff, perms[b], offsets[b])
        m1, m2 = (0.0, 1.0) if gates is None else gates[b]
        u = (m1 * np.eye(k, dtype=complex) + m2 * a) @ u
    return u


def weight_partition_oracle(mesh, m_weights, binarize=True):
    """Per-tile (U, sigma, V) of a mesh, composed independently of its
    engine: each tile's chains block by block through build_unitary, with a
    per-block reparametrize and the gate weights, then normalized."""
    perms = [reparametrize(mesh.p_raw[b])[0]
             for b in range(mesh.n_blocks)]

    def chain(ids, p, q):
        return build_unitary([mesh.phi[p, q, b] for b in ids],
                             [mesh.t_latent[b] for b in ids],
                             [perms[b] for b in ids],
                             [mesh.offsets[b] for b in ids],
                             [m_weights[b] for b in ids], binarize=binarize)

    tiles = [[(normalize_unitary(chain(mesh.u_block_ids(), p, q), "row"),
               mesh.sigma[p, q],
               normalize_unitary(chain(mesh.v_block_ids(), p, q), "column"))
              for q in range(mesh.q_tiles)] for p in range(mesh.p_tiles)]
    return WeightPartition(mesh.m_rows, mesh.n_cols, mesh.k, tiles)


# ---------------------------------------------------------------------------
# Adam, one parameter at a time

def adam_step(params, grads, m, v, t, lr, betas=(0.9, 0.999), eps=1e-8,
              weight_decay=0.0):
    """Step t (counted from 1) of Adam with one moment array per parameter:
    m and v are lists parallel to params, replaced entry by entry, and each
    parameter is updated in place."""
    beta1, beta2 = betas
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for i, (p, g) in enumerate(zip(params, grads)):
        if weight_decay:
            g = g + weight_decay * p
        m[i] = beta1 * m[i] + (1.0 - beta1) * g
        v[i] = beta2 * v[i] + (1.0 - beta2) * (g * g)
        m_hat = m[i] / bc1
        v_hat = v[i] / bc2
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)
