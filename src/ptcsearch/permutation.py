"""Differentiable permutation learning.

Birkhoff-polytope reparametrization with row-wise soft projection, the
lambda-scaled augmented Lagrangian on the l1-vs-l2 gap, dual updates, the
rho growth schedule, smoothed-identity initialization, crossing (inversion)
counts, and stochastic permutation legalization (SPL).
"""
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegeneracyError, DomainError, LegalizationError

EPSILON = 0.05           # reparametrize rounds rows whose max is >= 1 - EPSILON
RHO_FINAL_RATIO = 1e4    # AlmState.init: rho ends near this multiple of rho0
SPL_SIGMA = 0.1          # SPL noise std, relative to the max projected entry
SPL_MAX_ATTEMPTS = 200   # SPL draws before LegalizationError


def init_smoothed_identity(k: int) -> np.ndarray:
    """Strictly positive near-identity init so gradients reach every entry."""
    if k < 2:
        raise DomainError("smoothed identity requires K >= 2")
    off = 1.0 / (2 * k - 2)
    return np.eye(k) * (0.5 - off) + off


def reparametrize(p_raw: np.ndarray):
    """Map a raw matrix, or a (..., K, K) stack of them, into (approximately)
    the Birkhoff polytope.

    abs -> column normalization -> row normalization -> row-wise soft
    projection that hard-rounds rows whose max is >= 1 - EPSILON. Returns
    (p_tilde, cache) where the cache drives the backward pass; rounded rows
    carry no gradient.
    """
    a = np.abs(p_raw)
    col_sums = a.sum(axis=-2, keepdims=True)
    if np.any(col_sums < 1e-300):
        raise DegeneracyError("zero column sum in permutation reparametrization")
    p1 = a / col_sums
    row_sums = p1.sum(axis=-1, keepdims=True)
    if np.any(row_sums < 1e-300):
        raise DegeneracyError("zero row sum in permutation reparametrization")
    p2 = p1 / row_sums
    rounded = p2.max(axis=-1) >= 1.0 - EPSILON
    p_tilde = np.where(rounded[..., None], np.round(p2), p2)
    cache = {
        "sign": np.sign(p_raw),
        "col_sums": col_sums,
        "row_sums": row_sums,
        "p1": p1,
        "p2": p2,
        "rounded": rounded,
    }
    return p_tilde, cache


def reparametrize_backward(cache, g_tilde: np.ndarray) -> np.ndarray:
    """Backward pass of reparametrize; returns the gradient w.r.t. p_raw.
    One array carries the cotangent through every stage, updated in place."""
    g = np.where(cache["rounded"][..., None], 0.0, g_tilde)
    # row normalization: p2 = p1 / row_sums
    g -= np.sum(g * cache["p2"], axis=-1, keepdims=True)
    g /= cache["row_sums"]
    # column normalization: p1 = a / col_sums
    g -= np.sum(g * cache["p1"], axis=-2, keepdims=True)
    g /= cache["col_sums"]
    g *= cache["sign"]
    return g


def _l1_l2_gaps(p_tilde: np.ndarray):
    """Row and column Delta = ||v||_1 - ||v||_2 and the l2 norms."""
    row_l1 = np.abs(p_tilde).sum(axis=-1)
    row_l2 = np.sqrt(np.sum(p_tilde * p_tilde, axis=-1))
    col_l1 = np.abs(p_tilde).sum(axis=-2)
    col_l2 = np.sqrt(np.sum(p_tilde * p_tilde, axis=-2))
    return row_l1 - row_l2, col_l1 - col_l2, row_l2, col_l2


@dataclass
class AlmState:
    """Multipliers and penalty coefficient of the permutation ALM."""

    lambda_row: np.ndarray    # (B, K), nonnegative
    lambda_col: np.ndarray    # (B, K)
    rho: float
    gamma: float
    step: int = 0

    @classmethod
    def init(cls, n_blocks: int, k: int, rho0: Optional[float] = None,
             total_steps: int = 1000):
        """rho0 defaults to 1e-7 * K / 8; gamma is chosen so the per-step
        rho *= gamma**t schedule reaches ~RHO_FINAL_RATIO * rho0 in total_steps."""
        if rho0 is None:
            rho0 = 1e-7 * k / 8.0
        t = max(1, total_steps)
        gamma = RHO_FINAL_RATIO ** (2.0 / (t * (t + 1)))
        return cls(
            lambda_row=np.zeros((n_blocks, k)),
            lambda_col=np.zeros((n_blocks, k)),
            rho=float(rho0),
            gamma=float(gamma),
        )


def alm_loss(p_tildes, state: AlmState):
    """Lambda-scaled augmented Lagrangian term L_P and its P~ cotangents.

    L_P = sum lam_r * Dr + lam_c * Dc + (rho/2) * (lam_r * Dr^2 + lam_c * Dc^2)
    with D the l1-minus-l2 gap of each row/column. p_tildes is a (B, K, K)
    stack (or a list of B matrices). Returns (value, grads) where grads is
    the (B, K, K) stack of dL/dP~.
    """
    pt = np.asarray(p_tildes, dtype=float)
    d_row, d_col, row_l2, col_l2 = _l1_l2_gaps(pt)
    lam_r = state.lambda_row
    lam_c = state.lambda_col
    total = float(np.sum(lam_r * d_row) + np.sum(lam_c * d_col))
    total += 0.5 * state.rho * float(
        np.sum(lam_r * d_row ** 2) + np.sum(lam_c * d_col ** 2)
    )
    # dD/dv = sign(v) - v / ||v||_2
    row_l2 = np.maximum(row_l2, 1e-300)
    col_l2 = np.maximum(col_l2, 1e-300)
    d_dr = np.sign(pt) - pt / row_l2[..., :, None]
    d_dc = np.sign(pt) - pt / col_l2[..., None, :]
    coeff_r = lam_r * (1.0 + state.rho * d_row)
    coeff_c = lam_c * (1.0 + state.rho * d_col)
    grads = coeff_r[..., :, None] * d_dr + coeff_c[..., None, :] * d_dc
    return total, grads


def dual_update(state: AlmState, p_tildes) -> AlmState:
    """Multiplier ascent: lambda += rho * (Delta + Delta^2 / 2), in place.

    p_tildes is a (B, K, K) stack (or a list of B matrices)."""
    d_row, d_col, _, _ = _l1_l2_gaps(np.asarray(p_tildes, dtype=float))
    state.lambda_row += state.rho * (d_row + 0.5 * d_row ** 2)
    state.lambda_col += state.rho * (d_col + 0.5 * d_col ** 2)
    return state


def rho_schedule(state: AlmState) -> float:
    """Grow rho by gamma**t at step t; returns the updated rho."""
    state.rho *= state.gamma ** state.step
    state.step += 1
    return state.rho


def is_permutation(m: np.ndarray, tol: float = 0.0) -> bool:
    """True iff every entry is within tol of {0, 1} and all sums are 1."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    near_binary = np.minimum(np.abs(m), np.abs(m - 1.0)) <= tol
    if not near_binary.all():
        return False
    ones = np.ones(m.shape[0])
    return (np.abs(m.sum(axis=0) - ones) <= tol).all() and \
        (np.abs(m.sum(axis=1) - ones) <= tol).all()


def perm_matrix_to_array(m: np.ndarray) -> np.ndarray:
    """Permutation matrix -> index array pi with y_i = x[pi[i]]."""
    if not is_permutation(m, tol=1e-9):
        raise DomainError("matrix is not a permutation matrix")
    return np.argmax(m, axis=1)


def perm_array_to_matrix(perm) -> np.ndarray:
    perm = np.asarray(perm, dtype=int)
    k = perm.shape[0]
    m = np.zeros((k, k))
    m[np.arange(k), perm] = 1.0
    return m


def count_crossings(perm):
    """Inversion count of a permutation = minimum adjacent swaps to identity.

    A (..., K) stack of permutations gives the integer array of per-row
    counts; every row must be a permutation of 0..K-1.
    """
    p = np.asarray(perm)
    if p.ndim < 1:
        raise DomainError("input is not a permutation of 0..K-1")
    idx = np.arange(p.shape[-1])
    if not np.all(np.sort(p, axis=-1) == idx):
        raise DomainError("input is not a permutation of 0..K-1")
    inverted = (p[..., :, None] > p[..., None, :]) & (idx[:, None] < idx[None, :])
    counts = np.count_nonzero(inverted, axis=(-2, -1))
    return int(counts) if p.ndim == 1 else counts


def hard_permutations(p_tildes: np.ndarray) -> np.ndarray:
    """Deterministic legal-permutation estimates (B, K) of a (B, K, K) stack
    of relaxed permutations: each block's row argmax where that is already a
    permutation, else a greedy assignment in which the most confident rows
    claim their column first."""
    k = p_tildes.shape[-1]
    hard = np.argmax(p_tildes, axis=-1)
    legal = np.all(np.sort(hard, axis=-1) == np.arange(k), axis=-1)
    for b in np.flatnonzero(~legal):
        pt = p_tildes[b]
        taken = np.zeros(k, dtype=bool)
        for i in np.argsort(-pt.max(axis=1)):
            hard[b, i] = np.argmax(np.where(taken, -np.inf, pt[i]))
            taken[hard[b, i]] = True
    return hard


def _row_argmax_onehot(m: np.ndarray) -> np.ndarray:
    """Hard row-wise softmax limit; ties break to the lowest column index."""
    out = np.zeros_like(m, dtype=float)
    out[np.arange(m.shape[0]), np.argmax(m, axis=1)] = 1.0
    return out


def spl_legalize(p: np.ndarray, rng: np.random.Generator,
                 max_attempts: int = SPL_MAX_ATTEMPTS) -> np.ndarray:
    """Force a relaxed matrix to an exact permutation.

    Row-argmax binarization, SVD polar projection away from saddle points,
    then up to max_attempts Gaussian tie-breaking draws; returns the first
    whose row argmax is legal.
    """
    if max_attempts < 1:
        raise DomainError("max_attempts must be at least 1")
    p = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(p)):
        raise DomainError("input matrix must be finite")
    hard = _row_argmax_onehot(p)
    if is_permutation(hard):
        return hard
    u, _, vh = np.linalg.svd(hard)
    base = np.abs(u @ vh)
    std = SPL_SIGMA * max(base.max(), 1e-12)
    for _ in range(max_attempts):
        candidate = _row_argmax_onehot(base + rng.normal(0.0, std, size=base.shape))
        if is_permutation(candidate):
            return candidate
    raise LegalizationError(
        f"no legal permutation found in {max_attempts} attempts",
        best_effort=base,
    )
