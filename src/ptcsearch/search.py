"""Depth search over the SuperMesh.

Gumbel-Softmax gate sampling, the warmup/alternating training schedule,
permutation legalization mid-run, and constraint-respecting SubMesh
extraction.
"""
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import schema
from .errors import ConfigError, DivergenceError, InfeasibleError, StateError
from .mesh import SuperMesh
from .optim import Adam, cosine_lr
from .pdk import (
    FootprintConstraint,
    PdkSpec,
    PenaltyConfig,
    block_bounds,
    block_footprint,
    footprint_coefficient,
    footprint_expected,
    footprint_proxy,
    load_pdk,
)
from .permutation import (
    AlmState,
    alm_loss,
    dual_update,
    is_permutation,
    perm_matrix_to_array,
    reparametrize,  # noqa: F401 (re-export)
    rho_schedule,
    spl_legalize,
)
from .topology import TopoBlock, Topology

# gate draws sample_submesh makes before its deterministic fallbacks
SUBMESH_TRIES = 200


# ---------------------------------------------------------------------------
# gate sampling

def gumbel_sample(theta, tau, rng, frozen=False, noise=None):
    """Gumbel-Softmax gate weights m = softmax((theta + g) / tau).

    theta is one (2,) logit pair or a (..., 2) stack; frozen is a bool or a
    matching (...) mask. Frozen gates return (0, 1) without consuming
    randomness; the others share one draw, in row order. noise overrides the
    Gumbel draw (used by gradient checks) and has theta's shape."""
    theta = np.asarray(theta, dtype=float)
    free = ~np.broadcast_to(np.asarray(frozen, dtype=bool), theta.shape[:-1])
    m = np.zeros_like(theta)
    m[..., 1] = 1.0
    if not free.any():
        return m
    if tau <= 0:
        raise ValueError("tau must be positive")
    if noise is None:
        u = rng.uniform(1e-12, 1.0 - 1e-12, size=(np.count_nonzero(free), 2))
        g = -np.log(-np.log(u))
    else:
        g = np.asarray(noise, dtype=float)[free]
    z = (theta[free] + g) / tau
    z -= z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    m[free] = e / e.sum(axis=-1, keepdims=True)
    return m


def gumbel_backward(m, tau, g_m, frozen=False):
    """Cotangent on theta through the softmax (noise held fixed).

    Accepts (..., 2) stacks with a matching frozen mask; frozen gates get 0."""
    m = np.asarray(m, dtype=float)
    g_m = np.asarray(g_m, dtype=float)
    inner = np.sum(g_m * m, axis=-1, keepdims=True)
    g_theta = m * (g_m - inner) / tau
    return np.where(np.asarray(frozen, dtype=bool)[..., None], 0.0, g_theta)


def sample_gates(mesh: SuperMesh, tau, rng, noise=None):
    """Per-block gate weights for one training step, from one draw."""
    return gumbel_sample(mesh.theta, tau, rng, frozen=mesh.frozen, noise=noise)


# ---------------------------------------------------------------------------
# configuration

@dataclass
class SearchSchedule:
    """Two-stage schedule: weights-only warmup, then 3:1 alternation."""

    warmup_epochs: int = 10
    spl_epoch: int = 50
    total_epochs: int = 90
    steps_per_epoch: int = 20
    weight_arch_ratio: int = 3
    tau_start: float = 5.0
    tau_end: float = 0.5
    lr: float = 1e-3
    arch_lr: float = 2.5e-2
    weight_decay: float = 1e-4       # on phi and sigma
    arch_weight_decay: float = 5e-4  # on theta

    def __post_init__(self):
        schema.check_fields(self, schema.SCHEDULE)
        if not self.warmup_epochs < self.spl_epoch < self.total_epochs:
            raise ConfigError("schedule requires warmup_epochs < spl_epoch "
                              "< total_epochs")

    def tau_at(self, epoch: int) -> float:
        """Exponential decay with exact endpoints."""
        frac = epoch / (self.total_epochs - 1)
        return self.tau_start * (self.tau_end / self.tau_start) ** frac


@dataclass
class SearchConfig:
    """Everything run_search needs besides the task and the RNG."""

    k: int
    pdk: object                    # PdkSpec, builtin name, or path
    constraint: FootprintConstraint
    penalty: PenaltyConfig = field(default_factory=PenaltyConfig)
    rho0: Optional[float] = None

    def __post_init__(self):
        schema.check_fields(self, schema.SEARCH)


# ---------------------------------------------------------------------------
# one optimization step

class SearchState:
    """Mutable training context: optimizers, ALM state, step counters."""

    def __init__(self, mesh, config: SearchConfig, schedule: SearchSchedule,
                 pdk: PdkSpec):
        self.pdk = pdk
        self.config = config
        self.schedule = schedule
        spe = schedule.steps_per_epoch
        # the multipliers and rho are updated on every pre-SPL weights step
        pre_spl = itertools.takewhile(lambda s: s[0] < schedule.spl_epoch,
                                      iter_phases(schedule))
        alm_steps = sum(phase == "weights" for _, _, phase in pre_spl)
        self.alm = AlmState.init(mesh.n_blocks, mesh.k, rho0=config.rho0,
                                 total_steps=max(1, alm_steps))
        self.opt_weights = Adam(lr=schedule.lr,
                                weight_decay=schedule.weight_decay)
        self.opt_struct = Adam(lr=schedule.lr)  # couplers/permutations: no decay
        self.opt_arch = Adam(lr=schedule.arch_lr,
                             weight_decay=schedule.arch_weight_decay)
        self.weight_step = 0
        self.total_weight_steps = max(1, spe * schedule.total_epochs)
        self.tau = schedule.tau_start


def search_step(mesh: SuperMesh, task, phase: str, state: SearchState, rng,
                batch=None):
    """One optimizer step on L_task + L_P + L_F for the given phase.

    Once the permutations are legalized and frozen, L_P is 0 (every legal P~
    has a zero l1-l2 gap) and is not evaluated.
    """
    m = sample_gates(mesh, state.tau, rng)
    if batch is None:
        batch = task.sample_batch(rng)
    w, cache = mesh.forward(m, binarize=True)
    task_val, g_w = task.loss_and_grad(w, batch)

    alm_val, extra_ptilde = 0.0, None
    if mesh.perms_trainable:
        alm_val, extra_ptilde = alm_loss(cache["p_tildes"], state.alm)

    # inside the window the penalty's coefficient is 0, and so are its value
    # and every cotangent it sends: the proxy is not evaluated
    exp_exact = footprint_expected(mesh, state.pdk)
    coeff = footprint_coefficient(exp_exact, state.config.constraint,
                                  state.config.penalty)
    lf_val, prox_grads = 0.0, None
    if coeff != 0.0:
        prox_val, prox_grads = footprint_proxy(mesh, state.pdk,
                                               state.config.penalty)
        lf_val = coeff * prox_val
    total = task_val + alm_val + lf_val
    if not math.isfinite(total):
        raise DivergenceError("non-finite search loss",
                              snapshot={"task": task_val, "alm": alm_val,
                                        "footprint": lf_val})

    extra_tq = None
    if prox_grads is not None:
        extra_tq = coeff * prox_grads.d_tq
        if mesh.perms_trainable:
            extra_ptilde = extra_ptilde + coeff * prox_grads.d_ptilde
    grads = mesh.backward(cache, g_w, extra_ptilde=extra_ptilde,
                          extra_tq=extra_tq)

    if phase == "weights":
        lr = cosine_lr(state.schedule.lr, state.weight_step,
                       state.total_weight_steps)
        self_params = [mesh.phi, mesh.sigma]
        self_grads = [grads.phi, grads.sigma]
        state.opt_weights.step(self_params, self_grads, lr=lr)
        struct_params, struct_grads = mesh.structure_groups(grads)
        if struct_params:
            state.opt_struct.step(struct_params, struct_grads, lr=lr)
        if mesh.perms_trainable:
            dual_update(state.alm, mesh.perm_tildes())
            rho_schedule(state.alm)
        state.weight_step += 1
    elif phase == "arch":
        g_theta = np.zeros_like(mesh.theta) if grads.m is None else \
            gumbel_backward(m, state.tau, grads.m, frozen=mesh.frozen)
        if prox_grads is not None:
            g_theta += mesh.keep_prob_theta_grad(coeff * prox_grads.d_keep)
        state.opt_arch.step([mesh.theta], [g_theta])
    else:
        raise ValueError(f"unknown phase '{phase}'")

    return {"task": task_val, "alm": alm_val, "footprint": lf_val,
            "total": total, "expected_footprint": exp_exact,
            "rho": state.alm.rho,
            "mean_lambda": float(state.alm.lambda_row.mean())}


# ---------------------------------------------------------------------------
# legalization and SubMesh extraction

def legalize_mesh(mesh: SuperMesh, rng):
    """Force every crossing layer to a legal permutation and freeze it."""
    p_tildes = mesh.perm_tildes()
    for b in range(mesh.n_blocks):
        mesh.p_raw[b] = spl_legalize(p_tildes[b], rng)
    mesh.perms_trainable = False


def mesh_to_topology(mesh: SuperMesh, keep, pdk_name: str) -> Topology:
    """Extract the discrete design for the kept blocks."""
    blocks_u, blocks_v = [], []
    p_tildes = mesh.perm_tildes()
    t_latent = mesh.t_latent
    for b in range(mesh.n_blocks):
        if not keep[b]:
            continue
        pt = p_tildes[b]
        if not is_permutation(pt, tol=1e-9):
            raise StateError(f"block {b} permutation is not legalized")
        blk = TopoBlock(
            phases=mesh.phi[0, 0, b].copy(),
            coupler_mask=t_latent[b] < 0.0,
            offset=mesh.offsets[b],
            perm=perm_matrix_to_array(pt),
        )
        (blocks_u if b < mesh.n_u else blocks_v).append(blk)
    return Topology(k=mesh.k, pdk_name=pdk_name,
                    blocks_u=blocks_u, blocks_v=blocks_v)


def sample_submesh(mesh: SuperMesh, c: FootprintConstraint, pdk: PdkSpec,
                   rng) -> Topology:
    """Draw block-keep decisions from the learned gate distribution until the
    exact footprint lands in the window; falls back to the most probable
    feasible configuration."""
    probs = mesh.keep_probs()
    counts = mesh.footprint_counts()
    areas = block_footprint(pdk, mesh.k, counts.n_dc, counts.n_cr)
    frozen = mesh.frozen
    u_ids = np.array(mesh.u_block_ids())
    v_ids = np.array(mesh.v_block_ids())

    def valid(keep):
        return keep[u_ids].any() and keep[v_ids].any() and \
            c.contains(float(areas[keep].sum()))

    for _ in range(SUBMESH_TRIES):
        keep = frozen | (rng.uniform(size=mesh.n_blocks) < probs)
        if valid(keep):
            return mesh_to_topology(mesh, keep, pdk.name)

    # exhaustive fallback over the unfrozen gates, most probable config first
    free = np.flatnonzero(~frozen)
    if len(free) <= 16:
        best_keep, best_p = None, -1.0
        for bits in itertools.product([False, True], repeat=len(free)):
            keep = frozen.copy()
            keep[free] = bits
            if not valid(keep):
                continue
            p = 1.0
            for i, b in enumerate(free):
                p *= probs[b] if bits[i] else (1.0 - probs[b])
            if p > best_p:
                best_keep, best_p = keep, p
        if best_keep is not None:
            return mesh_to_topology(mesh, best_keep, pdk.name)
    else:
        # greedy: start from the max-probability config, toggle the least
        # confident gates until the window is met
        keep = frozen | (probs >= 0.5)
        order = np.argsort(np.abs(probs - 0.5))
        for b in order:
            if frozen[b]:
                continue
            if valid(keep):
                return mesh_to_topology(mesh, keep, pdk.name)
            total = float(areas[keep].sum())
            if total > c.f_max and keep[b]:
                keep[b] = False
            elif total < c.f_min and not keep[b]:
                keep[b] = True
        if valid(keep):
            return mesh_to_topology(mesh, keep, pdk.name)
    raise InfeasibleError("no block configuration satisfies the footprint window")


# ---------------------------------------------------------------------------
# the full search

def iter_phases(schedule: SearchSchedule):
    """Yield (epoch, step, phase) over the whole run: weights-only during
    warmup, then a strict weights/arch cycle at the configured ratio."""
    ratio = schedule.weight_arch_ratio
    cycle = 0
    for epoch in range(schedule.total_epochs):
        for step in range(schedule.steps_per_epoch):
            if epoch < schedule.warmup_epochs:
                yield epoch, step, "weights"
            else:
                phase = "arch" if cycle % (ratio + 1) == ratio else "weights"
                cycle += 1
                yield epoch, step, phase


def run_search(config: SearchConfig, schedule: SearchSchedule, task, rng):
    """Warmup -> alternating search -> SPL -> frozen-permutation training ->
    SubMesh sampling. Returns (mesh, topology, epoch_logs)."""
    pdk = load_pdk(config.pdk)
    bounds = block_bounds(pdk, config.k, config.constraint)
    n_per = bounds.per_unitary_max
    n_frozen = min(bounds.per_unitary_min, n_per)
    mesh = SuperMesh(config.k, n_per, n_per,
                     m_rows=task.m_rows, n_cols=task.n_cols,
                     n_frozen=n_frozen, rng=rng)
    state = SearchState(mesh, config, schedule, pdk)
    logs = []
    for epoch, step, phase in iter_phases(schedule):
        if step == 0:
            if epoch == schedule.spl_epoch:
                legalize_mesh(mesh, rng)
                # the structure group shrinks to the couplers: restart its moments
                state.opt_struct = Adam(lr=schedule.lr)
            state.tau = schedule.tau_at(epoch)
        losses = search_step(mesh, task, phase, state, rng)
        if step == schedule.steps_per_epoch - 1:
            logs.append({"epoch": epoch, "phase": phase, "tau": state.tau, **losses})
    topology = sample_submesh(mesh, config.constraint, pdk, rng)
    return mesh, topology, logs
