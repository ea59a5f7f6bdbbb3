"""Structured complex-linear forward model with analytic reverse-mode grads.

The circuit is a fixed stack of layer types (phase column, coupler column,
crossing/permutation layer) composed into blocks, blocks into unitaries, and
unitaries into SVD-style weight tiles. Each layer has a hand-written
vector-Jacobian product; the engine walks the structure instead of using a
generic autodiff graph.
"""
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, DomainError
from .pdk import BlockCounts, perm_proxy_terms
from .permutation import (
    count_crossings,
    hard_permutations,
    init_smoothed_identity,
    perm_array_to_matrix,
    reparametrize,
    reparametrize_backward,
)
from .topology import Topology, coupler_offset, n_coupler_slots

ROOT2_OVER_2 = math.sqrt(2.0) / 2.0
STE_SCALE = (2.0 - math.sqrt(2.0)) / 4.0
CERTAIN_GATE = np.array([0.0, 1.0])   # (m1, m2) of a kept block: its factor is A
CERTAIN_GATE.setflags(write=False)


# ---------------------------------------------------------------------------
# coupler binarization (straight-through estimator)

def quantize_coupler(t_latent):
    """Binarize a latent to sqrt(2)/2 (coupler placed) or 1 (pass-through)."""
    t = np.asarray(t_latent, dtype=float)
    return np.where(t < 0.0, ROOT2_OVER_2, 1.0)


def quantize_coupler_grad(g_tq):
    """Straight-through backward: scale by (2-sqrt(2))/4 and clip to [-1, 1]."""
    return np.clip(np.asarray(g_tq, dtype=float) * STE_SCALE, -1.0, 1.0)


# ---------------------------------------------------------------------------
# coupler columns over flat (block, waveguide) slot indices

@functools.lru_cache(maxsize=64)
def _slot_index(k: int, offsets: tuple):
    """Flat coupler-slot indices of a column stack: for every slot of every
    block, its block b and its first waveguide a (the pair is a, a + 1).
    Memoized on (k, offsets), so every coupler_matrix call and the partner
    index of one layout share one index; the arrays are read-only."""
    offsets = np.asarray(offsets, dtype=int)
    counts = (k - offsets) // 2
    blk = np.repeat(np.arange(offsets.shape[0]), counts)
    first = np.cumsum(counts) - counts
    a = offsets[blk] + 2 * (np.arange(blk.shape[0]) - first[blk])
    return _read_only(blk), _read_only(a)


# Every column j of a coupler column T has at most two nonzeros: the diagonal
# T[j, j] = t_j and the partner entry T[p(j), j] = i c_j, where p swaps the two
# waveguides of a coupler slot (c_j = sqrt(1 - t_j^2)) and an unpaired
# waveguide is its own partner with c_j = 0. The engine builds T as these two
# entries and forms every product with T from them.

def coupler_matrix(t_flat, k: int, offsets):
    """The two nonzeros of every column of a stack of coupler columns, block
    b starting at waveguide offsets[b], as real (B, K) arrays (diag, cross):
    T[j, j] = diag[j] and T[p(j), j] = i cross[j]. t_flat holds the slot
    transmissions of all blocks, block after block; an unpaired waveguide
    has diag 1 and cross 0."""
    blk, a = _slot_index(k, tuple(offsets))
    t = np.asarray(t_flat, dtype=float)
    if t.shape != blk.shape:
        raise DomainError("transmission vector length does not match K and the offsets")
    diag = np.ones((len(offsets), k))
    diag[blk, a] = t
    diag[blk, a + 1] = t
    return diag, np.sqrt(np.maximum(1.0 - diag ** 2, 0.0))


@functools.lru_cache(maxsize=64)
def _partner_index(k: int, offsets: tuple):
    """Flat gather index of the partner columns of a (B, K, K) stack: entry
    (b, i, j) holds the flat position of (b, i, p_b(j)). Memoized on
    (k, offsets) like _slot_index; read-only."""
    blk, a = _slot_index(k, offsets)
    n_blocks = len(offsets)
    partner = np.tile(np.arange(k), (n_blocks, 1))
    partner[blk, a] = a + 1
    partner[blk, a + 1] = a
    rows = np.arange(n_blocks)[:, None, None] * k + np.arange(k)[:, None]
    return _read_only(rows * k + partner[:, None, :])


def _two_entry_product(p_tildes, diag, cross, partner):
    """P~T column by column, (P~T)[:, j] = P~[:, j] t_j + i P~[:, p(j)] c_j.
    Returns P~T and the gathered partner columns P~[:, p(j)]."""
    p_partner = np.take(p_tildes, partner)
    pt_t = np.empty(p_tildes.shape, dtype=complex)
    np.multiply(p_tildes, diag[:, None, :], out=pt_t.real)
    np.multiply(p_partner, cross[:, None, :], out=pt_t.imag)
    return pt_t, p_partner


# ---------------------------------------------------------------------------
# array helpers

def _read_only(a):
    """Mark an array read-only and return it."""
    a.setflags(write=False)
    return a


@functools.lru_cache(maxsize=64)
def _identity(k: int):
    """np.eye(k), memoized and read-only."""
    return _read_only(np.eye(k))


def _same_values(held, a):
    """np.array_equal(held, a) for a held copy, None before the first build."""
    return held is not None and held.shape == a.shape and bool((held == a).all())


def _herm(x):
    """Conjugate transpose of the last two axes."""
    return x.swapaxes(-1, -2).conj()


def _normalize_backward(u, norms, g_y, axis):
    # y = u / norms; norms real, broadcast along `axis`
    s = (g_y.conj() * u).real.sum(axis=axis, keepdims=True)
    return g_y / norms - (s / norms ** 3) * u


# ---------------------------------------------------------------------------
# the trainable SuperMesh

@dataclass
class MeshGrads:
    """Gradients matching SuperMesh's trainable arrays.

    A field is None when nothing reads it: t_latent when the couplers are
    frozen, p_raw when the permutations are frozen, m when every gate is
    frozen (the mesh of a fixed topology has all three).
    """

    phi: np.ndarray       # (P, Q, B, K)
    sigma: np.ndarray     # (P, Q, K)
    t_latent: np.ndarray  # (S,) like t_flat; None when couplers are frozen
    p_raw: np.ndarray     # (B, K, K); None when permutations are frozen
    m: np.ndarray         # (B, 2) gate-weight cotangents; None if all frozen


class SuperMesh:
    """Over-parameterized circuit: per-block phases, coupler latents, relaxed
    permutations, gate logits, and per-tile diagonal scales.

    The coupler latents of all blocks live in one flat array t_flat, block
    after block; t_latent is a tuple of writable per-block views into it.
    """

    def __init__(self, k, n_u, n_v, m_rows=None, n_cols=None,
                 n_frozen=0, rng=None):
        if rng is None:
            rng = np.random.default_rng(0)
        self.k = k
        self.n_u = n_u
        self.n_v = n_v
        self.n_blocks = n_u + n_v
        self.m_rows = m_rows if m_rows is not None else k
        self.n_cols = n_cols if n_cols is not None else k
        self.p_tiles = (self.m_rows + k - 1) // k
        self.q_tiles = (self.n_cols + k - 1) // k

        b = self.n_blocks
        self.offsets = [coupler_offset(self.local_index(i)) for i in range(b)]
        self.phi = rng.uniform(-np.pi, np.pi, (self.p_tiles, self.q_tiles, b, k))
        self.sigma = rng.uniform(-1.0, 1.0, (self.p_tiles, self.q_tiles, k))
        self.t_flat = rng.uniform(-1.0, 1.0, sum(n_coupler_slots(k, o)
                                                 for o in self.offsets))
        self.p_raw = np.stack([init_smoothed_identity(k) for _ in range(b)])
        self.theta = np.zeros((b, 2))
        self.frozen = np.zeros(b, dtype=bool)
        # the last n_frozen blocks of each unitary are always kept
        self.frozen[n_u - n_frozen:n_u] = True
        self.frozen[b - n_frozen:] = True
        self.perms_trainable = True
        self.couplers_trainable = True
        self._structure = {}
        self._workspace = {}    # backward buffers by factor-stack shape

    # -- structure helpers --------------------------------------------------

    def local_index(self, b: int) -> int:
        return b if b < self.n_u else b - self.n_u

    def u_block_ids(self):
        return list(range(self.n_u))

    def v_block_ids(self):
        return list(range(self.n_u, self.n_blocks))

    @property
    def t_latent(self):
        """Per-block coupler latents: a tuple of writable views into t_flat,
        so write a block in place (t_latent[b][:] = x)."""
        counts = [n_coupler_slots(self.k, o) for o in self.offsets]
        if sum(counts) != self.t_flat.size:
            raise DomainError("t_flat length does not match K and the offsets")
        ends = np.cumsum(counts).tolist()
        return tuple(self.t_flat[end - n:end] for n, end in zip(counts, ends))

    def structure_groups(self, grads: MeshGrads):
        """(params, grads): the structure arrays this mesh trains and their
        gradients, t_flat first if the couplers train, then p_raw if the
        permutations do. Adam pairs its moments with parameters by position,
        so every trainer steps them in this order."""
        groups = [(self.t_flat, grads.t_latent, self.couplers_trainable),
                  (self.p_raw, grads.p_raw, self.perms_trainable)]
        return ([p for p, _, on in groups if on],
                [g for _, g, on in groups if on])

    @classmethod
    def from_topology(cls, topology: Topology, m_rows=None, n_cols=None, rng=None):
        """Fixed-structure mesh: all gates certain, couplers and permutations
        pinned; only phases and sigma remain trainable."""
        mesh = cls(topology.k, len(topology.blocks_u), len(topology.blocks_v),
                   m_rows=m_rows, n_cols=n_cols, rng=rng)
        mesh.frozen[:] = True
        mesh.perms_trainable = False
        mesh.couplers_trainable = False
        for b, blk in enumerate(topology.blocks):
            mesh.offsets[b] = blk.offset
            mesh.p_raw[b] = perm_array_to_matrix(blk.perm)
            mesh.phi[:, :, b, :] = blk.phases
        # the slot counts follow the offsets, which may differ from the
        # default interleave: rebuild the flat latents to match
        mesh.t_flat = np.concatenate([np.where(blk.coupler_mask, -1.0, 1.0)
                                      for blk in topology.blocks])
        return mesh

    # -- views consumed by footprint accounting -----------------------------

    def keep_probs(self) -> np.ndarray:
        """Noiseless block selection probabilities softmax(theta)[:, keep]."""
        return expected_keep_prob(self.theta, self.frozen)

    def keep_prob_theta_grad(self, g_prob: np.ndarray) -> np.ndarray:
        """Chain a cotangent on keep_probs back to theta. Frozen blocks have
        probability 1, so p (1 - p) gives them 0."""
        p = self.keep_probs()
        g_keep = g_prob * p * (1.0 - p)
        return np.stack([-g_keep, g_keep], axis=-1)

    def perm_tildes(self):
        """The (B, K, K) relaxed permutations P~ (cached, read-only)."""
        return self._structure_cache()["p_tildes"]

    def footprint_counts(self) -> BlockCounts:
        """Per-block device counts for the footprint terms (cached,
        read-only): discrete counts from the binarized couplers and the hard
        permutation estimates, and the crossing proxy terms."""
        c = self._structure_cache()
        return BlockCounts(n_dc=c["n_dc"], n_cr=c["n_cr"], p_diff=c["p_diff"],
                           p_sqdist=c["p_sqdist"], slot_block=c["slots"][0])

    # -- block structure cache ----------------------------------------------
    #
    # The relaxed permutations P~ and the coupler columns T stay fixed over
    # runs of steps: arch steps, the forward after a dual update, P~ after
    # SPL, and both over a whole fixed-topology retrain. One rule decides
    # every rebuild, by value against copies taken at the last build, so
    # in-place edits are seen: the P~ part when p_raw differs, the T part
    # when t_flat or the offsets do, and the product P~T whenever either
    # part is rebuilt (the next forward needs it then). T is keyed on the
    # latents, not their binarized values, so the builds per step follow the
    # schedule, not the data. Everything the footprint terms count is built
    # with its part, so a step that reuses a part recounts nothing. The
    # cached arrays are read-only and are replaced, not written, on a
    # rebuild, so a forward cache holding them stays valid.

    def _structure_cache(self):
        """The block structure, rebuilt by the rule above; returns the cache
        dict. The P~ part: P~, the reparametrize cache, the crossing counts
        of the hard permutation estimates, and the proxy terms P~ - I and
        ||P~ - I||_F^2. The T part: the two nonzeros of each column of the
        coupler columns T of the binarized transmissions, the flat slot and
        partner indices, the binarized transmissions and the discrete
        coupler counts. The product: P~T, its conjugate and the partner
        columns P~[:, p(j)]."""
        c = self._structure
        offsets = list(self.offsets)
        perm_stale = not _same_values(c.get("p_raw"), self.p_raw)
        coupler_stale = not (c.get("offsets") == offsets
                             and _same_values(c.get("t_raw"), self.t_flat))
        if perm_stale:
            p_tildes, p_cache = reparametrize(self.p_raw)
            p_diff, p_sqdist = perm_proxy_terms(p_tildes)
            c.update(p_raw=self.p_raw.copy(), p_tildes=_read_only(p_tildes),
                     p_cache={n: _read_only(a) for n, a in p_cache.items()},
                     n_cr=_read_only(count_crossings(hard_permutations(p_tildes))),
                     p_diff=_read_only(p_diff), p_sqdist=_read_only(p_sqdist))
        if coupler_stale:
            t_raw = self.t_flat.astype(float)
            t_q = quantize_coupler(t_raw)
            diag, cross = coupler_matrix(t_q, self.k, offsets)
            blk, a = _slot_index(self.k, tuple(offsets))
            c.update(offsets=offsets, t_raw=_read_only(t_raw),
                     t_q=_read_only(t_q),
                     t_cols=(_read_only(diag), _read_only(cross)),
                     slots=(blk, a), partner=_partner_index(self.k, tuple(offsets)),
                     n_dc=_read_only(np.bincount(blk[t_raw < 0.0],
                                                 minlength=len(offsets))))
        if perm_stale or coupler_stale:
            pt_t, p_partner = _two_entry_product(c["p_tildes"], *c["t_cols"],
                                                 c["partner"])
            c.update(pt_t=_read_only(pt_t), pt_conj=_read_only(pt_t.conj()),
                     p_partner=_read_only(p_partner))
        return c

    def _backward_workspace(self, factors_shape):
        """The backward pass's stack-sized buffers for a (P, Q, 2, L, K, K)
        factor stack, made on the first pass with that shape and reused by
        every later one. Backward writes its intermediates into these and
        returns none of them, so a forward cache never refers to one; two
        backward passes of one mesh must not run at the same time.

        Arrays whose lifetimes do not overlap share memory: "chain" holds
        g_left, then g_mats of unequal chains, then the tile sum S; "operand"
        the conjugated factor stack, then the conjugated partials 1..L-1,
        then each per-pass product; "factors" g_factors (and g_mats, a view
        of it when n_u == n_v), then S[:, p].
        """
        ws = self._workspace.get(factors_shape)
        if ws is None:
            p, q, _, length, k, _ = factors_shape
            b = self.n_blocks
            position = (length, p, q, 2, k, k)
            partials = (length - 1,) + position[1:]
            stack = (p, q, b, k, k)
            chain = np.empty(max(math.prod(position), math.prod(stack)), dtype=complex)
            operand = np.empty(chain.shape, dtype=complex)
            g_factors = np.empty(factors_shape, dtype=complex)
            ws = self._workspace[factors_shape] = {
                "g_left": chain[:math.prod(position)].reshape(position),
                "g_mats": chain[:math.prod(stack)].reshape(stack),
                "s": chain[:b * k * k].reshape(b, k, k),
                "factors_h": operand[:math.prod(factors_shape)].reshape(factors_shape),
                "partials_h": operand[:math.prod(partials)].reshape(partials),
                "prod": operand[:math.prod(stack)].reshape(stack),
                "g_factors": g_factors,
                "g_factors_by_position": g_factors.transpose(3, 0, 1, 2, 4, 5),
                "s_partner": g_factors.reshape(-1)[:b * k * k].reshape(b, k, k),
                "g_ptilde": np.empty((b, k, k)),
            }
        return ws

    # -- forward / backward -------------------------------------------------
    #
    # All P x Q tiles and all B blocks run at once. The block structure cache
    # gives P~T, formed from the two nonzeros of each T column, and every
    # block transfer is formed as one stack
    # A[p, q, b] = (P~_b T_b) * r[p, q, b][None, :] with r = exp(-j phi);
    # gated factors m1 I + m2 A are written over A in place.
    # The U and V chains run as one loop over L = max(n_u, n_v) positions of
    # (P, Q, 2, K, K) factors, U at index 0 and V at index 1; the shorter
    # chain is front-padded with identities (I @ I is exact, so no product
    # changes). The chain starts at the first factor, so that loop and the
    # backward's cotangent recurrence over the once-conjugated factor stack
    # make L - 1 matmuls for both chains; every block's cotangent is then
    # formed by one batched matmul, and every per-block reduction after it by
    # one batched expression: the phase and gate cotangents from one column
    # sum, the P~ and coupler cotangents from the tile sum S and the two
    # nonzeros of each T column. The backward writes every stack-sized
    # intermediate into mesh-owned buffers (_backward_workspace) and returns
    # none of them, so it allocates no stack per pass and a forward cache
    # stays valid. Frozen groups (perms_trainable or couplers_trainable
    # false, every gate frozen) get no cotangent at all.

    def forward(self, m_weights, binarize=True, phi_noise=None):
        """Assemble the full complex weight matrix.

        m_weights: (B, 2) gate weights (sampled or certain).
        phi_noise: optional array broadcastable to phi, added to the phases.
        Returns (W, cache); cache["p_tildes"] holds the (B, K, K) relaxed
        permutations for the step's ALM term, and cache["sigma"] a copy of
        the sigma W was formed with, which backward reads. The structure
        entries (p_tildes, p_cache, t_eff, slots, partner, and t_cols, pt_t,
        pt_conj and p_partner when binarized) are read-only.
        """
        k = self.k
        m_weights = np.asarray(m_weights)
        phi_eff = self.phi if phi_noise is None else self.phi + phi_noise
        r = np.exp(-1j * phi_eff)                          # (P, Q, B, K)
        c = self._structure_cache()
        p_tildes, t_eff, t_cols = c["p_tildes"], c["t_q"], c["t_cols"]
        pt_t, pt_conj, p_partner = c["pt_t"], c["pt_conj"], c["p_partner"]
        if not binarize:   # raw-latent columns and their product, not cached
            t_eff = c["t_raw"]
            t_cols = coupler_matrix(t_eff, k, c["offsets"])
            pt_t, p_partner = _two_entry_product(p_tildes, *t_cols, c["partner"])
            pt_conj = pt_t.conj()
        mats = pt_t * r[..., None, :]                      # (P, Q, B, K, K)
        gated = not (m_weights == CERTAIN_GATE).all()
        if gated:
            # factors m1 I + m2 A: scale A in place, then add m1 on the diagonals
            mats *= m_weights[:, 1, None, None]
            mats.reshape(mats.shape[:-2] + (k * k,))[..., ::k + 1] += \
                m_weights[:, 0, None]

        n_u, n_v = self.n_u, self.n_v
        length = max(n_u, n_v)
        shape = mats.shape[:2] + (2, length, k, k)
        if n_u == n_v:
            factors = mats.reshape(shape)
        else:   # front-pad the shorter chain with identity factors
            factors = np.empty(shape, dtype=complex)
            factors[...] = _identity(k)
            factors[:, :, 0, length - n_u:] = mats[:, :, :n_u]
            factors[:, :, 1, length - n_v:] = mats[:, :, n_u:]
        # partials[i]: product of the first i factors of each chain
        partials = np.empty((length + 1,) + shape[:3] + (k, k), dtype=complex)
        partials[0] = _identity(k)
        partials[1] = factors[:, :, :, 0]
        for i in range(1, length):
            np.matmul(factors[:, :, :, i], partials[i], out=partials[i + 1])
        u_raw, v_raw = partials[-1, :, :, 0], partials[-1, :, :, 1]
        u_norms = np.sqrt((np.abs(u_raw) ** 2).sum(axis=-1, keepdims=True))
        v_norms = np.sqrt((np.abs(v_raw) ** 2).sum(axis=-2, keepdims=True))
        # fmin skips NaN, as any(norms < tol) does
        if np.fmin.reduce(u_norms, axis=None) < 1e-150 or \
                np.fmin.reduce(v_norms, axis=None) < 1e-150:
            raise DegeneracyError("zero norm while normalizing a unitary")
        u_n = u_raw / u_norms
        v_n = v_raw / v_norms
        sigma = self.sigma.copy()
        w_tiles = u_n @ (sigma[..., :, None] * v_n)
        w_pad = w_tiles.transpose(0, 2, 1, 3).reshape(self.p_tiles * k,
                                                      self.q_tiles * k)
        cache = {"p_tildes": p_tildes, "p_cache": c["p_cache"],
                 "t_eff": t_eff, "t_cols": t_cols,
                 "slots": c["slots"], "partner": c["partner"],
                 "pt_t": pt_t, "pt_conj": pt_conj, "p_partner": p_partner,
                 "r": r, "gated": gated,
                 "factors": factors, "partials": partials,
                 "u_norms": u_norms, "v_norms": v_norms, "u_n": u_n, "v_n": v_n,
                 "sigma": sigma, "m": m_weights, "binarize": binarize}
        return w_pad[: self.m_rows, : self.n_cols], cache

    def backward(self, cache, g_w, extra_ptilde=None, extra_tq=None):
        """Reverse pass. g_w is the cotangent of the truncated weight matrix;
        extra_ptilde ((B, K, K)) and extra_tq ((S,), like t_flat) are
        cotangents injected on the relaxed permutations and binarized
        transmissions (ALM, proxy).

        The p_raw (t_latent) gradient is None when the mesh holds its
        permutations (couplers) frozen; extra_ptilde (extra_tq) is then unused.
        The gate cotangent m is None when every gate is frozen.
        """
        k = self.k
        m_weights = cache["m"]
        g_w_pad = np.zeros((self.p_tiles * k, self.q_tiles * k), dtype=complex)
        g_w_pad[: self.m_rows, : self.n_cols] = g_w
        g_wt = g_w_pad.reshape(self.p_tiles, k, self.q_tiles, k).transpose(0, 2, 1, 3)

        u_n, v_n = cache["u_n"], cache["v_n"]
        sig = cache["sigma"][..., :, None]
        g_un = g_wt @ _herm(sig * v_n)
        g_dv = _herm(u_n) @ g_wt
        g_sigma = (g_dv * v_n.conj()).real.sum(axis=-1)

        # g_left[i] = L^H g for the product L of the factors after position
        # i, both chains at once; then every factor's cotangent in one matmul.
        factors, partials = cache["factors"], cache["partials"]
        length = factors.shape[3]
        ws = self._backward_workspace(factors.shape)
        g_left = ws["g_left"]                               # (L, P, Q, 2, K, K)
        g_left[-1, :, :, 0] = _normalize_backward(partials[-1, :, :, 0],
                                                  cache["u_norms"], g_un, axis=-1)
        g_left[-1, :, :, 1] = _normalize_backward(partials[-1, :, :, 1],
                                                  cache["v_norms"], sig * g_dv,
                                                  axis=-2)
        factors_h = np.conjugate(factors, out=ws["factors_h"])
        for i in range(length - 1, 0, -1):
            np.matmul(factors_h[:, :, :, i].swapaxes(-1, -2), g_left[i],
                      out=g_left[i - 1])
        # partials[0] = I, so position 0's cotangent is g_left[0] itself
        g_factors = ws["g_factors"]
        g_factors[:, :, :, 0] = g_left[0]
        partials_h = np.conjugate(partials[1:-1], out=ws["partials_h"])
        np.matmul(g_left[1:], partials_h.swapaxes(-1, -2),
                  out=ws["g_factors_by_position"][1:])
        # g_mats[p, q, b]: cotangent on block b's gated factor in tile (p, q);
        # g_left and partials_h are dead from here on
        stack = factors.shape[:2] + (self.n_blocks, k, k)
        if self.n_u == self.n_v:
            g_mats = g_factors.reshape(stack)
        else:   # drop the padding
            g_mats = np.concatenate((g_factors[:, :, 0, length - self.n_u:],
                                     g_factors[:, :, 1, length - self.n_v:]),
                                    axis=2, out=ws["g_mats"])

        # the column sums G[p, q, b, j] = sum_i g_mats[i, j] conj(P~T[i, j])
        # give every phase and gate cotangent: g_r = m2 G, and the m2
        # cotangent sum_ij conj(g_mats) A = sum_j r_j conj(G_j)
        r = cache["r"]
        prod = np.multiply(g_mats, cache["pt_conj"], out=ws["prod"])
        g_col = np.einsum("...ij->...j", prod)             # (P, Q, B, K)
        g_m = None
        if not self.frozen.all():
            g_m = np.stack([g_mats.trace(axis1=-2, axis2=-1).sum(axis=(0, 1)).real,
                            (r * g_col.conj()).real.sum(axis=(0, 1, 3))],
                           axis=-1)
        gated = cache["gated"]
        g_r = g_col * m_weights[:, 1, None] if gated else g_col
        g_phi = (g_r.conj() * (-1j * r)).real

        g_p_raw = g_t_latent = None
        if self.perms_trainable or self.couplers_trainable:
            # the tile sum S = sum_pq g_A conj(r) carries every P~ and T
            # cotangent; g_A = m2 g_mats, and m2 is the same in every tile
            np.multiply(g_mats, r.conj()[..., None, :], out=prod)
            s = prod.sum(axis=(0, 1), out=ws["s"])
            if gated:
                s *= m_weights[:, 1, None, None]
        if self.perms_trainable:
            # g_P~ = Re(S T^H) = Re(S) t + Im(S[:, p]) c, column by column
            t_diag, t_cross = cache["t_cols"]
            s_partner = np.take(s, cache["partner"], mode="clip",
                                out=ws["s_partner"])
            g_ptilde = np.multiply(s.real, t_diag[:, None, :], out=ws["g_ptilde"])
            s_partner.imag *= t_cross[:, None, :]
            g_ptilde += s_partner.imag
            if extra_ptilde is not None:
                g_ptilde += extra_ptilde
            g_p_raw = reparametrize_backward(cache["p_cache"], g_ptilde)

        if self.couplers_trainable:
            # a slot (a, a + 1) reads four entries of g_T = P~^T S, the column
            # dots sum_i P~[i, x] S[i, y] at y = x (real parts) and at
            # y = p(x) (imaginary parts)
            g_diag = np.einsum("bij,bij->bj", cache["p_tildes"], s.real)
            g_cross = np.einsum("bij,bij->bj", cache["p_partner"], s.imag)
            blk, a = cache["slots"]
            t_eff = cache["t_eff"]
            cross = np.sqrt(np.maximum(1.0 - t_eff ** 2, 0.0))
            dcross = -t_eff / np.maximum(cross, 1e-12)
            g_tq = (g_diag[blk, a] + g_diag[blk, a + 1]
                    + dcross * (g_cross[blk, a] + g_cross[blk, a + 1]))
            if extra_tq is not None:
                g_tq = g_tq + extra_tq
            g_t_latent = quantize_coupler_grad(g_tq) if cache["binarize"] \
                else g_tq

        return MeshGrads(phi=g_phi, sigma=g_sigma, t_latent=g_t_latent,
                         p_raw=g_p_raw, m=g_m)


def certainty_gates(n_blocks: int) -> np.ndarray:
    """Gate weights with every block kept deterministically."""
    return np.tile(CERTAIN_GATE, (n_blocks, 1))


def expected_keep_prob(theta, frozen=False):
    """Noiseless selection probability softmax(theta)[keep].

    theta is one (2,) logit pair or a (..., 2) stack; frozen is a bool or a
    matching (...) mask, and frozen gates give 1. A single pair gives a float.
    """
    z = np.asarray(theta, dtype=float)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    probs = np.where(frozen, 1.0, e[..., 1] / e.sum(axis=-1))
    return float(probs) if probs.ndim == 0 else probs
