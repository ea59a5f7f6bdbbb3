"""Forward model layers, composition, tiling, and analytic gradients."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fd_check
from oracle import (
    WeightPartition,
    block_transfer,
    build_unitary,
    coupler_column,
    cr_apply,
    dc_apply,
    normalize_unitary,
    partition_matmul,
    ps_apply,
    tile_forward,
    weight_partition_oracle,
)
from ptcsearch import (
    DegeneracyError,
    DomainError,
    MatrixFitTask,
    SuperMesh,
    certainty_gates,
    quantize_coupler,
    quantize_coupler_grad,
)
from ptcsearch.mesh import coupler_matrix
from ptcsearch.pdk import (
    PenaltyConfig,
    footprint_expected,
    footprint_proxy,
    load_pdk,
)
from ptcsearch.search import sample_gates
from ptcsearch.tasks import random_unitary
from ptcsearch.topology import TopoBlock, Topology, coupler_offset, n_coupler_slots

ROOT2_OVER_2 = math.sqrt(2.0) / 2.0
STE_SCALE = (2.0 - math.sqrt(2.0)) / 4.0


# ---------------------------------------------------------------------------
# phase shifters

def test_ps_zero_phase_is_identity():
    x = np.array([1 + 2j, -3j, 0.5])
    assert np.allclose(ps_apply(np.zeros(3), x), x)


def test_ps_pi_negates():
    x = np.array([1.0 + 0j, 0.0])
    y = ps_apply(np.array([np.pi, 0.0]), x)
    assert np.allclose(y, [-1.0, 0.0], atol=1e-12)


def test_ps_preserves_modulus():
    rng = np.random.default_rng(0)
    x = rng.normal(size=6) + 1j * rng.normal(size=6)
    y = ps_apply(rng.uniform(-np.pi, np.pi, 6), x)
    assert np.allclose(np.abs(y), np.abs(x))


def test_ps_dimension_mismatch():
    with pytest.raises(DomainError):
        ps_apply(np.zeros(3), np.zeros(4, dtype=complex))


# ---------------------------------------------------------------------------
# couplers

def test_dc_bar_state_passthrough():
    x = np.array([1.0, 2j, -1.0, 0.5 + 0.5j])
    assert np.allclose(dc_apply(np.ones(2), 0, x), x)


def test_dc_single_coupler_transfer():
    y = dc_apply(np.array([ROOT2_OVER_2]), 0, np.array([1.0 + 0j, 0.0]))
    assert np.allclose(y, [ROOT2_OVER_2, 1j * ROOT2_OVER_2], atol=1e-12)


def test_dc_offset_leaves_first_channel():
    x = np.array([1.0 + 0j, 0.0, 0.0])
    y = dc_apply(np.array([ROOT2_OVER_2]), 1, x)
    assert np.allclose(y, x)


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=3))
@settings(max_examples=50, deadline=None)
def test_dc_preserves_l2_norm(ts):
    rng = np.random.default_rng(1)
    x = rng.normal(size=6) + 1j * rng.normal(size=6)
    y = dc_apply(np.array(ts), 0, x)
    assert abs(np.linalg.norm(y) - np.linalg.norm(x)) < 1e-12


# ---------------------------------------------------------------------------
# the quantizer and its straight-through surrogate

def test_quantize_negative_places_coupler():
    assert quantize_coupler(-0.3) == pytest.approx(ROOT2_OVER_2)


def test_quantize_positive_is_passthrough():
    assert quantize_coupler(0.7) == 1.0


def test_quantize_grad_scale():
    assert quantize_coupler_grad(np.array([1.0]))[0] == pytest.approx(STE_SCALE)


def test_quantize_grad_clips_large_upstream():
    assert quantize_coupler_grad(np.array([100.0]))[0] == 1.0
    assert quantize_coupler_grad(np.array([-100.0]))[0] == -1.0


# ---------------------------------------------------------------------------
# crossings

def test_cr_identity():
    x = np.array([1j, 2.0, 3.0])
    assert np.allclose(cr_apply(np.eye(3), x), x)


def test_cr_swap():
    p = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    y = cr_apply(p, np.array([1.0, 2.0, 3.0], dtype=complex))
    assert np.allclose(y, [2.0, 1.0, 3.0])


def test_cr_doubly_stochastic_l1_contraction():
    rng = np.random.default_rng(2)
    p = np.full((4, 4), 0.25)
    x = rng.uniform(0.0, 1.0, 4)
    y = cr_apply(p, x.astype(complex))
    assert np.sum(np.abs(y)) <= np.sum(np.abs(x)) + 1e-12


# ---------------------------------------------------------------------------
# unitary composition

def _random_block_params(k, n_blocks, rng):
    phis, ts, perms, offsets = [], [], [], []
    for i in range(n_blocks):
        off = coupler_offset(i)
        slots = n_coupler_slots(k, off)
        phis.append(rng.uniform(-np.pi, np.pi, k))
        ts.append(rng.choice([-1.0, 1.0], size=slots))
        m = np.zeros((k, k))
        m[np.arange(k), rng.permutation(k)] = 1.0
        perms.append(m)
        offsets.append(off)
    return phis, ts, perms, offsets


def test_build_unitary_trivial_block_is_identity():
    u = build_unitary([np.zeros(4)], [np.ones(2)], [np.eye(4)], [0])
    assert np.allclose(u, np.eye(4), atol=1e-12)


def test_build_unitary_is_unitary():
    rng = np.random.default_rng(3)
    phis, ts, perms, offsets = _random_block_params(8, 5, rng)
    u = build_unitary(phis, ts, perms, offsets)
    assert np.linalg.norm(u.conj().T @ u - np.eye(8)) < 1e-6


def test_build_unitary_gated_off_block_is_identity_factor():
    rng = np.random.default_rng(4)
    phis, ts, perms, offsets = _random_block_params(4, 2, rng)
    gated = build_unitary(phis, ts, perms, offsets,
                          gates=[(0.0, 1.0), (1.0, 0.0)])
    only_first = build_unitary(phis[:1], ts[:1], perms[:1], offsets[:1])
    assert np.allclose(gated, only_first, atol=1e-12)


def test_build_unitary_all_gated_off_is_identity():
    rng = np.random.default_rng(5)
    phis, ts, perms, offsets = _random_block_params(4, 3, rng)
    u = build_unitary(phis, ts, perms, offsets, gates=[(1.0, 0.0)] * 3)
    assert np.allclose(u, np.eye(4), atol=1e-12)


def test_build_unitary_rejects_empty():
    with pytest.raises(DomainError):
        build_unitary([], [], [], [])


def test_block_chain_preserves_norm():
    rng = np.random.default_rng(6)
    phis, ts, perms, offsets = _random_block_params(8, 4, rng)
    u = build_unitary(phis, ts, perms, offsets)
    x = rng.normal(size=8) + 1j * rng.normal(size=8)
    assert abs(np.linalg.norm(u @ x) - np.linalg.norm(x)) < 1e-10


# ---------------------------------------------------------------------------
# normalization

def test_normalize_unitary_fixed_point():
    u = random_unitary(6, np.random.default_rng(7))
    assert np.allclose(normalize_unitary(u, "row"), u, atol=1e-12)
    assert np.allclose(normalize_unitary(u, "column"), u, atol=1e-12)


def test_normalize_scales_row():
    u = np.array([[2.0, 0.0], [0.0, 1.0]], dtype=complex)
    out = normalize_unitary(u, "row")
    assert np.allclose(out[0], [1.0, 0.0])


def test_normalize_all_ones():
    out = normalize_unitary(np.ones((2, 2), dtype=complex), "row")
    assert np.allclose(out, np.full((2, 2), 1.0 / math.sqrt(2.0)))


def test_normalize_zero_row_raises():
    u = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    with pytest.raises(DegeneracyError):
        normalize_unitary(u, "row")


def test_normalize_bad_mode():
    with pytest.raises(DomainError):
        normalize_unitary(np.eye(2, dtype=complex), "diag")


# ---------------------------------------------------------------------------
# tiles and partitions

def test_tile_identity():
    x = np.array([1.0, 2j, 3.0])
    assert np.allclose(tile_forward(np.eye(3), np.ones(3), np.eye(3), x), x)


def test_tile_zero_sigma():
    rng = np.random.default_rng(8)
    u = random_unitary(3, rng)
    v = random_unitary(3, rng)
    x = rng.normal(size=3).astype(complex)
    assert np.allclose(tile_forward(u, np.zeros(3), v, x), 0.0)


def test_tile_operator_norm_bound():
    rng = np.random.default_rng(9)
    u = random_unitary(4, rng)
    v = random_unitary(4, rng)
    sigma = rng.uniform(-2.0, 2.0, 4)
    x = rng.normal(size=4) + 1j * rng.normal(size=4)
    y = tile_forward(u, sigma, v, x)
    assert np.linalg.norm(y) <= np.max(np.abs(sigma)) * np.linalg.norm(x) + 1e-12


def _random_partition(m, n, k, rng):
    p = (m + k - 1) // k
    q = (n + k - 1) // k
    tiles = [[(random_unitary(k, rng), rng.uniform(-1, 1, k),
               random_unitary(k, rng)) for _ in range(q)] for _ in range(p)]
    return WeightPartition(m, n, k, tiles)


def test_partition_identity_tile():
    wp = WeightPartition(3, 3, 3, [[(np.eye(3, dtype=complex), np.ones(3),
                                     np.eye(3, dtype=complex))]])
    x = np.array([1.0, 2.0, 3.0], dtype=complex)
    assert np.allclose(partition_matmul(wp, x), x)


def test_partition_matches_dense_square():
    rng = np.random.default_rng(10)
    wp = _random_partition(4, 4, 4, rng)
    x = rng.normal(size=4) + 1j * rng.normal(size=4)
    assert np.allclose(partition_matmul(wp, x), wp.assemble() @ x, atol=1e-10)


def test_partition_matches_dense_padded():
    rng = np.random.default_rng(11)
    wp = _random_partition(12, 20, 8, rng)
    x = rng.normal(size=20) + 1j * rng.normal(size=20)
    y = partition_matmul(wp, x)
    assert y.shape == (12,)
    assert np.allclose(y, wp.assemble() @ x, atol=1e-10)


@given(m=st.integers(min_value=1, max_value=32),
       n=st.integers(min_value=1, max_value=32),
       seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_partition_dense_oracle_property(m, n, seed):
    rng = np.random.default_rng(seed)
    wp = _random_partition(m, n, 4, rng)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    assert np.allclose(partition_matmul(wp, x), wp.assemble() @ x, atol=1e-10)


def test_partition_dimension_mismatch():
    rng = np.random.default_rng(12)
    wp = _random_partition(4, 4, 4, rng)
    with pytest.raises(DomainError):
        partition_matmul(wp, np.zeros(5, dtype=complex))


# ---------------------------------------------------------------------------
# mesh-level gradients against finite differences (task loss only; the STE
# is exercised through its surrogate by using the continuous forward pass)

def _fd_mesh(k=6, n_u=2, n_v=2, m_rows=None, n_cols=None, seed=13):
    rng = np.random.default_rng(seed)
    mesh = SuperMesh(k, n_u, n_v, m_rows=m_rows, n_cols=n_cols, rng=rng)
    for b in range(mesh.n_blocks):
        t = mesh.t_latent[b]
        t[:] = np.sign(t) * (0.2 + 0.7 * np.abs(t))
        mesh.p_raw[b] = mesh.p_raw[b] + rng.uniform(0.0, 0.02, (k, k))
    task = MatrixFitTask(0.3 * (rng.normal(size=(mesh.m_rows, mesh.n_cols))
                                + 1j * rng.normal(size=(mesh.m_rows, mesh.n_cols))))
    return mesh, task


def _task_value(mesh, task, gates):
    w, _ = mesh.forward(gates, binarize=False)
    return task.loss_and_grad(w)[0]


@pytest.mark.parametrize("group", ["phi", "sigma", "p_raw", "t_latent"])
def test_mesh_gradients_match_fd(group):
    mesh, task = _fd_mesh()
    gates = certainty_gates(mesh.n_blocks)
    w, cache = mesh.forward(gates, binarize=False)
    _, g_w = task.loss_and_grad(w)
    grads = mesh.backward(cache, g_w)
    rng = np.random.default_rng(14)

    def value():
        return _task_value(mesh, task, gates)

    if group == "t_latent":
        for a, n, rel in fd_check(value, mesh.t_flat, grads.t_latent,
                                  range(mesh.t_flat.size)):
            assert rel < 1e-4, (a, n, rel)
    else:
        param = getattr(mesh, group)
        analytic = getattr(grads, group)
        coords = rng.choice(param.size, size=min(30, param.size), replace=False)
        for a, n, rel in fd_check(value, param, analytic, coords):
            assert rel < 1e-4, (a, n, rel)


def test_mesh_gradients_multi_tile_phi():
    mesh, task = _fd_mesh(k=8, m_rows=12, n_cols=20, seed=15)
    gates = certainty_gates(mesh.n_blocks)
    w, cache = mesh.forward(gates, binarize=False)
    _, g_w = task.loss_and_grad(w)
    grads = mesh.backward(cache, g_w)
    rng = np.random.default_rng(16)

    def value():
        return _task_value(mesh, task, gates)

    coords = rng.choice(mesh.phi.size, size=25, replace=False)
    for a, n, rel in fd_check(value, mesh.phi, grads.phi, coords):
        assert rel < 1e-4, (a, n, rel)
    coords = rng.choice(mesh.sigma.size, size=15, replace=False)
    for a, n, rel in fd_check(value, mesh.sigma, grads.sigma, coords):
        assert rel < 1e-4, (a, n, rel)


def _ragged_stochastic_mesh(seed):
    """K=8 mesh over a 12 x 20 weight (2 x 3 tiles, zero padded) with sampled
    gate weights, so every block is a blend with m_skip != 0."""
    mesh, task = _fd_mesh(k=8, m_rows=12, n_cols=20, seed=seed)
    gates = sample_gates(mesh, 1.0, np.random.default_rng(seed + 1))
    assert (mesh.p_tiles, mesh.q_tiles) == (2, 3)
    assert np.all(gates[:, 0] > 1e-3)
    return mesh, task, gates


@pytest.mark.parametrize("group", ["p_raw", "t_latent", "m"])
def test_mesh_gradients_multi_tile_stochastic_gates(group):
    mesh, task, gates = _ragged_stochastic_mesh(seed=20)
    w, cache = mesh.forward(gates, binarize=False)
    _, g_w = task.loss_and_grad(w)
    grads = mesh.backward(cache, g_w)

    def value():
        return _task_value(mesh, task, gates)

    if group == "t_latent":
        checks = [(mesh.t_flat, grads.t_latent, range(mesh.t_flat.size))]
    elif group == "m":
        checks = [(gates, grads.m, range(gates.size))]
    else:
        coords = np.random.default_rng(21).choice(mesh.p_raw.size, size=30,
                                                  replace=False)
        checks = [(mesh.p_raw, grads.p_raw, coords)]
    for param, analytic, coords in checks:
        for a, n, rel in fd_check(value, param, analytic, coords):
            assert rel < 1e-4, (group, a, n, rel)


def _cache_partition(mesh, cache):
    """The engine's per-tile (U, sigma, V) of one forward pass, read from
    its cache."""
    tiles = [[(cache["u_n"][p, q], cache["sigma"][p, q], cache["v_n"][p, q])
              for q in range(mesh.q_tiles)] for p in range(mesh.p_tiles)]
    return WeightPartition(mesh.m_rows, mesh.n_cols, mesh.k, tiles)


@pytest.mark.parametrize("binarize", [True, False])
def test_batched_forward_matches_weight_partition_oracle(binarize):
    # the oracle composes each tile through build_unitary, one block and one
    # tile at a time, independently of the tile-stacked engine
    mesh, _, gates = _ragged_stochastic_mesh(seed=22)
    w, cache = mesh.forward(gates, binarize=binarize)
    oracle = weight_partition_oracle(mesh, gates, binarize=binarize)
    assert w.shape == (12, 20)
    np.testing.assert_allclose(w, oracle.assemble(), rtol=0.0, atol=1e-12)
    # the engine's per-tile U and V, as one forward pass leaves them
    snapshot = _cache_partition(mesh, cache)
    np.testing.assert_allclose(snapshot.assemble(), oracle.assemble(),
                               rtol=0.0, atol=1e-12)
    for row, oracle_row in zip(snapshot.tiles, oracle.tiles):
        for tile, oracle_tile in zip(row, oracle_row):
            for got, want in zip(tile, oracle_tile):
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


def test_binarized_backward_applies_ste_scaling():
    # with binarize on, the t gradient equals the STE-scaled clipped version
    # of the gradient computed at the binarized point
    mesh, task = _fd_mesh(seed=17)
    gates = certainty_gates(mesh.n_blocks)
    w, cache = mesh.forward(gates, binarize=True)
    _, g_w = task.loss_and_grad(w)
    g = mesh.backward(cache, g_w).t_latent
    assert g.shape == mesh.t_flat.shape
    assert np.all(g >= -1.0) and np.all(g <= 1.0)


def test_forward_from_topology_matches_build_unitary():
    from helpers import random_topology
    rng = np.random.default_rng(18)
    topo = random_topology(8, 2, 2, rng)
    mesh = SuperMesh.from_topology(topo, rng=np.random.default_rng(0))
    gates = certainty_gates(mesh.n_blocks)
    w, cache = mesh.forward(gates)
    u, sigma, v = _cache_partition(mesh, cache).tiles[0][0]
    assert np.linalg.norm(u.conj().T @ u - np.eye(8)) < 1e-6
    assert np.linalg.norm(v.conj().T @ v - np.eye(8)) < 1e-6
    assert np.allclose(w, u @ np.diag(sigma) @ v, atol=1e-10)
    oracle_u, _, oracle_v = weight_partition_oracle(mesh, gates).tiles[0][0]
    np.testing.assert_allclose(u, oracle_u, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(v, oracle_v, rtol=0.0, atol=1e-12)


def test_block_transfer_equals_explicit_product():
    rng = np.random.default_rng(19)
    k = 6
    phi = rng.uniform(-np.pi, np.pi, k)
    t = np.array([1.0, ROOT2_OVER_2, 1.0])
    perm = np.zeros((k, k))
    perm[np.arange(k), rng.permutation(k)] = 1.0
    a = block_transfer(phi, t, perm, 0)
    # the engine's two nonzeros per column, placed by hand: at offset 0 the
    # partner of waveguide j is j ^ 1
    (diag,), (cross,) = coupler_matrix(t, k, [0])
    t_mat = np.diag(diag).astype(complex)
    t_mat[np.arange(k) ^ 1, np.arange(k)] = 1j * cross
    explicit = perm @ t_mat @ np.diag(np.exp(-1j * phi))
    assert np.allclose(a, explicit, atol=1e-12)


def test_stacked_coupler_matrix_matches_per_block_calls():
    # the engine's two nonzeros per column against every column of the
    # oracle's slot-by-slot matrices; at K=2 an offset-1 block has no slot
    rng = np.random.default_rng(23)
    for k, offsets in ((7, [0, 1, 0, 1, 1]), (2, [0, 1])):
        ts = [rng.uniform(0.5, 1.0, n_coupler_slots(k, off)) for off in offsets]
        diag, cross = coupler_matrix(np.concatenate(ts), k, offsets)
        assert diag.shape == cross.shape == (len(offsets), k)
        for b, (t, off) in enumerate(zip(ts, offsets)):
            col = coupler_column(t, k, off)
            partner = np.arange(k)
            pairs = off + 2 * np.arange(t.size)
            partner[pairs], partner[pairs + 1] = pairs + 1, pairs
            for j in range(k):
                assert col[j, j] == diag[b, j]
                if partner[j] == j:
                    assert cross[b, j] == 0.0
                else:
                    assert col[partner[j], j] == 1j * cross[b, j]
                assert not np.delete(col[:, j], [j, partner[j]]).any()


def test_stacked_coupler_matrix_rejects_any_length_mismatch():
    k = 8
    offsets = [0, 1, 0]                     # 4 + 3 + 4 slots
    coupler_matrix(np.ones(11), k, offsets)
    for length in (12, 10, 7):              # too long, too short, a block missing
        with pytest.raises(DomainError):
            coupler_matrix(np.ones(length), k, offsets)


# ---------------------------------------------------------------------------
# certain gates: a pass skips the gating only when every weight is (0, 1)

@pytest.mark.parametrize("entry, value, gated", [
    (None, None, False),
    ((1, 0), -0.0, False),               # -0.0 == 0.0
    ((1, 1), 1.0 - 2.0 ** -53, True),
    ((2, 0), 5e-324, True),              # subnormal m1
    ((0, 0), np.nan, True),
    ((3, 1), np.nan, True),
], ids=["certain", "negative_zero_m1", "m2_below_one", "subnormal_m1",
        "nan_m1", "nan_m2"])
def test_forward_gates_unless_every_weight_is_certain(entry, value, gated):
    mesh = SuperMesh(6, 2, 2, rng=np.random.default_rng(70))
    gates = certainty_gates(mesh.n_blocks)
    if entry is not None:
        gates[entry] = value
    with np.errstate(invalid="ignore"):   # a NaN gate makes a NaN weight
        _, cache = mesh.forward(gates)
    assert cache["gated"] is gated


def test_forward_raises_on_a_zero_norm_beside_a_nan_norm():
    # block 0's gate (0, 0) zeroes both tiles' U chains; a NaN phase in tile
    # 0 makes its norms NaN, and tile 1's zero norms still raise
    mesh = SuperMesh(4, 2, 2, m_rows=8, n_cols=4, rng=np.random.default_rng(71))
    gates = certainty_gates(mesh.n_blocks)
    gates[0] = 0.0
    phi_noise = np.zeros(mesh.phi.shape)
    phi_noise[0, 0, 1, 0] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(DegeneracyError):
        mesh.forward(gates, phi_noise=phi_noise)


# ---------------------------------------------------------------------------
# U and V chains of unequal length: the engine runs them as one stack, the
# shorter chain front-padded with identity factors

# (1, 1) is a chain of one factor: the forward runs no chain matmul and the
# backward's conjugated partials are empty
@pytest.mark.parametrize("gates", ["free", "frozen"])
@pytest.mark.parametrize("n_u, n_v", [(3, 1), (1, 3), (1, 1)])
def test_unequal_chains_match_oracle_and_fd(n_u, n_v, gates):
    mesh, task = _fd_mesh(k=8, n_u=n_u, n_v=n_v, m_rows=12, n_cols=8, seed=32)
    if gates == "free":
        m = sample_gates(mesh, 1.0, np.random.default_rng(33))
        assert np.all(m[:, 0] > 1e-3)
    else:
        mesh.frozen[:] = True
        m = certainty_gates(mesh.n_blocks)
    for binarize in (True, False):
        w, _ = mesh.forward(m, binarize=binarize)
        oracle = weight_partition_oracle(mesh, m, binarize=binarize).assemble()
        np.testing.assert_allclose(w, oracle, rtol=0.0, atol=1e-12)
    w, cache = mesh.forward(m, binarize=False)
    grads = mesh.backward(cache, task.loss_and_grad(w)[1])
    checks = [(mesh.phi, grads.phi), (mesh.sigma, grads.sigma),
              (mesh.p_raw, grads.p_raw), (mesh.t_flat, grads.t_latent)]
    if gates == "free":
        checks.append((m, grads.m))
    else:
        assert grads.m is None

    def value():
        return _task_value(mesh, task, m)

    rng = np.random.default_rng(34)
    for param, analytic in checks:
        coords = rng.choice(param.size, size=min(30, param.size), replace=False)
        for a, n, rel in fd_check(value, param, analytic, coords):
            assert rel < 1e-4, (a, n, rel)


def test_unequal_chains_from_topology_match_oracle_and_fd():
    from helpers import random_topology
    rng = np.random.default_rng(35)
    mesh = SuperMesh.from_topology(random_topology(8, 2, 3, rng), m_rows=8,
                                   n_cols=16, rng=rng)
    task = MatrixFitTask(0.3 * (rng.normal(size=(8, 16))
                                + 1j * rng.normal(size=(8, 16))))
    gates = certainty_gates(mesh.n_blocks)
    w, cache = mesh.forward(gates)
    oracle = weight_partition_oracle(mesh, gates).assemble()
    np.testing.assert_allclose(w, oracle, rtol=0.0, atol=1e-12)
    grads = mesh.backward(cache, task.loss_and_grad(w)[1])
    assert grads.p_raw is None and grads.t_latent is None and grads.m is None

    def value():
        return task.loss_and_grad(mesh.forward(gates)[0])[0]

    for param, analytic in ((mesh.phi, grads.phi), (mesh.sigma, grads.sigma)):
        coords = rng.choice(param.size, size=min(30, param.size), replace=False)
        for a, n, rel in fd_check(value, param, analytic, coords):
            assert rel < 1e-4, (a, n, rel)


# ---------------------------------------------------------------------------
# frozen groups: backward skips their branches and returns None for them

def _fixed_structure_mesh(seed):
    from helpers import random_topology
    rng = np.random.default_rng(seed)
    mesh = SuperMesh.from_topology(random_topology(6, 2, 2, rng), m_rows=9,
                                   n_cols=6, rng=rng)
    task = MatrixFitTask(0.3 * (rng.normal(size=(9, 6))
                                + 1j * rng.normal(size=(9, 6))))
    return mesh, task


def test_fixed_topology_backward_returns_no_structure_grads():
    mesh, task = _fixed_structure_mesh(seed=24)
    gates = certainty_gates(mesh.n_blocks)
    w, cache = mesh.forward(gates, binarize=True)
    _, g_w = task.loss_and_grad(w)
    grads = mesh.backward(cache, g_w)
    assert grads.p_raw is None and grads.t_latent is None
    assert grads.m is None  # every gate of a fixed topology is frozen

    def value():
        w, _ = mesh.forward(gates, binarize=True)
        return task.loss_and_grad(w)[0]

    rng = np.random.default_rng(25)
    for param, analytic in ((mesh.phi, grads.phi), (mesh.sigma, grads.sigma)):
        coords = rng.choice(param.size, size=min(25, param.size), replace=False)
        for a, n, rel in fd_check(value, param, analytic, coords):
            assert rel < 1e-4, (a, n, rel)


def test_frozen_permutations_keep_coupler_grads():
    mesh, task = _fd_mesh(seed=26)
    gates = certainty_gates(mesh.n_blocks)
    w, cache = mesh.forward(gates, binarize=False)
    _, g_w = task.loss_and_grad(w)
    full = mesh.backward(cache, g_w)
    mesh.perms_trainable = False
    frozen = mesh.backward(cache, g_w)
    assert frozen.p_raw is None and full.p_raw is not None
    assert np.array_equal(frozen.t_latent, full.t_latent)
    assert np.array_equal(frozen.phi, full.phi)

    def value():
        return _task_value(mesh, task, gates)

    for a, n, rel in fd_check(value, mesh.t_flat, frozen.t_latent,
                              range(mesh.t_flat.size)):
        assert rel < 1e-4, (a, n, rel)


# ---------------------------------------------------------------------------
# the block structure cache: P~, T and P~T are rebuilt only when their inputs
# change by value, and every consumer reads the same read-only arrays

def _rebuilt(mesh):
    """A new mesh holding copies of the parameters and no cached state."""
    fresh = SuperMesh(mesh.k, mesh.n_u, mesh.n_v, m_rows=mesh.m_rows,
                      n_cols=mesh.n_cols)
    fresh.offsets = list(mesh.offsets)
    fresh.phi, fresh.sigma = mesh.phi.copy(), mesh.sigma.copy()
    fresh.p_raw = mesh.p_raw.copy()
    fresh.t_flat = mesh.t_flat.copy()
    fresh.theta, fresh.frozen = mesh.theta.copy(), mesh.frozen.copy()
    return fresh


def _footprint_terms(mesh):
    """Everything the footprint terms read from a mesh, as plain values."""
    pdk = load_pdk("amf")
    value, grads = footprint_proxy(mesh, pdk, PenaltyConfig())
    counts = mesh.footprint_counts()
    return (footprint_expected(mesh, pdk), value, grads.d_keep, grads.d_tq,
            grads.d_ptilde, counts.n_dc, counts.n_cr)


def _edit_in_place(mesh, what):
    """Apply one in-place edit to a cached mesh; returns the binarize flag of
    the next forward pass."""
    if what == "p_raw":
        mesh.p_raw[1] = mesh.p_raw[1][::-1].copy()
    elif what == "t_latent":
        mesh.t_latent[2][0] = -mesh.t_latent[2][0]   # crosses zero: flips
    elif what == "offsets":
        mesh.offsets[1] = 1 - mesh.offsets[1]          # odd K: same slot count
    return what != "binarize"


STRUCTURE_KEYS = ("p_tildes", "t_cols", "pt_t")


@pytest.mark.parametrize("what", ["p_raw", "t_latent", "offsets", "binarize"])
def test_structure_cache_sees_in_place_edits(what):
    mesh, task = _fd_mesh(k=7, m_rows=10, n_cols=12, seed=27)
    mesh.p_raw[0] = np.eye(7) + 0.05   # row max 0.78: not rounded
    gates = certainty_gates(mesh.n_blocks)
    before, first = mesh.forward(gates, binarize=True)
    held = {key: np.array(first[key]) for key in STRUCTURE_KEYS}
    binarize = _edit_in_place(mesh, what)
    after, cache = mesh.forward(gates, binarize=binarize)
    twin = _rebuilt(mesh)
    fresh, fresh_cache = twin.forward(gates, binarize=binarize)
    assert not np.array_equal(after, before)
    assert np.array_equal(after, fresh)
    for key in STRUCTURE_KEYS:
        assert np.array_equal(cache[key], fresh_cache[key])
        # a rebuild replaces the cached arrays: the earlier pass keeps its own
        assert np.array_equal(first[key], held[key])
    oracle = weight_partition_oracle(mesh, gates, binarize=binarize).assemble()
    np.testing.assert_allclose(after, oracle, rtol=0.0, atol=1e-12)
    # the cached P~T follows the edit; a continuous pass forms its own
    # product and leaves the cached one in place
    cached = mesh.forward(gates)[1]["pt_t"]
    assert np.array_equal(cached, twin.forward(gates)[1]["pt_t"])
    assert (cached is first["pt_t"]) == (what == "binarize")
    # the backward pass (which reads the cached slot index) and the
    # footprint counts are built with the same parts, so they follow too
    g_w = task.loss_and_grad(after)[1]
    grads, fresh_grads = mesh.backward(cache, g_w), twin.backward(fresh_cache, g_w)
    for name in ("phi", "sigma", "t_latent", "p_raw", "m"):
        assert np.array_equal(getattr(grads, name), getattr(fresh_grads, name))
    for got, want in zip(_footprint_terms(mesh), _footprint_terms(twin)):
        assert np.array_equal(got, want)


def test_from_topology_rebuilds_the_flat_latents_for_its_offsets():
    # every block at offset 1: at even K that is one slot fewer per block
    # than the default interleave gives the odd-numbered blocks
    rng = np.random.default_rng(30)
    k = 8
    blocks = [TopoBlock(phases=rng.uniform(-np.pi, np.pi, k),
                        coupler_mask=rng.uniform(size=3) < 0.5, offset=1,
                        perm=rng.permutation(k)) for _ in range(4)]
    topology = Topology(k=k, pdk_name="amf", blocks_u=blocks[:2],
                        blocks_v=blocks[2:])
    mesh = SuperMesh.from_topology(topology, rng=rng)
    assert mesh.t_flat.shape == (12,)
    for view, blk in zip(mesh.t_latent, blocks):
        assert np.array_equal(view < 0.0, blk.coupler_mask)
    counts = mesh.footprint_counts()
    assert counts.n_dc.tolist() == [b.n_dc for b in blocks]
    assert counts.n_cr.tolist() == [b.n_cr for b in blocks]
    gates = certainty_gates(mesh.n_blocks)
    w, _ = mesh.forward(gates)
    oracle = weight_partition_oracle(mesh, gates).assemble()
    np.testing.assert_allclose(w, oracle, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("phases", [None, 0.5, np.zeros((4, 4)), np.zeros((4, 1)),
                                    np.zeros((1, 4))],
                         ids=["none", "scalar", "k_by_k", "column", "row"])
def test_topo_block_rejects_a_phase_array_that_is_not_a_vector(phases):
    with pytest.raises(DomainError, match="phase vector"):
        TopoBlock(phases=phases, coupler_mask=[True, False], offset=0,
                  perm=[1, 0, 3, 2])
    TopoBlock(phases=np.zeros(4), coupler_mask=[True, False], offset=0,
              perm=[1, 0, 3, 2])


def test_t_latent_is_a_tuple_of_views_into_t_flat():
    mesh, _ = _fd_mesh(seed=31)
    with pytest.raises(TypeError):
        mesh.t_latent[1] = np.ones(mesh.t_latent[1].shape)
    before = mesh.t_flat.copy()
    n_dc = mesh.footprint_counts().n_dc[1]
    mesh.t_latent[1][:] = -mesh.t_latent[1]   # flips every coupler of block 1
    start, end = mesh.t_latent[0].size, mesh.t_latent[0].size + mesh.t_latent[1].size
    assert np.array_equal(mesh.t_flat[start:end], -before[start:end])
    assert np.array_equal(np.delete(mesh.t_flat, np.s_[start:end]),
                          np.delete(before, np.s_[start:end]))
    assert mesh.footprint_counts().n_dc[1] == mesh.t_latent[1].size - n_dc


def test_fixed_topology_retrain_builds_the_structure_once(monkeypatch):
    from helpers import random_topology
    from ptcsearch import mesh as mesh_module
    from ptcsearch.tasks import NoiseModel, robustness_sweep, variation_aware_train

    calls = {"reparametrize": 0, "coupler_matrix": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(mesh_module, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(mesh_module, name, counted)
    products = []   # every distinct P~T array a forward pass used
    forward = SuperMesh.forward

    def recording(self, *args, **kwargs):
        w, cache = forward(self, *args, **kwargs)
        if not any(cache["pt_t"] is seen for seen in products):
            products.append(cache["pt_t"])
        return w, cache

    monkeypatch.setattr(SuperMesh, "forward", recording)
    rng = np.random.default_rng(28)
    topology = random_topology(8, 3, 3, rng)
    task = MatrixFitTask(random_unitary(8, rng))
    mesh, _ = variation_aware_train(topology, task, NoiseModel(0.02), steps=20,
                                    rng=rng)
    robustness_sweep(mesh, task, [0.0, 0.02, 0.05], 3, rng)
    assert calls == {"reparametrize": 1, "coupler_matrix": 1}
    assert len(products) == 1


def test_structure_cache_entries_are_read_only():
    mesh, _ = _fd_mesh(seed=29)
    gates = certainty_gates(mesh.n_blocks)
    _, cache = mesh.forward(gates)
    assert mesh.perm_tildes() is cache["p_tildes"]
    for key in STRUCTURE_KEYS:
        # t_cols is the pair (diag, cross)
        for array in cache[key] if key == "t_cols" else (cache[key],):
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 1.0


# ---------------------------------------------------------------------------
# the backward workspace: mesh-owned buffers every backward pass reuses

def _workspace_pass(n_u, n_v, seed):
    """A gated multi-tile mesh, its task, gates and first forward cache."""
    mesh, task = _fd_mesh(k=8, n_u=n_u, n_v=n_v, m_rows=12, n_cols=20, seed=seed)
    gates = sample_gates(mesh, 1.0, np.random.default_rng(seed + 1))
    w, cache = mesh.forward(gates)
    return mesh, task, gates, cache, task.loss_and_grad(w)[1]


GRAD_FIELDS = ("phi", "sigma", "t_latent", "p_raw", "m")


@pytest.mark.parametrize("extra", [False, True])
@pytest.mark.parametrize("n_u, n_v", [(2, 2), (3, 1)])
def test_backward_returns_no_workspace_memory(n_u, n_v, extra):
    mesh, _, _, cache, g_w = _workspace_pass(n_u, n_v, seed=40)
    rng = np.random.default_rng(41)
    kwargs = {}
    if extra:
        kwargs = {"extra_ptilde": rng.normal(size=mesh.p_raw.shape),
                  "extra_tq": rng.normal(size=mesh.t_flat.shape)}
    for _ in range(2):   # the second pass reuses the buffers of the first
        grads = mesh.backward(cache, g_w, **kwargs)
    buffers = [buf for ws in mesh._workspace.values() for buf in ws.values()]
    assert buffers
    for name in GRAD_FIELDS:
        got = getattr(grads, name)
        assert got is not None
        assert not any(np.shares_memory(got, buf) for buf in buffers), name
    for value in cache.values():
        if isinstance(value, np.ndarray):
            assert not any(np.shares_memory(value, buf) for buf in buffers)


@pytest.mark.parametrize("n_u, n_v", [(2, 2), (3, 1)])
def test_backward_on_an_older_cache_returns_its_earlier_gradients(n_u, n_v):
    mesh, task, gates, cache, g_w = _workspace_pass(n_u, n_v, seed=42)
    first = mesh.backward(cache, g_w)
    held = {name: getattr(first, name).copy() for name in GRAD_FIELDS}
    # a newer forward and backward, with the phases and both structure parts
    # changed, so the structure cache is rebuilt
    mesh.phi += 0.3
    mesh.t_flat[0] = -mesh.t_flat[0]
    mesh.p_raw[0] += 0.01
    w, newer = mesh.forward(gates)
    mesh.backward(newer, task.loss_and_grad(w)[1])
    again = mesh.backward(cache, g_w)
    for name in GRAD_FIELDS:
        assert np.array_equal(getattr(first, name), held[name])
        assert np.array_equal(getattr(again, name), held[name])


@pytest.mark.parametrize("n_u, n_v", [(2, 2), (3, 1)])
def test_backward_reads_the_sigma_of_its_forward(n_u, n_v):
    # the forward cache holds its own sigma: an update between forward and
    # backward leaves that cache's gradients as they were
    mesh, _, _, cache, g_w = _workspace_pass(n_u, n_v, seed=44)
    before = mesh.backward(cache, g_w)
    held = {name: getattr(before, name).copy() for name in GRAD_FIELDS}
    mesh.sigma += 0.3
    after = mesh.backward(cache, g_w)
    for name in GRAD_FIELDS:
        np.testing.assert_array_equal(getattr(after, name), held[name])


def test_k32_workspace_is_three_stacks_and_the_ptilde_cotangent():
    # search_k32 shapes: the conjugated factor stack shares the buffer of
    # the conjugated partials, so the distinct buffers behind the workspace
    # are g_left, that operand, g_factors (each an (L, P, Q, 2, K, K)
    # complex stack) and the real (B, K, K) g_P~: 688,128 bytes
    rng = np.random.default_rng(51)
    k = 32
    mesh = SuperMesh(k, 6, 6, n_frozen=3, rng=rng)
    gates = sample_gates(mesh, 1.0, rng)
    for _ in range(2):
        w, cache = mesh.forward(gates)
        mesh.backward(cache, np.ones_like(w))
    (ws,) = mesh._workspace.values()
    bases = {}
    for buf in ws.values():
        while buf.base is not None:
            buf = buf.base
        bases[id(buf)] = buf
    stack = 6 * 2 * k * k * 16
    assert len(bases) == 4
    assert sum(buf.nbytes for buf in bases.values()) == 3 * stack + 12 * k * k * 8 == 688_128


def test_warm_k32_backward_peak_is_under_three_stacks():
    # search_k32 shapes: a warm backward writes its stack-sized arrays into
    # the workspace, so its transient peak (returned gradients included)
    # stays under 2.5 stack sizes, one stack being a (P, Q, B, K, K)
    # complex array
    rng = np.random.default_rng(50)
    k = 32
    mesh = SuperMesh(k, 6, 6, n_frozen=3, rng=rng)
    mesh.theta = rng.normal(size=mesh.theta.shape)
    gates = sample_gates(mesh, 1.0, rng)
    _, cache = mesh.forward(gates)
    g_w = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    extra = {"extra_ptilde": rng.normal(size=mesh.p_raw.shape),
             "extra_tq": rng.normal(size=mesh.t_flat.shape)}
    mesh.backward(cache, g_w, **extra)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        grads = mesh.backward(cache, g_w, **extra)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert grads.m is not None and grads.p_raw is not None
    stack = mesh.p_tiles * mesh.q_tiles * mesh.n_blocks * k * k * 16
    assert peak < 2.5 * stack, peak / stack


# ---------------------------------------------------------------------------
# the two nonzeros of each coupler column: P~T and every structure cotangent
# are formed from them, including where a waveguide has no coupler partner

def _odd_k_unequal_mesh(seed):
    """K=7, so each offset leaves one waveguide unpaired; chains of 3 and 1
    blocks over a 10 x 12 weight (2 x 2 tiles)."""
    mesh, task = _fd_mesh(k=7, n_u=3, n_v=1, m_rows=10, n_cols=12, seed=seed)
    return mesh, task


def _offset_one_topology_mesh(seed):
    """A from_topology mesh at K=8 with every block at offset 1 (waveguides
    0 and 7 unpaired), made trainable again: free gates, and couplers and
    permutations moved off their non-smooth points."""
    rng = np.random.default_rng(seed)
    k = 8
    blocks = [TopoBlock(phases=rng.uniform(-np.pi, np.pi, k),
                        coupler_mask=rng.uniform(size=3) < 0.5, offset=1,
                        perm=rng.permutation(k)) for _ in range(4)]
    topology = Topology(k=k, pdk_name="amf", blocks_u=blocks[:2],
                        blocks_v=blocks[2:])
    mesh = SuperMesh.from_topology(topology, m_rows=8, n_cols=12, rng=rng)
    mesh.perms_trainable = mesh.couplers_trainable = True
    mesh.frozen[:] = False
    mesh.t_flat *= rng.uniform(0.2, 0.9, mesh.t_flat.shape)
    mesh.p_raw = 0.3 * mesh.p_raw + rng.uniform(0.0, 0.2, mesh.p_raw.shape)
    task = MatrixFitTask(0.3 * (rng.normal(size=(8, 12))
                                + 1j * rng.normal(size=(8, 12))))
    return mesh, task


@pytest.mark.parametrize("make", [_odd_k_unequal_mesh, _offset_one_topology_mesh])
def test_two_entry_columns_match_oracle_and_fd(make):
    mesh, task = make(seed=60)
    gates = sample_gates(mesh, 1.0, np.random.default_rng(61))
    for binarize in (True, False):
        w, cache = mesh.forward(gates, binarize=binarize)
        # P~T block by block against P~ times the oracle's coupler column
        ends = np.cumsum([n_coupler_slots(mesh.k, off) for off in mesh.offsets])
        for b, t in enumerate(np.split(cache["t_eff"], ends[:-1])):
            np.testing.assert_allclose(
                cache["pt_t"][b],
                cache["p_tildes"][b] @ coupler_column(t, mesh.k, mesh.offsets[b]),
                rtol=0.0, atol=1e-15)
        oracle = weight_partition_oracle(mesh, gates, binarize=binarize).assemble()
        np.testing.assert_allclose(w, oracle, rtol=0.0, atol=1e-12)
    grads = mesh.backward(cache, task.loss_and_grad(w)[1])

    def value():
        return _task_value(mesh, task, gates)

    rng = np.random.default_rng(62)
    checks = [(mesh.phi, grads.phi), (mesh.sigma, grads.sigma),
              (mesh.p_raw, grads.p_raw), (mesh.t_flat, grads.t_latent),
              (gates, grads.m)]
    for param, analytic in checks:
        coords = rng.choice(param.size, size=min(30, param.size), replace=False)
        for a, n, rel in fd_check(value, param, analytic, coords):
            assert rel < 1e-4, (a, n, rel)
