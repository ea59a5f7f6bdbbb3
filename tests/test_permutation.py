"""Permutation relaxation, the augmented Lagrangian, and legalization."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptcsearch import (
    AlmState,
    DegeneracyError,
    DomainError,
    alm_loss,
    dual_update,
    init_smoothed_identity,
    is_permutation,
    reparametrize,
    rho_schedule,
    spl_legalize,
)
from ptcsearch.errors import LegalizationError
from ptcsearch.optim import Adam
from ptcsearch.permutation import (
    perm_array_to_matrix,
    perm_matrix_to_array,
    reparametrize_backward,
)


# ---------------------------------------------------------------------------
# reparametrization

def test_reparametrize_fixed_point_on_permutation():
    p = perm_array_to_matrix([2, 0, 1, 3])
    out, cache = reparametrize(p)
    assert np.array_equal(out, p)
    assert cache["rounded"].all()


def test_reparametrize_all_ones_2x2():
    out, cache = reparametrize(np.ones((2, 2)))
    assert np.allclose(out, np.full((2, 2), 0.5))
    assert not cache["rounded"].any()


def test_reparametrize_rounds_confident_row():
    p = np.array([[0.97, 0.03], [0.03, 0.97]])
    out, cache = reparametrize(p)
    assert cache["rounded"].all()
    assert np.array_equal(out, np.eye(2))


def test_reparametrize_zero_column_degenerate():
    with pytest.raises(DegeneracyError):
        reparametrize(np.array([[1.0, 0.0], [1.0, 0.0]]))


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=50, deadline=None)
def test_reparametrize_nonneg_and_column_normalized_before_projection(seed):
    rng = np.random.default_rng(seed)
    p = rng.normal(size=(5, 5))
    if np.any(np.abs(p).sum(axis=0) < 1e-12):
        return
    out, cache = reparametrize(p)
    assert np.all(out >= 0)
    # the intermediate column normalization has exact column sums of 1
    assert np.allclose(cache["p1"].sum(axis=0), 1.0, atol=1e-10)


def test_reparametrize_backward_zeroes_rounded_rows():
    p = np.array([[0.99, 0.01], [0.2, 0.8]])
    out, cache = reparametrize(p)
    assert cache["rounded"][0] and not cache["rounded"][1]
    g = reparametrize_backward(cache, np.ones((2, 2)))
    # a rounded row contributes nothing upstream
    h = 1e-6

    def value(mat):
        return float(reparametrize(mat)[0].sum())

    for i in range(2):
        for j in range(2):
            pp = p.copy()
            pp[i, j] += h
            pm = p.copy()
            pm[i, j] -= h
            numeric = (value(pp) - value(pm)) / (2 * h)
            assert abs(numeric - g[i, j]) < 1e-5


# ---------------------------------------------------------------------------
# the augmented Lagrangian

def _state(n_blocks, k, lam=1.0, rho=1.0):
    return AlmState(lambda_row=np.full((n_blocks, k), lam),
                    lambda_col=np.full((n_blocks, k), lam),
                    rho=rho, gamma=1.0)


def test_alm_zero_on_legal_permutations():
    rng = np.random.default_rng(0)
    pts = [perm_array_to_matrix(rng.permutation(6)) for _ in range(4)]
    value, grads = alm_loss(pts, _state(4, 6, lam=2.0, rho=3.0))
    assert value == 0.0


def test_alm_single_soft_row_gap():
    # one 2x2 block of all 0.5: each row and column has gap 1 - sqrt(0.5)
    pt = np.full((2, 2), 0.5)
    state = _state(1, 2, lam=1.0, rho=0.0)
    value, _ = alm_loss([pt], state)
    gap = 1.0 - math.sqrt(0.5)
    assert value == pytest.approx(4 * gap)


def test_alm_linear_in_lambda():
    pt = np.full((3, 3), 1.0 / 3.0)
    v1, _ = alm_loss([pt], _state(1, 3, lam=1.0, rho=0.7))
    v2, _ = alm_loss([pt], _state(1, 3, lam=2.0, rho=0.7))
    assert v2 == pytest.approx(2.0 * v1)


def test_alm_nonnegative_and_zero_iff_onehot():
    rng = np.random.default_rng(1)
    for _ in range(20):
        pt = rng.uniform(0.0, 1.0, (4, 4))
        pt /= pt.sum(axis=1, keepdims=True)
        value, _ = alm_loss([pt], _state(1, 4, lam=0.5, rho=0.2))
        assert value >= 0.0
        onehot = perm_array_to_matrix(rng.permutation(4))
        v0, _ = alm_loss([onehot], _state(1, 4, lam=0.5, rho=0.2))
        assert v0 == 0.0


def test_alm_gradient_matches_fd():
    rng = np.random.default_rng(2)
    pt = rng.uniform(0.1, 1.0, (4, 4))
    state = _state(1, 4, lam=0.8, rho=1.3)
    _, grads = alm_loss([pt], state)
    h = 1e-6
    for i in range(4):
        for j in range(4):
            pp, pm = pt.copy(), pt.copy()
            pp[i, j] += h
            pm[i, j] -= h
            numeric = (alm_loss([pp], state)[0] - alm_loss([pm], state)[0]) / (2 * h)
            assert abs(numeric - grads[0][i, j]) < 1e-5


# ---------------------------------------------------------------------------
# (B, K, K) stacks against the per-block loop

def _raw_stack(seed, n_blocks=5, k=6):
    """Raw matrices with one confident row, so some rows are hard-rounded."""
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-1.0, 1.0, (n_blocks, k, k))
    raw[1, 2] = 1e-4
    raw[1, 2, 3] = 1.0
    return raw


def _random_alm_state(rng, n_blocks, k):
    return AlmState(lambda_row=rng.uniform(0.0, 2.0, (n_blocks, k)),
                    lambda_col=rng.uniform(0.0, 2.0, (n_blocks, k)),
                    rho=0.7, gamma=1.0)


def test_stacked_reparametrize_matches_per_block_loop():
    raw = _raw_stack(40)
    pts, cache = reparametrize(raw)
    g = np.random.default_rng(41).normal(size=raw.shape)
    g_raw = reparametrize_backward(cache, g)
    assert cache["rounded"].shape == raw.shape[:2] and cache["rounded"][1, 2]
    for b in range(raw.shape[0]):
        pt_b, cache_b = reparametrize(raw[b])
        np.testing.assert_allclose(pts[b], pt_b, rtol=1e-15, atol=0.0)
        assert np.array_equal(cache["rounded"][b], cache_b["rounded"])
        np.testing.assert_allclose(g_raw[b], reparametrize_backward(cache_b, g[b]),
                                   rtol=1e-13, atol=1e-15)


def test_stacked_alm_loss_matches_per_block_loop():
    rng = np.random.default_rng(42)
    pts = reparametrize(_raw_stack(43))[0]
    state = _random_alm_state(rng, *pts.shape[:2])
    value, grads = alm_loss(pts, state)
    assert grads.shape == pts.shape
    total = 0.0
    for b in range(pts.shape[0]):
        single = AlmState(lambda_row=state.lambda_row[b:b + 1],
                          lambda_col=state.lambda_col[b:b + 1],
                          rho=state.rho, gamma=state.gamma)
        v_b, g_b = alm_loss([pts[b]], single)
        total += v_b
        np.testing.assert_allclose(grads[b], g_b[0], rtol=1e-15, atol=0.0)
    assert value == pytest.approx(total, rel=1e-13)
    assert alm_loss(list(pts), state)[0] == value


def test_stacked_dual_update_matches_per_block_loop():
    rng = np.random.default_rng(44)
    pts = reparametrize(_raw_stack(45))[0]
    stacked = _random_alm_state(rng, *pts.shape[:2])
    looped = AlmState(stacked.lambda_row.copy(), stacked.lambda_col.copy(),
                      stacked.rho, stacked.gamma)
    dual_update(stacked, pts)
    for b in range(pts.shape[0]):
        single = AlmState(lambda_row=looped.lambda_row[b:b + 1],
                          lambda_col=looped.lambda_col[b:b + 1],
                          rho=looped.rho, gamma=looped.gamma)
        dual_update(single, [pts[b]])
    np.testing.assert_allclose(stacked.lambda_row, looped.lambda_row, rtol=1e-15)
    np.testing.assert_allclose(stacked.lambda_col, looped.lambda_col, rtol=1e-15)


# ---------------------------------------------------------------------------
# dual updates and the rho schedule

def test_dual_update_no_violation_no_change():
    pts = [perm_array_to_matrix([1, 0, 2])]
    state = _state(1, 3, lam=0.5, rho=2.0)
    before = state.lambda_row.copy()
    dual_update(state, pts)
    assert np.array_equal(state.lambda_row, before)


def test_dual_update_unit_gap_increment():
    # every row/column of the all-0.5 4x4 matrix has l1=2, l2=1 -> gap 1
    pt = np.full((4, 4), 0.5)
    state = _state(1, 4, lam=0.0, rho=2.0)
    dual_update(state, [pt])
    assert np.allclose(state.lambda_row, 3.0)
    assert np.allclose(state.lambda_col, 3.0)


def test_dual_update_linear_growth():
    pt = np.full((4, 4), 0.5)
    state = _state(1, 4, lam=0.0, rho=2.0)
    for _ in range(5):
        dual_update(state, [pt])
    assert np.allclose(state.lambda_row, 15.0)


def test_dual_update_monotone():
    rng = np.random.default_rng(3)
    state = AlmState(lambda_row=rng.uniform(0, 1, (2, 4)),
                     lambda_col=rng.uniform(0, 1, (2, 4)),
                     rho=0.5, gamma=1.0)
    pts = [rng.uniform(0.0, 1.0, (4, 4)) for _ in range(2)]
    before_r = state.lambda_row.copy()
    before_c = state.lambda_col.copy()
    dual_update(state, pts)
    assert np.all(state.lambda_row >= before_r)
    assert np.all(state.lambda_col >= before_c)


def test_rho_schedule_first_step_unchanged():
    state = AlmState.init(1, 8, rho0=1e-3, total_steps=100)
    r0 = state.rho
    rho_schedule(state)
    assert state.rho == r0


def test_rho_schedule_reaches_final_ratio():
    state = AlmState.init(1, 8, rho0=1e-3, total_steps=200)
    r0 = state.rho
    for _ in range(200):
        rho_schedule(state)
    assert 0.5e4 <= state.rho / r0 <= 2e4


def test_rho0_default_scales_with_k():
    assert AlmState.init(1, 16).rho == pytest.approx(2e-7)
    assert AlmState.init(1, 8).rho == pytest.approx(1e-7)


# ---------------------------------------------------------------------------
# smoothed identity

def test_smoothed_identity_k2():
    assert np.allclose(init_smoothed_identity(2), np.full((2, 2), 0.5))


def test_smoothed_identity_k8():
    p = init_smoothed_identity(8)
    assert np.allclose(np.diag(p), 0.5)
    off = p[0, 1]
    assert off == pytest.approx(1.0 / 14.0)


def test_smoothed_identity_strictly_positive():
    for k in range(2, 12):
        assert np.all(init_smoothed_identity(k) > 0)


def test_smoothed_identity_k1_rejected():
    with pytest.raises(DomainError):
        init_smoothed_identity(1)


# ---------------------------------------------------------------------------
# is_permutation

def test_is_permutation_identity():
    assert is_permutation(np.eye(4))


def test_is_permutation_rejects_doubly_stochastic():
    assert not is_permutation(np.full((3, 3), 1.0 / 3.0))


def test_is_permutation_tolerance_boundary():
    p = np.eye(3)
    p[0, 0] += 2e-6
    assert not is_permutation(p, tol=1e-6)
    assert is_permutation(p, tol=3e-6)


def test_perm_array_round_trip():
    perm = np.array([3, 1, 0, 2])
    assert np.array_equal(perm_matrix_to_array(perm_array_to_matrix(perm)), perm)


# ---------------------------------------------------------------------------
# SPL

def test_spl_fixed_point():
    p = perm_array_to_matrix([2, 0, 3, 1])
    out = spl_legalize(p, np.random.default_rng(0))
    assert np.array_equal(out, p)


def test_spl_resolves_2x2_saddle():
    out = spl_legalize(np.full((2, 2), 0.5), np.random.default_rng(1))
    assert is_permutation(out)


def test_spl_saddle_reaches_both_permutations():
    seen = set()
    for seed in range(1000):
        out = spl_legalize(np.full((2, 2), 0.5), np.random.default_rng(seed))
        seen.add(tuple(perm_matrix_to_array(out)))
    assert seen == {(0, 1), (1, 0)}


def test_spl_random_matrices_legal_or_declared_failure():
    rng = np.random.default_rng(2)
    failures = 0
    for _ in range(100):
        p = rng.uniform(0.0, 1.0, (6, 6))
        try:
            out = spl_legalize(p, rng)
        except LegalizationError:
            failures += 1
            continue
        assert is_permutation(out)
    assert failures <= 2


def test_spl_exhausted_attempts_raise_with_best_effort():
    saddle = np.full((2, 2), 0.5)
    failed = False
    for seed in range(100):
        try:
            spl_legalize(saddle, np.random.default_rng(seed), max_attempts=1)
        except LegalizationError as exc:
            assert exc.best_effort.shape == (2, 2)
            failed = True
            break
    assert failed


def test_spl_config_validation():
    # checked before the input, so even an already-legal matrix is refused
    with pytest.raises(DomainError, match="max_attempts"):
        spl_legalize(np.eye(3), np.random.default_rng(0), max_attempts=0)


# ---------------------------------------------------------------------------
# end-to-end recovery of a planted permutation

def _recover_once(seed, k=8, steps=400):
    rng = np.random.default_rng(seed)
    planted = rng.permutation(k)
    p_star = perm_array_to_matrix(planted)
    x = rng.normal(size=(k, 2 * k))
    y = p_star @ x + 0.01 * rng.normal(size=(k, 2 * k))

    def loss_and_grad(pt):
        diff = pt @ x - y
        return float(np.sum(diff * diff)) / diff.size, 2.0 * diff @ x.T / diff.size

    p_raw = init_smoothed_identity(k)
    state = AlmState.init(1, k, rho0=1e-3, total_steps=steps)
    opt = Adam(lr=0.05)
    for _ in range(steps):
        pt, cache = reparametrize(p_raw)
        task_val, g_pt = loss_and_grad(pt)
        alm_val, alm_grads = alm_loss([pt], state)
        g_raw = reparametrize_backward(cache, g_pt + alm_grads[0])
        opt.step([p_raw], [g_raw])
        pt_new, _ = reparametrize(p_raw)
        dual_update(state, [pt_new])
        rho_schedule(state)
    pt, _ = reparametrize(p_raw)
    legal = spl_legalize(pt, rng)
    final_loss = loss_and_grad(legal)[0]
    planted_loss = loss_and_grad(p_star)[0]
    return final_loss <= 1.05 * planted_loss


def test_planted_permutation_recovery():
    hits = sum(_recover_once(seed) for seed in range(10))
    assert hits >= 8
