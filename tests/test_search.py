"""Gate sampling, schedules, phase alternation, and SubMesh extraction."""
import copy
import itertools
import math

import numpy as np
import pytest

from helpers import rel_err
from ptcsearch import (
    ConfigError,
    FootprintConstraint,
    InfeasibleError,
    MatrixFitTask,
    PenaltyConfig,
    StateError,
    SuperMesh,
    expected_keep_prob,
    footprint_exact,
    footprint_expected,
    load_pdk,
    run_search,
)
from ptcsearch import search as search_module
from ptcsearch.netlist import dumps_canonical, topology_to_doc
from ptcsearch.optim import Adam
from ptcsearch.permutation import AlmState, perm_array_to_matrix
from ptcsearch.search import (
    SearchConfig,
    SearchSchedule,
    SearchState,
    gumbel_backward,
    gumbel_sample,
    iter_phases,
    legalize_mesh,
    sample_gates,
    sample_submesh,
    search_step,
)
from ptcsearch.tasks import random_unitary


# ---------------------------------------------------------------------------
# gate sampling

def test_gumbel_symmetric_with_zero_noise():
    m = gumbel_sample(np.zeros(2), tau=1.0, rng=None, noise=np.zeros(2))
    assert np.allclose(m, [0.5, 0.5])


def test_gumbel_frozen_returns_certainty():
    m = gumbel_sample(np.array([5.0, -5.0]), tau=1.0, rng=None, frozen=True)
    assert np.array_equal(m, [0.0, 1.0])


def test_gumbel_sums_to_one_in_open_interval():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = gumbel_sample(rng.normal(size=2), tau=0.7, rng=rng)
        assert m.sum() == pytest.approx(1.0)
        assert 0.0 < m[0] < 1.0 and 0.0 < m[1] < 1.0


def test_gumbel_argmax_frequency_matches_softmax():
    theta = np.array([0.3, -0.2])
    rng = np.random.default_rng(1)
    n = 100_000
    hits = 0
    for _ in range(n):
        m = gumbel_sample(theta, tau=1.0, rng=rng)
        hits += int(np.argmax(m) == 1)
    z = theta - theta.max()
    e = np.exp(z)
    expected = e[1] / e.sum()
    assert abs(hits / n - expected) < 0.01


def test_gumbel_backward_matches_fd():
    theta = np.array([0.4, -0.3])
    noise = np.array([0.2, -0.1])
    weights = np.array([1.3, -0.7])
    tau = 1.2

    def value(th):
        return float(np.dot(weights, gumbel_sample(th, tau, None, noise=noise)))

    m = gumbel_sample(theta, tau, None, noise=noise)
    analytic = gumbel_backward(m, tau, weights)
    h = 1e-6
    for i in range(2):
        tp, tm = theta.copy(), theta.copy()
        tp[i] += h
        tm[i] -= h
        numeric = (value(tp) - value(tm)) / (2 * h)
        assert rel_err(analytic[i], numeric) < 1e-4


def test_sample_gates_consumes_rng_like_per_block_loop():
    mesh = SuperMesh(8, 3, 3, n_frozen=1, rng=np.random.default_rng(3))
    mesh.theta = np.random.default_rng(4).normal(size=mesh.theta.shape)
    rng_loop, rng_batch = np.random.default_rng(5), np.random.default_rng(5)
    loop = np.stack([gumbel_sample(mesh.theta[b], 0.8, rng_loop,
                                   frozen=bool(mesh.frozen[b]))
                     for b in range(mesh.n_blocks)])
    batch = sample_gates(mesh, 0.8, rng_batch)
    assert np.array_equal(batch, loop)
    assert np.array_equal(batch[mesh.frozen], [[0.0, 1.0]] * 2)
    assert rng_batch.uniform() == rng_loop.uniform()


def test_stacked_gumbel_backward_matches_per_block_calls():
    rng = np.random.default_rng(6)
    m = gumbel_sample(rng.normal(size=(5, 2)), 0.7, rng)
    g_m = rng.normal(size=(5, 2))
    frozen = np.array([False, True, False, False, True])
    stacked = gumbel_backward(m, 0.7, g_m, frozen=frozen)
    for b in range(5):
        expected = np.zeros(2) if frozen[b] else gumbel_backward(m[b], 0.7, g_m[b])
        assert np.array_equal(stacked[b], expected)


def test_expected_keep_prob_values():
    assert expected_keep_prob(np.zeros(2)) == pytest.approx(0.5)
    assert expected_keep_prob(np.array([0.0, math.log(3.0)])) == pytest.approx(0.75)
    assert expected_keep_prob(np.array([9.0, -9.0]), frozen=True) == 1.0


# ---------------------------------------------------------------------------
# schedule

def test_tau_decay_exact_endpoints_and_monotone():
    sched = SearchSchedule()
    taus = [sched.tau_at(e) for e in range(sched.total_epochs)]
    assert taus[0] == pytest.approx(5.0)
    assert taus[-1] == pytest.approx(0.5)
    assert all(a > b for a, b in zip(taus, taus[1:]))


def test_schedule_validates_ordering():
    with pytest.raises(ConfigError):
        SearchSchedule(warmup_epochs=50, spl_epoch=10)


def test_warmup_is_weights_only():
    sched = SearchSchedule(warmup_epochs=2, spl_epoch=3, total_epochs=5,
                           steps_per_epoch=4)
    phases = list(iter_phases(sched))
    warm = [ph for e, s, ph in phases if e < 2]
    assert warm == ["weights"] * 8


def test_alternation_ratio_three_to_one():
    sched = SearchSchedule(warmup_epochs=1, spl_epoch=4, total_epochs=9,
                           steps_per_epoch=5)
    post = [ph for e, s, ph in iter_phases(sched) if e >= 1]
    for i in range(len(post) - 3):
        window = post[i:i + 4]
        assert window.count("weights") == 3
        assert window.count("arch") == 1


# ---------------------------------------------------------------------------
# search steps

def _small_setup(seed=0):
    k = 8
    rng = np.random.default_rng(seed)
    mesh = SuperMesh(k, 2, 2, n_frozen=1, rng=rng)
    pdk = load_pdk("amf")
    config = SearchConfig(k=k, pdk=pdk,
                          constraint=FootprintConstraint(240_000.0, 300_000.0),
                          penalty=PenaltyConfig())
    schedule = SearchSchedule(warmup_epochs=1, spl_epoch=2, total_epochs=4,
                              steps_per_epoch=4)
    state = SearchState(mesh, config, schedule, pdk)
    task = MatrixFitTask(random_unitary(k, np.random.default_rng(7)))
    return mesh, state, task


def test_arch_phase_leaves_weights_untouched():
    mesh, state, task = _small_setup()
    rng = np.random.default_rng(1)
    before = (mesh.phi.copy(), mesh.sigma.copy(), mesh.p_raw.copy(),
              [t.copy() for t in mesh.t_latent])
    search_step(mesh, task, "arch", state, rng)
    assert np.array_equal(mesh.phi, before[0])
    assert np.array_equal(mesh.sigma, before[1])
    assert np.array_equal(mesh.p_raw, before[2])
    for t, t0 in zip(mesh.t_latent, before[3]):
        assert np.array_equal(t, t0)


def test_arch_step_with_every_gate_frozen():
    # backward returns no gate cotangent when every gate is frozen; the arch
    # step then takes the zero theta gradient the frozen Gumbel backward gives
    mesh, state, task = _small_setup()
    mesh.frozen[:] = True
    mesh.theta = np.random.default_rng(3).normal(size=mesh.theta.shape)
    expected = mesh.theta.copy()
    Adam(lr=state.schedule.arch_lr,
         weight_decay=state.schedule.arch_weight_decay).step(
        [expected], [np.zeros_like(expected)])
    search_step(mesh, task, "arch", state, np.random.default_rng(1))
    assert np.array_equal(mesh.theta, expected)


def test_weights_phase_leaves_theta_untouched():
    mesh, state, task = _small_setup()
    rng = np.random.default_rng(2)
    theta_before = mesh.theta.copy()
    phi_before = mesh.phi.copy()
    search_step(mesh, task, "weights", state, rng)
    assert np.array_equal(mesh.theta, theta_before)
    assert not np.array_equal(mesh.phi, phi_before)


def test_loss_breakdown_sums_to_total():
    mesh, state, task = _small_setup()
    rng = np.random.default_rng(3)
    record = search_step(mesh, task, "weights", state, rng)
    total = record["task"] + record["alm"] + record["footprint"]
    assert abs(total - record["total"]) < 1e-10


def test_unknown_phase_rejected():
    mesh, state, task = _small_setup()
    with pytest.raises(ValueError):
        search_step(mesh, task, "both", state, np.random.default_rng(0))


def test_post_spl_step_skips_the_alm_term(monkeypatch):
    # legal frozen permutations have a zero l1-l2 gap: L_P is 0, not evaluated
    mesh, state, task = _small_setup()
    legalize_mesh(mesh, np.random.default_rng(4))

    def unexpected(*args, **kwargs):
        raise AssertionError("alm_loss ran with frozen permutations")

    monkeypatch.setattr("ptcsearch.search.alm_loss", unexpected)
    record = search_step(mesh, task, "weights", state, np.random.default_rng(5))
    assert record["alm"] == 0.0


class _PermsTrainableView:
    """A mesh seen with trainable permutations, so the footprint proxy forms
    its P~ cotangent."""

    perms_trainable = True

    def __init__(self, mesh):
        self._mesh = mesh

    def __getattr__(self, name):
        return getattr(self._mesh, name)


@pytest.mark.parametrize("phase", ["weights", "arch"])
def test_post_spl_step_skips_the_proxy_permutation_cotangent(monkeypatch, phase):
    # nothing reads d_ptilde once SPL froze the permutations: the proxy
    # returns None, and the step logs and updates exactly as when it was formed
    mesh, state, task = _small_setup()
    legalize_mesh(mesh, np.random.default_rng(4))
    twin, twin_state = copy.deepcopy(mesh), copy.deepcopy(state)
    proxy = search_module.footprint_proxy
    seen = []

    def recording(mesh_arg, *args, **kwargs):
        seen.append(proxy(mesh_arg, *args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(search_module, "footprint_proxy", recording)
    record = search_step(mesh, task, phase, state, np.random.default_rng(5))
    assert seen[-1][1].d_ptilde is None

    def forming(mesh_arg, *args, **kwargs):
        seen.append(proxy(_PermsTrainableView(mesh_arg), *args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(search_module, "footprint_proxy", forming)
    twin_record = search_step(twin, task, phase, twin_state,
                              np.random.default_rng(5))
    assert seen[-1][1].d_ptilde is not None
    assert record == twin_record
    for a, b in ((mesh.phi, twin.phi), (mesh.sigma, twin.sigma),
                 (mesh.theta, twin.theta), (mesh.p_raw, twin.p_raw)):
        assert np.array_equal(a, b)
    assert all(np.array_equal(a, b) for a, b in zip(mesh.t_latent, twin.t_latent))


class _ZeroThatEvaluates(float):
    """A penalty coefficient of 0 that compares unequal to 0, so search_step
    evaluates the proxy and scales its value and cotangents by 0."""

    def __eq__(self, other):
        return False

    def __ne__(self, other):
        return True

    __hash__ = float.__hash__


@pytest.mark.parametrize("legal", [False, True])
@pytest.mark.parametrize("phase", ["weights", "arch"])
def test_inactive_penalty_step_matches_one_that_evaluates_the_proxy(
        monkeypatch, phase, legal):
    # inside the window the coefficient is 0: the step skips the proxy, and
    # logs and updates exactly as a step that evaluates it and scales by 0
    mesh, state, task = _small_setup()
    if legal:
        legalize_mesh(mesh, np.random.default_rng(4))
    expected = footprint_expected(mesh, state.pdk)
    state.config = SearchConfig(
        k=mesh.k, pdk=state.pdk, penalty=PenaltyConfig(),
        constraint=FootprintConstraint(0.9 * expected, 1.1 * expected))
    twin, twin_state = copy.deepcopy(mesh), copy.deepcopy(state)
    proxy, coefficient = search_module.footprint_proxy, search_module.footprint_coefficient
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return proxy(*args, **kwargs)

    monkeypatch.setattr(search_module, "footprint_proxy", counted)
    record = search_step(mesh, task, phase, state, np.random.default_rng(5))
    assert calls == [] and record["footprint"] == 0.0
    monkeypatch.setattr(search_module, "footprint_coefficient",
                        lambda *args: _ZeroThatEvaluates(coefficient(*args)))
    twin_record = search_step(twin, task, phase, twin_state,
                              np.random.default_rng(5))
    assert len(calls) == 1
    assert record == twin_record
    for a, b in ((mesh.phi, twin.phi), (mesh.sigma, twin.sigma),
                 (mesh.theta, twin.theta), (mesh.p_raw, twin.p_raw),
                 (mesh.t_flat, twin.t_flat),
                 (state.alm.lambda_row, twin_state.alm.lambda_row)):
        assert np.array_equal(a, b)


def test_struct_optimizer_must_restart_when_spl_freezes_permutations():
    # the structure moments pair with [t_flat, p_raw]; after SPL the group
    # is the couplers only, so reusing the optimizer is refused, and the fresh
    # one run_search starts is accepted
    mesh, state, task = _small_setup()
    search_step(mesh, task, "weights", state, np.random.default_rng(5))
    legalize_mesh(mesh, np.random.default_rng(4))
    with pytest.raises(StateError):
        search_step(mesh, task, "weights", state, np.random.default_rng(6))
    state.opt_struct = Adam(lr=state.schedule.lr)
    search_step(mesh, task, "weights", state, np.random.default_rng(6))


@pytest.mark.parametrize("spe,warmup,spl,n_steps", [(1, 1, 2, 2), (2, 10, 51, 82)])
def test_alm_budget_counts_pre_spl_weight_steps(spe, warmup, spl, n_steps):
    # rho grows once per pre-SPL weights step, so its schedule spans exactly
    # the weights steps iter_phases yields before the SPL epoch
    schedule = SearchSchedule(warmup_epochs=warmup, spl_epoch=spl,
                              total_epochs=spl + 1, steps_per_epoch=spe)
    counted = sum(phase == "weights" for epoch, _, phase in iter_phases(schedule)
                  if epoch < spl)
    assert counted == n_steps
    mesh, state, _ = _small_setup()
    state = SearchState(mesh, state.config, schedule, state.pdk)
    expected = AlmState.init(mesh.n_blocks, mesh.k, total_steps=n_steps)
    assert state.alm.gamma == expected.gamma


# ---------------------------------------------------------------------------
# SubMesh extraction

def _legal_mesh(k=8, n_u=2, n_v=2, n_frozen=0, seed=0):
    """Mesh with exact identity permutations and no couplers placed."""
    mesh = SuperMesh(k, n_u, n_v, n_frozen=n_frozen,
                     rng=np.random.default_rng(seed))
    for b in range(mesh.n_blocks):
        mesh.p_raw[b] = perm_array_to_matrix(np.arange(k))
        mesh.t_latent[b][:] = np.abs(mesh.t_latent[b]) + 0.1
    mesh.perms_trainable = False
    return mesh


def test_sample_submesh_certainty_keeps_all():
    mesh = _legal_mesh()
    mesh.theta[:, 1] = 50.0
    mesh.theta[:, 0] = -50.0
    pdk = load_pdk("amf")
    # each block is a bare PS column: 8 * 6800 = 54,400
    c = FootprintConstraint(200_000.0, 230_000.0)
    topo = sample_submesh(mesh, c, pdk, np.random.default_rng(0))
    assert topo.n_blocks == 4


def test_sample_submesh_excludes_zero_probability_block():
    mesh = _legal_mesh()
    mesh.theta[:, 1] = 50.0
    mesh.theta[:, 0] = -50.0
    mesh.theta[1] = (50.0, -50.0)  # second U block: keep probability ~0
    pdk = load_pdk("amf")
    c = FootprintConstraint(150_000.0, 230_000.0)
    topo = sample_submesh(mesh, c, pdk, np.random.default_rng(0))
    assert topo.n_blocks == 3
    assert len(topo.blocks_u) == 1 and len(topo.blocks_v) == 2


def test_sample_submesh_matches_enumeration_oracle():
    mesh = _legal_mesh()
    pdk = load_pdk("amf")
    # window admitting only 3-block configurations
    c = FootprintConstraint(160_000.0, 165_000.0, margin=0.0)
    probs = mesh.keep_probs()
    areas = [54_400.0] * 4
    oracle = set()
    for bits in itertools.product([False, True], repeat=4):
        keep = np.array(bits)
        if not (keep[:2].any() and keep[2:].any()):
            continue
        if c.contains(sum(a for a, k_ in zip(areas, keep) if k_)):
            oracle.add(bits)
    assert all(sum(bits) == 3 for bits in oracle) and len(oracle) == 4
    topo = sample_submesh(mesh, c, pdk, np.random.default_rng(1))
    assert topo.n_blocks == 3
    assert footprint_exact(topo, pdk) == pytest.approx(163_200.0)


def _set_keep_probs(mesh, probs):
    # softmax(theta)[:, 1] = sigmoid(theta[:, 1] - theta[:, 0])
    probs = np.asarray(probs, dtype=float)
    mesh.theta[:, 0] = 0.0
    mesh.theta[:, 1] = np.log(probs) - np.log1p(-probs)


def _netlist_bytes(topo, pdk):
    return dumps_canonical(topology_to_doc(topo, pdk))


def test_sample_submesh_exhaustive_fallback_keeps_most_probable_mask():
    # 6 free gates, so the fallback enumerates. Every in-window mask keeps
    # at least two of the ~1e-9 blocks, so no gate draw lands and the
    # fallback decides. Block 1 has its couplers placed and is the most
    # probable unlikely block: a greedy pass adds it first and overshoots.
    mesh = _legal_mesh(n_u=3, n_v=3)
    mesh.t_latent[1][:] = -0.5
    probs = [0.9, 5e-9, 2e-9, 0.8, 4e-9, 1e-9]
    _set_keep_probs(mesh, probs)
    probs = mesh.keep_probs()
    pdk = load_pdk("amf")
    # exactly four bare blocks: 4 * 54,400 = 217,600
    c = FootprintConstraint(217_000.0, 218_000.0, margin=0.0)
    areas = [8 * pdk.f_ps + pdk.f_dc * int(np.sum(t < 0.0))
             for t in mesh.t_latent]
    best, best_p, n_valid = None, -1.0, 0
    for bits in itertools.product([False, True], repeat=6):
        keep = np.array(bits)
        if not (keep[:3].any() and keep[3:].any()):
            continue
        if not c.contains(sum(a for a, k_ in zip(areas, keep) if k_)):
            continue
        n_valid += 1
        p = float(np.prod(np.where(keep, probs, 1.0 - probs)))
        assert p < 1e-15
        if p > best_p:
            best, best_p = keep, p
    assert n_valid == 5
    topo = sample_submesh(mesh, c, pdk, np.random.default_rng(0))
    expected = search_module.mesh_to_topology(mesh, best, pdk.name)
    assert _netlist_bytes(topo, pdk) == _netlist_bytes(expected, pdk)
    assert [bool(b) for b in best] == [True, False, True, True, True, False]


def test_sample_submesh_greedy_pass_lands_in_the_window():
    # 18 free gates: past the enumeration limit, so the greedy pass runs.
    # The window needs six bare blocks, but only two are likely, so no draw
    # lands; the greedy pass must add the next most probable blocks.
    mesh = _legal_mesh(k=4, n_u=9, n_v=9)
    probs = 1e-9 * np.arange(1, 19)
    probs[[0, 9]] = 0.9
    _set_keep_probs(mesh, probs)
    pdk = load_pdk("amf")
    # six bare K=4 blocks: 6 * 27,200 = 163,200
    c = FootprintConstraint(163_000.0, 163_500.0, margin=0.0)
    topo = sample_submesh(mesh, c, pdk, np.random.default_rng(0))
    assert c.contains(footprint_exact(topo, pdk))
    assert topo.n_blocks == 6
    assert topo.blocks_u and topo.blocks_v


def test_sample_submesh_infeasible_window():
    mesh = _legal_mesh()
    pdk = load_pdk("amf")
    with pytest.raises(InfeasibleError):
        sample_submesh(mesh, FootprintConstraint(1.0, 2.0), pdk,
                       np.random.default_rng(0))


def test_legalize_mesh_freezes_permutations():
    mesh = SuperMesh(6, 2, 2, rng=np.random.default_rng(4))
    legalize_mesh(mesh, np.random.default_rng(5))
    assert not mesh.perms_trainable
    from ptcsearch import is_permutation
    for b in range(mesh.n_blocks):
        assert is_permutation(mesh.p_raw[b])


# ---------------------------------------------------------------------------
# end-to-end determinism

def _tiny_config():
    config = SearchConfig(k=8, pdk="amf",
                          constraint=FootprintConstraint(240_000.0, 300_000.0))
    schedule = SearchSchedule(warmup_epochs=1, spl_epoch=2, total_epochs=4,
                              steps_per_epoch=4)
    return config, schedule


def test_run_search_deterministic():
    config, schedule = _tiny_config()
    pdk = load_pdk("amf")
    docs = []
    for _ in range(2):
        task = MatrixFitTask(random_unitary(8, np.random.default_rng(7)))
        _, topo, _ = run_search(config, schedule, task,
                                np.random.default_rng(123))
        docs.append(dumps_canonical(topology_to_doc(topo, pdk)))
    assert docs[0] == docs[1]


def test_run_search_emits_constraint_satisfying_topology():
    config, schedule = _tiny_config()
    task = MatrixFitTask(random_unitary(8, np.random.default_rng(7)))
    mesh, topo, logs = run_search(config, schedule, task,
                                  np.random.default_rng(9))
    pdk = load_pdk("amf")
    assert 240_000.0 <= footprint_exact(topo, pdk) <= 300_000.0
    assert len(logs) == schedule.total_epochs
    assert {"task", "alm", "footprint", "total", "tau"} <= set(logs[0])


def test_search_counts_crossings_once_per_permutation_build(monkeypatch):
    # the crossing counts are built with P~, so arch steps and the steps
    # after SPL reuse them: at most one count_crossings call per P~ build
    from ptcsearch import mesh as mesh_module

    calls = {"reparametrize": 0, "count_crossings": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(mesh_module, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(mesh_module, name, counted)
    config = SearchConfig(k=8, pdk="amf",
                          constraint=FootprintConstraint(240_000.0, 300_000.0))
    schedule = SearchSchedule(steps_per_epoch=2)
    task = MatrixFitTask(random_unitary(8, np.random.default_rng(7)))
    run_search(config, schedule, task, np.random.default_rng(11))
    n_steps = schedule.total_epochs * schedule.steps_per_epoch
    assert calls["count_crossings"] <= calls["reparametrize"]
    assert calls["count_crossings"] <= 0.5 * n_steps
