"""End-to-end acceptance checks.

Each test prints a single PASS line on success so the gate status is
readable straight from the pytest output (run with -s or look at captured
stdout of failing tests).
"""
import itertools

import numpy as np
import pytest
import yaml

from helpers import (
    bubble_sort_swaps,
    fd_check,
    random_topology,
    make_checkable_mesh,
    surrogate_gradients,
    surrogate_value,
)
from oracle import build_unitary
from ptcsearch import (
    AlmState,
    FootprintConstraint,
    LegalizationError,
    MatrixFitTask,
    NoiseModel,
    PenaltyConfig,
    SuperMesh,
    alm_loss,
    count_crossings,
    dual_update,
    footprint_exact,
    is_permutation,
    load_pdk,
    run_search,
    spl_legalize,
)
from ptcsearch.cli import baseline_footprint, main
from ptcsearch.pdk import block_area_extremes, block_bounds
from ptcsearch.permutation import perm_array_to_matrix
from ptcsearch.search import SearchConfig, SearchSchedule
from ptcsearch.tasks import clean_metric, fit_mesh, noisy_metric, random_unitary
from ptcsearch.topology import coupler_offset, n_coupler_slots

K8_WINDOW = FootprintConstraint(240_000.0, 300_000.0)


@pytest.fixture(scope="module")
def searched_topologies():
    """Ten seeded end-to-end searches at K=8, AMF, window [240k, 300k]."""
    config = SearchConfig(k=8, pdk="amf", constraint=K8_WINDOW)
    schedule = SearchSchedule(steps_per_epoch=2)
    out = []
    for seed in range(10):
        task = MatrixFitTask(random_unitary(8, np.random.default_rng(1000 + seed)))
        _, topo, _ = run_search(config, schedule, task,
                                np.random.default_rng(seed))
        out.append(topo)
    return out


# ---------------------------------------------------------------------------
# 1. footprint oracle

def test_acceptance_1_footprint_oracle():
    published = [
        ("mzi", 8, "amf", 1909), ("mzi", 16, "amf", 7683),
        ("mzi", 32, "amf", 30829), ("fft", 8, "amf", 363),
        ("fft", 16, "amf", 972), ("fft", 32, "amf", 2443),
        ("mzi", 16, "aim", 4480), ("fft", 16, "aim", 1007),
    ]
    for name, size, pdk, expected in published:
        _, rounded = baseline_footprint(name, size, pdk)
        assert rounded == expected, (name, size, pdk, rounded, expected)
    print("ACCEPTANCE 1 footprint oracle: PASS "
          f"({len(published)} published baseline footprints exact)")


# ---------------------------------------------------------------------------
# 2. block bounds

def test_acceptance_2_block_bounds(searched_topologies):
    pdk = load_pdk("amf")
    f_min, f_max = block_area_extremes(pdk, 8)
    assert f_min == 55_900.0
    assert f_max == 63_692.0
    bounds = block_bounds(pdk, 8, K8_WINDOW)
    assert bounds.b_max == 6
    assert bounds.b_min == 3
    for topo in searched_topologies:
        assert max(2, bounds.b_min) <= topo.n_blocks <= bounds.b_max
    print("ACCEPTANCE 2 block bounds: PASS "
          f"(F_b in [{f_min:.0f}, {f_max:.0f}], B in [3, 6]; "
          f"10/10 topologies within bounds)")


# ---------------------------------------------------------------------------
# 3. constraint satisfaction

def test_acceptance_3_constraint_satisfaction(searched_topologies):
    pdk = load_pdk("amf")
    for topo in searched_topologies:
        area = footprint_exact(topo, pdk)
        assert K8_WINDOW.contains(area), area
        for block in topo.blocks:
            assert sorted(block.perm.tolist()) == list(range(8))
    print("ACCEPTANCE 3 constraint satisfaction: PASS "
          "(10/10 searches emit legal topologies inside [240k, 300k])")


# ---------------------------------------------------------------------------
# 4. permutation machinery

def test_acceptance_4_permutation_machinery():
    rng = np.random.default_rng(0)

    # (a) alm_loss vanishes exactly on legal permutations
    state = AlmState(lambda_row=rng.uniform(0, 2, (5, 8)),
                     lambda_col=rng.uniform(0, 2, (5, 8)),
                     rho=1.7, gamma=1.0)
    pts = [perm_array_to_matrix(rng.permutation(8)) for _ in range(5)]
    value, _ = alm_loss(pts, state)
    assert value == 0.0

    # (b) dual_update monotone over 1000 random states
    for _ in range(1000):
        st = AlmState(lambda_row=rng.uniform(0, 1, (1, 4)),
                      lambda_col=rng.uniform(0, 1, (1, 4)),
                      rho=rng.uniform(0.01, 2.0), gamma=1.0)
        before_r = st.lambda_row.copy()
        before_c = st.lambda_col.copy()
        dual_update(st, [rng.uniform(0.0, 1.0, (4, 4))])
        assert np.all(st.lambda_row >= before_r)
        assert np.all(st.lambda_col >= before_c)

    # (c) SPL always returns exact permutations or declares failure
    failures = 0
    total = 0
    for k in (4, 6, 8):
        for _ in range(167):
            total += 1
            p = rng.uniform(0.0, 1.0, (k, k))
            try:
                out = spl_legalize(p, rng)
            except LegalizationError:
                failures += 1
                continue
            assert is_permutation(out)
    assert total >= 500
    assert failures / total < 0.02, failures

    # (d) crossing counts equal the adjacent-swap oracle exhaustively, K <= 6
    for k in range(2, 7):
        for perm in itertools.permutations(range(k)):
            assert count_crossings(perm) == bubble_sort_swaps(perm)

    print("ACCEPTANCE 4 permutation machinery: PASS "
          f"(ALM zero on legal, duals monotone x1000, SPL failures "
          f"{failures}/{total}, crossings exhaustive K<=6)")


# ---------------------------------------------------------------------------
# 5. gradient correctness

def test_acceptance_5_gradient_correctness():
    mesh = make_checkable_mesh(k=8, n_u=2, n_v=2, seed=21)
    task = MatrixFitTask(0.3 * (np.random.default_rng(22).normal(size=(8, 8))
                                + 1j * np.random.default_rng(23).normal(size=(8, 8))))
    pdk = load_pdk("amf")
    penalty = PenaltyConfig()
    # window far below the expected footprint: the upper penalty branch is
    # active and locally constant, so the surrogate loss is smooth
    constraint = FootprintConstraint(30_000.0, 60_000.0)
    rng = np.random.default_rng(24)
    alm_state = AlmState(lambda_row=rng.uniform(0.1, 1.0, (4, 8)),
                         lambda_col=rng.uniform(0.1, 1.0, (4, 8)),
                         rho=0.5, gamma=1.0)
    tau = 1.2
    noise = [rng.normal(0.0, 0.5, 2) for _ in range(mesh.n_blocks)]

    _, grads, g_theta = surrogate_gradients(mesh, task, alm_state, pdk,
                                            penalty, constraint, noise, tau)

    def value():
        return surrogate_value(mesh, task, alm_state, pdk, penalty,
                               constraint, noise, tau)

    checks = []
    for param, analytic, n_coords in ((mesh.phi, grads.phi, 40),
                                      (mesh.sigma, grads.sigma, 8),
                                      (mesh.p_raw, grads.p_raw, 40),
                                      (mesh.theta, g_theta, mesh.theta.size)):
        coords = rng.choice(param.size, size=min(n_coords, param.size),
                            replace=False)
        checks.extend(fd_check(value, param, analytic, coords))
    checks.extend(fd_check(value, mesh.t_flat, grads.t_latent,
                           range(mesh.t_flat.size)))

    rels = np.array([rel for _, _, rel in checks])
    frac_ok = float(np.mean(rels < 1e-4))
    assert frac_ok >= 0.99, (frac_ok, sorted(rels)[-5:])
    print("ACCEPTANCE 5 gradient correctness: PASS "
          f"({len(checks)} coordinates, {100 * frac_ok:.1f}% within 1e-4, "
          f"max rel err {rels.max():.2e})")


# ---------------------------------------------------------------------------
# 6. unitarity

def test_acceptance_6_unitarity():
    rng = np.random.default_rng(30)
    worst = 0.0
    for k in (4, 8, 16):
        for _ in range(100):
            n_blocks = int(rng.integers(2, 7))
            phis, ts, perms, offsets = [], [], [], []
            for i in range(n_blocks):
                off = coupler_offset(i)
                slots = n_coupler_slots(k, off)
                phis.append(rng.uniform(-np.pi, np.pi, k))
                ts.append(rng.choice([-1.0, 1.0], size=slots))
                perms.append(perm_array_to_matrix(rng.permutation(k)))
                offsets.append(off)
            u = build_unitary(phis, ts, perms, offsets)
            dev = float(np.linalg.norm(u.conj().T @ u - np.eye(k)))
            worst = max(worst, dev)
            assert dev < 1e-6
    print("ACCEPTANCE 6 unitarity: PASS "
          f"(300 random parameterizations, worst deviation {worst:.2e})")


# ---------------------------------------------------------------------------
# 7. expressiveness trend

def _train_fixed_structure(n_blocks, seed, k=8, steps=800, lr=2e-2):
    """Train phases, scales, and coupler latents of an identity-permutation
    mesh with all blocks kept."""
    task = MatrixFitTask(random_unitary(k, np.random.default_rng(7)))
    mesh = SuperMesh(k, n_blocks // 2, n_blocks // 2,
                     rng=np.random.default_rng(seed))
    mesh.p_raw[:] = np.eye(k)
    mesh.perms_trainable = False
    fit_mesh(mesh, task, steps, np.random.default_rng(seed), lr=lr)
    return clean_metric(mesh, task)


def test_acceptance_7_expressiveness_trend():
    best = []
    for n_blocks in (2, 4, 8, 16):
        errs = [_train_fixed_structure(n_blocks, seed) for seed in range(3)]
        best.append(min(errs))
    assert all(a >= b for a, b in zip(best, best[1:])), best
    print("ACCEPTANCE 7 expressiveness trend: PASS "
          "(seed-best fit error nonincreasing over blocks {2,4,8,16}: "
          + ", ".join(f"{e:.4f}" for e in best) + ")")


# ---------------------------------------------------------------------------
# 8. robustness ordering

def test_acceptance_8_robustness_ordering():
    k = 8
    task = MatrixFitTask(random_unitary(k, np.random.default_rng(7)))
    shallow = SuperMesh.from_topology(
        random_topology(k, 3, 3, np.random.default_rng(0)),
        rng=np.random.default_rng(1))
    fit_mesh(shallow, task, 800, np.random.default_rng(2), lr=2e-2)
    matched = clean_metric(shallow, task)
    deep = SuperMesh.from_topology(
        random_topology(k, 16, 16, np.random.default_rng(3)),
        rng=np.random.default_rng(4))
    fit_mesh(deep, task, 4000, np.random.default_rng(5), lr=2e-2,
             target_loss=matched)
    assert clean_metric(deep, task) <= matched
    sigma = 0.08
    noisy_shallow, _ = noisy_metric(shallow, task, sigma,
                                    np.random.default_rng(6), trials=20)
    noisy_deep, _ = noisy_metric(deep, task, sigma,
                                 np.random.default_rng(6), trials=20)
    deg_shallow = noisy_shallow - clean_metric(shallow, task)
    deg_deep = noisy_deep - clean_metric(deep, task)
    assert deg_deep > deg_shallow, (deg_deep, deg_shallow)
    print("ACCEPTANCE 8 robustness ordering: PASS "
          f"(sigma=0.08 degradation: 32-block {deg_deep:.5f} > "
          f"6-block {deg_shallow:.5f})")


# ---------------------------------------------------------------------------
# 9. determinism

def test_acceptance_9_determinism(tmp_path, capsys):
    config = tmp_path / "run.yaml"
    config.write_text(yaml.safe_dump({
        "k": 8, "pdk": "amf", "f_min": 240_000.0, "f_max": 300_000.0,
        "schedule": {"warmup_epochs": 2, "spl_epoch": 5, "total_epochs": 8,
                     "steps_per_epoch": 4},
        "task": {"kind": "matrix_fit", "target": "random_unitary"},
    }))
    netlists, csvs = [], []
    for run in range(2):
        net = tmp_path / f"net{run}.json"
        csv = tmp_path / f"metrics{run}.csv"
        assert main(["search", "--config", str(config), "--seed", "77",
                     "--out", str(net)]) == 0
        assert main(["eval", "--netlist", str(net), "--seed", "5",
                     "--sigma-grid", "0,0.02", "--trials", "5",
                     "--train-steps", "50", "--out", str(csv)]) == 0
        netlists.append(net.read_bytes())
        csvs.append(csv.read_bytes())
    capsys.readouterr()
    assert netlists[0] == netlists[1]
    assert csvs[0] == csvs[1]
    print("ACCEPTANCE 9 determinism: PASS "
          "(netlists and metric CSVs byte-identical across two runs)")
