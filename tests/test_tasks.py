"""Tasks, datasets, phase noise, fixed-structure training, and robustness
evaluation."""
import re

import numpy as np
import pytest

from helpers import (
    MALFORMED_DATASETS,
    blob_task,
    random_topology,
    rel_err,
    write_malformed_dataset,
)
from ptcsearch import (
    ClassifyTask,
    ConfigError,
    DomainError,
    MatrixFitTask,
    NoiseModel,
    StateError,
    SuperMesh,
    load_dataset,
    robustness_sweep,
    variation_aware_train,
)
from ptcsearch.mesh import certainty_gates
from ptcsearch.optim import Adam
from ptcsearch.tasks import clean_metric, fit_mesh, noisy_metric, random_unitary


# ---------------------------------------------------------------------------
# task losses

def test_matrix_fit_zero_at_target():
    target = random_unitary(4, np.random.default_rng(0))
    task = MatrixFitTask(target)
    loss, _ = task.loss_and_grad(target.copy())
    assert loss == 0.0


def test_matrix_fit_identity_vs_zero():
    task = MatrixFitTask(np.eye(8, dtype=complex))
    loss, _ = task.loss_and_grad(np.zeros((8, 8), dtype=complex))
    assert loss == pytest.approx(0.125)


def test_matrix_fit_gradient_matches_fd():
    rng = np.random.default_rng(1)
    task = MatrixFitTask(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    w = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    _, g = task.loss_and_grad(w)
    h = 1e-6
    for i in range(3):
        for j in range(3):
            for part, delta in (("re", h), ("im", 1j * h)):
                wp, wm = w.copy(), w.copy()
                wp[i, j] += delta
                wm[i, j] -= delta
                numeric = (task.loss_and_grad(wp)[0]
                           - task.loss_and_grad(wm)[0]) / (2 * h)
                analytic = g[i, j].real if part == "re" else g[i, j].imag
                assert rel_err(analytic, numeric) < 1e-4


def test_classify_gradient_matches_fd():
    task = blob_task(np.random.default_rng(2), n_per=10)
    rng = np.random.default_rng(3)
    w = 0.1 * (rng.normal(size=(task.m_rows, task.n_cols))
               + 1j * rng.normal(size=(task.m_rows, task.n_cols)))
    batch = (task.x_train[:16], task.y_train[:16])
    _, g = task.loss_and_grad(w, batch)
    h = 1e-6
    for i in range(task.m_rows):
        for j in range(0, task.n_cols, 3):
            wp, wm = w.copy(), w.copy()
            wp[i, j] += h
            wm[i, j] -= h
            numeric = (task.loss_and_grad(wp, batch)[0]
                       - task.loss_and_grad(wm, batch)[0]) / (2 * h)
            assert rel_err(g[i, j].real, numeric) < 1e-4


def _two_class_task(x_val, y_val):
    """A 2-feature, 2-class task. Its training split holds the validation
    rows with their features swapped, which scores a different accuracy in
    every case below, so a read of the wrong split shows."""
    x_val = np.asarray(x_val, dtype=float)
    return ClassifyTask(x_train=x_val[:, ::-1].copy(), y_train=np.asarray(y_val),
                        x_val=x_val, y_val=np.asarray(y_val), n_classes=2)


# logits Re(W x) = x: class 0 when x0 > x1, class 1 when x1 > x0; the
# imaginary part of W is not read
ACCURACY_W = np.eye(2) + 9j * np.array([[0.0, 1.0], [1.0, 0.0]])
ACCURACY_X = [[2.0, 1.0], [0.0, 3.0], [1.0, 1.0], [-1.0, -4.0]]


@pytest.mark.parametrize("y_val, expected", [
    ([0, 1, 0, 0], 1.0),     # a tie goes to the first class, class 0
    ([0, 1, 1, 0], 0.75),    # so a tie row labelled 1 is wrong
    ([1, 0, 1, 1], 0.0),     # every row wrong
], ids=["all_right", "tie_row_wrong", "all_wrong"])
def test_classify_accuracy_on_the_validation_split(y_val, expected):
    task = _two_class_task(ACCURACY_X, y_val)
    assert task.accuracy(ACCURACY_W) == expected


# ---------------------------------------------------------------------------
# phase noise

def test_noise_preserves_unitarity():
    # the phase-noise path of fit_mesh and noisy_metric: a drawn phi_noise
    # passed to the forward
    topo = random_topology(8, 2, 2, np.random.default_rng(7))
    mesh = SuperMesh.from_topology(topo, rng=np.random.default_rng(0))
    phi_noise = np.random.default_rng(8).normal(0.0, 0.1, mesh.phi.shape)
    _, cache = mesh.forward(certainty_gates(mesh.n_blocks), phi_noise=phi_noise)
    u, v = cache["u_n"][0, 0], cache["v_n"][0, 0]
    assert np.linalg.norm(u.conj().T @ u - np.eye(8)) < 1e-6
    assert np.linalg.norm(v.conj().T @ v - np.eye(8)) < 1e-6


def test_noise_model_rejects_negative_sigma():
    with pytest.raises(DomainError):
        NoiseModel(-0.1)


# ---------------------------------------------------------------------------
# fixed-structure training

def _identity_perm_mesh():
    mesh = SuperMesh(8, 2, 2, rng=np.random.default_rng(3))
    mesh.p_raw[:] = np.eye(8)
    mesh.perms_trainable = False
    return mesh


def test_fit_mesh_steps_the_coupler_latents_the_mesh_holds_trainable():
    task = MatrixFitTask(random_unitary(8, np.random.default_rng(7)))
    mesh, ref = _identity_perm_mesh(), _identity_perm_mesh()
    t_before = mesh.t_flat.copy()
    trace = fit_mesh(mesh, task, 200, np.random.default_rng(0), lr=2e-2)
    # reference: one Adam over phi, sigma and t_flat, in that order
    gates = certainty_gates(ref.n_blocks)
    opt = Adam(lr=2e-2)
    ref_trace = []
    for _ in range(200):
        w, cache = ref.forward(gates, binarize=True)
        loss, g_w = task.loss_and_grad(w)
        ref_trace.append(loss)
        grads = ref.backward(cache, g_w)
        opt.step([ref.phi, ref.sigma, ref.t_flat],
                 [grads.phi, grads.sigma, grads.t_latent])
    np.testing.assert_array_equal(trace, ref_trace)
    np.testing.assert_array_equal(mesh.t_flat, ref.t_flat)
    np.testing.assert_array_equal(mesh.phi, ref.phi)
    assert not np.array_equal(mesh.t_flat, t_before)


def test_fit_mesh_leaves_a_fixed_topology_structure_untouched():
    topo = random_topology(8, 2, 2, np.random.default_rng(15))
    task = MatrixFitTask(random_unitary(8, np.random.default_rng(7)))
    mesh = SuperMesh.from_topology(topo, rng=np.random.default_rng(0))
    t_before, p_before = mesh.t_flat.copy(), mesh.p_raw.copy()
    phi_before = mesh.phi.copy()
    fit_mesh(mesh, task, 50, np.random.default_rng(1), lr=2e-2,
             noise=NoiseModel(0.02))
    np.testing.assert_array_equal(mesh.t_flat, t_before)
    np.testing.assert_array_equal(mesh.p_raw, p_before)
    assert not np.array_equal(mesh.phi, phi_before)


# ---------------------------------------------------------------------------
# variation-aware training

def test_variation_aware_reduces_to_plain_training_at_zero_sigma():
    topo = random_topology(8, 2, 2, np.random.default_rng(11))
    task = MatrixFitTask(random_unitary(8, np.random.default_rng(7)))
    _, a = variation_aware_train(topo, task, NoiseModel(0.0), steps=50,
                                 rng=np.random.default_rng(0))
    _, b = variation_aware_train(topo, task, NoiseModel(0.0), steps=50,
                                 rng=np.random.default_rng(0))
    assert a == b
    assert a["noisy"] == a["clean"]
    assert a["noisy_std"] == 0.0


def test_variation_aware_deterministic():
    topo = random_topology(8, 2, 2, np.random.default_rng(12))
    task = MatrixFitTask(random_unitary(8, np.random.default_rng(7)))
    mesh1, m1 = variation_aware_train(topo, task, NoiseModel(0.02), steps=60,
                                      rng=np.random.default_rng(3))
    mesh2, m2 = variation_aware_train(topo, task, NoiseModel(0.02), steps=60,
                                      rng=np.random.default_rng(3))
    assert m1 == m2
    assert np.array_equal(mesh1.phi, mesh2.phi)


def test_variation_aware_degradation_bounded_fixture():
    # frozen regression fixture: at sigma=0.02 the noisy-metric increase is
    # far below half of the clean error on this K=8 topology
    topo = random_topology(8, 3, 3, np.random.default_rng(100))
    task = MatrixFitTask(random_unitary(8, np.random.default_rng(7)))
    _, metrics = variation_aware_train(topo, task, NoiseModel(0.02), steps=300,
                                       rng=np.random.default_rng(0))
    increase = metrics["noisy"] - metrics["clean"]
    assert increase < 0.5 * metrics["clean"]


def test_variation_aware_beats_clean_training_under_noise():
    # statistical invariant at sigma=0.02: seed-best noisy metric of
    # variation-aware training is at least as good as noise-free training
    # evaluated under the same noise (separable classification fixture,
    # trained to convergence so margins differ)
    va_scores, clean_scores = [], []
    for seed in range(3):
        topo = random_topology(8, 4, 4, np.random.default_rng(100 + seed))
        task = blob_task(np.random.default_rng(42))

        def train(noise):
            mesh = SuperMesh.from_topology(
                topo, m_rows=task.m_rows, n_cols=task.n_cols,
                rng=np.random.default_rng(seed))
            fit_mesh(mesh, task, 3000, np.random.default_rng(seed), lr=2e-2,
                     noise=noise)
            return mesh

        mesh_va = train(NoiseModel(0.02))
        mesh_clean = train(None)
        va, _ = noisy_metric(mesh_va, task, 0.02,
                             np.random.default_rng(999 + seed), trials=200)
        cl, _ = noisy_metric(mesh_clean, task, 0.02,
                             np.random.default_rng(999 + seed), trials=200)
        va_scores.append(va)
        clean_scores.append(cl)
    assert min(va_scores) <= min(clean_scores)


# ---------------------------------------------------------------------------
# robustness sweeps

def test_sweep_zero_sigma_row_equals_clean():
    topo = random_topology(8, 2, 2, np.random.default_rng(13))
    task = MatrixFitTask(random_unitary(8, np.random.default_rng(7)))
    mesh = SuperMesh.from_topology(topo, rng=np.random.default_rng(0))
    rows = robustness_sweep(mesh, task, [0.0], trials=5,
                            rng=np.random.default_rng(1))
    assert len(rows) == 1
    sigma, mean, std = rows[0]
    assert sigma == 0.0 and std == 0.0
    assert mean == pytest.approx(clean_metric(mesh, task))


def test_sweep_row_count_matches_grid():
    topo = random_topology(8, 2, 2, np.random.default_rng(14))
    task = MatrixFitTask(random_unitary(8, np.random.default_rng(7)))
    mesh = SuperMesh.from_topology(topo, rng=np.random.default_rng(0))
    rows = robustness_sweep(mesh, task, [0.0, 0.01, 0.02, 0.04, 0.08],
                            trials=20, rng=np.random.default_rng(2))
    assert len(rows) == 5


def test_noisy_metric_at_zero_sigma_runs_one_forward_pass_and_no_draw(
        monkeypatch):
    topo = random_topology(8, 2, 2, np.random.default_rng(13))
    task = MatrixFitTask(random_unitary(8, np.random.default_rng(7)))
    mesh = SuperMesh.from_topology(topo, rng=np.random.default_rng(0))
    clean = clean_metric(mesh, task)
    forward = SuperMesh.forward
    calls = []

    def counting_forward(self, *args, **kwargs):
        calls.append(1)
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(SuperMesh, "forward", counting_forward)
    rng = np.random.default_rng(1)
    before = rng.bit_generator.state
    assert noisy_metric(mesh, task, 0.0, rng) == (clean, 0.0)
    assert len(calls) == 1
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("bad", [-0.01, float("nan"), float("inf")])
def test_noisy_metric_and_sweep_reject_bad_sigma(bad):
    # a bad sigma used to yield the clean metric with std 0, labelled as noisy
    topo = random_topology(8, 2, 2, np.random.default_rng(16))
    task = MatrixFitTask(random_unitary(8, np.random.default_rng(7)))
    mesh = SuperMesh.from_topology(topo, rng=np.random.default_rng(0))
    with pytest.raises(DomainError):
        noisy_metric(mesh, task, bad, np.random.default_rng(1), trials=3)
    with pytest.raises(DomainError):
        robustness_sweep(mesh, task, [0.0, bad], trials=3,
                         rng=np.random.default_rng(1))
    with pytest.raises(DomainError):
        NoiseModel(bad)


def test_sweep_needs_two_trials():
    topo = random_topology(8, 2, 2, np.random.default_rng(15))
    task = MatrixFitTask(random_unitary(8, np.random.default_rng(7)))
    mesh = SuperMesh.from_topology(topo, rng=np.random.default_rng(0))
    with pytest.raises(DomainError):
        robustness_sweep(mesh, task, [0.0], trials=1,
                         rng=np.random.default_rng(0))


def test_sweep_of_a_topology_raises_state_error():
    # a topology carries no trained sigma: sweeping it used to run on a
    # random one
    topo = random_topology(8, 2, 2, np.random.default_rng(15))
    task = MatrixFitTask(random_unitary(8, np.random.default_rng(7)))
    with pytest.raises(StateError):
        robustness_sweep(topo, task, [0.0, 0.02], trials=2,
                         rng=np.random.default_rng(0))


# ---------------------------------------------------------------------------
# dataset loading

def _csv_rows(n_rows=30, n_feat=8, n_classes=3, seed=0):
    """(features, labels) of a random dataset, features rounded as written."""
    rng = np.random.default_rng(seed)
    feats, labels = [], []
    for _ in range(n_rows):
        feats.append(rng.uniform(-2.0, 5.0, n_feat))
        labels.append(int(rng.integers(0, n_classes)))
    return np.round(np.array(feats), 6), np.array(labels)


def _write_rows(path, feats, labels):
    header = ",".join(f"f{i}" for i in range(feats.shape[1])) + ",label"
    lines = [header] + [",".join(f"{v:.6f}" for v in row) + f",{label}"
                        for row, label in zip(feats, labels)]
    path.write_text("\n".join(lines) + "\n")


def _write_csv(path, n_rows=30, n_feat=8, n_classes=3, seed=0):
    _write_rows(path, *_csv_rows(n_rows, n_feat, n_classes, seed))


def _split_rows(n_rows, split=0.8, seed=0):
    """The (train, val) row indices load_dataset draws for this seed."""
    order = np.random.default_rng(seed).permutation(n_rows)
    n_train = int(round(split * n_rows))
    return order[:n_train], order[n_train:]


def test_csv_split_sizes(tmp_path):
    path = tmp_path / "data.csv"
    _write_csv(path)
    task = load_dataset(str(path), split=0.8, seed=0)
    assert task.x_train.shape == (24, 8)
    assert task.x_val.shape == (6, 8)
    assert task.n_classes == 3


def test_csv_features_scaled_to_unit_interval(tmp_path):
    # min-max scaling by the training rows: the training features span
    # [0, 1] and the validation rows take the training rows' min and span
    path = tmp_path / "data.csv"
    feats, labels = _csv_rows()
    _write_rows(path, feats, labels)
    task = load_dataset(str(path), seed=0)
    train, val = _split_rows(len(labels))
    assert np.array_equal(task.y_train, labels[train])
    assert np.array_equal(task.y_val, labels[val])
    assert np.array_equal(task.x_train.min(axis=0), np.zeros(feats.shape[1]))
    assert np.array_equal(task.x_train.max(axis=0), np.ones(feats.shape[1]))
    train_lo = feats[train].min(axis=0)
    train_span = feats[train].max(axis=0) - train_lo
    np.testing.assert_allclose(task.x_val, (feats[val] - train_lo) / train_span,
                               rtol=0.0, atol=1e-12)


def test_csv_validation_extreme_leaves_training_features_unchanged(tmp_path):
    feats, labels = _csv_rows()
    _, val = _split_rows(len(labels))
    path = tmp_path / "data.csv"
    _write_rows(path, feats, labels)
    before = load_dataset(str(path), seed=0)
    # one validation row moves far outside the range of every other row
    feats[val[0], 0], feats[val[0], 1] = 1000.0, -1000.0
    _write_rows(path, feats, labels)
    after = load_dataset(str(path), seed=0)
    assert np.array_equal(after.x_train, before.x_train)
    assert np.array_equal(after.x_val[1:], before.x_val[1:])
    assert after.x_val[0, 0] > 100.0 and after.x_val[0, 1] < -100.0


def test_csv_malformed_row_names_row_number(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("f0,f1,label\n1.0,2.0,0\n1.0,oops,1\n")
    with pytest.raises(ConfigError, match="row 3"):
        load_dataset(str(path))


def test_csv_wrong_field_count_names_row(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("f0,f1,label\n1.0,2.0,0\n1.0,1\n")
    with pytest.raises(ConfigError, match="row 3"):
        load_dataset(str(path))


def test_csv_requires_label_header(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("f0,f1,target\n1.0,2.0,0\n")
    with pytest.raises(ConfigError, match="label"):
        load_dataset(str(path))


def test_same_seed_same_split(tmp_path):
    path = tmp_path / "data.csv"
    _write_csv(path)
    a = load_dataset(str(path), seed=5)
    b = load_dataset(str(path), seed=5)
    assert np.array_equal(a.x_train, b.x_train)
    assert np.array_equal(a.y_val, b.y_val)


def _write_idx(images_path, labels_path, n=20, side=4, seed=0):
    import struct
    rng = np.random.default_rng(seed)
    imgs = rng.integers(0, 256, size=(n, side, side), dtype=np.uint8)
    labels = rng.integers(0, 3, size=n, dtype=np.uint8)
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">BBBB", 0, 0, 0x08, 3))
        fh.write(struct.pack(">3I", n, side, side))
        fh.write(imgs.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">BBBB", 0, 0, 0x08, 1))
        fh.write(struct.pack(">I", n))
        fh.write(labels.tobytes())
    return imgs, labels


def test_idx_loader(tmp_path):
    imgs_path = tmp_path / "imgs.idx"
    labels_path = tmp_path / "labels.idx"
    _write_idx(imgs_path, labels_path)
    task = load_dataset(str(imgs_path), fmt="idx", split=0.8, seed=0,
                        labels_path=str(labels_path))
    assert task.x_train.shape == (16, 16)
    assert task.x_val.shape == (4, 16)


def test_idx_bad_magic(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes(b"\x01\x00\x08\x01\x00\x00\x00\x01\x00")
    with pytest.raises(ConfigError, match="magic"):
        load_dataset(str(path), fmt="idx", labels_path=str(path))


def test_idx_requires_labels_path(tmp_path):
    with pytest.raises(ConfigError, match="labels_path"):
        load_dataset(str(tmp_path / "x.idx"), fmt="idx")


@pytest.mark.parametrize("case", MALFORMED_DATASETS)
def test_malformed_dataset_is_a_config_error_naming_the_file(tmp_path, case):
    path, fmt, labels_path, named = write_malformed_dataset(tmp_path, case)
    with pytest.raises(ConfigError, match=re.escape(str(named))):
        load_dataset(path, fmt=fmt, labels_path=labels_path)


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ConfigError, match="format"):
        load_dataset(str(tmp_path / "x.bin"), fmt="parquet")
