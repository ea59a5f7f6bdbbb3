"""Footprint accounting: device counting, proxies, penalties, block bounds."""
import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    bubble_sort_swaps,
    fd_check,
    linear_dc_counts,
    make_checkable_mesh,
    random_topology,
)
from oracle import count_couplers
import ptcsearch
from ptcsearch import (
    BlockBounds,
    ConfigError,
    DomainError,
    FootprintConstraint,
    InfeasibleError,
    PdkSpec,
    PenaltyConfig,
    SuperMesh,
    block_bounds,
    count_crossings,
    footprint_exact,
    footprint_expected,
    footprint_penalty,
    footprint_proxy,
    load_pdk,
)
from ptcsearch.pdk import (
    BlockCounts,
    block_area_extremes,
    block_footprint,
    perm_proxy_terms,
)
from ptcsearch.mesh import certainty_gates, quantize_coupler
from ptcsearch.permutation import hard_permutations, perm_array_to_matrix

ROOT2_OVER_2 = math.sqrt(2.0) / 2.0


# ---------------------------------------------------------------------------
# PDK loading

def test_load_builtin_amf():
    pdk = load_pdk("amf")
    assert (pdk.f_ps, pdk.f_dc, pdk.f_cr) == (6800.0, 1500.0, 64.0)


def test_load_builtin_aim():
    pdk = load_pdk("aim")
    assert (pdk.f_ps, pdk.f_dc, pdk.f_cr) == (2500.0, 4000.0, 4900.0)


def test_load_pdk_from_dict():
    pdk = load_pdk({"name": "custom", "f_ps": 1.0, "f_dc": 2.0, "f_cr": 3.0})
    assert pdk == PdkSpec("custom", 1.0, 2.0, 3.0)


def test_load_pdk_from_yaml_file(tmp_path):
    path = tmp_path / "pdk.yaml"
    path.write_text("name: custom\nf_ps: 100.0\nf_dc: 10.0\nf_cr: 1.0\n")
    pdk = load_pdk(str(path))
    assert pdk.name == "custom" and pdk.f_ps == 100.0


def test_import_does_not_load_yaml():
    # yaml is imported where a YAML document is first read, not at start-up
    src = os.path.dirname(os.path.dirname(ptcsearch.__file__))
    code = "import sys, ptcsearch; print('yaml' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_load_pdk_missing_field():
    with pytest.raises(ConfigError, match="f_cr"):
        load_pdk({"name": "x", "f_ps": 1.0, "f_dc": 2.0})


def test_load_pdk_unknown_name_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="neither a builtin name"):
        load_pdk(str(tmp_path / "missing.yaml"))


def test_load_pdk_zero_area_names_field():
    with pytest.raises(ConfigError, match="f_dc must be positive"):
        load_pdk({"name": "x", "f_ps": 1.0, "f_dc": 0.0, "f_cr": 3.0})


# ---------------------------------------------------------------------------
# crossing counting

def test_crossings_identity():
    assert count_crossings(list(range(8))) == 0


def test_crossings_single_adjacent_swap():
    assert count_crossings([1, 0, 2, 3]) == 1


def test_crossings_full_reversal():
    assert count_crossings([3, 2, 1, 0]) == 6


def test_crossings_rejects_non_permutation():
    with pytest.raises(DomainError):
        count_crossings([0, 0, 1])


def test_crossings_stack_matches_per_row_counts():
    rng = np.random.default_rng(8)
    perms = np.stack([rng.permutation(9) for _ in range(6)])
    counts = count_crossings(perms)
    assert counts.tolist() == [count_crossings(p) for p in perms]
    assert count_crossings(perms.reshape(2, 3, 9)).tolist() == \
        counts.reshape(2, 3).tolist()


def test_crossings_stack_rejects_any_non_permutation_row():
    perms = np.array([[0, 1, 2, 3], [3, 2, 1, 0], [1, 1, 2, 3]])
    with pytest.raises(DomainError):
        count_crossings(perms)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_crossings_exhaustive_vs_adjacent_swap_oracle(k):
    for perm in itertools.permutations(range(k)):
        assert count_crossings(perm) == bubble_sort_swaps(perm)


@given(st.permutations(list(range(7))))
@settings(max_examples=60, deadline=None)
def test_crossings_sampled_k7(perm):
    assert count_crossings(perm) == bubble_sort_swaps(perm)


@given(st.permutations(list(range(8))))
@settings(max_examples=60, deadline=None)
def test_crossings_sampled_k8(perm):
    assert count_crossings(perm) == bubble_sort_swaps(perm)


# ---------------------------------------------------------------------------
# coupler counting

def test_couplers_none():
    assert count_couplers([1.0, 1.0, 1.0, 1.0]) == 0


def test_couplers_all_on_matches_per_term_form():
    t = [ROOT2_OVER_2] * 4
    assert count_couplers(t) == 4
    # the linear per-term form evaluates each entry to exactly 1
    assert linear_dc_counts(t, np.zeros(4, dtype=int), 1)[0] == 4.0


def test_couplers_mixed():
    t = [ROOT2_OVER_2, 1.0, ROOT2_OVER_2]
    assert count_couplers(t) == 2
    assert linear_dc_counts(t, np.zeros(3, dtype=int), 1)[0] == 2.0


@pytest.mark.parametrize("k", [4, 7, 8])
def test_linear_coupler_count_is_the_discrete_count(k):
    # at binarized transmissions the linear form is exact in float64, so the
    # footprint proxy can read the discrete coupler count directly
    mesh = SuperMesh(k, 3, 3, rng=np.random.default_rng(k))
    counts = mesh.footprint_counts()
    linear = linear_dc_counts(quantize_coupler(mesh.t_flat), counts.slot_block,
                              mesh.n_blocks)
    assert linear.tolist() == counts.n_dc.tolist()
    assert counts.n_dc.sum() > 0


def test_couplers_rejects_non_binarized():
    with pytest.raises(DomainError):
        count_couplers([0.9, 1.0])


# ---------------------------------------------------------------------------
# exact footprints

BASELINES = [
    ("amf", 8, 32, 112, 0, 1_908_800, 1909),
    ("amf", 16, 64, 480, 0, 7_683_200, 7683),
    ("amf", 32, 128, 1984, 0, 30_828_800, 30829),
    ("amf", 8, 6, 24, 16, 363_424, 363),
    ("amf", 16, 8, 64, 88, 972_032, 972),
    ("amf", 32, 10, 160, 416, 2_442_624, 2443),
    ("aim", 16, 64, 480, 0, 4_480_000, 4480),
    ("aim", 16, 8, 64, 88, 1_007_200, 1007),
]


@pytest.mark.parametrize("pdk,k,blk,dc,cr,area,rounded", BASELINES)
def test_footprint_from_published_counts(pdk, k, blk, dc, cr, area, rounded):
    # blk PS columns of K shifters each, plus the design's DC and CR totals
    value = block_footprint(load_pdk(pdk), blk * k, dc, cr)
    assert value == area
    assert round(value / 1000.0) == rounded


def test_footprint_exact_matches_manual_sum():
    rng = np.random.default_rng(3)
    topo = random_topology(8, 2, 2, rng)
    pdk = load_pdk("amf")
    manual = sum(8 * pdk.f_ps + b.n_dc * pdk.f_dc + b.n_cr * pdk.f_cr
                 for b in topo.blocks)
    assert footprint_exact(topo, pdk) == manual


# ---------------------------------------------------------------------------
# expected footprint and the proxy

class StubMesh:
    """Mesh stand-in whose footprint counts come from given per-block device
    counts, binarized transmissions and relaxed permutations, through the
    same pdk helper SuperMesh builds its crossing proxy terms with. The
    counts are formed on each call, so in-place edits of a given array are
    seen."""

    perms_trainable = True

    def __init__(self, k, probs, counts, tqs=(), ptildes=()):
        self.k = k
        self._probs = np.asarray(probs, dtype=float)
        self._counts = counts
        self._tqs = tqs
        self._ptildes = ptildes

    def keep_probs(self):
        return self._probs.copy()

    def footprint_counts(self):
        n_dc, n_cr = np.array(self._counts, dtype=int).reshape(-1, 2).T
        lengths = [len(t) for t in self._tqs]
        p_diff, p_sqdist = perm_proxy_terms(
            np.reshape(np.asarray(self._ptildes, dtype=float), (-1, self.k, self.k)))
        return BlockCounts(n_dc=n_dc, n_cr=n_cr, p_diff=p_diff, p_sqdist=p_sqdist,
                           slot_block=np.repeat(np.arange(len(lengths)), lengths))


def test_expected_footprint_certainty_equals_exact():
    pdk = load_pdk("amf")
    counts = [(2, 1), (0, 3)]
    mesh = StubMesh(8, [1.0, 1.0], counts)
    exact = sum(block_footprint(pdk, 8, n_dc, n_cr) for n_dc, n_cr in counts)
    assert footprint_expected(mesh, pdk) == exact


def test_expected_footprint_empty_mesh():
    mesh = StubMesh(8, [0.0, 0.0], [(2, 1), (0, 3)])
    assert footprint_expected(mesh, load_pdk("amf")) == 0.0


def test_expected_footprint_weighted():
    pdk = load_pdk("amf")
    mesh = StubMesh(8, [1.0, 0.5], [(2, 1), (2, 1)])
    single = block_footprint(pdk, 8, 2, 1)
    assert footprint_expected(mesh, pdk) == pytest.approx(1.5 * single)


def test_proxy_identity_no_couplers():
    pdk = load_pdk("amf")
    mesh = StubMesh(8, [1.0], [(0, 0)], tqs=[np.ones(4)], ptildes=[np.eye(8)])
    value, _ = footprint_proxy(mesh, pdk, PenaltyConfig())
    assert value == pytest.approx(8 * 6800.0, abs=1e-9)


def test_proxy_all_couplers_on():
    pdk = load_pdk("amf")
    mesh = StubMesh(8, [1.0], [(4, 0)],
                    tqs=[np.full(4, ROOT2_OVER_2)], ptildes=[np.eye(8)])
    value, _ = footprint_proxy(mesh, pdk, PenaltyConfig())
    assert value == pytest.approx(60_400.0, abs=1e-9)


def test_proxy_gradient_wrt_ptilde_matches_fd():
    pdk = load_pdk("amf")
    rng = np.random.default_rng(5)
    ptilde = rng.uniform(0.0, 0.3, (8, 8)) + np.eye(8) * 0.5
    tq = np.array([1.0, ROOT2_OVER_2, 1.0, ROOT2_OVER_2])
    mesh = StubMesh(8, [0.7], [(2, 0)], tqs=[tq], ptildes=[ptilde])
    penalty = PenaltyConfig()
    _, grads = footprint_proxy(mesh, pdk, penalty)

    def value():
        return footprint_proxy(mesh, pdk, penalty)[0]

    coords = rng.choice(64, size=12, replace=False)
    for a, n, rel in fd_check(value, ptilde, grads.d_ptilde[0], coords):
        assert rel < 1e-4, (a, n, rel)


def test_proxy_gradient_wrt_tq_is_linear_slope():
    pdk = load_pdk("amf")
    tq = np.array([1.0, ROOT2_OVER_2])
    mesh = StubMesh(4, [0.5], [(1, 0)], tqs=[tq], ptildes=[np.eye(4)])
    _, grads = footprint_proxy(mesh, pdk, PenaltyConfig())
    slope = 2.0 / (math.sqrt(2.0) - 2.0)
    expected = 0.5 * pdk.f_dc * slope
    assert grads.d_tq.shape == (2,)
    assert np.allclose(grads.d_tq, expected)


def test_footprint_terms_reuse_the_forward_pass_permutations():
    # both footprint terms read the P~ part the forward pass built: their
    # proxy terms are those of forward's (B, K, K) P~ stack, and reading
    # them does not rebuild it
    mesh = make_checkable_mesh(k=8, n_u=3, n_v=3, seed=30)
    mesh.p_raw[2] = perm_array_to_matrix([1, 0, 3, 2, 5, 4, 7, 6]) + 1e-3
    pdk, penalty = load_pdk("amf"), PenaltyConfig()
    _, cache = mesh.forward(certainty_gates(mesh.n_blocks))
    p_tildes = cache["p_tildes"]
    diff, sqdist = perm_proxy_terms(p_tildes)
    footprint_expected(mesh, pdk)
    _, grads = footprint_proxy(mesh, pdk, penalty)
    counts = mesh.footprint_counts()
    assert np.array_equal(counts.p_diff, diff)
    assert np.array_equal(counts.p_sqdist, sqdist)
    probs = mesh.keep_probs()
    assert np.array_equal(grads.d_ptilde, probs[:, None, None] * penalty.beta_cr
                          * pdk.f_cr * 2.0 * diff)
    assert mesh.perm_tildes() is p_tildes
    assert mesh.footprint_counts().n_cr[2] == 4


# ---------------------------------------------------------------------------
# the penalty

def test_penalty_zero_inside_window():
    c = FootprintConstraint(100_000.0, 200_000.0)
    loss, coeff = footprint_penalty(150_000.0, 150_000.0, c, PenaltyConfig())
    assert loss == 0.0 and coeff == 0.0


def test_penalty_positive_above_window():
    c = FootprintConstraint(100_000.0, 200_000.0)
    penalty = PenaltyConfig(beta=10.0)
    prox = 195_000.0
    loss, coeff = footprint_penalty(prox, 250_000.0, c, penalty)
    assert coeff == pytest.approx(10.0 / c.f_hat_max)
    assert loss == pytest.approx(coeff * prox)
    assert loss > 0


def test_penalty_negative_below_window():
    c = FootprintConstraint(100_000.0, 200_000.0)
    loss, coeff = footprint_penalty(90_000.0, 50_000.0, c, PenaltyConfig())
    assert coeff == pytest.approx(-10.0 / c.f_hat_min)
    assert loss < 0


def test_penalty_branches_on_exact_not_proxy():
    # exact inside the margin window -> zero even if the proxy is huge
    c = FootprintConstraint(100_000.0, 200_000.0)
    loss, coeff = footprint_penalty(1e9, 150_000.0, c, PenaltyConfig())
    assert loss == 0.0 and coeff == 0.0


# ---------------------------------------------------------------------------
# block bounds

def test_block_bounds_k8_amf_window():
    pdk = load_pdk("amf")
    c = FootprintConstraint(240_000.0, 300_000.0)
    f_min, f_max = block_area_extremes(pdk, 8)
    assert f_min == 55_900.0
    assert f_max == 63_692.0
    bounds = block_bounds(pdk, 8, c)
    assert bounds.b_max == 6
    assert bounds.b_min == 3


def test_block_bounds_k16_amf():
    pdk = load_pdk("amf")
    f_min, _ = block_area_extremes(pdk, 16)
    assert f_min == 110_300.0
    bounds = block_bounds(pdk, 16, FootprintConstraint(480_000.0, 600_000.0))
    assert bounds.b_max == math.ceil(600_000.0 / 110_300.0) == 6


def test_block_area_extremes_collapse_for_tiny_devices():
    pdk = PdkSpec("tiny", f_ps=6800.0, f_dc=1e-9, f_cr=1e-9)
    f_min, f_max = block_area_extremes(pdk, 8)
    assert f_min == pytest.approx(8 * 6800.0, rel=1e-9)
    assert f_max == pytest.approx(8 * 6800.0, rel=1e-9)


def test_block_bounds_infeasible_window():
    pdk = load_pdk("amf")
    with pytest.raises(InfeasibleError):
        block_bounds(pdk, 8, FootprintConstraint(1.0, 2.0))


def test_block_bounds_per_unitary_split():
    bounds = BlockBounds(b_min=3, b_max=6)
    assert bounds.per_unitary_min == 1
    assert bounds.per_unitary_max == 3


@given(
    f_min=st.floats(min_value=130_000.0, max_value=400_000.0),
    width_frac=st.floats(min_value=0.15, max_value=2.0),
    grow_lo=st.floats(min_value=0.0, max_value=50_000.0),
    grow_hi=st.floats(min_value=0.0, max_value=50_000.0),
)
@settings(max_examples=80, deadline=None)
def test_block_bounds_monotone_in_window(f_min, width_frac, grow_lo, grow_hi):
    pdk = load_pdk("amf")
    width = f_min * width_frac
    small = block_bounds(pdk, 8, FootprintConstraint(f_min, f_min + width))
    big = block_bounds(pdk, 8, FootprintConstraint(
        max(60_000.0, f_min - grow_lo), f_min + width + grow_hi))
    assert big.b_min <= small.b_min
    assert big.b_max >= small.b_max


def test_discrete_block_counts_match_per_block_loop():
    mesh = make_checkable_mesh(k=8, n_u=3, n_v=3, seed=31)
    mesh.p_raw[1] = perm_array_to_matrix([2, 0, 1, 3, 4, 7, 5, 6]) + 1e-3
    # two rows of block 4 share their argmax column: the greedy estimate runs
    mesh.p_raw[4] = perm_array_to_matrix([0, 0, 2, 3, 4, 5, 6, 7]) + 1e-3
    p_tildes = mesh.perm_tildes()
    assert len(set(np.argmax(p_tildes[4], axis=1).tolist())) < 8
    loop = [(int(np.sum(mesh.t_latent[b] < 0.0)),
             count_crossings(hard_permutations(p_tildes[b:b + 1])[0]))
            for b in range(mesh.n_blocks)]
    counts = mesh.footprint_counts()
    assert list(zip(counts.n_dc.tolist(), counts.n_cr.tolist())) == loop
    assert loop[1][1] == 4
    # rows 0 and 1 tie on column 0: row 0 claims it, row 1 takes column 1
    assert hard_permutations(p_tildes[4:5])[0].tolist() == list(range(8))
