"""Foundry device specifications and footprint accounting.

Exact device counting, the differentiable footprint proxy, the probabilistic
footprint penalty, and analytical bounds on how many blocks fit in a given
area window. Areas are stored in um^2; reports use the 1/1000 um^2 unit.
"""
import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import schema
from .errors import ConfigError, DomainError, InfeasibleError
from .permutation import count_crossings  # noqa: F401 (re-export)

# Straight-through gradient of a block's coupler count in each binarized
# transmission: the slope of the line through (sqrt(2)/2, 1) and (1, 0).
_DC_COUNT_SLOPE = 2.0 / (math.sqrt(2.0) - 2.0)
MIN_TOTAL_BLOCKS = 2   # block_bounds' floor: one block per unitary


@dataclass(frozen=True)
class PdkSpec:
    """Per-device footprints (um^2) for a named foundry PDK."""

    name: str
    f_ps: float
    f_dc: float
    f_cr: float

    def __post_init__(self):
        schema.check_fields(self, schema.PDK)


BUILTIN_PDKS = {
    "amf": PdkSpec("amf", f_ps=6800.0, f_dc=1500.0, f_cr=64.0),
    "aim": PdkSpec("aim", f_ps=2500.0, f_dc=4000.0, f_cr=4900.0),
}


def load_pdk(source) -> PdkSpec:
    """Load a PDK from a builtin name, a YAML file path, or a mapping."""
    if isinstance(source, PdkSpec):
        return source
    if isinstance(source, str) and source in BUILTIN_PDKS:
        return BUILTIN_PDKS[source]
    if isinstance(source, (str, os.PathLike)):
        try:
            source = read_yaml(source)
        except OSError as exc:
            raise ConfigError(f"PDK {str(source)!r} is neither a builtin "
                              f"name nor a readable file: {exc.strerror}") from None
    return PdkSpec(**schema.PDK_DOC(source))


def read_yaml(path):
    """Parse a YAML file; ConfigError if its text is not YAML."""
    import yaml   # here, not at module level: `import ptcsearch` stays yaml-free

    with open(path, "r") as fh:
        try:
            return yaml.safe_load(fh)
        except (yaml.YAMLError, ValueError) as exc:   # ValueError: not UTF-8
            raise ConfigError(f"{path} is not a YAML document: {exc}") from None


@dataclass(frozen=True)
class FootprintConstraint:
    """Footprint window [f_min, f_max] with a relative constraint margin."""

    f_min: float
    f_max: float
    margin: float = 0.05

    def __post_init__(self):
        schema.check_fields(self, schema.WINDOW)
        if self.f_hat_min >= self.f_hat_max:   # so f_min >= f_max fails too
            raise ConfigError("footprint window requires "
                              "(1 + margin) f_min < (1 - margin) f_max")

    @property
    def f_hat_min(self) -> float:
        return (1.0 + self.margin) * self.f_min

    @property
    def f_hat_max(self) -> float:
        return (1.0 - self.margin) * self.f_max

    def contains(self, area: float) -> bool:
        return self.f_min <= area <= self.f_max


@dataclass(frozen=True)
class PenaltyConfig:
    """Weights of the footprint penalty and the crossing proxy term."""

    beta: float = 10.0
    beta_cr: float = 100.0

    def __post_init__(self):
        schema.check_fields(self, schema.PENALTY)


@dataclass(frozen=True)
class BlockBounds:
    """Bounds on the total block count across both unitaries."""

    b_min: int
    b_max: int

    def __post_init__(self):
        if not (0 <= self.b_min <= self.b_max):
            raise InfeasibleError(
                f"block bounds inverted: b_min={self.b_min} > b_max={self.b_max}"
            )

    @property
    def per_unitary_min(self) -> int:
        return max(1, self.b_min // 2)

    @property
    def per_unitary_max(self) -> int:
        return self.b_max // 2


def perm_proxy_terms(p_tildes: np.ndarray):
    """(P~ - I, ||P~ - I||_F^2 per block) of a (B, K, K) relaxed-permutation
    stack: the crossing proxy and the array its gradient scales."""
    p_tildes = np.asarray(p_tildes, dtype=float)
    diff = p_tildes - np.eye(p_tildes.shape[-1])
    return diff, np.sum(diff * diff, axis=(-2, -1))


def block_footprint(pdk: PdkSpec, k: int, n_dc: int, n_cr: int) -> float:
    """Exact area of one block: a full column of k PS plus its DCs and CRs.
    Counts may be per-block arrays; every area formula goes through here."""
    return k * pdk.f_ps + n_dc * pdk.f_dc + n_cr * pdk.f_cr


def footprint_exact(topology, pdk: PdkSpec) -> float:
    """Exact area of a legalized topology in um^2, summed block by block (the
    value netlists store and check)."""
    total = 0.0
    for block in topology.blocks:
        total += block_footprint(pdk, topology.k, block.n_dc, block.n_cr)
    return total


class BlockCounts(NamedTuple):
    """Per-block device counts a mesh hands to the footprint terms."""

    n_dc: np.ndarray        # (B,) couplers placed by the binarized latents
    n_cr: np.ndarray        # (B,) crossings of the hard permutation estimates
    p_diff: np.ndarray      # (B, K, K) P~ - I (perm_proxy_terms)
    p_sqdist: np.ndarray    # (B,) ||P~ - I||_F^2 (perm_proxy_terms)
    slot_block: np.ndarray  # (S,) block of each coupler slot


def footprint_expected(mesh, pdk: PdkSpec) -> float:
    """Probability-weighted exact footprint over the mesh's gate distribution.

    Uses each block's noiseless keep probability and its current discrete
    device counts (binarized couplers, hard-estimated crossings), read from
    mesh.footprint_counts().
    """
    counts = mesh.footprint_counts()
    areas = block_footprint(pdk, mesh.k, counts.n_dc, counts.n_cr)
    return float(mesh.keep_probs() @ areas)


@dataclass
class ProxyGrads:
    """Partials of the footprint proxy w.r.t. mesh quantities."""

    d_keep: np.ndarray   # (B,)
    d_tq: np.ndarray     # (S,), one entry per coupler slot, like t_flat
    d_ptilde: np.ndarray  # (B, K, K); None when permutations are frozen


def footprint_proxy(mesh, pdk: PdkSpec, penalty: PenaltyConfig):
    """Differentiable footprint expectation.

    Replaces the crossing count with beta_cr * ||P~ - I||_F^2 and keeps the
    discrete coupler count, whose straight-through gradient in the binarized
    transmissions is _DC_COUNT_SLOPE; both are read from
    mesh.footprint_counts(). Returns (value, ProxyGrads); d_ptilde is None
    when mesh.perms_trainable is false, since nothing then reads a
    permutation cotangent.
    """
    probs = mesh.keep_probs()
    counts = mesh.footprint_counts()
    d_keep = block_footprint(pdk, mesh.k, counts.n_dc,
                             penalty.beta_cr * counts.p_sqdist)
    value = float(probs @ d_keep)
    d_tq = probs[counts.slot_block] * pdk.f_dc * _DC_COUNT_SLOPE
    d_ptilde = None
    if mesh.perms_trainable:
        # scale per block first, then once per entry: each entry sees the
        # same sequence of products as probs[:, None, None] * ... * p_diff
        scale = probs * penalty.beta_cr * pdk.f_cr * 2.0
        d_ptilde = scale[:, None, None] * counts.p_diff
    return value, ProxyGrads(d_keep, d_tq, d_ptilde)


def footprint_coefficient(expected_exact: float, c: FootprintConstraint,
                          penalty: PenaltyConfig) -> float:
    """dL_F/d(proxy) of the probabilistic footprint penalty: it branches on
    the exact expectation and is 0 inside [f_hat_min, f_hat_max]."""
    if expected_exact > c.f_hat_max:
        return penalty.beta / c.f_hat_max
    if expected_exact < c.f_hat_min:
        return -penalty.beta / c.f_hat_min
    return 0.0


def footprint_penalty(expected_prox: float, expected_exact: float,
                      c: FootprintConstraint, penalty: PenaltyConfig):
    """Probabilistic footprint penalty.

    Branches on the exact expectation, differentiates through the proxy.
    Returns (loss, dloss/dprox).
    """
    coeff = footprint_coefficient(expected_exact, c, penalty)
    return coeff * expected_prox, coeff


def block_bounds(pdk: PdkSpec, k: int, c: FootprintConstraint) -> BlockBounds:
    """Analytical block-count bounds for the footprint window.

    The lower bound is clamped to MIN_TOTAL_BLOCKS so each unitary keeps at
    least one block.
    """
    if k < 2:
        raise DomainError("mesh size must be at least 2")
    f_b_min, f_b_max = block_area_extremes(pdk, k)
    b_max = math.ceil(c.f_max / f_b_min)
    b_min = max(MIN_TOTAL_BLOCKS, math.floor(c.f_min / f_b_max))
    return BlockBounds(b_min=b_min, b_max=b_max)


def block_area_extremes(pdk: PdkSpec, k: int):
    """(F_b_min, F_b_max) used by the analytical block bounds."""
    f_b_min = block_footprint(pdk, k, 1, 0)
    f_b_max = f_b_min + k * pdk.f_dc / 2.0 + k * (k - 1) * pdk.f_cr / 2.0
    return f_b_min, f_b_max
