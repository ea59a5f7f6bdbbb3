"""Discrete, legalized PTC designs.

A topology is the search result alpha: per-unitary block counts, coupler
placements, and crossing permutations, plus a phase snapshot.
"""
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .permutation import count_crossings


def coupler_offset(block_index_in_unitary: int) -> int:
    """Start waveguide of the coupler column; interleaved across blocks.

    Blocks are 1-indexed within their unitary: odd blocks start at waveguide
    0, even blocks at waveguide 1.
    """
    return 1 if (block_index_in_unitary + 1) % 2 == 0 else 0


def n_coupler_slots(k: int, offset: int) -> int:
    return (k - offset) // 2


@dataclass
class TopoBlock:
    """One block of a legalized mesh: PS column, DC column, CR layer."""

    phases: np.ndarray          # (K,) radians
    coupler_mask: np.ndarray    # (slots,) bool, True = coupler placed
    offset: int                 # start waveguide of the coupler column
    perm: np.ndarray            # (K,) int, output i reads input perm[i]

    def __post_init__(self):
        self.phases = np.asarray(self.phases, dtype=float)
        self.coupler_mask = np.asarray(self.coupler_mask, dtype=bool)
        self.perm = np.asarray(self.perm, dtype=int)
        if self.phases.ndim != 1:
            raise DomainError("ps must be a (K,) phase vector")
        k = self.phases.shape[0]
        if sorted(self.perm.tolist()) != list(range(k)):
            raise DomainError("cr not a permutation of 0..K-1")
        if self.coupler_mask.shape != (n_coupler_slots(k, self.offset),):
            raise DomainError("dc mask length does not match K and offset")

    @property
    def n_dc(self) -> int:
        return int(self.coupler_mask.sum())

    @property
    def n_cr(self) -> int:
        return count_crossings(self.perm)


@dataclass
class Topology:
    """A discrete PTC design: two unitary block chains sharing size K."""

    k: int
    pdk_name: str
    blocks_u: list = field(default_factory=list)
    blocks_v: list = field(default_factory=list)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks_u) + len(self.blocks_v)

    @property
    def blocks(self):
        return list(self.blocks_u) + list(self.blocks_v)

    def device_counts(self):
        """Total (#CR, #DC, #Blk) over both unitaries."""
        n_cr = sum(b.n_cr for b in self.blocks)
        n_dc = sum(b.n_dc for b in self.blocks)
        return n_cr, n_dc, self.n_blocks
