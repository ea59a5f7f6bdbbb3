#!/usr/bin/env python3
"""Fit error of fixed-structure meshes as a function of block count.

Trains identity-permutation meshes of increasing depth through fit_mesh against
a fixed random unitary target and reports the per-depth seed-best fit error.

Usage:
    python3 scripts/expressiveness_sweep.py --blocks 2 4 8 16 --seeds 3
"""
import argparse

import numpy as np

from ptcsearch import MatrixFitTask, SuperMesh
from ptcsearch.tasks import clean_metric, fit_mesh, random_unitary


def train_fixed_structure(n_blocks, seed, k, steps, lr, target_seed):
    """Train phases, scales and coupler latents of an identity-permutation
    mesh with every block kept; returns the clean fit error."""
    task = MatrixFitTask(random_unitary(k, np.random.default_rng(target_seed)))
    mesh = SuperMesh(k, n_blocks // 2, n_blocks // 2,
                     rng=np.random.default_rng(seed))
    mesh.p_raw[:] = np.eye(k)
    mesh.perms_trainable = False
    # a matrix-fit task draws no batch and no noise is set, so fit_mesh
    # never reads its generator
    fit_mesh(mesh, task, steps, np.random.default_rng(seed), lr=lr)
    return clean_metric(mesh, task)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=int, default=8)
    parser.add_argument("--blocks", type=int, nargs="+", default=[2, 4, 8, 16])
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--steps", type=int, default=800)
    parser.add_argument("--lr", type=float, default=2e-2)
    parser.add_argument("--target-seed", type=int, default=7)
    args = parser.parse_args()

    print("n_blocks,seed_best_error,errors")
    for n_blocks in args.blocks:
        errs = [train_fixed_structure(n_blocks, seed, args.k, args.steps,
                                      args.lr, args.target_seed)
                for seed in range(args.seeds)]
        joined = ";".join(f"{e:.6f}" for e in errs)
        print(f"{n_blocks},{min(errs):.6f},{joined}")


if __name__ == "__main__":
    main()
