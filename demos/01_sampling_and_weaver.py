"""Sampling a centrosymmetric matrix and splitting it into Weaver blocks.

A centrosymmetric matrix is unchanged by a 180-degree rotation of its
entry grid, so it carries only ceil(n^2/2) independent entries.  An
explicit orthogonal similarity turns it into two independent diagonal
blocks that together carry the full spectrum.
"""

import numpy as np

import centrolab as cl


def main():
    n = 5
    m = cl.sample_centro(n, dist="gaussian", seed=7)
    print(f"one draw at order {n} (seed 7), entries scaled by 1/sqrt(n):")
    with np.printoptions(precision=3, suppress=True):
        print(m.entries)
    print("exactly centrosymmetric:", cl.assert_centrosymmetric(m, tol=0.0))
    print("independent entry classes:", cl.class_count(n), "=", f"ceil({n * n}/2)")
    print("cell (4,0) belongs to class", cl.entry_class(n, 4, 0).rep)
    print("center cell is its own mirror:", cl.entry_class(n, 2, 2).self_paired)

    blocks = cl.weaver_blocks(m)
    print(f"\nweaver split: plus block {blocks.plus.shape}, minus block {blocks.minus.shape}")
    print("(odd order, so the plus block is bordered by an extra row/column)")

    q = cl.weaver_orthogonal(n)
    t = q.T @ m.entries @ q
    p = (n + 1) // 2
    print("orthogonality defect of Q:", np.max(np.abs(q.T @ q - np.eye(n))))
    print("off-diagonal leak of Q^T M Q:", np.max(np.abs(t[:p, p:])))

    full = np.sort_complex(cl.eigenvalues(m.entries).values)
    plus, minus = cl.spectra([blocks.plus, blocks.minus])  # both blocks in lockstep
    halves = np.sort_complex(np.concatenate([plus.values, minus.values]))
    print("\neigenvalues of M:         ", np.round(full, 6))
    print("eigenvalues of the blocks:", np.round(halves, 6))


if __name__ == "__main__":
    main()
