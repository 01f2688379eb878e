"""Exact trace-moment expectations versus their large-n constants.

For Gaussian entries, E[Tr M^k] and E[Tr M^k Tr M^l] are exact finite
sums of double-factorial moments, enumerable at small order.  As n
grows they settle on simple constants: 2 for even single powers, 0 for
odd ones, 4 for distinct even pairs, and 2k+4 (even) / 2k (odd) for
equal pairs.  Monte Carlo estimates over many draws corroborate the
enumeration.
"""

import numpy as np

import centrolab as cl


def main():
    print("single chains E[Tr M^k]: exact values by enumeration")
    print("   n      k=2        k=3        k=4   (targets: 2, 0, 2)")
    for n in (2, 3, 4, 5, 6):
        vals = [cl.oracle_single_chain(n, k).value for k in (2, 3, 4)]
        print(f"{n:4d}  {vals[0]:9.5f}  {vals[1]:9.5f}  {vals[2]:9.5f}")

    print("\nequal-power double chains E[(Tr M^2)^2] (target 2k+4 = 8)")
    for n in (2, 4, 6):
        r = cl.oracle_double_chain(n, 2, 2)
        print(f"   n={n}: {r.value:.6f}  ({r.terms_enumerated} terms enumerated)")

    print("\nmixed parity vanishes exactly: E[Tr M^2 Tr M^1] at n=3:",
          cl.oracle_double_chain(3, 2, 1).value)

    n, trials = 4, 200_000
    print(f"\nmonte carlo cross-check at n={n} over {trials} draws:")
    stack = cl.sample_centro_batch(n, trials, "gaussian", seed=12)
    traces = cl.trace_powers(stack, 4)
    for k in (2, 3, 4):
        exact = cl.oracle_single_chain(n, k).value
        x = traces[:, k - 1]
        se = x.std(ddof=1) / np.sqrt(trials)
        print(f"   k={k}: estimate {x.mean():+.4f} +- {se:.4f}, exact {exact:+.4f}")


if __name__ == "__main__":
    main()
