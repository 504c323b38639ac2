#!/usr/bin/env python3
"""Inclusion-matrix rank theorems, verified cell by cell.

Builds W(t, k) for every desk-scale parameter triple, checks full row
rank over the rationals, and compares modular ranks against the closed
formula.  Prints the same report rows the `recomp matrix` subcommand
emits.
"""

import json

from recomp.incidence import (
    build_kneser,
    kernel_graphs_mod2,
    rank_report,
    verify_kneser_nonsingular,
)
from recomp.graphs import classify_bipartite_kernel

print("Rational full row rank, v <= 8:")
for v in range(2, 9):
    for k in range(v + 1):
        for t in range(min(k, v - k) + 1):
            row = rank_report(t, k, v)
            assert row["pass"], row
print("  every W(t,k) with t <= min(k, v-k) has rank C(v,t)")

print("\nKneser adjacency nonsingularity:")
for t, v in ((1, 2), (2, 4), (2, 6), (3, 6), (3, 7)):
    assert verify_kneser_nonsingular(t, v)
    print(f"  A({t},{v}) of order {build_kneser(t, v).array.shape[0]}: nonsingular")

print("\nModular ranks (sample rows):")
for t, k, v, p in ((2, 4, 6, 2), (2, 5, 8, 2), (2, 3, 7, 2), (2, 4, 9, 3)):
    print(" ", json.dumps(rank_report(t, k, v, p), sort_keys=True))

print("\nGF(2) kernel of the transposed W(2,k):")
for k, v in ((4, 6), (5, 7), (5, 8)):
    kernel = kernel_graphs_mod2(k, v)
    tally: dict[str, int] = {}
    for g in kernel:
        label = classify_bipartite_kernel(g).value
        tally[label] = tally.get(label, 0) + 1
    print(f"  k={k}, v={v}: {len(kernel)} kernel graphs, classes {tally}")
