"""Independent answers the benchmark checks recomp's outputs against.

Nothing here imports recomp.  Graphs are plain tuples of adjacency-row
ints (bit j of row i set iff {i, j} is an edge), the same convention as
recomp's `Graph.adj`, so results compare directly.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from math import comb

import numpy as np


def rows_from_edges(n: int, edges) -> tuple[int, ...]:
    rows = [0] * n
    for i, j in edges:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return tuple(rows)


def relabel(rows: tuple[int, ...], perm: list[int]) -> tuple[int, ...]:
    """Vertex x becomes perm[x]."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        for j in range(len(rows)):
            if row >> j & 1:
                out[perm[i]] |= 1 << perm[j]
    return tuple(out)


def complement(rows: tuple[int, ...]) -> tuple[int, ...]:
    full = (1 << len(rows)) - 1
    return tuple(full ^ row ^ (1 << i) for i, row in enumerate(rows))


def restrict(rows: tuple[int, ...], subset: tuple[int, ...]) -> tuple[int, ...]:
    """Induced subgraph on a subset, relabeled in increasing label order."""
    out = [0] * len(subset)
    for a, x in enumerate(subset):
        for b, y in enumerate(subset):
            if rows[x] >> y & 1:
                out[a] |= 1 << b
    return tuple(out)


def edge_count(rows: tuple[int, ...]) -> int:
    return sum(row.bit_count() for row in rows) // 2


def subset_edge_count(rows: tuple[int, ...], subset: tuple[int, ...]) -> int:
    mask = sum(1 << x for x in subset)
    return sum((rows[x] & mask).bit_count() for x in subset) // 2


@cache
def colex_subsets(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """k-subsets of range(n) in colexicographic order (largest element first)."""
    return tuple(sorted(combinations(range(n), k), key=lambda s: s[::-1]))


def graph6(rows: tuple[int, ...]) -> str:
    """graph6 text for orders 1..62: upper-triangle bits in column order."""
    n = len(rows)
    if not 1 <= n <= 62:
        raise ValueError(f"short-form graph6 covers orders 1..62, got {n}")
    bits = np.array([rows[i] >> j & 1 for j in range(1, n) for i in range(j)], dtype=np.uint8)
    return graph6_from_bits(n, bits)


def graph6_from_bits(n: int, bits: np.ndarray) -> str:
    """graph6 text from the upper-triangle bit vector in colex pair order."""
    pad = (-len(bits)) % 6
    groups = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)]).reshape(-1, 6)
    values = groups @ np.array([32, 16, 8, 4, 2, 1], dtype=np.int64) + 63
    return chr(n + 63) + bytes(values.astype(np.uint8)).decode("ascii")


def maps_onto(a: tuple[int, ...], b: tuple[int, ...], perm) -> bool:
    """perm is an isomorphism from a to b: {i, j} in a iff {perm i, perm j} in b."""
    n = len(a)
    if sorted(perm) != list(range(n)):
        return False
    return all(
        (a[i] >> j & 1) == (b[perm[i]] >> perm[j] & 1) for i, j in combinations(range(n), 2)
    )


def isomorphic(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Plain backtracking with degree filtering; meant for orders <= 13."""
    n = len(a)
    if n != len(b):
        return False
    deg_a = [row.bit_count() for row in a]
    deg_b = [row.bit_count() for row in b]
    if sorted(deg_a) != sorted(deg_b):
        return False
    # place vertices so each one is adjacent to as many placed ones as possible
    order: list[int] = []
    left = set(range(n))
    while left:
        placed = sum(1 << x for x in order)
        v = max(left, key=lambda x: ((a[x] & placed).bit_count(), deg_a[x], -x))
        order.append(v)
        left.remove(v)
    img = [-1] * n

    def place(depth: int, used: int) -> bool:
        if depth == n:
            return True
        v = order[depth]
        for w in range(n):
            if used >> w & 1 or deg_b[w] != deg_a[v]:
                continue
            if all((a[v] >> u & 1) == (b[w] >> img[u] & 1) for u in order[:depth]):
                img[v] = w
                if place(depth + 1, used | 1 << w):
                    return True
        img[v] = -1
        return False

    return place(0, 0)


def homogeneous(rows: tuple[int, ...], triple: tuple[int, int, int]) -> bool:
    x, y, z = triple
    e = (rows[x] >> y & 1) + (rows[x] >> z & 1) + (rows[y] >> z & 1)
    return e in (0, 3)


def lex_rank(subset: tuple[int, ...], n: int) -> int:
    """Position of a sorted subset in itertools.combinations(range(n), k) order."""
    k = len(subset)
    rank = 0
    prev = -1
    for pos, x in enumerate(subset):
        for y in range(prev + 1, x):
            rank += comb(n - 1 - y, k - 1 - pos)
        prev = x
    return rank


def wilson_rank(t: int, k: int, v: int, p: int) -> int:
    """Rank of W(t, k) over GF(p) for t <= min(k, v-k) (Wilson 1990)."""
    return sum(
        comb(v, i) - (comb(v, i - 1) if i else 0)
        for i in range(t + 1)
        if comb(k - i, t - i) % p
    )


def pair_subset_incidence(k: int, v: int) -> np.ndarray:
    """C(v,2) x C(v,k) 0/1 matrix: pair (colex) inside k-subset (any order)."""
    pairs = [(i, j) for j in range(v) for i in range(j)]
    subsets = list(combinations(range(v), k))
    pair_masks = np.array([1 << i | 1 << j for i, j in pairs], dtype=np.int64)
    subset_masks = np.array([sum(1 << x for x in s) for s in subsets], dtype=np.int64)
    return ((pair_masks[:, None] & subset_masks[None, :]) == pair_masks[:, None]).astype(np.int64)
