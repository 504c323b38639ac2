"""Inclusion matrices, Kneser adjacency matrices, and their rank theorems.

W(t, k) over a v-set has rows indexed by t-subsets and columns by
k-subsets (both in colexicographic order), entry 1 iff the row subset is
contained in the column subset.  Dotting a graph's edge-indicator row
vector with W(2, k) produces the per-k-subset restriction edge counts,
which is what ties these matrices to hypomorphy questions.

`rank_report` computes both sides of each rank statement independently:
the expected rank from the closed formula, the actual rank by exact or
modular elimination on the materialized matrix.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import comb
from typing import Iterable, Iterator

import numpy as np

from .errors import DomainError, KernelTooLarge
from .graphs import MAX_ORDER, Graph, bits_of, boolean_sum, colex_masks
from .linalg import ModMatrix, binomial, is_prime, rank_exact, rank_mod, kernel_basis_mod

BUILD_MAX_V = 16
MOD_RANK_MAX_V = 12
KERNEL_DIM_CAP = 20
# row i, column c: C(c, i); every entry fits int64 because c < MAX_ORDER
_BINOMIALS = np.array(
    [[comb(c, i) for c in range(MAX_ORDER)] for i in range(MAX_ORDER + 1)], dtype=np.int64
)


def subset_rank(s: Iterable[int] | int) -> int:
    """Colex rank of a subset among all subsets of its size."""
    try:
        s = operator.index(s)  # an int mask, numpy or not
    except TypeError:
        elems = sorted(s)
    else:
        elems = [i for i in range(s.bit_length()) if s >> i & 1]
    return sum(comb(c, i + 1) for i, c in enumerate(elems))


def colex_vertices(k: int, start: int, stop: int) -> np.ndarray:
    """(stop - start, k) array: row r lists, ascending, the vertices
    (< MAX_ORDER) of the colex k-subset of rank start + r.  The subset
    v_1 < ... < v_k has rank C(v_1, 1) + ... + C(v_k, k), so v_i is read
    off greedily from i = k down, by a search in row i of `_BINOMIALS`."""
    rest = np.arange(start, stop, dtype=np.int64)
    out = np.empty((len(rest), k), dtype=np.intp)
    for i in range(k, 0, -1):
        out[:, i - 1] = np.searchsorted(_BINOMIALS[i], rest, side="right") - 1
        rest -= _BINOMIALS[i, out[:, i - 1]]
    return out


def colex_subsets(v: int, k: int) -> Iterator[tuple[int, ...]]:
    """All k-subsets of {0..v-1} in colexicographic order."""
    return (tuple(bits_of(m)) for m in colex_masks(v, k))


def _subset_masks(v: int, k: int) -> np.ndarray:
    return np.fromiter(colex_masks(v, k), dtype=np.int64, count=comb(v, k))


@dataclass(frozen=True)
class InclusionMatrix:
    t: int
    k: int
    v: int
    array: np.ndarray  # uint8, C(v,t) x C(v,k)

    def exact_rank(self) -> int:
        return rank_exact(self.array)

    def mod(self, p: int) -> ModMatrix:
        return ModMatrix(self.array, p)


@dataclass(frozen=True)
class KneserMatrix:
    t: int
    v: int
    array: np.ndarray  # uint8, square of order C(v,t)

    def exact_rank(self) -> int:
        return rank_exact(self.array)


def build_w(t: int, k: int, v: int) -> InclusionMatrix:
    """Materialize W(t, k) densely: entry(T, K) = 1 iff T is a subset of K."""
    if not 0 <= t <= k <= v <= BUILD_MAX_V:
        raise DomainError(f"need 0 <= t <= k <= v <= {BUILD_MAX_V}")
    tmasks = _subset_masks(v, t)
    kmasks = _subset_masks(v, k)
    out = np.empty((len(tmasks), len(kmasks)), dtype=np.uint8)
    chunk = max(1, 4_000_000 // max(1, len(tmasks)))
    for lo in range(0, len(kmasks), chunk):
        block = kmasks[lo : lo + chunk]
        out[:, lo : lo + len(block)] = (
            (tmasks[:, None] & block[None, :]) == tmasks[:, None]
        ).astype(np.uint8)
    return InclusionMatrix(t, k, v, out)


def build_kneser(t: int, v: int) -> KneserMatrix:
    """Adjacency matrix of the Kneser graph: t-subsets, adjacent iff disjoint."""
    if not 0 <= t <= v <= BUILD_MAX_V:
        raise DomainError(f"need 0 <= t <= v <= {BUILD_MAX_V}")
    tmasks = _subset_masks(v, t)
    arr = ((tmasks[:, None] & tmasks[None, :]) == 0).astype(np.uint8)
    return KneserMatrix(t, v, arr)


def verify_kneser_nonsingular(t: int, v: int) -> bool:
    """The Kneser adjacency matrix is nonsingular for t <= v/2."""
    if 2 * t > v:
        raise DomainError(f"need t <= v/2, got t={t}, v={v}")
    return build_kneser(t, v).exact_rank() == comb(v, t)


def wilson_rank_expected(t: int, k: int, v: int, p: int) -> int:
    """Rank of W(t, k) mod p from the closed formula: sum of
    C(v,i) - C(v,i-1) over the i in 0..t with p not dividing C(k-i, t-i)."""
    if t > min(k, v - k):
        raise DomainError(f"need t <= min(k, v-k), got t={t}, k={k}, v={v}")
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    total = 0
    for i in range(t + 1):
        if comb(k - i, t - i) % p != 0:
            total += binomial(v, i) - binomial(v, i - 1)
    return total


def kernel_graphs_mod2(k: int, v: int) -> list[Graph]:
    """All graphs whose edge-indicator vector lies in the kernel of the
    transpose of W(2, k) over GF(2), sorted by code: the Boolean sums of
    the basis graphs, one per code."""
    if not (2 <= k <= v - 2 and v <= MOD_RANK_MAX_V):
        raise DomainError(f"need 2 <= k <= v-2 and v <= {MOD_RANK_MAX_V}")
    wt = np.ascontiguousarray(build_w(2, k, v).array.T)
    basis = kernel_basis_mod(ModMatrix(wt, 2))
    if len(basis) > KERNEL_DIM_CAP:
        raise KernelTooLarge(f"kernel dimension {len(basis)} exceeds {KERNEL_DIM_CAP}")
    span = {0: Graph.empty(v)}
    for vec in basis:
        b = sum(bit << c for c, bit in enumerate(vec))
        g = Graph.from_code(v, b)
        span |= {c ^ b: boolean_sum(h, g) for c, h in span.items()}
    return [span[c] for c in sorted(span)]


def rank_report(t: int, k: int, v: int, p: int | None = None) -> dict:
    """One verification row of a rank theorem, in its domain
    t <= min(k, v-k): the rank from the closed formula (C(v,t) over Q,
    Wilson's formula mod p) against the rank of the materialized W(t, k);
    every field is a plain int or str, numpy arguments or not."""
    t, k, v = map(operator.index, (t, k, v))
    p = None if p is None else operator.index(p)
    if t > min(k, v - k):
        raise DomainError(f"need t <= min(k, v-k), got t={t}, k={k}, v={v}")
    if p is None:
        expected = comb(v, t)
        computed = build_w(t, k, v).exact_rank()
        field = "Q"
    else:
        expected = wilson_rank_expected(t, k, v, p)
        computed = rank_mod(build_w(t, k, v).mod(p))
        field = p
    return {
        "t": t,
        "k": k,
        "v": v,
        "field": field,
        "expected_rank": expected,
        "computed_rank": computed,
        "pass": expected == computed,
    }
