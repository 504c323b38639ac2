"""Vectorized tables over the labeled-graph code space of small orders.

A labeled graph on n vertices is a code in [0, 2^C(n,2)): bit r holds the
pair of colex rank r.  Relabeling by a permutation is a bit permutation of
codes, so canonical forms, edge counts, parities, 3-homogeneous data and
similar per-graph quantities become numpy gathers over the whole space.
That is what makes exhaustive order-6 sweeps (156 canonical graphs against
all 32768 labeled graphs) run in seconds.

One primitive applies relabelings: `relabelings(n, code)` returns the
codes of all n! relabelings of one graph, as a sum of rows of a
destination-weight matrix built once per order (n <= 8).  The canonical
code is the minimum of that orbit, and the up-to-complementation variant
additionally minimizes over the complement's orbit.  Full canonical
tables (n <= 7) are built by orbit marking: codes are scanned in
ascending order, each code not yet marked opens a class, and its whole
orbit is marked with it, so the opening code is the orbit's minimum.
"""

from __future__ import annotations

from itertools import combinations, permutations
from math import comb

import numpy as np

from .errors import OrderTooLarge
from .graphs import Graph, pair_rank

CANON_MAX_ORDER = 8
TABLE_MAX_ORDER = 7

_dest_weights: dict[int, np.ndarray] = {}
_canon_tables: dict[int, np.ndarray] = {}
_canon_utc_tables: dict[int, np.ndarray] = {}
_popcount_tables: dict[int, np.ndarray] = {}
_h3_count_tables: dict[int, np.ndarray] = {}
_h3_set_tables: dict[int, np.ndarray] = {}
_clawfree_both_tables: dict[int, np.ndarray] = {}


def n_pairs(n: int) -> int:
    return comb(n, 2)


def full_code(n: int) -> int:
    return (1 << n_pairs(n)) - 1


def dest_weights(n: int) -> np.ndarray:
    """(C(n,2), n!) array: row s, column p holds 1 << d, where d is the
    destination bit that source bit s moves to under permutation p."""
    if n > CANON_MAX_ORDER:
        raise OrderTooLarge(f"canonical codes support n <= {CANON_MAX_ORDER}")
    if n not in _dest_weights:
        perms = np.array(list(permutations(range(n))), dtype=np.int64)
        rank = np.array([[pair_rank(i, j) for j in range(n)] for i in range(n)], dtype=np.int64)
        sources = [(i, j) for j in range(n) for i in range(j)]  # colex pair order
        i, j = np.array(sources, dtype=np.int64).reshape(-1, 2).T
        _dest_weights[n] = np.int64(1) << rank[perms[:, i], perms[:, j]].T
    return _dest_weights[n]


def relabelings(n: int, code: int) -> np.ndarray:
    """Codes of all n! relabelings of one graph (repeats for automorphisms)."""
    weights = dest_weights(n)
    bits = [s for s in range(len(weights)) if code >> s & 1]
    return weights[bits].sum(axis=0)


def canonical_code(n: int, code: int) -> int:
    """Minimum code over all relabelings of one graph."""
    return int(relabelings(n, code).min())


def canonical_utc_code(n: int, code: int) -> int:
    """Minimum code over all relabelings of one graph and of its
    complement; equal codes iff isomorphic up to complementation."""
    return min(canonical_code(n, code), canonical_code(n, full_code(n) ^ code))


def all_codes(n: int) -> np.ndarray:
    return np.arange(1 << n_pairs(n), dtype=np.int64)


def canonical_table(n: int) -> np.ndarray:
    """Canonical code of every labeled graph of order n (n <= 7)."""
    if n > TABLE_MAX_ORDER:
        raise OrderTooLarge(f"full canonical tables are built only for n <= {TABLE_MAX_ORDER}")
    if n not in _canon_tables:
        table = np.empty(1 << n_pairs(n), dtype=np.int64)
        unmarked = np.ones(len(table), dtype=bool)
        code = 0
        while True:
            orbit = relabelings(n, code)
            table[orbit] = code
            unmarked[orbit] = False
            rest = unmarked[code:]
            step = int(rest.argmax())  # first unmarked code at or after `code`
            if not rest[step]:
                break
            code += step
        _canon_tables[n] = table
    return _canon_tables[n]


def canonical_utc_table(n: int) -> np.ndarray:
    """Canonical code up to complementation of every labeled graph."""
    if n not in _canon_utc_tables:
        t = canonical_table(n)
        _canon_utc_tables[n] = np.minimum(t, t[::-1])  # t[::-1][c] = t[full_code ^ c]
    return _canon_utc_tables[n]


def _bit_counts(values: np.ndarray, nbits: int) -> np.ndarray:
    """Number of set bits among the low nbits of each entry."""
    cnt = np.zeros(len(values), dtype=np.int16)
    for b in range(nbits):
        cnt += ((values >> b) & 1).astype(np.int16)
    return cnt


def popcount_table(nbits: int) -> np.ndarray:
    if nbits not in _popcount_tables:
        _popcount_tables[nbits] = _bit_counts(np.arange(1 << nbits, dtype=np.int64), nbits)
    return _popcount_tables[nbits]


def edge_count_table(n: int) -> np.ndarray:
    return popcount_table(n_pairs(n))


def h3_count_table(n: int) -> np.ndarray:
    """Number of 3-homogeneous subsets, per code: the set bits of
    `h3_set_table`."""
    if n not in _h3_count_tables:
        _h3_count_tables[n] = _bit_counts(h3_set_table(n), comb(n, 3))
    return _h3_count_tables[n]


def h3_set_table(n: int) -> np.ndarray:
    """Bitmask over triples (lex order) marking the 3-homogeneous ones."""
    if n not in _h3_set_tables:
        codes = all_codes(n)
        mask = np.zeros(len(codes), dtype=np.int64)
        for t, trip in enumerate(combinations(range(n), 3)):
            r = extract_restriction_codes(codes, trip)
            mask |= ((r == 0) | (r == 7)).astype(np.int64) << t
        _h3_set_tables[n] = mask
    return _h3_set_tables[n]


def clawfree_both_table(n: int) -> np.ndarray:
    """Per code: the graph and its complement are both claw-free."""
    from .graphs import complement, is_claw_free

    if n not in _clawfree_both_tables:
        out = np.zeros(1 << n_pairs(n), dtype=bool)
        for c in range(1 << n_pairs(n)):
            g = Graph.from_code(n, c)
            out[c] = is_claw_free(g) and is_claw_free(complement(g))
        _clawfree_both_tables[n] = out
    return _clawfree_both_tables[n]


def extract_restriction_codes(codes: np.ndarray, subset: tuple[int, ...]) -> np.ndarray:
    """Restriction code of every entry of `codes` for one vertex subset
    (sorted ascending, matching induced() relabeling)."""
    out = np.zeros(len(codes), dtype=np.int64)
    local = [(subset[a], subset[b]) for b in range(len(subset)) for a in range(b)]
    for d, (i, j) in enumerate(local):  # local pair d, in colex order
        out |= ((codes >> pair_rank(i, j)) & 1) << d
    return out
