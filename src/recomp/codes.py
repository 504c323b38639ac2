"""Vectorized tables over the labeled-graph code space of small orders.

A labeled graph on n vertices is a code in [0, 2^C(n,2)): bit r holds the
pair of colex rank r.  Relabeling by a permutation is a bit permutation of
codes, so canonical forms and restriction codes become numpy gathers
over the whole space.  That is what makes exhaustive order-6 sweeps (156
canonical graphs against all 32768 labeled graphs) run in seconds.
Restriction codes for one vertex subset are read from two short tables,
one per half of the code bits, kept per (n, subset), for the whole space
or for given codes.  The other per-subset signatures
(parity, edge counts, h3) are row functions in `hypomorphy`, tabulated
by `signature_table`.

One primitive applies relabelings: `relabelings(n, code)` returns the
codes of all n! relabelings of one graph, as a sum of rows of a
destination-weight matrix built once per order (n <= 8).

One loop marks orbits: `catalog(n)` (n <= 8) augments each order n-1
representative by a new vertex joined in every way, and each candidate
not yet marked opens a class and marks every candidate in its orbit
(McKay's isomorph-free generation).  Relabeling is linear in the code
bits, so a candidate's orbit is its representative's orbit, computed
once, plus that of its new-vertex bits, read from a table of the orbits
of all 2^(n-1) new-vertex neighbourhoods built once per order (each row
is the row without the lowest bit plus that bit's weights); and a dense
slot table over the 2^C(n-1,2) order n-1 codes gives each orbit code's
representative row, or -1, in one gather.  The orbit also gives the
class's orbit size, n!/|Aut g| by orbit-stabilizer, and its size up to
complementation, the orbit size doubled unless g is self-complementary.
Each catalog's orbits must cover all 2^C(n,2) codes, and its classes
must number `CATALOG_COUNTS[n]`.  Full canonical tables (n <= 7)
scatter each class's minimum over its orbit.

Each table is built once per order, or per (n, subset), by a
`functools.cache` function, and kept for the process; its argument
checks raise on every call, since exceptions are never cached.  A table
of one order is keyed by `operator.index(n)`, taken before the cache:
cache keys compare by value, so 5.0 would hit an entry cached for
np.int64(5).
"""

from __future__ import annotations

import operator
from functools import cache, wraps
from itertools import permutations
from math import comb

import numpy as np

from .errors import DomainError, OrderTooLarge, VerificationError
from .graphs import pair_rank

CANON_MAX_ORDER = 8
TABLE_MAX_ORDER = 7
# unlabeled graphs of order n (OEIS A000088)
CATALOG_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}


def n_pairs(n: int) -> int:
    return comb(n, 2)


def full_code(n: int) -> int:
    return (1 << n_pairs(n)) - 1


def _order_cache(table):
    """`functools.cache` for a table of one order n, keyed by
    operator.index(n), so a float order raises TypeError on every call."""
    cached = cache(table)

    @wraps(table)
    def lookup(n):
        return cached(operator.index(n))

    lookup.cache_clear = cached.cache_clear
    return lookup


@_order_cache
def dest_weights(n: int) -> np.ndarray:
    """(C(n,2), n!) array: row s, column p holds 1 << d, where d is the
    destination bit that source bit s moves to under permutation p."""
    if n > CANON_MAX_ORDER:
        raise OrderTooLarge(f"canonical codes support n <= {CANON_MAX_ORDER}")
    perms = np.array(list(permutations(range(n))), dtype=np.int64)
    rank = np.array([[pair_rank(i, j) for j in range(n)] for i in range(n)], dtype=np.int64)
    sources = [(i, j) for j in range(n) for i in range(j)]  # colex pair order
    i, j = np.array(sources, dtype=np.int64).reshape(-1, 2).T
    return np.int64(1) << rank[perms[:, i], perms[:, j]].T


def relabelings(n: int, code: int) -> np.ndarray:
    """Codes of all n! relabelings of one graph (repeats for automorphisms)."""
    weights = dest_weights(n)
    bits = [s for s in range(len(weights)) if code >> s & 1]
    return weights[bits].sum(axis=0)


def all_codes(n: int) -> np.ndarray:
    return np.arange(1 << n_pairs(n), dtype=np.int64)


@_order_cache
def catalog(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical codes of order n (n <= 8), ascending, one per isomorphism
    class, with each class's iso-utc size and its orbit size n!/|Aut g|;
    sound because every order-n class contains a graph whose first n-1
    vertices induce an order-(n-1) representative."""
    if n < 1:
        raise DomainError(f"catalogs need n >= 1, got {n}")
    if n > CANON_MAX_ORDER:
        raise OrderTooLarge(f"catalogs support n <= {CANON_MAX_ORDER}, got {n}")
    prev = catalog(n - 1)[0] if n > 1 else np.zeros(1, dtype=np.int64)  # order 0: the empty graph
    base_bits, full = n_pairs(n - 1), full_code(n)
    low = (1 << base_bits) - 1
    slot = np.full(1 << base_bits, -1, dtype=np.int32)  # row of each order n-1 code in prev
    slot[prev] = np.arange(len(prev), dtype=np.int32)
    # orbit of each new-vertex neighbourhood x, built from x without its
    # lowest bit; int32, as order-8 codes fit
    new_rows = dest_weights(n)[base_bits:].astype(np.int32)
    x_orbits = np.zeros((1 << (n - 1), new_rows.shape[1]), dtype=np.int32)
    for x in range(1, 1 << (n - 1)):
        x_orbits[x] = x_orbits[x & (x - 1)] + new_rows[(x & -x).bit_length() - 1]
    marked = np.zeros((len(prev), 1 << (n - 1)), dtype=bool)
    canon, sizes, orbits = [], [], []
    for r, rep in enumerate(prev.tolist()):
        rep_orbit = relabelings(n, rep)
        for x in range(1 << (n - 1)):
            if marked[r, x]:
                continue
            code = rep | x << base_bits
            orbit = rep_orbit + x_orbits[x]  # relabeling is linear in the bits
            size = len(orbit) // int(np.count_nonzero(orbit == code))  # n!/|Aut g|
            canon.append(int(orbit.min()))
            sizes.append(size if np.any(orbit == full ^ code) else 2 * size)
            orbits.append(size)
            rows = slot[orbit & low]
            hit = rows >= 0
            marked[rows[hit], orbit[hit] >> base_bits] = True
    covered = sum(orbits)
    if covered != 1 << n_pairs(n):
        raise VerificationError(
            f"order-{n} orbits cover {covered} codes, expected {1 << n_pairs(n)}"
        )
    if len(canon) != CATALOG_COUNTS[n]:
        raise VerificationError(
            f"order-{n} catalog has {len(canon)} classes, expected {CATALOG_COUNTS[n]}"
        )
    order = np.argsort(canon)
    return tuple(np.array(x, dtype=np.int64)[order] for x in (canon, sizes, orbits))


@_order_cache
def canonical_table(n: int) -> np.ndarray:
    """Canonical code of every labeled graph of order n (n <= 7)."""
    if n > TABLE_MAX_ORDER:
        raise OrderTooLarge(f"full canonical tables are built only for n <= {TABLE_MAX_ORDER}")
    table = np.empty(1 << n_pairs(n), dtype=np.int64)
    for code in catalog(n)[0].tolist():
        table[relabelings(n, code)] = code
    return table


@_order_cache
def canonical_utc_table(n: int) -> np.ndarray:
    """Canonical code up to complementation of every labeled graph."""
    t = canonical_table(n)
    return np.minimum(t, t[::-1])  # t[::-1][c] = t[full_code ^ c]


@cache
def _restriction_halves(n: int, subset: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Restriction codes, for one vertex subset, of the codes with only low
    h = C(n,2) // 2 bits and of those with only the rest (shifted down)."""
    h = n_pairs(n) // 2
    halves = np.concatenate([np.arange(1 << h), np.arange(1 << n_pairs(n) - h) << h])
    out = np.zeros(len(halves), dtype=np.int32)  # restrictions of order <= 8 fit
    local = [(subset[a], subset[b]) for b in range(len(subset)) for a in range(b)]
    for d, (i, j) in enumerate(local):  # local pair d, in colex order
        out |= ((halves >> pair_rank(i, j)) & 1) << d
    return out[: 1 << h], out[1 << h :]


def restriction_codes(
    n: int, subset: tuple[int, ...], codes: np.ndarray | None = None
) -> np.ndarray:
    """Restriction code for one vertex subset (sorted ascending, matching
    induced() relabeling) of every order-n code, or of `codes`: the OR of
    those of its low and its high bits, each read from a short table."""
    low, high = _restriction_halves(n, tuple(subset))
    if codes is None:
        return (high[:, None] | low).ravel()
    return high[codes >> n_pairs(n) // 2] | low[codes & len(low) - 1]
