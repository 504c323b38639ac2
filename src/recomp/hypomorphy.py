"""Pairwise decision procedures and per-subset signatures.

Two graphs on the same vertex set are k-hypomorphic when every
k-element restriction pair is isomorphic, k-hypomorphic up to
complementation when every restriction pair is isomorphic up to
complementation, and so on down a ladder of weaker per-subset
conditions (equal edge counts up to complementation, equal parity,
equal 3-homogeneous data).

Subset lanes: every per-subset condition is one scan over the k-subsets
in colexicographic order, stopping at the first subset that fails, so
witnesses are deterministic.  Every rung at one k reads the same stream
of the pair: a bounded `lru_cache` of `_Stream` objects keyed by (g, h,
k).  A stream yields chunks of subsets that grow eightfold from a few
rows, so an early exit pays only for a short prefix, and a longer scan
pays the per-chunk numpy overhead only a few times; even one rung on a
new stream runs faster than with doubling chunks.  Colex order of
k-subsets does not depend on the vertex count, so one prefix table per k
of the subsets' vertices and the global colex pair ranks i + C(j,2) of
their local pairs, grown on demand within a fixed byte budget, serves
every pair.  Unlike the package's other tables, each a `functools.cache`
function keyed by its order, a prefix table grows in place as longer
prefixes are asked for.  A chunk holds both graphs' restriction bits
only, gathered at once from their code bits at those ranks, read-only;
the witness subset is read back from the table by its rank.  A stream
keeps a chunk where the table holds the chunk's rows, keyed by its first
rank and, like the table, with no lock, and the next rung reads it again;
past the table, chunks are made per pass.
Each condition compares one row function of `SIGNATURES`, applied to
both graphs' bits in one call, which maps restriction bits to a value
per row: parity, edge count up to complementation, h3, a0, or for
k <= 6 a canonical-code table entry.  `signature_table` applies it to
given codes of one order, or to all, for the atlas sieve.  Larger
restrictions compare edge counts, then settle the rows before the first
edge failure by isomorphism witnesses: w, kept as the pair-index array
idx[rank(i,j)] = rank(w[i], w[j]), settles a row when h's bits gathered
by idx equal g's (or, up to complementation, differ in every column).
One loop tries the identity, the few witnesses found most recently,
newest first, then searches the first row left and tries its witness on
the rest, until no row is left.  The witnesses live on the stream, so
the rung up to complementation starts from the ones the plain rung
found.  A row fails only when its search finds no isomorphism, so
verdicts and witnesses do not depend on what the cache holds.  A search
runs `isomorphism.find_isomorphism_rows` on adjacency rows made from
the row's bits by one product with a table per k, then, up to
complementation, on the complement's (`graphs.complement_rows`); no
`Graph` is built, and the engine's degree round rejects a direction
whose edge count differs.  h3 and a0 counts come from the restriction
degrees by Goodman's identity.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import combinations
from math import comb
from typing import Callable, Iterator

import numpy as np

from . import codes as codetables
from .errors import DomainError, KTooLarge, OrderMismatch
from .graphs import Graph, complement_rows
from .incidence import colex_vertices
from .isomorphism import ISO_MAX_ORDER, find_isomorphism_rows

TABLE_MAX_K = 6
# isomorphism witnesses one k > TABLE_MAX_K scan keeps, most recently found first
_WITNESSES = 4


@dataclass(frozen=True)
class HypoVerdict:
    """Outcome of a per-subset condition; witness is a failing subset."""

    holds: bool
    witness: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.holds


def _check_pair(g: Graph, h: Graph, k: int) -> int:
    """k as an int, once the pair and k are checked; a float k is a
    TypeError, as it would hit the stream cached for the equal int."""
    if g.n != h.n:
        raise OrderMismatch(f"orders differ: {g.n} vs {h.n}")
    if not 1 <= k <= g.n:
        raise DomainError(f"need 1 <= k <= {g.n}, got k={k}")
    return operator.index(k)


# -- subset lanes ----------------------------------------------------------

# Byte cap on each cached prefix table; a chunk's rows, and so the chunks one
# stream keeps, stay within the table's.
_BUDGET_BYTES = 1 << 20
# rows of the first chunk, and the factor chunk rows grow by up to the budget:
# per-chunk numpy overhead outweighs a longer prefix, even for one new rung
_GROWTH = 8
# streams kept, most recently used first: a ladder walk reads one at a time
_STREAMS = 8

_subset_tables: dict[int, np.ndarray] = {}


def _max_rows(k: int) -> int:
    """Rows of `_subset_rows(k, ...)` that fit the budget."""
    return _BUDGET_BYTES // (np.dtype(np.intp).itemsize * (k + comb(k, 2)))


def _rows_of(vertices: np.ndarray) -> np.ndarray:
    """Each row of ascending vertices, followed by the global colex pair
    ranks i + C(j,2) of its local pairs in colex order."""
    j, i = np.tril_indices(vertices.shape[1], -1)
    vj = vertices[:, j]
    return np.hstack([vertices, vertices[:, i] + vj * (vj - 1) // 2])


def _subset_rows(k: int, start: int, stop: int) -> np.ndarray:
    """`_rows_of` the colex k-subsets of rank start..stop-1.  Colex order
    of k-subsets does not depend on the ground set, so one prefix table
    per k serves every order.  It grows to the rows asked for, up to the
    byte budget; rows beyond it are computed per call."""
    if stop > _max_rows(k):
        return _rows_of(colex_vertices(k, start, stop))
    table = _subset_tables.get(k)
    have = 0 if table is None else len(table)
    if stop > have:
        more = _rows_of(colex_vertices(k, have, stop))
        table = _subset_tables[k] = more if table is None else np.concatenate([table, more])
    return table[start:stop]


class _Stream:
    """The colex k-subsets of one pair's common vertex set, as read-only
    chunks of both graphs' (2, rows, C(k,2)) restriction bits: row r of
    graph x holds the bits of x's restriction code on the subset of rank
    start + r.  Chunks grow by `_GROWTH` from `_GROWTH` rows up to
    `_max_rows`, so an early exit pays only for a short prefix.  A chunk
    is kept iff the subset table holds its rows, and every rung at this k
    reads it again; a row of bits (2*C(k,2) bytes) is smaller than a table
    row, so the kept chunks fit the budget.  Past the table, chunks are
    made per pass.  `chunks` is keyed by first rank, which fixes a chunk,
    so concurrent scans need no lock: a race stores equal bits under one
    key, and each scan yields what the store holds.  `witnesses` are the
    isomorphisms the search lane found most recently, newest first, for
    both of its rungs; any witness is checked before it settles a row."""

    def __init__(self, g: Graph, h: Graph, k: int):
        self.k, self.total = k, comb(g.n, k)
        # row 0 holds the bits of g.code, row 1 those of h.code: entry r is
        # 1 iff the pair of colex rank r is an edge
        size = (comb(g.n, 2) + 7) // 8
        raw = b"".join(x.code.to_bytes(size, "little") for x in (g, h))
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
        self.pair_bits = bits.reshape(2, 8 * size)
        self.chunks: dict[int, np.ndarray] = {}
        self.witnesses: list[np.ndarray] = []

    def __iter__(self) -> Iterator[tuple[int, np.ndarray]]:
        """(rank of the chunk's first subset, its bits), in colex order."""
        start, size, most = 0, _GROWTH, _max_rows(self.k)
        while start < self.total:
            stop = min(self.total, start + size)
            bits = self.chunks.get(start)
            if bits is None:
                ranks = _subset_rows(self.k, start, stop)[:, self.k :]
                bits = np.take(self.pair_bits, ranks, axis=1)  # one gather for both graphs
                bits.flags.writeable = False
                if stop <= most:
                    bits = self.chunks.setdefault(start, bits)
            yield start, bits
            start, size = stop, min(_GROWTH * size, most)


@lru_cache(maxsize=_STREAMS)
def _stream(g: Graph, h: Graph, k: int) -> _Stream:
    """The pair's stream at k, shared by every rung; bounded, since graphs
    are unbounded keys."""
    return _Stream(g, h, k)


def _first_mismatch(stream: _Stream, fails: Callable[[np.ndarray], np.ndarray]) -> HypoVerdict:
    """Scan the stream in colex order; `fails` maps a chunk's bits to one
    bool per row, and the subset of the first True row is the witness."""
    for start, bits in stream:
        bad = fails(bits)
        first = int(bad.argmax())
        if bad[first]:
            rank = start + first
            vertices = _subset_rows(stream.k, rank, rank + 1)[0, : stream.k]
            return HypoVerdict(False, tuple(vertices.tolist()))
    return HypoVerdict(True)


def _edges(bits: np.ndarray) -> np.ndarray:
    """Edge count of each row's restriction (a product, which numpy runs
    faster than a sum along the short last axis)."""
    return bits @ np.ones(bits.shape[-1], dtype=np.int64)


def _codes(bits: np.ndarray) -> np.ndarray:
    """Restriction code of each row, for C(k,2) <= 62."""
    return bits @ (np.int64(1) << np.arange(bits.shape[-1], dtype=np.int64))


def _a_counts(bits: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a0, a1, a2) of each row's restriction, from its degrees: a pair
    {edge, non-edge} shares a vertex x in d(x) * (k - 1 - d(x)) ways."""
    j, i = np.tril_indices(k, -1)
    inc = np.zeros((len(i), k), dtype=np.int64)  # local pair -> its two ends
    inc[np.arange(len(i)), i] = inc[np.arange(len(i)), j] = 1
    deg = bits @ inc
    e = deg.sum(axis=-1) // 2
    a1 = (deg * (k - 1 - deg)).sum(axis=-1)
    a2 = e * (comb(k, 2) - e)
    return a2 - a1, a1, a2


def _h3(bits: np.ndarray, k: int) -> np.ndarray:
    """3-homogeneous triples of each row's restriction, by Goodman's
    identity: a triple that is not homogeneous has exactly two vertices
    meeting one edge and one non-edge of it, so h3 = C(k,3) - a1/2."""
    return comb(k, 3) - _a_counts(bits, k)[1] // 2


# Per-subset signatures: row functions (bits, k) -> one value per row of
# restriction bits (the last axis), equal for two restrictions iff they
# agree on the signature.  Up to complementation, parity is a signature
# only when C(k,2) is even; when it is odd, complementing flips the
# parity, so every pair agrees.
SIGNATURES: dict[str, Callable[[np.ndarray, int], np.ndarray]] = {
    "parity": lambda bits, k: _edges(bits) % 2,
    "parity_utc": lambda bits, k: _edges(bits) % 2 * (1 - comb(k, 2) % 2),
    "edges": lambda bits, k: np.minimum(e := _edges(bits), comb(k, 2) - e),
    "h3": _h3,
    "a0": lambda bits, k: _a_counts(bits, k)[0],
    "iso": lambda bits, k: codetables.canonical_table(k)[_codes(bits)],
    "utc": lambda bits, k: codetables.canonical_utc_table(k)[_codes(bits)],
}


def _same_signature(kind: str, g: Graph, h: Graph, k: int) -> HypoVerdict:
    """The two graphs agree on the `kind` signature of every k-subset,
    computed for both graphs' bits in one call."""
    k = _check_pair(g, h, k)
    sig = SIGNATURES[kind]
    return _first_mismatch(_stream(g, h, k), lambda bits: operator.ne(*sig(bits, k)))


def signature_table(kind: str, k: int, codes: np.ndarray | None = None) -> np.ndarray:
    """The `kind` signature of each order-k code of `codes`, or of every
    code: the row function on their bits, in chunks of `_max_rows(k)`
    rows so its int64 temporaries stay small."""
    sig, step = SIGNATURES[kind], _max_rows(k)
    codes = codetables.all_codes(k) if codes is None else codes
    shifts = np.arange(comb(k, 2), dtype=np.int64)
    out = np.empty(len(codes), dtype=np.int64)
    for start in range(0, len(codes), step):
        chunk = codes[start : start + step, None]
        out[start : start + len(chunk)] = sig((chunk >> shifts & 1).astype(np.uint8), k)
    return out


def _maps(bg: np.ndarray, bh: np.ndarray, idx: np.ndarray | slice, utc: bool) -> np.ndarray:
    """Per row: witness idx maps g's restriction (or, if utc, its complement)
    onto h's; the identity is slice(None), which gathers nothing."""
    same = bh[:, idx] == bg
    hit = same.all(axis=1)
    if utc:
        hit |= ~same.any(axis=1)
    return hit


@cache
def _local_pairs(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """For restrictions of order k: the (C(k,2), k) matrix that maps a row
    of restriction bits to the k adjacency rows (pair {i, j} of rank
    i + C(j,2) adds 1 << j to row i and 1 << i to row j), both ends of
    each pair in rank order, and the (k, k) table of local pair ranks."""
    j, i = np.tril_indices(k, -1)
    pairs = np.arange(len(i))
    rows = np.zeros((len(i), k), dtype=np.int64)
    rows[pairs, i] = np.int64(1) << j
    rows[pairs, j] = np.int64(1) << i
    v = np.arange(k)
    lo, hi = np.minimum.outer(v, v), np.maximum.outer(v, v)
    return rows, i, j, lo + hi * (hi - 1) // 2


def _pair_iso(k: int, rg: np.ndarray, rh: np.ndarray, utc: bool) -> np.ndarray | None:
    """An isomorphism w from the restriction in row rg (or, if utc, its
    complement) onto the one in row rh, as the pair-index array
    idx[rank(i,j)] = rank(w[i], w[j]), rank(i,j) = i + C(j,2) for i < j;
    None if there is none.  The graph itself is searched first."""
    rows, i, j, ranks = _local_pairs(k)
    ga, ha = (np.array((rg, rh)) @ rows).tolist()
    w = find_isomorphism_rows(ga, ha)
    if w is None and utc:
        w = find_isomorphism_rows(complement_rows(ga), ha)
    if w is None:
        return None
    w = np.array(w)
    return ranks[w[i], w[j]]


def _hypomorphic(g: Graph, h: Graph, k: int, utc: bool) -> HypoVerdict:
    k = _check_pair(g, h, k)  # before the k cap and the lane set-up
    if k > ISO_MAX_ORDER:
        raise KTooLarge(f"restriction isomorphism supports k <= {ISO_MAX_ORDER}")
    if k <= TABLE_MAX_K:
        return _same_signature("utc" if utc else "iso", g, h, k)
    kk = comb(k, 2)
    stream = _stream(g, h, k)
    witnesses = stream.witnesses

    def fails(bits: np.ndarray) -> np.ndarray:
        bg, bh = bits
        eg, eh = _edges(bits)
        bad = eh != eg
        if utc:
            bad &= eh != kk - eg
        # the rows before the first edge failure, settled one witness at a time
        first = int(bad.argmax())
        rows = np.arange(first if bad[first] else len(bad))
        untried = [slice(None), *witnesses]
        while len(rows):
            if untried:
                idx = untried.pop(0)
            else:
                idx = _pair_iso(k, bg[rows[0]], bh[rows[0]], utc)
                if idx is None:
                    bad[rows[0]] = True
                    break
                witnesses[:] = [idx, *witnesses[: _WITNESSES - 1]]
            rows = rows[~_maps(bg[rows], bh[rows], idx, utc)]
        return bad

    return _first_mismatch(stream, fails)


def k_hypomorphic(g: Graph, h: Graph, k: int) -> HypoVerdict:
    """Every k-element restriction pair isomorphic."""
    return _hypomorphic(g, h, k, utc=False)


def k_hypomorphic_utc(g: Graph, h: Graph, k: int) -> HypoVerdict:
    """Every k-element restriction pair isomorphic up to complementation."""
    return _hypomorphic(g, h, k, utc=True)


def same_edge_counts_utc(g: Graph, h: Graph, k: int) -> HypoVerdict:
    """e(h|K) equals e(g|K) or C(k,2) - e(g|K) for every K."""
    return _same_signature("edges", g, h, k)


def same_parity(g: Graph, h: Graph, k: int) -> HypoVerdict:
    """e(g|K) and e(h|K) share parity for every K."""
    return _same_signature("parity", g, h, k)


def same_parity_utc(g: Graph, h: Graph, k: int) -> HypoVerdict:
    """e(g|K) shares parity with e(h|K) or with C(k,2) - e(h|K)."""
    return _same_signature("parity_utc", g, h, k)


def same_3_homogeneous(g: Graph, h: Graph) -> HypoVerdict:
    """The two graphs have identical sets of 3-homogeneous subsets; the
    witness is the lex-least triple in exactly one of them: the first pair
    i < j whose third vertices differ, with its least such l."""
    if g.n != h.n:
        raise OrderMismatch(f"orders differ: {g.n} vs {h.n}")
    full = (1 << g.n) - 1
    for i, j in combinations(range(g.n), 2):
        differ = 0
        for x in (g, h):
            # third vertices l > j joined to both i and j, or to neither, as i to j
            a, b = x.adj[i], x.adj[j]
            differ ^= (a & b if a >> j & 1 else full & ~(a | b)) >> j + 1
        if differ:
            return HypoVerdict(False, (i, j, j + (differ & -differ).bit_length()))
    return HypoVerdict(True)


def same_h3_counts(g: Graph, h: Graph, k: int) -> HypoVerdict:
    """h3(g|K) = h3(h|K) for every k-subset K (counts, not sets)."""
    return _same_signature("h3", g, h, k)


def same_a0_counts(g: Graph, h: Graph, k: int) -> HypoVerdict:
    """a0(g|K) = a0(h|K) for every k-subset K."""
    return _same_signature("a0", g, h, k)


def equal_up_to_complementation(g: Graph, h: Graph) -> bool:
    """h equals g or the complement of g, as labeled edge sets."""
    if g.n != h.n:
        raise OrderMismatch(f"orders differ: {g.n} vs {h.n}")
    return h.adj == g.adj or h.adj == complement_rows(g.adj)


def equality_threshold(v: int) -> int:
    """Piecewise threshold: 4l for v in {4l+2, 4l+3}, 4l-3 for v in
    {4l, 4l+1}.  Largest k proven to put (v, k) in the equality set."""
    v = operator.index(v)  # 9.0 would give 5.0, np.int64(9) np.int64(5)
    if v < 4:
        raise DomainError(f"threshold defined for v >= 4, got {v}")
    l = v // 4
    return 4 * l if v % 4 in (2, 3) else 4 * l - 3
