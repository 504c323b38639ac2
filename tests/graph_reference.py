"""Reference helpers shared by the tests: plain loops over int vertex
masks, kept as independent checks on the numpy subset lanes; the
3-homogeneous triple sets that the h3 rung no longer builds; the
full-space signature labels and claw-free table that the sweeps' sieve
replaced; the group-by-group graph6 codec and row-by-row `Graph`
packing that the whole-word paths replaced; and the pair-by-pair
restriction code that `graphs.induced` no longer builds, kept as their
oracles."""

from __future__ import annotations

from functools import cache
from itertools import combinations
from math import comb
from typing import Iterable, Sequence

import numpy as np

from recomp.errors import DomainError, OrderMismatch
from recomp.codes import restriction_codes
from recomp.graphs import MAX_ORDER, Graph, bits_of, complement, is_claw_free
from recomp.incidence import build_w, colex_subsets, colex_vertices
from recomp.linalg import ModMatrix


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask of a vertex collection."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def restriction_code(g: Graph, subset: Sequence[int]) -> int:
    """Code of the restriction of one graph to a sorted vertex subset, one
    local pair at a time in colex order."""
    c = 0
    d = 0
    for b in range(1, len(subset)):
        jb = subset[b]
        for a in range(b):
            c |= (g.adj[subset[a]] >> jb & 1) << d
            d += 1
    return c


def subgraph_edge_count(g: Graph, mask: int) -> int:
    """Edge count of the restriction to the vertex bitmask, no relabeling."""
    e = 0
    m = mask
    while m:
        low = m & -m
        m ^= low
        e += (g.adj[low.bit_length() - 1] & m).bit_count()
    return e


def _components(g: Graph) -> list[int]:
    """Vertex masks of the connected components, by breadth-first search."""
    seen = 0
    comps = []
    for s in range(g.n):
        if seen >> s & 1:
            continue
        comp = 1 << s
        frontier = 1 << s
        while frontier:
            nxt = 0
            for v in bits_of(frontier):
                nxt |= g.adj[v]
            frontier = nxt & ~comp
            comp |= nxt
        comps.append(comp)
        seen |= comp
    return comps


def _is_clique_mask(g: Graph, mask: int) -> bool:
    for v in bits_of(mask):
        if g.adj[v] & mask != mask ^ (1 << v):
            return False
    return True


def complete_bipartite_by_components(g: Graph) -> bool:
    """g is complete bipartite (one part possibly empty) iff its
    complement is a disjoint union of at most two cliques."""
    h = complement(g)
    comps = _components(h)
    return len(comps) <= 2 and all(_is_clique_mask(h, c) for c in comps)


def homogeneous_triples(g: Graph) -> set[tuple[int, int, int]]:
    """3-element subsets inducing a triangle in g or in its complement."""
    out = set()
    full = (1 << g.n) - 1
    for i, j in combinations(range(g.n), 2):
        # third vertices l > j joined to both i and j, or to neither, as i to j
        a, b = g.adj[i], g.adj[j]
        third = a & b if a >> j & 1 else full & ~(a | b)
        out.update((i, j, l) for l in bits_of(third >> j + 1 << j + 1))
    return out


def intersection(g: Graph, h: Graph) -> Graph:
    """Graph of the edges the two graphs share."""
    if g.n != h.n:
        raise OrderMismatch(f"orders differ: {g.n} vs {h.n}")
    return Graph(g.n, tuple(a & b for a, b in zip(g.adj, h.adj)))


def subset_unrank(r: int, size: int) -> tuple[int, ...]:
    """The colex `size`-subset of rank r: the inverse of `subset_rank`."""
    return tuple(colex_vertices(size, r, r + 1)[0].tolist())


def row_entries(m: ModMatrix, i: int) -> list[int]:
    """Row i of m as residues."""
    return m.rows[i].tolist()


def transpose(m: ModMatrix) -> ModMatrix:
    """The transpose of m, built from its rows' entries."""
    entries = np.array([row_entries(m, i) for i in range(m.nrows)], dtype=np.int64)
    return ModMatrix(entries.T, m.p)


def mul_vector(m: ModMatrix, vec: Sequence[int]) -> list[int]:
    """The product m * vec over GF(p), row by row."""
    return [sum(a * b for a, b in zip(row_entries(m, i), vec)) % m.p for i in range(m.nrows)]


def restriction_edge_counts_via_matrix(g: Graph, k: int) -> list[int]:
    """Per-k-subset restriction edge counts computed as the product of the
    graph's edge row vector with W(2, k), colex column order."""
    w = build_w(2, k, g.n)
    code = g.code
    edge_row = np.array([code >> r & 1 for r in range(comb(g.n, 2))], dtype=np.int64)
    return (edge_row @ w.array.astype(np.int64)).tolist()


# -- full-space labels ----------------------------------------------------


def signature_labels(v: int, k: int, table: np.ndarray) -> np.ndarray:
    """One label per labeled order-v graph, numbered 0, 1, ...; two graphs
    share a label iff `table` takes equal values on their restrictions to
    every k-subset.  Labels are renumbered before they could overflow."""
    dense = np.unique(table, return_inverse=True)[1]
    width = int(dense.max()) + 1
    labels = np.zeros(1 << comb(v, 2), dtype=np.int64)
    for s in colex_subsets(v, k):
        if (int(labels.max()) + 1) * width > np.iinfo(np.int64).max:
            labels = np.unique(labels, return_inverse=True)[1]
        labels = labels * width + dense[restriction_codes(v, s)]
    return np.unique(labels, return_inverse=True)[1]


@cache
def clawfree_both(n: int) -> np.ndarray:
    """Per order-n code: the graph and its complement are both claw-free,
    by `is_claw_free` on each Graph."""
    graphs = (Graph.from_code(n, c) for c in range(1 << comb(n, 2)))
    return np.array([is_claw_free(g) and is_claw_free(complement(g)) for g in graphs])


# -- the codec and packing loops ------------------------------------------

# Six code bits, lowest first, read as a graph6 group (first bit most
# significant): the bit reversal, which is its own inverse.
_REVERSED = [int(f"{v:06b}"[::-1], 2) for v in range(64)]


def rowwise_code(adj: Sequence[int]) -> int:
    """Upper triangle packed in colex pair order, row by row: row j's bits
    below j at offset C(j, 2)."""
    return sum((row & ((1 << j) - 1)) << comb(j, 2) for j, row in enumerate(adj))


def rowwise_rows(n: int, code: int) -> tuple[int, ...]:
    """The adjacency rows of a code, row by row: row j's next j bits are
    its neighbours below j, mirrored into the rows below."""
    rows = [0] * n
    rest = code
    for j in range(1, n):
        low = rest & ((1 << j) - 1)
        rows[j] |= low
        for i in bits_of(low):
            rows[i] |= 1 << j
        rest >>= j
    if rest:
        raise DomainError(f"code {code} is not in [0, 2^{comb(n, 2)}) for order {n}")
    return tuple(rows)


def rowwise_fault(n: int, rows: Sequence[int]) -> str | None:
    """The message `Graph(n, rows)` raises, found row by row, or None: the
    order, the row count, then each row's bits at or beyond the order and
    its diagonal, then the first (i, j), row by row, with j in row i but
    not i in row j."""
    if not 1 <= n <= MAX_ORDER:
        return f"order must be in 1..{MAX_ORDER}, got {n}"
    if len(rows) != n:
        return "adjacency row count must equal the order"
    full = (1 << n) - 1
    for i, row in enumerate(rows):
        if row & ~full:
            return f"row {i} has bits at or beyond the order"
        if row >> i & 1:
            return f"nonzero diagonal at vertex {i}"
    for i, row in enumerate(rows):
        for j in bits_of(row):
            if not rows[j] >> i & 1:
                return f"asymmetric adjacency at {{{i},{j}}}"
    return None


def groupwise_encode(g: Graph) -> str:
    """graph6 text, one 6-bit group of the code at a time."""
    n, code = g.n, rowwise_code(g.adj)
    head = chr(n + 63) if n <= 62 else "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    return head + "".join(chr(_REVERSED[code >> s & 63] + 63) for s in range(0, comb(n, 2), 6))


def groupwise_decode(s: str) -> tuple[int, int]:
    """(order, code) of graph6 text, one 6-bit group at a time, raising
    the `DomainError` that `decode` raises for malformed text."""
    s = s.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise DomainError("empty graph6 string")
    vals = [ord(ch) - 63 for ch in s]
    if min(vals) < 0 or max(vals) > 63:
        bad = next(ch for ch, v in zip(s, vals) if not 0 <= v <= 63)
        raise DomainError(f"byte {bad!r} outside graph6 range")
    if vals[0] == 63:  # '~' long form
        if len(vals) < 4:
            raise DomainError("truncated graph6 order")
        n = vals[1] << 12 | vals[2] << 6 | vals[3]
        body = vals[4:]
    else:
        n = vals[0]
        body = vals[1:]
    if not 1 <= n <= MAX_ORDER:
        raise DomainError(f"graph6 order {n} unsupported (1..{MAX_ORDER})")
    m = comb(n, 2)
    if len(body) != (m + 5) // 6:
        raise DomainError("graph6 body length does not match the order")
    code = 0
    for v in reversed(body):
        code = code << 6 | _REVERSED[v]
    if code >> m:
        raise DomainError("nonzero padding bits")
    return n, code
