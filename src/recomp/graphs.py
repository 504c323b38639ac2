"""Bit-packed simple graphs and their elementary counting invariants.

A graph on n vertices (1 <= n <= 64) is stored as n adjacency rows, one
64-bit word per row: bit j of row i is 1 iff {i, j} is an edge.  Vertex
subsets travel as plain int bitmasks.  Pairs {i, j} with i < j are indexed
in colexicographic order, rank(i, j) = i + C(j, 2), and the `code` of a
graph packs its upper triangle into one int using that order (the same
order graph6 uses for its bit stream): row j puts its bits below j at
offset C(j, 2).

Validation walks the rows in `Graph(n, adj)`, the one entry for rows a
caller supplies: first each row's bits at or beyond the order and its
diagonal, then, row by row, the first (i, j) with j in row i but not i
in row j.  Rows valid by construction skip it through `_built`:
those of `from_code` (a range-checked code), `from_edges` (after its
loop's vertex and loop checks), `empty`, `complete`, `complement`,
`boolean_sum` and `induced`.

The word tricks serve only paths that skip validation.  `from_code` and
`code` convert between rows and codes on whole words, with no loop over
rows or pairs that grows one big int.  The rows pack w bits apart (w the
least power of two >= max(n, 8)) in one `struct` call, and form a w x w
bit matrix that `_transpose` transposes in log2(w) masked block swaps.
`shift_rounds` moves bit fields by their own distances in log2 rounds of
masked shifts: `from_code` spreads row j's field from offset C(j, 2) to
j*w, which gives the lower triangle L and the rows L | transpose(L), and
`code` gathers it back.  `induced` compresses each chosen row to the
subset's bits a byte at a time, through a 256-entry table per mask byte.
The packing of each order, the transpose rounds of each width, the
vertex bits of each order and the compress table of each mask byte are
`functools.cache` functions.  The order check, `_order`, runs outside the
cache, on every call; every constructor runs it before it allocates
anything, and stores the int it returns, so `n` is an int for a numpy
order too.

The a0/a1/a2 counts classify unordered {edge, non-edge} pairs: a0 counts
the vertex-disjoint ones, a1 the ones sharing a vertex, a2 = a0 + a1 all
of them.  A 3-element vertex set is 3-homogeneous when it induces a
triangle in the graph or in its complement; h3 counts those.
"""

from __future__ import annotations

import operator
import random
import struct
from dataclasses import dataclass
from enum import Enum
from functools import cache
from itertools import combinations
from math import comb
from typing import Iterable, Iterator, Sequence

from .errors import DomainError, EmptySubset, OrderMismatch

MAX_ORDER = 64


def bits_of(mask: int) -> Iterator[int]:
    """Yield set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def colex_masks(v: int, k: int) -> Iterator[int]:
    """All k-subsets of {0..v-1} as bitmasks, lazily, in colexicographic
    order.  Colex order is increasing numeric order of the masks, so each
    step is Gosper's successor: the next larger int with k bits set."""
    if k == 0:
        yield 0
        return
    m = (1 << k) - 1
    stop = 1 << v
    while m < stop:
        yield m
        low = m & -m
        ripple = m + low
        m = ripple | ((m ^ ripple) >> 2) // low


def pair_rank(i: int, j: int) -> int:
    """Colex rank of the pair {i, j} among all 2-subsets."""
    if i > j:
        i, j = j, i
    return i + comb(j, 2)


@cache
def _transpose_rounds(w: int) -> list[tuple[int, int]]:
    """The delta swaps (distance, mask) of `_transpose` for width w: round
    s marks the entries with bit s clear in i and set in j, and each moves
    by s*(w - 1)."""
    rounds = []
    for s in (w >> b for b in range(1, w.bit_length())):
        m = sum(1 << i * w + j for i in range(w) for j in range(w) if j & s and not i & s)
        rounds.append((s * (w - 1), m))
    return rounds


def _transpose(x: int, w: int) -> int:
    """Transpose of the w x w bit matrix packed in x (entry (i, j) at bit
    i*w + j, w a power of two).  Round s swaps the off-diagonal s x s
    blocks of every 2s x 2s block with one masked delta swap (Warren,
    Hacker's Delight, 7-3)."""
    for d, m in _transpose_rounds(w):
        t = (x ^ x >> d) & m
        x ^= t ^ t << d
    return x


def shift_rounds(fields: Iterable[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    """Masked shift rounds that move bit fields (offset, length, shift)
    left by their shifts, for fields in increasing offset order whose
    shifts never decrease (Warren, Hacker's Delight, 7-5).  Round s moves
    the fields whose shift has bit s set, highest s first, so after each
    round every shift is cut to a multiple of s; the cut shifts still
    never decrease, so no two fields ever overlap.  Each round is (s, mask
    before the move, mask after it)."""
    fields = [list(f) for f in fields]
    top = max((d for _, _, d in fields), default=0)
    rounds = []
    for s in (1 << b for b in reversed(range(top.bit_length()))):
        m = 0
        for f in fields:
            if f[2] & s:
                m |= (1 << f[1]) - 1 << f[0]
                f[0] += s
        if m:
            rounds.append((s, m, m << s))
    return rounds


def spread(x: int, rounds: list[tuple[int, int, int]]) -> int:
    """x with its fields moved to their destinations by `shift_rounds`."""
    for s, m, _ in rounds:
        t = x & m
        x ^= t ^ t << s
    return x


def gather(x: int, rounds: list[tuple[int, int, int]]) -> int:
    """The inverse of `spread`: the rounds undone, lowest s first."""
    for s, _, m in reversed(rounds):
        t = x & m
        x ^= t ^ t >> s
    return x


@dataclass(frozen=True)
class _Layout:
    """How the graphs of one order pack for `from_code` and `code`, the
    word paths that skip validation: rows w bits apart, w the least power
    of two >= max(n, 8), row 0 lowest, as the struct format `fmt` writes
    and reads them; `lower` marks the lower triangle, and `rounds` move
    row j's lower-triangle field between offset C(j, 2) of the code and
    offset j*w."""

    w: int
    fmt: str
    lower: int
    rounds: list[tuple[int, int, int]]


def _order(n: int) -> int:
    """n as an int, once it is in 1..MAX_ORDER, so masks stay small.  The
    checks run on every call, outside any cache: cache keys compare by
    value, so 5.0 would hit an entry cached for np.int64(5)."""
    if not 1 <= n <= MAX_ORDER:
        raise DomainError(f"order must be in 1..{MAX_ORDER}, got {n}")
    return operator.index(n)


@cache
def _packing(n: int) -> _Layout:
    size = 1 << max(0, (n - 1).bit_length() - 3)  # bytes per row
    w = 8 * size
    lower = sum((1 << j) - 1 << j * w for j in range(n))
    rounds = shift_rounds((comb(j, 2), j, j * w - comb(j, 2)) for j in range(1, n))
    fmt = f"<{n}{'BHIQ'[size.bit_length() - 1]}"
    return _Layout(w, fmt, lower, rounds)


@cache
def _vertex_bits(n: int) -> dict[int, int]:
    """{b: 1 << b} over the vertices b of order n: a vertex outside
    0..n-1, numpy integer or not, is a KeyError."""
    return {b: 1 << b for b in range(n)}


@dataclass(frozen=True)
class Graph:
    """Labeled simple graph on vertices 0..n-1."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _order(self.n))  # a numpy order becomes an int
        if len(self.adj) != self.n:
            raise DomainError("adjacency row count must equal the order")
        adj = tuple(map(operator.index, self.adj))  # numpy ints become ints
        object.__setattr__(self, "adj", adj)
        full = (1 << self.n) - 1
        for i, row in enumerate(adj):
            if row & ~full:  # a negative row too
                raise DomainError(f"row {i} has bits at or beyond the order")
            if row >> i & 1:
                raise DomainError(f"nonzero diagonal at vertex {i}")
        for i, row in enumerate(adj):
            for j in bits_of(row):
                if not adj[j] >> i & 1:
                    raise DomainError(f"asymmetric adjacency at {{{i},{j}}}")

    # -- basic accessors -------------------------------------------------

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.adj[i] >> j & 1)

    def degree(self, x: int) -> int:
        return self.adj[x].bit_count()

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for j in range(self.n):
            for i in bits_of(self.adj[j] & ((1 << j) - 1)):
                yield (i, j)

    @property
    def code(self) -> int:
        """Upper triangle packed in colex pair order: row j's bits below j,
        gathered from offset j*w to offset C(j, 2)."""
        layout = _packing(self.n)  # every constructor checked the order
        x = int.from_bytes(struct.pack(layout.fmt, *self.adj), "little")
        return gather(x & layout.lower, layout.rounds)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={sorted(self.edges())})"

    # -- constructors ----------------------------------------------------

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        n = _order(n)  # checked before anything is allocated
        rows = [0] * n
        bits = _vertex_bits(n)
        i = j = 0  # bound for the handler even if the first edge does not unpack
        try:
            for i, j in edges:
                if i == j:
                    raise DomainError(f"loop at vertex {i}")
                rows[i] |= bits[j]
                rows[j] |= bits[i]
        except (IndexError, KeyError, ValueError):  # a vertex outside 0..n-1
            if 0 <= i < n and 0 <= j < n:  # checked only on failure, not per edge
                raise
            message = f"edge ({i}, {j}) has a vertex outside 0..{n - 1} for order {n}"
            raise DomainError(message) from None
        return _built(n, tuple(rows))  # the loop rejected loops and outside vertices

    @staticmethod
    def from_code(n: int, code: int) -> "Graph":
        n = _order(n)
        layout = _packing(n)
        code = operator.index(code)
        if code >> comb(n, 2):
            raise DomainError(f"code {code} is not in [0, 2^{comb(n, 2)}) for order {n}")
        lower = spread(code, layout.rounds)  # row j's field moved from C(j, 2) to j*w
        x = lower | _transpose(lower, layout.w)
        return _built(n, struct.unpack(layout.fmt, x.to_bytes(n * layout.w // 8, "little")))

    @staticmethod
    def empty(n: int) -> "Graph":
        n = _order(n)
        return _built(n, (0,) * n)

    @staticmethod
    def complete(n: int) -> "Graph":
        n = _order(n)
        return _built(n, complement_rows((0,) * n))

    @staticmethod
    def cycle(n: int) -> "Graph":
        if n < 3:
            raise DomainError("a cycle needs at least 3 vertices")
        return Graph.from_edges(n, ((i, (i + 1) % n) for i in range(n)))

    @staticmethod
    def path(n: int) -> "Graph":
        return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))

    @staticmethod
    def random(n: int, rng: random.Random, p: float = 0.5) -> "Graph":
        _order(n)  # combinations(range(n), 2) needs n to fit a C ssize_t
        edges = (e for e in combinations(range(n), 2) if rng.random() < p)
        return Graph.from_edges(n, edges)


def _built(n: int, rows: tuple[int, ...]) -> Graph:
    """A Graph of int rows that are valid by construction, made without
    `__post_init__`: its checks are for rows a caller supplies."""
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "adj", rows)
    return g


@dataclass(frozen=True)
class InvariantBundle:
    """Single-graph counting invariants.

    e, e_bar: edge counts of the graph and its complement.
    a0/a1/a2: {edge, non-edge} pair counts (disjoint / sharing / all).
    t: triangle count.  h3: number of 3-homogeneous subsets.
    """

    e: int
    e_bar: int
    a0: int
    a1: int
    a2: int
    t: int
    h3: int


def complement_rows(adj: Sequence[int]) -> tuple[int, ...]:
    """The complement's adjacency rows: row i xored with every vertex but i."""
    full = (1 << len(adj)) - 1
    return tuple(full ^ row ^ 1 << i for i, row in enumerate(adj))


def complement(g: Graph) -> Graph:
    return _built(g.n, complement_rows(g.adj))


def boolean_sum(g: Graph, h: Graph) -> Graph:
    """Graph whose edges lie in exactly one of the two edge sets."""
    if g.n != h.n:
        raise OrderMismatch(f"orders differ: {g.n} vs {h.n}")
    return _built(g.n, tuple(a ^ b for a, b in zip(g.adj, h.adj)))


@cache
def _byte_extract(mask: int) -> tuple[int, ...]:
    """Entry x: the bits of byte x at the set bits of the byte mask, packed
    low in order.  Built on first use, per mask byte, by doubling: the
    entries of x with bit b set are those of x without it, plus the place
    bit b lands at if the mask keeps it."""
    out = [0]
    for b in range(8):
        land = 1 << (mask & (1 << b) - 1).bit_count() if mask >> b & 1 else 0
        out += [e | land for e in out]
    return tuple(out)


def induced(g: Graph, vertices: Iterable[int] | int) -> Graph:
    """Restriction to a vertex subset, relabeled 0..|K|-1 in increasing
    order of original labels.  Row v of the restriction is g's row of the
    v-th subset vertex compressed to the subset's bits, a byte at a time."""
    try:
        mask = operator.index(vertices)  # an int mask, numpy or not
    except TypeError:
        sub = sorted(set(map(operator.index, vertices)))  # numpy ints become ints
    else:
        if mask < 0:
            raise DomainError(f"subset mask must be non-negative, got {mask}")
        sub = list(bits_of(mask))
    if not sub:
        raise EmptySubset("induced subgraph needs at least one vertex")
    if sub[-1] >= g.n or sub[0] < 0:
        raise DomainError("subset contains a vertex outside the graph")
    mask = 0
    for v in sub:
        mask |= 1 << v
    lanes, width = [], 0  # per byte of the mask: its shift, table and place in the row
    for shift in range(0, sub[-1] + 1, 8):
        if byte := mask >> shift & 255:
            lanes.append((shift, _byte_extract(byte), width))
            width += byte.bit_count()
    rows = []
    for v in sub:
        row, out = g.adj[v], 0
        for shift, table, at in lanes:
            out |= table[row >> shift & 255] << at
        rows.append(out)
    return _built(len(sub), tuple(rows))


def triangle_count(g: Graph) -> int:
    t = 0
    for i, j in g.edges():
        t += (g.adj[i] & g.adj[j]).bit_count()
    return t // 3


def invariants(g: Graph) -> InvariantBundle:
    """Counting invariants with a0/a1 by direct enumeration of
    {edge, non-edge} pairs split by disjointness."""
    edge_masks = []
    nonedge_masks = []
    for i, j in combinations(range(g.n), 2):
        m = 1 << i | 1 << j
        (edge_masks if g.has_edge(i, j) else nonedge_masks).append(m)
    a0 = 0
    for em in edge_masks:
        for nm in nonedge_masks:
            if not em & nm:
                a0 += 1
    a2 = len(edge_masks) * len(nonedge_masks)
    t = triangle_count(g)
    h3 = t + triangle_count(complement(g))
    return InvariantBundle(
        e=len(edge_masks),
        e_bar=len(nonedge_masks),
        a0=a0,
        a1=a2 - a0,
        a2=a2,
        t=t,
        h3=h3,
    )


def is_regular(g: Graph) -> bool:
    return len({g.degree(x) for x in range(g.n)}) == 1


def is_claw_free(g: Graph) -> bool:
    """True iff no 4-subset induces a star on 4 vertices."""
    for x in range(g.n):
        nbrs = g.adj[x]
        if nbrs.bit_count() < 3:
            continue
        for a in bits_of(nbrs):
            rest_a = nbrs & ~g.adj[a] & ~((1 << (a + 1)) - 1)
            for b in bits_of(rest_a):
                if rest_a & ~g.adj[b] & ~((1 << (b + 1)) - 1):
                    return False
    return True


class BipartiteKernelClass(Enum):
    COMPLETE_BIPARTITE = "CompleteBipartite"
    COMPLEMENT_OF_COMPLETE_BIPARTITE = "ComplementOfCompleteBipartite"
    BOTH = "Both"
    NEITHER = "Neither"


def is_complete_bipartite(g: Graph) -> bool:
    """Vertex set splits into two parts (one possibly empty) with all
    cross pairs edges and no internal edges: every vertex is joined to
    exactly the other part, where vertex 0's part is its non-neighbours."""
    other = g.adj[0]
    same = ((1 << g.n) - 1) ^ other
    return all(row == (other if same >> x & 1 else same) for x, row in enumerate(g.adj))


def classify_bipartite_kernel(g: Graph) -> BipartiteKernelClass:
    """Classify against the complete-bipartite family.  The empty and
    complete graphs report Both by convention (both are boundary members
    of the family and of its complement family)."""
    e = g.edge_count
    if e == 0 or e == comb(g.n, 2):
        return BipartiteKernelClass.BOTH
    cb = is_complete_bipartite(g)
    cc = is_complete_bipartite(complement(g))
    if cb and cc:
        return BipartiteKernelClass.BOTH
    if cb:
        return BipartiteKernelClass.COMPLETE_BIPARTITE
    if cc:
        return BipartiteKernelClass.COMPLEMENT_OF_COMPLETE_BIPARTITE
    return BipartiteKernelClass.NEITHER
