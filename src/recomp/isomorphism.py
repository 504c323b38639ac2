"""Exact graph isomorphism at desk scale.

Two lanes share one backtracking engine.  Both start from a joint color
refinement of the two graphs (a vertex's next color is its color and its
neighbor count in each color class).  For n <= 8 the search runs in
plain vertex order with candidates ascending, so the first witness found
is the lexicographically least permutation.  For 9 <= n <= 32 it orders
the search by color-class size; the witness is deterministic but not
necessarily lex-least.

A witness is a tuple p with h.has_edge(p[i], p[j]) == g.has_edge(i, j)
for all pairs, i.e. h = p(g).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .codes import CANON_MAX_ORDER, canonical_code, canonical_utc_code
from .errors import OrderMismatch, OrderTooLarge
from .graphs import Graph, bits_of, complement

ISO_MAX_ORDER = 32


def _refine_pair(
    g: Graph, h: Graph, fixed: dict[int, int] | None
) -> tuple[list[int], list[int]] | None:
    """Joint stable coloring of both vertex sets; None when the color
    multisets ever disagree (then no isomorphism respects `fixed`).  A
    signature is a color and the neighbor count in each color class."""
    n = g.n
    gcol = [0] * n
    hcol = [0] * n
    if fixed:
        for seed, (u, w) in enumerate(sorted(fixed.items()), start=1):
            gcol[u] = seed
            hcol[w] = seed
    ncolors = 0
    while True:
        sig_ids: dict[tuple, int] = {}
        newg = [0] * n
        newh = [0] * n
        for col, new, graph in ((gcol, newg, g), (hcol, newh, h)):
            class_masks = [0] * (max(col, default=-1) + 1)
            for v, c in enumerate(col):
                class_masks[c] |= 1 << v
            for v, row in enumerate(graph.adj):
                sig = (col[v], *[(row & m).bit_count() for m in class_masks])
                new[v] = sig_ids.setdefault(sig, len(sig_ids))
        if Counter(newg) != Counter(newh):
            return None
        gcol, hcol = newg, newh
        if len(sig_ids) == ncolors:
            return gcol, hcol
        ncolors = len(sig_ids)


def find_isomorphism(
    g: Graph, h: Graph, fixed: dict[int, int] | None = None
) -> tuple[int, ...] | None:
    """Backtracking isomorphism search; `fixed` pins images up front."""
    if g.n != h.n:
        raise OrderMismatch(f"orders differ: {g.n} vs {h.n}")
    n = g.n
    if n > ISO_MAX_ORDER:
        raise OrderTooLarge(f"exact isomorphism supports n <= {ISO_MAX_ORDER}")
    if g.edge_count != h.edge_count:
        return None
    if sorted(g.degree(v) for v in range(n)) != sorted(h.degree(v) for v in range(n)):
        return None
    refined = _refine_pair(g, h, fixed)
    if refined is None:
        return None
    gcol, hcol = refined

    img = [-1] * n
    used = 0
    if fixed:
        for u, w in fixed.items():
            if gcol[u] != hcol[w]:
                return None
            img[u] = w
            used |= 1 << w

    if n <= CANON_MAX_ORDER:
        order = [v for v in range(n) if img[v] < 0]
    else:
        class_size = Counter(gcol)
        order = sorted(
            (v for v in range(n) if img[v] < 0), key=lambda v: (class_size[gcol[v]], v)
        )

    candidates = [
        [w for w in range(n) if hcol[w] == gcol[v]] if img[v] < 0 else []
        for v in range(n)
    ]

    def dfs(depth: int) -> bool:
        nonlocal used
        if depth == len(order):
            return True
        v = order[depth]
        mapped_imgmask = 0
        for u in bits_of(g.adj[v]):
            if img[u] >= 0:
                mapped_imgmask |= 1 << img[u]
        for w in candidates[v]:
            if used >> w & 1:
                continue
            if h.adj[w] & used != mapped_imgmask:
                continue
            img[v] = w
            used |= 1 << w
            if dfs(depth + 1):
                return True
            img[v] = -1
            used ^= 1 << w
        return False

    if dfs(0):
        return tuple(img)
    return None


class IsoUtcKind(Enum):
    ISO = "Iso"
    ISO_TO_COMPLEMENT = "IsoToComplement"
    BOTH = "Both"
    NEITHER = "Neither"


@dataclass(frozen=True)
class UtcVerdict:
    kind: IsoUtcKind
    to_graph: tuple[int, ...] | None
    to_complement: tuple[int, ...] | None

    def __bool__(self) -> bool:
        return self.kind is not IsoUtcKind.NEITHER


def isomorphic_up_to_complementation(g: Graph, h: Graph) -> UtcVerdict:
    """Check h against both g and complement(g), returning witnesses."""
    w_iso = find_isomorphism(g, h)
    w_comp = find_isomorphism(complement(g), h)
    if w_iso and w_comp:
        kind = IsoUtcKind.BOTH
    elif w_iso:
        kind = IsoUtcKind.ISO
    elif w_comp:
        kind = IsoUtcKind.ISO_TO_COMPLEMENT
    else:
        kind = IsoUtcKind.NEITHER
    return UtcVerdict(kind, w_iso, w_comp)


def canonical_form(g: Graph) -> int:
    """Minimum code over all relabelings (n <= 8)."""
    return canonical_code(g.n, g.code)


def canonical_form_utc(g: Graph) -> int:
    """Minimum code over all relabelings of the graph and of its
    complement; equal codes iff isomorphic up to complementation."""
    return canonical_utc_code(g.n, g.code)


def is_self_complementary(g: Graph) -> bool:
    return find_isomorphism(g, complement(g)) is not None


def is_vertex_transitive(g: Graph) -> bool:
    """True iff the automorphism group has a single vertex orbit, decided
    by one pinned automorphism search per target vertex."""
    if g.n > ISO_MAX_ORDER:
        raise OrderTooLarge(f"vertex transitivity supports n <= {ISO_MAX_ORDER}")
    if not len({g.degree(v) for v in range(g.n)}) == 1:
        return False
    return all(
        find_isomorphism(g, g, fixed={0: x}) is not None for x in range(1, g.n)
    )
