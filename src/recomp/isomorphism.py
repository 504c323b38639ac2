"""Exact graph isomorphism at desk scale.

One backtracking engine, `find_isomorphism_rows`, searches on adjacency
rows: a sequence of ints whose row v has bit u set iff uv is an edge.
`find_isomorphism` checks two `Graph`s and passes their `adj`; the
restriction search of `hypomorphy` builds rows straight from restriction
bits and builds no `Graph`.  The engine starts from a joint color
refinement of the two graphs (a vertex's next color is its color and its
neighbor count in each color class; unpinned, the first colors are the
degrees).  For n <= 8 the search runs in plain vertex order with
candidates ascending, so the first witness found is the
lexicographically least permutation.  For 9 <= n <= 32 it orders the
search by color-class size; the witness is deterministic but not
necessarily lex-least.

A witness is a tuple p with h.has_edge(p[i], p[j]) == g.has_edge(i, j)
for all pairs, i.e. h = p(g).

The canonical code of a graph (n <= 8) is the minimum of its orbit,
`codes.relabelings(n, code)`, and the up-to-complementation variant
additionally minimizes over the complement's orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .codes import CANON_MAX_ORDER, relabelings
from .errors import OrderMismatch, OrderTooLarge
from .graphs import Graph, complement, complement_rows

ISO_MAX_ORDER = 32


def _refine_pair(
    gadj: Sequence[int], hadj: Sequence[int], fixed: dict[int, int] | None
) -> tuple[list[int], list[int]] | None:
    """Joint stable coloring of both vertex sets, given by their adjacency
    rows; None when the color multisets ever disagree (then no
    isomorphism respects `fixed`).  A signature is a color and the
    neighbor count in each color class, numbered by first appearance over
    g's vertices and then h's.  The first colors are the degrees, with
    each pinned pair in classes of its own, still split by degree; every
    stable coloring splits by degree, so this reaches the stable coloring
    of one class plus the pins.  Colors then determine degrees, so the
    count in the last class (the degree minus the others) is left out."""
    gkey = [row.bit_count() for row in gadj]
    hkey = [row.bit_count() for row in hadj]
    if fixed:
        for seed, (u, w) in enumerate(sorted(fixed.items()), start=1):
            gkey[u] = (seed, gkey[u])
            hkey[w] = (seed, hkey[w])
    ids: dict = {}
    gcol = [ids.setdefault(key, len(ids)) for key in gkey]
    hcol = [ids.setdefault(key, len(ids)) for key in hkey]
    ncolors = len(ids)
    while True:
        if sorted(gcol) != sorted(hcol):
            return None
        ids = {}
        cols = []
        for col, adj in ((gcol, gadj), (hcol, hadj)):
            masks = [0] * ncolors
            for v, c in enumerate(col):
                masks[c] |= 1 << v
            # one list of neighbor counts per class; zip pairs them up per vertex
            counts = [[(row & m).bit_count() for row in adj] for m in masks[:-1]]
            cols.append([ids.setdefault(sig, len(ids)) for sig in zip(col, *counts)])
        gcol, hcol = cols
        if len(ids) == ncolors:  # no class split, so the colors are unchanged
            return gcol, hcol
        ncolors = len(ids)


def find_isomorphism_rows(
    gadj: Sequence[int], hadj: Sequence[int], fixed: dict[int, int] | None = None
) -> tuple[int, ...] | None:
    """The search engine on adjacency rows of equal length n <= ISO_MAX_ORDER
    (row v has bit u set iff uv is an edge), unchecked."""
    refined = _refine_pair(gadj, hadj, fixed)
    if refined is None:
        return None
    gcol, hcol = refined
    n = len(gadj)
    img = [-1] * n
    used = 0
    if fixed:
        for u, w in fixed.items():
            if gcol[u] != hcol[w]:
                return None
            img[u] = w
            used |= 1 << w
    # the candidate images of each color, ascending
    by_color: dict[int, list[int]] = {}
    for w, c in enumerate(hcol):
        by_color.setdefault(c, []).append(w)
    order = [v for v in range(n) if img[v] < 0]
    if n > CANON_MAX_ORDER:  # by class size, the same in g and h; ties keep vertex order
        order.sort(key=lambda v: len(by_color[gcol[v]]))
    # per depth: the candidates, and the neighbors of the vertex placed
    # there that are mapped before it, as a mask
    candidates = [by_color[gcol[v]] for v in order]
    mapped = sum(1 << u for u in range(n) if img[u] >= 0)
    back = []
    for v in order:
        back.append(gadj[v] & mapped)
        mapped |= 1 << v

    def dfs(depth: int) -> bool:
        nonlocal used
        if depth == len(order):
            return True
        mapped_imgmask = 0
        m = back[depth]
        while m:
            low = m & -m
            mapped_imgmask |= 1 << img[low.bit_length() - 1]
            m ^= low
        v = order[depth]
        for w in candidates[depth]:
            if used >> w & 1 or hadj[w] & used != mapped_imgmask:
                continue
            img[v] = w
            used |= 1 << w
            if dfs(depth + 1):
                return True
            used ^= 1 << w
        img[v] = -1
        return False

    if dfs(0):
        return tuple(img)
    return None


def find_isomorphism(
    g: Graph, h: Graph, fixed: dict[int, int] | None = None
) -> tuple[int, ...] | None:
    """Backtracking isomorphism search; `fixed` pins images up front."""
    if g.n != h.n:
        raise OrderMismatch(f"orders differ: {g.n} vs {h.n}")
    if g.n > ISO_MAX_ORDER:
        raise OrderTooLarge(f"exact isomorphism supports n <= {ISO_MAX_ORDER}")
    return find_isomorphism_rows(g.adj, h.adj, fixed)


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
    w_comp = find_isomorphism_rows(complement_rows(g.adj), h.adj)
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
    return int(relabelings(g.n, g.code).min())


def canonical_form_utc(g: Graph) -> int:
    """Minimum code over all relabelings of the graph and of its
    complement; equal codes iff isomorphic up to complementation."""
    return min(canonical_form(g), canonical_form(complement(g)))


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
