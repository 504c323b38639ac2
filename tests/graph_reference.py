"""Bitmask reference helpers shared by the tests: plain loops over int
vertex masks, kept as independent checks on the numpy subset lanes."""

from __future__ import annotations

from typing import Iterable

from recomp.graphs import Graph, bits_of, complement


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask of a vertex collection."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


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
