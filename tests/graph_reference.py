"""Bitmask reference helpers shared by the tests: plain loops over int
vertex masks, kept as independent checks on the numpy subset lanes."""

from __future__ import annotations

from typing import Iterable

from recomp.graphs import Graph


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
