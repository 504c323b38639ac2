"""Canonical tables and catalogs against independent oracles."""

from itertools import combinations, permutations

import numpy as np
import pytest

from recomp.atlas import enumerate_graphs
from recomp.codes import all_codes, canonical_table, h3_count_table
from recomp.graphs import Graph


def oracle_canonical_code(g: Graph) -> int:
    """Minimum code over every relabeling, built as Graph objects."""
    edges = list(g.edges())
    return min(
        Graph.from_edges(g.n, [(p[a], p[b]) for a, b in edges]).code
        for p in permutations(range(g.n))
    )


@pytest.mark.parametrize("n", range(1, 6))
def test_canonical_table_matches_permutation_oracle(n):
    table = canonical_table(n)
    assert table.tolist() == [
        oracle_canonical_code(Graph.from_code(n, c)) for c in range(len(table))
    ]


@pytest.mark.parametrize("n", range(1, 8))
def test_catalog_matches_networkx_atlas(n):
    nx = pytest.importorskip("networkx")
    table = canonical_table(n)
    atlas_codes = {
        int(table[Graph.from_edges(n, h.edges()).code])
        for h in nx.graph_atlas_g()
        if h.number_of_nodes() == n
    }
    assert atlas_codes == {g.code for g in enumerate_graphs(n).representatives}


@pytest.mark.parametrize("n", range(1, 8))
def test_h3_count_table_matches_per_triple_count(n):
    """Reference: per triple, the three pair bits sum to 0 or 3."""
    codes = all_codes(n)
    expected = np.zeros(len(codes), dtype=np.int16)
    for a, b, c in combinations(range(n), 3):
        ab, ac, bc = (x + y * (y - 1) // 2 for x, y in ((a, b), (a, c), (b, c)))
        s = (codes >> ab & 1) + (codes >> ac & 1) + (codes >> bc & 1)
        expected += ((s == 0) | (s == 3)).astype(np.int16)
    table = h3_count_table(n)
    assert table.dtype == expected.dtype and np.array_equal(table, expected)
