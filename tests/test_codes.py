"""Canonical tables and catalogs against independent oracles."""

from functools import cache
from itertools import combinations, permutations
from math import comb

import numpy as np
import pytest

from recomp.atlas import _has_claw, enumerate_graphs
from recomp.codes import (
    all_codes,
    canonical_table,
    canonical_utc_table,
    catalog,
    dest_weights,
    full_code,
    relabelings,
    restriction_codes,
)
from recomp.graphs import Graph, induced, invariants
from recomp.hypomorphy import signature_table

from graph_reference import clawfree_both


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


@pytest.mark.parametrize("n", range(2, 8))
def test_restriction_codes_match_induced(n):
    # every code's restriction at the full space, and a seeded sample read
    # through `codes`, against induced() on the sample
    rng = np.random.default_rng(n)
    sample = rng.integers(0, 1 << comb(n, 2), size=40)
    for k in (1, 2, 3, n):
        for s in list(combinations(range(n), k))[:6]:
            full = restriction_codes(n, s)
            assert len(full) == 1 << comb(n, 2)
            got = restriction_codes(n, s, sample)
            assert got.tolist() == full[sample].tolist()
            assert got.tolist() == [induced(Graph.from_code(n, int(c)), s).code for c in sample]


def marked_canonical_table(n: int) -> np.ndarray:
    """Reference: orbit marking over the whole code space, which the
    scatter from the catalog replaced.  Codes are scanned in ascending
    order, and each code not yet marked opens a class and marks its whole
    orbit, so the opening code is the orbit's minimum."""
    table = np.empty(1 << comb(n, 2), dtype=np.int64)
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
    return table


def per_representative_utc_sizes(n: int, rep_codes: np.ndarray) -> np.ndarray:
    """Reference: each representative's iso-utc class size from its own
    orbit, which the catalog pass replaced: n!/|Aut g| relabelings, twice
    that unless g is self-complementary; the orbits must cover every code."""
    full = full_code(n)
    orbits, sizes = [], []
    for g in rep_codes.tolist():
        orbit = relabelings(n, g)
        size = len(orbit) // int(np.count_nonzero(orbit == g))
        orbits.append(size)
        sizes.append(size if np.any(orbit == full ^ g) else 2 * size)
    assert sum(orbits) == 1 << comb(n, 2)
    return np.array(sizes, dtype=np.int64)


@cache
def searchsorted_catalog(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference: the catalog pass that the slot table replaced.  Each
    candidate rebuilds its orbit from all of its bits, and each orbit
    code's order n-1 row is found by binary search among the order n-1
    codes of this reference, not of the catalog."""
    prev = searchsorted_catalog(n - 1)[0] if n > 1 else np.zeros(1, dtype=np.int64)
    base_bits, full = comb(n - 1, 2), full_code(n)
    low = (1 << base_bits) - 1
    marked = np.zeros((len(prev), 1 << (n - 1)), dtype=bool)
    canon, sizes = [], []
    for r, rep in enumerate(prev.tolist()):
        for x in range(1 << (n - 1)):
            if marked[r, x]:
                continue
            code = rep | x << base_bits
            orbit = relabelings(n, code)
            size = len(orbit) // int(np.count_nonzero(orbit == code))
            canon.append(int(orbit.min()))
            sizes.append(size if np.any(orbit == full ^ code) else 2 * size)
            rows = np.searchsorted(prev, orbit & low).clip(max=len(prev) - 1)
            hit = prev[rows] == orbit & low
            marked[rows[hit], orbit[hit] >> base_bits] = True
    order = np.argsort(canon)
    return np.array(canon, dtype=np.int64)[order], np.array(sizes, dtype=np.int64)[order]


@pytest.mark.parametrize("n", [*range(1, 8), pytest.param(8, marks=pytest.mark.slow)])
def test_catalog_matches_searchsorted_oracle(n):
    rep_codes, sizes, _ = catalog(n)
    expected_codes, expected_sizes = searchsorted_catalog(n)
    assert np.array_equal(rep_codes, expected_codes)
    assert np.array_equal(sizes, expected_sizes)


@pytest.mark.parametrize("n", range(1, 8))
def test_canonical_table_matches_orbit_marking_oracle(n):
    assert np.array_equal(canonical_table(n), marked_canonical_table(n))


@pytest.mark.parametrize("n", [*range(1, 8), pytest.param(8, marks=pytest.mark.slow)])
def test_catalog_utc_sizes_match_per_representative_oracle(n):
    rep_codes, sizes, _ = catalog(n)
    assert np.array_equal(sizes, per_representative_utc_sizes(n, rep_codes))
    if n <= 7:  # and the number of codes sharing each representative's utc code
        values, counts = np.unique(canonical_utc_table(n), return_counts=True)
        utc = canonical_utc_table(n)[rep_codes]
        assert np.array_equal(sizes, counts[np.searchsorted(values, utc)])


@pytest.mark.parametrize("n", range(1, 7))
def test_catalog_orbit_sizes_count_distinct_relabelings(n):
    """n!/|Aut g| is the number of distinct codes among g's relabelings;
    a class's iso-utc size is that, or twice that, and the orbits
    partition the code space."""
    rep_codes, utc_sizes, orbit_sizes = catalog(n)
    distinct = [len(np.unique(relabelings(n, g))) for g in rep_codes.tolist()]
    assert orbit_sizes.tolist() == distinct
    assert set((utc_sizes // orbit_sizes).tolist()) <= {1, 2}
    assert int(orbit_sizes.sum()) == 1 << comb(n, 2)


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
    expected = np.zeros(len(codes), dtype=np.int64)
    for a, b, c in combinations(range(n), 3):
        ab, ac, bc = (x + y * (y - 1) // 2 for x, y in ((a, b), (a, c), (b, c)))
        s = (codes >> ab & 1) + (codes >> ac & 1) + (codes >> bc & 1)
        expected += (s == 0) | (s == 3)
    assert np.array_equal(signature_table("h3", n), expected)


@pytest.mark.parametrize("n", range(1, 6))
def test_signature_tables_match_graph_invariants(n):
    """Reference: edge counts and a0 of each code's Graph, by enumeration."""
    graphs = [Graph.from_code(n, c) for c in range(1 << comb(n, 2))]
    kk = comb(n, 2)
    edges = [g.edge_count for g in graphs]
    expected = {
        "parity": [e % 2 for e in edges],
        "parity_utc": [e % 2 if kk % 2 == 0 else 0 for e in edges],
        "edges": [min(e, kk - e) for e in edges],
        "a0": [invariants(g).a0 for g in graphs],
        "iso": canonical_table(n).tolist(),
        "utc": canonical_utc_table(n).tolist(),
    }
    for kind, values in expected.items():
        assert signature_table(kind, n).tolist() == values, kind


@pytest.mark.parametrize("n", range(1, 7))
def test_clawfree_both_table_matches_graph_loop(n):
    """The claw-free sweep's 4-subset claw check, applied to every code,
    against the per-code loop over Graph objects."""
    assert (~_has_claw(n, all_codes(n))).tolist() == clawfree_both(n).tolist()


@pytest.mark.parametrize("table", [dest_weights, catalog, canonical_table, canonical_utc_table])
def test_validation_float_order_after_numpy_order(table):
    # cache keys compare by value, and (np.int64(4),) equals (4.0,) with the
    # same hash: a float order must not hit the entry of a numpy order
    table(np.int64(4))
    for bad in (4.0, 4.5):
        with pytest.raises(TypeError):
            table(bad)
