from itertools import combinations
from math import comb

import numpy as np
import pytest

from recomp.errors import DomainError
from recomp.graphs import Graph, colex_masks
from recomp.graphs import classify_bipartite_kernel, BipartiteKernelClass
from recomp.incidence import (
    build_kneser,
    build_w,
    colex_subsets,
    kernel_graphs_mod2,
    rank_report,
    subset_rank,
    verify_kneser_nonsingular,
    wilson_rank_expected,
)
from recomp.linalg import rank_exact, rank_mod

from graph_reference import (
    mask_of,
    restriction_edge_counts_via_matrix,
    subgraph_edge_count,
    subset_unrank,
)


def test_subset_rank_examples():
    assert subset_rank({0, 1}) == 0
    assert subset_rank({1, 2}) == 2  # order {0,1},{0,2},{1,2},{0,3},...
    assert list(colex_subsets(4, 2)) == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]


def test_rank_unrank_roundtrip():
    for r in range(comb(8, 2)):
        assert subset_rank(subset_unrank(r, 2)) == r
    for size in (0, 1, 3, 5):
        for r in range(comb(7, size)):
            s = subset_unrank(r, size)
            assert len(s) == size and subset_rank(s) == r
    # the unrank reads binomials of vertices below 64, the largest order
    assert subset_unrank(comb(64, 3) - 1, 3) == (61, 62, 63)


def test_colex_enumeration_matches_unrank():
    for v in (5, 8):
        for k in range(v + 1):
            listed = list(colex_subsets(v, k))
            assert listed == [subset_unrank(r, k) for r in range(comb(v, k))]


def test_colex_order_matches_sorted_combinations():
    # colex order compares subsets by their reversed element tuples
    for v in range(11):
        for k in range(v + 2):
            want = sorted(combinations(range(v), k), key=lambda s: s[::-1])
            assert list(colex_subsets(v, k)) == want
            assert list(colex_masks(v, k)) == [mask_of(s) for s in want]


def test_build_w_shapes_and_entries():
    w = build_w(2, 4, 6)
    assert w.array.shape == (15, 15)
    for i in range(15):
        for j in range(15):
            t = set(subset_unrank(i, w.t))
            k = set(subset_unrank(j, w.k))
            assert w.array[i, j] == (1 if t <= k else 0)


def test_w22_is_identity():
    for v in (4, 6):
        w = build_w(2, 2, v)
        assert np.array_equal(w.array, np.eye(comb(v, 2), dtype=np.uint8))


def test_w0k_is_all_ones_row():
    w = build_w(0, 3, 6)
    assert w.array.shape == (1, 20) and w.array.sum() == 20


def test_w24_v6_row_and_column_sums():
    w = build_w(2, 4, 6)
    assert set(w.array.sum(axis=1).tolist()) == {6}  # C(v-2, k-2) = C(4,2)
    assert set(w.array.sum(axis=0).tolist()) == {6}  # C(k,2) = C(4,2)


def test_w_equals_kneser_after_complement_relabeling():
    for t, v in ((2, 6), (3, 7)):
        w = build_w(t, v - t, v)
        kn = build_kneser(t, v)
        full = (1 << v) - 1
        # column K of W corresponds to Kneser column indexed by V \ K
        perm = [
            subset_rank(full ^ mask_of(subset_unrank(j, w.k))) for j in range(w.array.shape[1])
        ]
        assert np.array_equal(w.array[:, np.argsort(perm)], kn.array)
        assert np.array_equal(kn.array, kn.array.T)


def test_gottlieb_kantor_examples():
    assert rank_report(2, 3, 6)["pass"] and build_w(2, 3, 6).exact_rank() == 15
    assert rank_report(2, 4, 8)["pass"] and build_w(2, 4, 8).exact_rank() == 28
    assert rank_report(1, 1, 3)["pass"]
    with pytest.raises(DomainError):
        rank_report(3, 4, 6)  # t > v - k


def test_gottlieb_kantor_sweep_small():
    for v in range(1, 9):
        for k in range(v + 1):
            for t in range(min(k, v - k) + 1):
                assert rank_report(t, k, v)["pass"]


def test_kneser_nonsingular():
    kn = build_kneser(1, 2)
    assert np.array_equal(kn.array, np.array([[0, 1], [1, 0]], dtype=np.uint8))
    assert verify_kneser_nonsingular(1, 2)
    assert verify_kneser_nonsingular(2, 4)
    assert verify_kneser_nonsingular(2, 6)
    with pytest.raises(DomainError):
        verify_kneser_nonsingular(4, 6)


def test_wilson_expected_values():
    assert wilson_rank_expected(2, 4, 6, 2) == 14 == comb(6, 2) - 1
    assert wilson_rank_expected(2, 5, 8, 2) == 20 == comb(8, 2) - 8
    # k = 0 (mod 4) gives C(v,2) - 1; k = 1 (mod 4) gives C(v,2) - v
    for v in range(6, 11):
        if v >= 6:
            assert wilson_rank_expected(2, 4, v, 2) == comb(v, 2) - 1
        if v >= 7:
            assert wilson_rank_expected(2, 5, v, 2) == comb(v, 2) - v


def test_wilson_formula_vs_elimination():
    assert rank_report(2, 4, 6, 2)["pass"]
    assert rank_report(2, 5, 8, 2)["pass"]
    assert rank_report(2, 3, 7, 2)["pass"]
    expected = wilson_rank_expected(2, 3, 7, 2)
    assert rank_mod(build_w(2, 3, 7).mod(2)) == expected == 15


def test_wilson_sweep_small():
    for v in range(4, 9):
        for k in range(2, v - 1):
            for p in (2, 3):
                assert rank_report(2, k, v, p)["pass"], (k, v, p)


def test_wilson_rank_never_exceeds_rational_rank(rng):
    for _ in range(10):
        v = rng.randint(4, 8)
        k = rng.randint(2, v - 2)
        w = build_w(2, k, v)
        assert rank_mod(w.mod(2)) <= rank_exact(w.array)


def test_kernel_k4_v6_is_empty_and_complete():
    kernel = kernel_graphs_mod2(4, 6)
    assert len(kernel) == 2
    assert {g.edge_count for g in kernel} == {0, 15}


def test_kernel_k5_v7_census():
    kernel = kernel_graphs_mod2(5, 7)
    assert len(kernel) == 2**7
    assert all(
        classify_bipartite_kernel(g) is not BipartiteKernelClass.NEITHER for g in kernel
    )
    codes = {g.code for g in kernel}
    for x in range(7):
        star = Graph.from_edges(7, [(x, i) for i in range(7) if i != x])
        assert star.code in codes


def test_kernel_k0mod4_sweep():
    # k = 0 (mod 4): the kernel holds exactly the empty and complete graphs
    for k, v in [(4, v) for v in range(6, 13)] + [(8, v) for v in (10, 11, 12)]:
        kernel = kernel_graphs_mod2(k, v)
        assert {g.edge_count for g in kernel} == {0, comb(v, 2)}, (k, v)


def test_kernel_k1mod4_sweep():
    # k = 1 (mod 4): 2^v kernel graphs, all complete bipartite or complements
    for k, v in [(5, v) for v in (7, 8, 9, 10)] + [(9, 11), (9, 12)]:
        kernel = kernel_graphs_mod2(k, v)
        assert len(kernel) == 2**v, (k, v)
        assert all(
            classify_bipartite_kernel(g) is not BipartiteKernelClass.NEITHER
            for g in kernel
        ), (k, v)


def test_edge_vector_product_identity(rng):
    # the row vector of a graph times W(2,k) lists restriction edge counts
    for _ in range(20):
        v = rng.randint(4, 8)
        k = rng.randint(2, v)
        g = Graph.random(v, rng)
        got = restriction_edge_counts_via_matrix(g, k)
        want = [subgraph_edge_count(g, mask_of(s)) for s in colex_subsets(v, k)]
        assert got == want


def test_rank_report_rows():
    row = rank_report(2, 4, 6, 2)
    assert row == {
        "t": 2,
        "k": 4,
        "v": 6,
        "field": 2,
        "expected_rank": 14,
        "computed_rank": 14,
        "pass": True,
    }
    row_q = rank_report(2, 3, 6)
    assert row_q["field"] == "Q" and row_q["pass"] and row_q["expected_rank"] == 15


def test_validation_subset_rank_reads_numpy_masks():
    # a numpy integer mask is a mask, not an iterable of elements
    for mask in (0, 0b111, 0b1011, 1 << 40 | 5):
        want = subset_rank(mask)
        assert want == subset_rank({i for i in range(64) if mask >> i & 1})
        for dtype in (np.int64, np.uint64):
            got = subset_rank(dtype(mask))
            assert got == want and type(got) is int


def test_validation_rank_report_fields_are_ints():
    # numpy arguments give the int-argument row, with int fields that
    # json.dumps takes
    for p in (None, 2, 3):
        want = rank_report(2, 3, 6, p)
        for dtype in (np.int64, np.uint8):
            got = rank_report(dtype(2), dtype(3), dtype(6), None if p is None else dtype(p))
            assert got == want
            ints = ("t", "k", "v", "expected_rank", "computed_rank") + ("field",) * (p is not None)
            assert all(type(got[key]) is int for key in ints)
        assert type(rank_report(np.int64(2), 3, 6, p)["t"]) is int


def test_rank_report_domain():
    """Both rank theorems need t <= min(k, v-k), and raise outside it
    rather than report a failed row; Wilson's formula needs a prime."""
    for t, k, v in ((2, 4, 5), (1, 1, 1), (3, 4, 6), (9, 2, 6)):
        for p in (None, 2):
            with pytest.raises(DomainError, match="min"):
                rank_report(t, k, v, p)
    with pytest.raises(DomainError, match="not prime"):
        rank_report(2, 4, 6, 4)
    # the only order cap is the one of build_w, v <= 16
    assert rank_report(1, 2, 13, 2)["pass"]
    with pytest.raises(DomainError, match="16"):
        rank_report(1, 2, 17)
