import random
from itertools import combinations
from math import comb

import numpy as np
import pytest

from recomp.errors import DomainError, EmptySubset, OrderMismatch
from recomp.graph6 import decode, encode
from recomp.graphs import (
    BipartiteKernelClass,
    Graph,
    boolean_sum,
    classify_bipartite_kernel,
    complement,
    induced,
    invariants,
    is_claw_free,
    is_complete_bipartite,
    is_regular,
)

from graph_reference import (
    complete_bipartite_by_components,
    homogeneous_triples,
    intersection,
    mask_of,
    restriction_code,
    rowwise_code,
    rowwise_fault,
    rowwise_rows,
    subgraph_edge_count,
)


def test_graph_validation():
    with pytest.raises(DomainError):
        Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(DomainError):
        Graph(2, (0b01, 0b10))  # diagonal bits
    with pytest.raises(DomainError):
        Graph(2, (0b100, 0b000))  # bits beyond order
    with pytest.raises(DomainError):
        Graph(0, ())
    with pytest.raises(DomainError):
        Graph.from_edges(3, [(1, 1)])


def test_code_roundtrip(rng):
    for _ in range(100):
        n = rng.randint(1, 20)
        g = Graph.random(n, rng)
        assert Graph.from_code(n, g.code) == g


# Reference implementations: pair by pair in colex order, and the
# row-by-row symmetry scan, independent of the packed transpose.


def reference_pairs(n):
    return [(i, j) for j in range(n) for i in range(j)]  # colex: rank i + C(j, 2)


def reference_code(rows):
    return sum(1 << r for r, (i, j) in enumerate(reference_pairs(len(rows))) if rows[i] >> j & 1)


def reference_rows(n, code):
    rows = [0] * n
    for r, (i, j) in enumerate(reference_pairs(n)):
        if code >> r & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return tuple(rows)


def reference_asymmetry(rows):
    """Message for the first (i, j), row by row, with j in row i but not i in row j."""
    for i, row in enumerate(rows):
        for j in range(len(rows)):
            if row >> j & 1 and not rows[j] >> i & 1:
                return f"asymmetric adjacency at {{{i},{j}}}"
    return None


def random_code(n, p, rng):
    return sum(1 << r for r in range(comb(n, 2)) if rng.random() < p)


def check_code_and_rows(n, code):
    rows = reference_rows(n, code)
    g = Graph(n, rows)
    assert g.code == code == reference_code(rows)
    assert Graph.from_code(n, code).adj == rows


@pytest.mark.parametrize("n", range(1, 65))
def test_code_and_from_code_match_reference(n, rng):
    for p in (0, 0.1, 0.5, 0.9, 1):
        check_code_and_rows(n, random_code(n, p, rng))


@pytest.mark.parametrize("n", range(1, 6))
def test_every_code_matches_reference(n):
    for code in range(1 << comb(n, 2)):
        check_code_and_rows(n, code)


def flip_positions(n, rng):
    pos = [(i, j) for i in range(n) for j in range(n) if i != j]
    return pos if n <= 10 else rng.sample(pos, 200)


@pytest.mark.parametrize("n", [*range(2, 11), 63, 64])
def test_validation_asymmetry_names_the_reference_pair(n, rng):
    for p in (0, 0.5, 1):
        rows = reference_rows(n, random_code(n, p, rng))
        for i, j in flip_positions(n, rng):
            bad = list(rows)
            bad[i] ^= 1 << j
            with pytest.raises(DomainError) as err:
                Graph(n, tuple(bad))
            assert str(err.value) == reference_asymmetry(bad)
        for _ in range(20):  # several flips: the first pair row by row is named
            bad = list(rows)
            positions = flip_positions(n, rng)
            for i, j in rng.sample(positions, min(5, len(positions))):
                bad[i] ^= 1 << j
            message = reference_asymmetry(bad)
            if message is None:
                Graph(n, tuple(bad))
                continue
            with pytest.raises(DomainError) as err:
                Graph(n, tuple(bad))
            assert str(err.value) == message


def test_validation_order_of_checks():
    cases = [
        (2, (0b10,), "adjacency row count must equal the order"),
        (3, (0b110, 0b1000, 0b001), "row 1 has bits at or beyond the order"),
        (3, (0b010, 0b011, 0b100), "nonzero diagonal at vertex 1"),
        (3, (0b1010, 0b010, 0b000), "row 0 has bits at or beyond the order"),
        (3, (0b100, 0b100, 0b000), "asymmetric adjacency at {0,2}"),
        (65, (0,) * 65, "order must be in 1..64, got 65"),
    ]
    for n, rows, message in cases:
        with pytest.raises(DomainError) as err:
            Graph(n, rows)
        assert str(err.value) == message


def test_validation_constructor_orders(rng):
    """Every constructor rejects the order before it builds rows or edges,
    so a huge order costs nothing."""
    constructors = [
        lambda n: Graph.from_edges(n, []),
        Graph.empty,
        Graph.complete,
        Graph.cycle,
        Graph.path,
        lambda n: Graph.random(n, rng),
    ]
    for n in (65, 10**30):
        for make in constructors:
            with pytest.raises(DomainError) as err:
                make(n)
            assert str(err.value) == f"order must be in 1..64, got {n}"


def test_validation_float_order_after_numpy_order():
    # cached packings are found by value, and np.int64(5) == 5.0, so the
    # order's type is checked before the cache on every call
    assert Graph.empty(np.int64(5)) == Graph.empty(5)
    for n in (5.0, np.float64(5)):
        with pytest.raises(TypeError):
            Graph(n, (0,) * 5)
        with pytest.raises(TypeError):
            Graph.from_edges(n, [(0, 1)])


@pytest.mark.parametrize("n", [1, 5, 31, 62, 63, 64])
def test_validation_numpy_integer_rows(n, rng):
    rows = reference_rows(n, random_code(n, 0.5, rng))
    dtype = np.uint64 if n == 64 else np.int64
    g = Graph(n, tuple(dtype(r) for r in rows))
    assert g == Graph(n, rows) and all(type(r) is int for r in g.adj)
    assert g.code == reference_code(rows)
    for i, j in rng.sample(flip_positions(n, rng), min(n * (n - 1), 40)):
        bad = list(rows)
        bad[i] ^= 1 << j
        with pytest.raises(DomainError) as err:
            Graph(n, tuple(dtype(r) for r in bad))
        assert str(err.value) == reference_asymmetry(bad)
    code = g.code
    if code < 1 << 63:
        assert Graph.from_code(n, np.int64(code)) == g


def test_validation_numpy_order_is_stored_as_int():
    # every constructor stores its order as an int, so records that carry
    # it serialize; a numpy order builds the same graph as the int one
    import json

    from recomp.constructions import paley_graph

    made = [
        lambda n: Graph(n, (0,) * n),
        lambda n: Graph.from_code(n, 5),
        lambda n: Graph.from_edges(n, [(0, 1), (1, 2)]),
        Graph.empty,
        Graph.complete,
        Graph.cycle,
        Graph.path,
        lambda n: Graph.random(n, random.Random(7)),
    ]
    for make in made:
        for n in (np.int64(5), np.uint8(5), np.int32(5)):
            g = make(n)
            assert type(g.n) is int and json.dumps(g.n) == "5"
            assert g == make(5)
    q = paley_graph(np.int64(5))
    assert type(q.n) is int and q == paley_graph(5)


def test_validation_from_code_rejects_codes_out_of_range():
    assert Graph.from_code(4, (1 << 6) - 1) == Graph.complete(4)
    for n, code in ((4, 1 << 6), (4, -1), (1, 1), (64, 1 << comb(64, 2))):
        with pytest.raises(DomainError):
            Graph.from_code(n, code)
    with pytest.raises(DomainError):
        Graph.from_code(65, 0)


def test_validation_from_edges_rejects_out_of_range_vertices():
    cases = [
        (3, [(0, 3)], "(0, 3)"),
        (3, [(-1, 1)], "(-1, 1)"),
        (3, [(1, -1)], "(1, -1)"),
        (3, [(0, 1), (5, 5)], "(5, 5)"),
        (64, [(0, 64)], "(0, 64)"),
        (3, zip([0, 7], [1, 2]), "(7, 2)"),  # a one-pass iterable, as the codec passes
    ]
    for n, edges, edge in cases:
        with pytest.raises(DomainError) as err:
            Graph.from_edges(n, edges)
        assert str(err.value) == f"edge {edge} has a vertex outside 0..{n - 1} for order {n}"
    with pytest.raises(DomainError, match="loop at vertex 1"):
        Graph.from_edges(3, [(0, 2), (1, 1)])
    with pytest.raises(ValueError, match="unpack"):  # malformed edges keep their own error
        Graph.from_edges(3, [(0, 1), (0, 1, 2)])
    assert Graph.from_edges(3, iter([(0, 2), (2, 1)])) == Graph(3, (0b100, 0b100, 0b011))


def test_validation_from_edges_numpy_vertices():
    # numpy integers index the rows and the vertex bits like ints; a
    # negative one is out of range, not a row counted from the end
    def out_of_range(n, edge):
        return f"edge {edge} has a vertex outside 0..{n - 1} for order {n}"

    cases = [
        (3, [(np.int64(-1), np.int64(-2))], "(-1, -2)"),
        (3, [(np.int64(-1), np.int64(1)), (2, 1)], "(-1, 1)"),
        (3, [(np.int64(1), np.int64(-1))], "(1, -1)"),
        (3, [(np.uint8(0), np.uint8(3))], "(0, 3)"),
        (64, [(np.int64(0), np.int64(64))], "(0, 64)"),
    ]
    for n, edges, edge in cases:
        with pytest.raises(DomainError) as err:
            Graph.from_edges(n, edges)
        assert str(err.value) == out_of_range(n, edge)
    assert Graph.from_edges(64, [(np.int64(0), np.int64(63))]) == Graph.from_edges(64, [(0, 63)])
    for dtype in (np.uint8, np.int32, np.uint64):
        assert Graph.from_edges(64, [(dtype(0), dtype(40))]) == Graph.from_edges(64, [(0, 40)])
        assert Graph.from_edges(64, zip(*np.array([[0, 5], [63, 40]], dtype=dtype))) == Graph.from_edges(
            64, [(0, 63), (5, 40)]
        )


def faulty_rows(n, rows, rng):
    """Copies of valid rows with faults of each kind, alone and combined."""
    w = 1 << max(3, (n - 1).bit_length())
    for _ in range(12):
        bad = list(rows)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(n)
            kind = rng.randrange(6)
            if kind == 0 and n < w:
                bad[i] |= 1 << rng.randrange(n, w)  # beyond the order, inside the row's bytes
            elif kind == 1:
                bad[i] |= 1 << rng.randrange(w, 2 * w + 3)  # beyond the row's bytes
            elif kind == 2:
                bad[i] = -1 - bad[i]  # negative
            elif kind == 3:
                bad[i] ^= 1 << i  # diagonal
            elif n > 1:
                bad[i] ^= 1 << rng.choice([j for j in range(n) if j != i])  # asymmetric
        yield bad


@pytest.mark.parametrize("n", range(1, 65))
def test_validation_matches_rowwise_oracle(n, rng):
    for p in (0, 0.1, 0.5, 0.9, 1):
        code = random_code(n, p, rng)
        rows = rowwise_rows(n, code)
        g = Graph(n, rows)
        assert g.adj == rows and rowwise_fault(n, rows) is None
        assert g.code == rowwise_code(rows) == code
        assert Graph.from_code(n, code) == g
        for bad in faulty_rows(n, rows, rng):
            message = rowwise_fault(n, bad)
            if message is None:
                assert Graph(n, tuple(bad)).adj == tuple(bad)
                continue
            with pytest.raises(DomainError) as err:
                Graph(n, tuple(bad))
            assert str(err.value) == message
    for code in (-1, -(1 << 70), 1 << comb(n, 2), (1 << comb(n, 2) + 5) - 1):
        with pytest.raises(DomainError) as err:
            rowwise_rows(n, code)
        with pytest.raises(DomainError) as ours:
            Graph.from_code(n, code)
        assert str(ours.value) == str(err.value)


def rechecked(g):
    """g, after checking that the public constructor accepts its rows and
    gives g back, and that they are a tuple of ints."""
    assert type(g.adj) is tuple and all(type(r) is int for r in g.adj)
    assert Graph(g.n, g.adj) == g
    return g


@pytest.mark.parametrize("n", range(1, 65))
def test_validation_built_graphs_pass_the_check(n, rng):
    """The constructors that build rows valid by construction skip the
    public check; re-run it on each of their outputs: `from_code`, graph6
    `decode`, `from_edges` (repeated edges, reversed pairs, numpy
    vertices), `complement`, `boolean_sum`, `empty`, `complete`, and
    `induced` (a tuple, an int mask, numpy ints, a numpy mask)."""
    assert rechecked(Graph.empty(n)).edge_count == 0
    assert rechecked(Graph.complete(n)).edge_count == comb(n, 2)
    for p in (0, 0.1, 0.5, 0.9, 1):
        code = random_code(n, p, rng)
        g = rechecked(Graph.from_code(n, code))
        assert g.code == code
        assert rechecked(decode(encode(g))) == g
        # every other edge only reversed, then repeats of both orientations
        flipped = [(j, i) if r % 2 else (i, j) for r, (i, j) in enumerate(g.edges())]
        messy = flipped + flipped[::3] + [(j, i) for i, j in flipped[::4]]
        rng.shuffle(messy)
        assert rechecked(Graph.from_edges(n, messy)) == g
        for dtype in (np.uint8, np.int64, np.uint64):
            numpy_edges = [(dtype(i), dtype(j)) for i, j in messy]
            assert rechecked(Graph.from_edges(n, numpy_edges)) == g
        h = rechecked(Graph.from_code(n, random_code(n, 0.5, rng)))
        assert rechecked(complement(g)).code == code ^ (1 << comb(n, 2)) - 1
        assert rechecked(boolean_sum(g, h)).code == code ^ h.code
        sub = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
        want = Graph.from_code(len(sub), restriction_code(g, sub))
        assert rechecked(induced(g, sub)) == want
        assert rechecked(induced(g, mask_of(sub))) == want
        assert rechecked(induced(g, np.uint64(mask_of(sub)))) == want
        assert rechecked(induced(g, [np.int64(v) for v in sub[::-1]])) == want
        assert rechecked(induced(g, np.array(sub, dtype=np.uint8))) == want


def test_complement_of_empty_is_complete():
    assert complement(Graph.empty(3)) == Graph.complete(3)


def test_complement_of_c5_is_c5_relabeled():
    # direct check: the complement of the 5-cycle 0-1-2-3-4-0 is the
    # 5-cycle 0-2-4-1-3-0
    cc = complement(Graph.cycle(5))
    assert cc.edge_count == 5
    expected = Graph.from_edges(5, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)])
    assert cc == expected


def test_complement_involutive(rng):
    for _ in range(100):
        g = Graph.random(rng.randint(1, 16), rng)
        assert complement(complement(g)) == g


def test_boolean_sum_basics(rng):
    g = Graph.random(7, rng)
    assert boolean_sum(g, g) == Graph.empty(7)
    assert boolean_sum(g, complement(g)) == Graph.complete(7)
    with pytest.raises(OrderMismatch):
        boolean_sum(g, Graph.empty(6))


def test_boolean_sum_edge_identity(rng):
    # e(g + h) = e(g) + e(h) - 2 e(g & h)
    for _ in range(100):
        n = rng.randint(2, 12)
        g, h = Graph.random(n, rng), Graph.random(n, rng)
        u = boolean_sum(g, h)
        assert u.edge_count == g.edge_count + h.edge_count - 2 * intersection(g, h).edge_count


def test_boolean_sum_algebra(rng):
    for _ in range(30):
        n = rng.randint(2, 10)
        g, h, f = (Graph.random(n, rng) for _ in range(3))
        assert boolean_sum(g, h) == boolean_sum(h, g)
        assert boolean_sum(boolean_sum(g, h), f) == boolean_sum(g, boolean_sum(h, f))
        assert boolean_sum(g, Graph.empty(n)) == g


def test_induced():
    assert induced(Graph.complete(5), (0, 2, 4)) == Graph.complete(3)
    c5 = Graph.cycle(5)
    assert induced(c5, (0, 1, 2)) == Graph.from_edges(3, [(0, 1), (1, 2)])
    assert induced(c5, range(5)) == c5
    with pytest.raises(EmptySubset):
        induced(c5, ())
    with pytest.raises(DomainError):
        induced(c5, (0, 7))


def test_induced_validation_rejects_negative_mask():
    # a negative int has infinitely many set bits: it must raise, not loop
    c5 = Graph.cycle(5)
    for mask in (-1, -2, -(1 << 70), np.int64(-1)):
        with pytest.raises(DomainError, match="non-negative"):
            induced(c5, mask)
    assert induced(c5, 0b111) == Graph.from_edges(3, [(0, 1), (1, 2)])


def test_homogeneous_triples_matches_per_triple_count(rng):
    for n in range(1, 14):
        for p in (0.0, 0.3, 0.7, 1.0):
            g = Graph.random(n, rng, p)
            want = {
                t for t in combinations(range(n), 3) if subgraph_edge_count(g, mask_of(t)) in (0, 3)
            }
            assert homogeneous_triples(g) == want


def test_induced_preserves_label_order(rng):
    g = Graph.random(9, rng)
    sub = (1, 4, 6, 8)
    h = induced(g, sub)
    for a, b in combinations(range(4), 2):
        assert h.has_edge(a, b) == g.has_edge(sub[a], sub[b])


def test_induced_matches_restriction_code(rng):
    # the byte-compressed rows against the pair-by-pair restriction code,
    # for subsets given as tuples, masks and numpy ints, at orders that
    # span one to eight bytes of each row
    for n in (1, 2, 7, 8, 9, 13, 16, 17, 31, 40, 63, 64):
        g = Graph.random(n, rng, rng.choice((0.2, 0.5, 0.9)))
        for k in {1, min(2, n), max(1, n // 2), max(1, n - 1), n}:
            sub = tuple(sorted(rng.sample(range(n), k)))
            want = Graph.from_code(k, restriction_code(g, sub))
            assert induced(g, sub) == want
            assert induced(g, mask_of(sub)) == want
            assert induced(g, np.array(sub[::-1])) == want
    # every compress table, entry by entry
    from recomp.graphs import _byte_extract

    for mask in range(256):
        kept = [b for b in range(8) if mask >> b & 1]
        want = [sum((x >> b & 1) << i for i, b in enumerate(kept)) for x in range(256)]
        assert list(_byte_extract(mask)) == want


def test_subgraph_edge_count_matches_induced(rng):
    for _ in range(100):
        n = rng.randint(2, 14)
        g = Graph.random(n, rng)
        k = rng.randint(1, n)
        sub = tuple(sorted(rng.sample(range(n), k)))
        assert subgraph_edge_count(g, mask_of(sub)) == induced(g, sub).edge_count


def test_invariants_single_edge_on_4():
    # hand enumeration: the 5 {edge, non-edge} pairs of K = one edge on
    # 4 vertices; the complement's triangles are {0,2,3} and {1,2,3}
    b = invariants(Graph.from_edges(4, [(0, 1)]))
    assert (b.e, b.e_bar, b.a2, b.a0, b.a1, b.h3) == (1, 5, 5, 1, 4, 2)


def test_invariants_c5():
    b = invariants(Graph.cycle(5))
    assert (b.a2, b.a1, b.a0, b.h3) == (25, 20, 5, 0)


def test_invariants_k4():
    b = invariants(Graph.complete(4))
    assert b.a2 == 0 and b.h3 == 4 and b.t == 4


def test_invariant_bundle_identities(rng):
    for _ in range(200):
        n = rng.randint(2, 11)
        g = Graph.random(n, rng)
        b = invariants(g)
        bc = invariants(complement(g))
        assert (b.a0, b.a1, b.a2, b.h3) == (bc.a0, bc.a1, bc.a2, bc.h3)
        assert b.a2 == b.a0 + b.a1 == b.e * b.e_bar
        assert b.e + b.e_bar == n * (n - 1) // 2
        assert b.a1 == sum(g.degree(x) * (n - 1 - g.degree(x)) for x in range(n))
        assert b.a1 % 2 == 0
        assert b.h3 == comb(n, 3) - b.a1 // 2


def test_degree_and_regularity():
    c5 = Graph.cycle(5)
    assert c5.degree(0) == 2 and is_regular(c5)
    assert not is_regular(Graph.path(4))


def test_claw_free():
    claw = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert not is_claw_free(claw)
    assert is_claw_free(Graph.complete(4))
    star5 = Graph.from_edges(5, [(0, i) for i in range(1, 5)])
    assert not is_claw_free(star5)
    assert is_claw_free(Graph.cycle(6))


def test_claw_free_matches_brute_force(rng):
    def brute(g):
        for quad in combinations(range(g.n), 4):
            for center in quad:
                leaves = [x for x in quad if x != center]
                if all(g.has_edge(center, x) for x in leaves) and not any(
                    g.has_edge(a, b) for a, b in combinations(leaves, 2)
                ):
                    return False
        return True

    for _ in range(150):
        g = Graph.random(rng.randint(4, 9), rng)
        assert is_claw_free(g) == brute(g)


def test_complete_bipartite_check():
    assert is_complete_bipartite(Graph.empty(4))
    assert is_complete_bipartite(Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]))
    assert is_complete_bipartite(Graph.cycle(4))  # K_{2,2}
    assert not is_complete_bipartite(Graph.cycle(5))
    two_k2 = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert not is_complete_bipartite(two_k2)
    assert is_complete_bipartite(complement(two_k2))


def _reference_kernel_class(g: Graph) -> BipartiteKernelClass:
    B = BipartiteKernelClass
    if g.edge_count in (0, comb(g.n, 2)):
        return B.BOTH
    cb = complete_bipartite_by_components(g)
    cc = complete_bipartite_by_components(complement(g))
    return {
        (True, True): B.BOTH,
        (True, False): B.COMPLETE_BIPARTITE,
        (False, True): B.COMPLEMENT_OF_COMPLETE_BIPARTITE,
        (False, False): B.NEITHER,
    }[cb, cc]


def _planted_complete_bipartite(n: int, a: int, rng) -> Graph:
    """K_{a, n-a} with its parts scattered by a random relabeling."""
    perm = list(range(n))
    rng.shuffle(perm)
    part = set(perm[:a])
    edges = [(i, j) for i, j in combinations(range(n), 2) if (i in part) != (j in part)]
    return Graph.from_edges(n, edges)


def test_complete_bipartite_matches_component_oracle(rng):
    every_small = (Graph.from_code(n, c) for n in range(1, 7) for c in range(1 << comb(n, 2)))
    planted = [_planted_complete_bipartite(n, a, rng) for n in range(1, 25) for a in range(n + 1)]
    densities = (0.1, 0.5, 0.9)
    randoms = [Graph.random(n, rng, p) for n in range(1, 25) for p in densities for _ in range(4)]
    assert all(is_complete_bipartite(g) for g in planted)
    for g in [*every_small, *planted, *map(complement, planted), *randoms]:
        assert is_complete_bipartite(g) == complete_bipartite_by_components(g), g
        assert classify_bipartite_kernel(g) is _reference_kernel_class(g), g


def test_classify_bipartite_kernel():
    B = BipartiteKernelClass
    assert classify_bipartite_kernel(Graph.empty(4)) is B.BOTH
    assert classify_bipartite_kernel(Graph.complete(5)) is B.BOTH
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert classify_bipartite_kernel(star) is B.COMPLETE_BIPARTITE
    assert classify_bipartite_kernel(complement(star)) is B.COMPLEMENT_OF_COMPLETE_BIPARTITE
    assert classify_bipartite_kernel(Graph.cycle(5)) is B.NEITHER
