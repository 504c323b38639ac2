from collections import Counter
from itertools import permutations

import pytest

from recomp import isomorphism
from recomp.codes import canonical_table, canonical_utc_table
from recomp.constructions import circulant, paley_graph
from recomp.errors import OrderMismatch, OrderTooLarge
from recomp.graphs import Graph, bits_of, complement
from recomp.isomorphism import (
    IsoUtcKind,
    canonical_form,
    canonical_form_utc,
    find_isomorphism,
    is_self_complementary,
    is_vertex_transitive,
    isomorphic_up_to_complementation,
)


def apply_perm(g: Graph, perm) -> Graph:
    return Graph.from_edges(g.n, [(perm[a], perm[b]) for a, b in g.edges()])


def brute_isomorphic(g: Graph, h: Graph):
    """Oracle: scan all permutations in lex order."""
    for perm in permutations(range(g.n)):
        if apply_perm(g, perm) == h:
            return perm
    return None


def test_witness_is_valid(rng):
    for _ in range(50):
        n = rng.randint(2, 9)
        g = Graph.random(n, rng)
        perm = tuple(rng.sample(range(n), n))
        h = apply_perm(g, perm)
        w = find_isomorphism(g, h)
        assert w is not None
        assert apply_perm(g, w) == h


def test_spec_cases():
    c5 = Graph.cycle(5)
    relabeled = apply_perm(c5, (2, 0, 3, 1, 4))
    assert find_isomorphism(c5, relabeled) is not None
    path = Graph.path(4)
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert find_isomorphism(path, star) is None
    with pytest.raises(OrderMismatch):
        find_isomorphism(c5, path)


def test_lex_least_witness_small(rng):
    for _ in range(40):
        n = rng.randint(2, 6)
        g = Graph.random(n, rng)
        h = apply_perm(g, tuple(rng.sample(range(n), n)))
        assert find_isomorphism(g, h) == brute_isomorphic(g, h)


def test_brute_force_agreement_on_nonisomorphic(rng):
    for _ in range(60):
        n = rng.randint(3, 6)
        g, h = Graph.random(n, rng), Graph.random(n, rng)
        assert (find_isomorphism(g, h) is not None) == (brute_isomorphic(g, h) is not None)


def test_equivalence_relation(rng):
    for _ in range(200):
        n = rng.randint(2, 7)
        g = Graph.random(n, rng)
        h = apply_perm(g, tuple(rng.sample(range(n), n)))
        f = apply_perm(g, tuple(rng.sample(range(n), n)))
        w_gg = find_isomorphism(g, g)
        assert w_gg is not None and apply_perm(g, w_gg) == g
        w_gh = find_isomorphism(g, h)
        assert w_gh is not None
        inv = tuple(w_gh.index(i) for i in range(n))
        assert apply_perm(h, inv) == g  # symmetry via witness inversion
        w_hf = find_isomorphism(h, f)
        composed = tuple(w_hf[w_gh[i]] for i in range(n))
        assert apply_perm(g, composed) == f  # transitivity via composition


def test_refinement_path_large_orders(rng):
    for n in (10, 12, 14, 20):
        g = Graph.random(n, rng)
        h = apply_perm(g, tuple(rng.sample(range(n), n)))
        w = find_isomorphism(g, h)
        assert w is not None and apply_perm(g, w) == h
    g = Graph.random(12, rng)
    h = Graph.random(12, rng)
    if g.edge_count != h.edge_count:
        assert find_isomorphism(g, h) is None


def test_agrees_with_networkx(rng):
    nx = pytest.importorskip("networkx")

    def to_nx(g: Graph):
        out = nx.Graph()
        out.add_nodes_from(range(g.n))
        out.add_edges_from(g.edges())
        return out

    for _ in range(120):
        n = rng.randint(1, 10)
        g = Graph.random(n, rng, rng.choice((0.2, 0.5, 0.8)))
        relabeled = apply_perm(g, tuple(rng.sample(range(n), n)))
        other = Graph.random(n, rng, rng.choice((0.2, 0.5, 0.8)))
        for h in (relabeled, other):
            w = find_isomorphism(g, h)
            assert (w is not None) == nx.is_isomorphic(to_nx(g), to_nx(h))
            assert w is None or apply_perm(g, w) == h


def test_order_cap():
    with pytest.raises(OrderTooLarge):
        find_isomorphism(Graph.empty(33), Graph.empty(33))
    for canon in (canonical_form, canonical_form_utc):
        with pytest.raises(OrderTooLarge):
            canon(Graph.empty(9))


def test_paley5_is_c5():
    from recomp.constructions import paley_graph

    assert find_isomorphism(paley_graph(5), Graph.cycle(5)) is not None


def test_utc_verdicts():
    c5 = Graph.cycle(5)
    assert isomorphic_up_to_complementation(c5, c5).kind is IsoUtcKind.BOTH
    g = Graph.from_edges(6, [(0, 1), (2, 3), (3, 4)])
    v = isomorphic_up_to_complementation(g, complement(g))
    assert v.kind in (IsoUtcKind.ISO_TO_COMPLEMENT, IsoUtcKind.BOTH)
    assert v.to_complement is not None
    # the complement of triangle-plus-isolated-vertex IS a claw (star at
    # the isolated vertex), so that pair is IsoToComplement
    k3_iso = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)])
    claw = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    v = isomorphic_up_to_complementation(k3_iso, claw)
    assert v.kind is IsoUtcKind.ISO_TO_COMPLEMENT and v.to_complement is not None
    # a genuine Neither pair: the self-complementary 4-path vs the claw
    assert isomorphic_up_to_complementation(Graph.path(4), claw).kind is IsoUtcKind.NEITHER


def test_canonical_form_utc_invariance(rng):
    for _ in range(100):
        n = rng.randint(1, 7)
        g = Graph.random(n, rng)
        assert canonical_form_utc(g) == canonical_form_utc(complement(g))
        h = apply_perm(g, tuple(rng.sample(range(n), n)))
        assert canonical_form_utc(g) == canonical_form_utc(h)
        assert canonical_form(g) == canonical_form(h)


def test_canonical_form_is_min_over_all_perms(rng):
    for _ in range(30):
        n = rng.randint(1, 5)
        g = Graph.random(n, rng)
        codes = {apply_perm(g, p).code for p in permutations(range(n))}
        assert canonical_form(g) == min(codes)
        codes_utc = codes | {apply_perm(complement(g), p).code for p in permutations(range(n))}
        assert canonical_form_utc(g) == min(codes_utc)


def test_canonical_forms_match_tables():
    for n in range(1, 6):
        table, utc = canonical_table(n), canonical_utc_table(n)
        for code in range(len(table)):
            g = Graph.from_code(n, code)
            assert canonical_form(g) == table[code]
            assert canonical_form_utc(g) == utc[code]


def test_order4_has_6_utc_classes_and_11_iso_classes():
    # oracle: brute-force pairwise partition of all 64 labeled graphs
    graphs = [Graph.from_code(4, c) for c in range(64)]
    iso_classes: list[Graph] = []
    utc_classes: list[Graph] = []
    for g in graphs:
        if all(brute_isomorphic(g, r) is None for r in iso_classes):
            iso_classes.append(g)
        if all(
            brute_isomorphic(g, r) is None and brute_isomorphic(complement(g), r) is None
            for r in utc_classes
        ):
            utc_classes.append(g)
    assert len(iso_classes) == 11
    assert len(utc_classes) == 6
    # canonical codes induce the same partitions
    assert len({canonical_form(g) for g in graphs}) == 11
    assert len({canonical_form_utc(g) for g in graphs}) == 6


def test_canonical_utc_c5_equals_paley5():
    from recomp.constructions import paley_graph

    assert canonical_form_utc(Graph.cycle(5)) == canonical_form_utc(paley_graph(5))


def test_self_complementary():
    assert is_self_complementary(Graph.path(4))
    assert is_self_complementary(Graph.cycle(5))
    assert not is_self_complementary(Graph.complete(4))


def test_vertex_transitive():
    assert is_vertex_transitive(Graph.cycle(5))
    assert is_vertex_transitive(Graph.complete(4))
    assert is_vertex_transitive(Graph.empty(6))
    assert not is_vertex_transitive(Graph.path(4))
    assert not is_vertex_transitive(Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]))


def test_pinned_search():
    c6 = Graph.cycle(6)
    w = find_isomorphism(c6, c6, fixed={0: 3})
    assert w is not None and w[0] == 3
    path = Graph.path(4)
    assert find_isomorphism(path, path, fixed={0: 1}) is None  # endpoint to center


def reference_refine_pair(gadj, hadj, fixed):
    """Joint refinement with each signature the color and the sorted
    colors of the neighbors, recomputed from the adjacency bits."""
    n = len(gadj)
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
        for col, new, adj in ((gcol, newg, gadj), (hcol, newh, hadj)):
            for v in range(n):
                sig = (col[v], tuple(sorted(col[u] for u in bits_of(adj[v]))))
                new[v] = sig_ids.setdefault(sig, len(sig_ids))
        if Counter(newg) != Counter(newh):
            return None
        gcol, hcol = newg, newh
        if len(sig_ids) == ncolors:
            return gcol, hcol
        ncolors = len(sig_ids)


def _refinement_cases(rng):
    """Seeded random pairs, relabeled copies, and regular graphs against
    relabeled copies and other regular graphs of the same order."""
    for n in range(1, 17):
        for _ in range(3):
            g = Graph.random(n, rng, rng.uniform(0.2, 0.8))
            perm = rng.sample(range(n), n)
            yield g, Graph.random(n, rng, rng.uniform(0.2, 0.8))
            yield g, apply_perm(g, perm)
            yield g, apply_perm(complement(g), perm)
        if n >= 5:
            a = circulant(n, [1, 2])
            yield a, apply_perm(a, perm)
            yield a, circulant(n, [1, n // 2 - 1 if n >= 6 else 2])
            yield Graph.cycle(n), apply_perm(Graph.cycle(n), perm)
    for q in (5, 9, 13):
        p = paley_graph(q)
        yield p, apply_perm(p, rng.sample(range(q), q))
        yield p, complement(p)


def test_refinement_matches_sorted_signature_reference(rng, monkeypatch):
    cases = list(_refinement_cases(rng))
    pins = []
    for g, h in cases:
        n = g.n
        fixed = [None, {0: rng.randrange(n)}]
        if n >= 3:
            fixed.append({1: rng.randrange(n), n - 1: rng.randrange(n)})
        pins.append(fixed)
        for pin in fixed:
            assert isomorphism._refine_pair(g.adj, h.adj, pin) == reference_refine_pair(g.adj, h.adj, pin)
    found = [[find_isomorphism(g, h, pin) for pin in fixed] for (g, h), fixed in zip(cases, pins)]
    assert any(w is not None for row in found for w in row)
    monkeypatch.setattr(isomorphism, "_refine_pair", reference_refine_pair)
    want = [[find_isomorphism(g, h, pin) for pin in fixed] for (g, h), fixed in zip(cases, pins)]
    assert found == want
