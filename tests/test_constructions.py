import json
from itertools import combinations

import numpy as np
import pytest

from recomp.errors import (
    DomainError,
    NotPrimePowerOneMod4,
    OrderTooLarge,
    VerificationError,
)
from recomp.graph6 import decode
from recomp.graphs import Graph, complement, is_regular
from recomp.hypomorphy import (
    equal_up_to_complementation,
    equality_threshold,
    k_hypomorphic,
    k_hypomorphic_utc,
    same_edge_counts_utc,
    same_parity_utc,
)
from recomp.isomorphism import (
    IsoUtcKind,
    find_isomorphism,
    is_self_complementary,
    is_vertex_transitive,
    isomorphic_up_to_complementation,
)
from recomp.constructions import (
    FiniteField,
    circulant,
    class_g_member,
    clique_pair_counterexample,
    cycle_swap_pair,
    five_cycle_deletion_pairs,
    k7_counterexample,
    lex_certifier,
    lex_product,
    paley_certifier,
    paley_graph,
    search_class_g,
    star_graph,
    star_parity_pair,
    threshold_pair,
    verify_class_g_characterization,
)

from theorem_reference import HypothesisNotMet, verify_equal_or_class_g


# -- finite fields ------------------------------------------------------------


@pytest.mark.parametrize("q", [5, 9, 13, 25, 49])
def test_field_axioms_spot_check(q, rng):
    f = FiniteField(q)
    elems = list(range(q))
    for _ in range(60):
        a, b, c = (rng.choice(elems) for _ in range(3))
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, f.neg(a)) == 0
    # every nonzero element has a multiplicative inverse
    for a in range(1, q):
        assert any(f.mul(a, b) == 1 for b in range(1, q))
    assert len(f.squares) == (q - 1) // 2


def test_field_fixed_irreducibles():
    assert FiniteField(9).c == 1  # x^2 + 1 over GF(3)
    assert FiniteField(25).c == 2  # x^2 + 2 over GF(5)
    with pytest.raises(DomainError):
        FiniteField(27)  # cube, unsupported extension degree
    with pytest.raises(DomainError):
        FiniteField(12)
    with pytest.raises(DomainError):
        FiniteField(4)  # no x^2 + c is irreducible over GF(2)


def test_field_least_nonsquare_domain():
    # GF(2) has no non-square: a domain error, not a bare StopIteration
    with pytest.raises(DomainError, match="no non-square"):
        FiniteField(2).least_nonsquare()
    for q in (3, 5, 7, 9, 13, 25):
        f = FiniteField(q)
        z = f.least_nonsquare()
        assert z not in f.squares and all(y in f.squares for y in range(1, z))


# -- Paley graphs -------------------------------------------------------------


def test_paley_5_is_the_5_cycle():
    p5 = paley_graph(5)
    # squares mod 5 are {1, 4}: exactly the cyclic neighbors
    assert p5 == Graph.cycle(5)


def test_paley_9():
    p9 = paley_graph(9)
    assert is_regular(p9) and p9.degree(0) == 4
    assert is_self_complementary(p9)


def test_paley_invalid_q():
    # the certifier checks q as the graph does: no certificate for a Paley
    # graph that does not exist
    for make in (paley_graph, paley_certifier):
        for bad in (2, 4, 7, 8, 12, 21):
            with pytest.raises(NotPrimePowerOneMod4):
                make(bad)
        with pytest.raises(DomainError):
            make(73)


@pytest.mark.parametrize("q", [5, 9, 13, 17, 25, 29])
def test_paley_regularity_and_edge_count(q):
    g = paley_graph(q)
    assert is_regular(g) and g.degree(0) == (q - 1) // 2
    assert g.edge_count == q * (q - 1) // 4


def test_paley_vertex_transitive_small():
    for q in (5, 9, 13):
        assert is_vertex_transitive(paley_graph(q))


# -- pairs --------------------------------------------------------------------


def test_clique_pair_even_odd_edge_counts():
    p4 = clique_pair_counterexample(4)
    assert complement(p4.g).edge_count == 4 and p4.g_prime.edge_count == 3
    p5 = clique_pair_counterexample(5)
    assert complement(p5.g).edge_count == 6 and p5.g_prime.edge_count == 5


@pytest.mark.parametrize("v", range(4, 10))
def test_clique_pair_full_verification(v):
    pair = clique_pair_counterexample(v)
    assert k_hypomorphic_utc(pair.g, pair.g_prime, 3).holds
    assert isomorphic_up_to_complementation(pair.g, pair.g_prime).kind is IsoUtcKind.NEITHER


@pytest.mark.parametrize("v", range(4, 10))
def test_cycle_swap_pair(v):
    pair = cycle_swap_pair(v)
    assert pair.g.edge_count == pair.g_prime.edge_count == v
    assert k_hypomorphic(pair.g, pair.g_prime, v - 1).holds
    assert k_hypomorphic(pair.g, pair.g_prime, v).holds
    assert not equal_up_to_complementation(pair.g, pair.g_prime)


def test_five_cycle_deletion_pairs():
    pairs = five_cycle_deletion_pairs()
    assert [p.g.n for p in pairs] == [4, 3]
    for pair in pairs:
        n = pair.g.n
        for k in range(1, n + 1):
            assert k_hypomorphic_utc(pair.g, pair.g_prime, k).holds
        assert not equal_up_to_complementation(pair.g, pair.g_prime)


@pytest.mark.parametrize("v", [9, 10])
def test_k7_counterexample(v):
    pair = k7_counterexample(v)
    assert same_edge_counts_utc(pair.g, pair.g_prime, 7).holds
    assert not equal_up_to_complementation(pair.g, pair.g_prime)
    with pytest.raises(DomainError):
        k7_counterexample(8)


def test_star_parity_pair():
    p36 = star_parity_pair(3, 6)
    assert p36.g == Graph.empty(6)  # k = 3 (mod 4): empty
    p68 = star_parity_pair(6, 8)
    assert p68.g == Graph.complete(8)  # k = 2 (mod 4): complete
    for pair, k in ((p36, 3), (p68, 6)):
        assert same_parity_utc(pair.g, pair.g_prime, k).holds
        assert isomorphic_up_to_complementation(pair.g, pair.g_prime).kind is IsoUtcKind.NEITHER
    with pytest.raises(DomainError):
        star_parity_pair(4, 8)
    with pytest.raises(DomainError):
        star_parity_pair(3, 4)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_threshold_pair_m5(r):
    pair = threshold_pair(5, r)
    v = 5 + r
    assert pair.g.n == v
    for k in range(equality_threshold(v) + 1, v + 1):
        assert k_hypomorphic_utc(pair.g, pair.g_prime, k).holds
    assert not equal_up_to_complementation(pair.g, pair.g_prime)


def test_threshold_pair_fails_inside_equality_range():
    # the v = 9 pair is not equal utc, so it cannot be k-hypomorphic utc
    # anywhere in the proven equality range 4 <= k <= threshold(9) = 5
    pair = threshold_pair(5, 4)
    for k in (4, 5):
        assert not k_hypomorphic_utc(pair.g, pair.g_prime, k).holds


def test_threshold_pair_m9():
    pair = threshold_pair(9, 2)
    assert pair.g.n == 11


def test_star_and_claw():
    assert star_graph(4) == Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    for v in (2, 5, 9):
        assert star_graph(v).edge_count == v - 1
    from recomp.graphs import is_complete_bipartite

    assert is_complete_bipartite(star_graph(5))


def test_pair_json_roundtrip():
    pair = clique_pair_counterexample(6)
    blob = pair.to_json()
    assert decode(blob["g"]) == pair.g
    assert decode(blob["g_prime"]) == pair.g_prime
    assert blob["provenance"]["construction"] == "clique-pair"
    assert "k-hypo-utc:3" in blob["verified"]


# -- lexicographic product ----------------------------------------------------


def test_lex_product_identity():
    h = Graph.cycle(5)
    assert find_isomorphism(lex_product(Graph.empty(1), h), h) is not None


def test_lex_product_edge_count(rng):
    for _ in range(20):
        g = Graph.random(rng.randint(1, 5), rng)
        h = Graph.random(rng.randint(1, 5), rng)
        if g.n * h.n > 64:
            continue
        prod = lex_product(g, h)
        assert prod.edge_count == h.n * g.edge_count + h.edge_count * g.n * g.n


def test_lex_product_vertex_indexing():
    g, h = Graph.from_edges(2, [(0, 1)]), Graph.from_edges(2, [(0, 1)])
    prod = lex_product(g, h)  # K2 into K2 is K4
    assert prod == Graph.complete(4)
    with pytest.raises(OrderTooLarge):
        lex_product(Graph.empty(9), Graph.empty(9))


def test_lex_product_of_paley5_is_self_complementary():
    prod = lex_product(paley_graph(5), paley_graph(5))
    assert prod.n == 25
    cert = lex_certifier(paley_certifier(5), paley_certifier(5), 5, 5)
    for x in (0, 7, 24):
        perm = cert(x)
        assert perm[x] == x
        for a, b in combinations(range(25), 2):
            assert prod.has_edge(a, b) != prod.has_edge(perm[a], perm[b])


# -- class G ------------------------------------------------------------------


def test_class_g_p5_search_path():
    res = class_g_member(paley_graph(5))
    assert res.is_member and res.deletion_witnesses is not None
    # every vertex-deleted 5-cycle is the self-complementary 4-path
    assert set(res.deletion_witnesses) == set(range(5))


def test_class_g_k5_fails():
    res = class_g_member(Graph.complete(5))
    assert not res.is_member and res.failed_vertex == 0


def test_class_g_certified_members():
    for q in (5, 9, 13):
        assert class_g_member(paley_graph(q), paley_certifier(q)).is_member


def test_class_g_lex_product_certified():
    prod = lex_product(paley_graph(5), paley_graph(5))
    cert = lex_certifier(paley_certifier(5), paley_certifier(5), 5, 5)
    res = class_g_member(prod, cert)
    assert res.is_member and set(res.certificates) == set(range(25))


def test_class_g_bad_certificate_is_loud():
    with pytest.raises(VerificationError):
        class_g_member(paley_graph(5), lambda x: tuple(range(5)))  # identity never complements


def test_class_g_membership_necessary_conditions():
    for q in (5, 9, 13):
        g = paley_graph(q)
        assert class_g_member(g, paley_certifier(q)).is_member
        assert g.n % 4 == 1
        assert is_regular(g) and g.degree(0) == (g.n - 1) // 2
        assert g.edge_count == g.n * (g.n - 1) // 4


def test_class_g_order_guards():
    with pytest.raises(DomainError):
        class_g_member(Graph.empty(2))
    with pytest.raises(OrderTooLarge):
        class_g_member(Graph.empty(20))  # search path needs a certifier
    with pytest.raises(OrderTooLarge):
        class_g_member(Graph.empty(30), lambda x: tuple(range(30)))


def test_characterization_small_orders():
    res4 = verify_class_g_characterization(4)
    assert res4.ok and res4.details["members"] == []
    res5 = verify_class_g_characterization(5)
    assert res5.ok and len(res5.details["members"]) == 1
    assert decode(res5.details["members"][0]) == Graph.cycle(5) or find_isomorphism(
        decode(res5.details["members"][0]), Graph.cycle(5)
    )
    for n in (3, 6, 7):
        res = verify_class_g_characterization(n)
        assert res.ok and res.details["members"] == []


@pytest.mark.slow
def test_characterization_order_9():
    res = verify_class_g_characterization(9)
    assert res.ok
    members = [decode(s) for s in res.details["members"]]
    assert len(members) == 1
    assert find_isomorphism(members[0], paley_graph(9)) is not None


# -- search -------------------------------------------------------------------


def test_search_class_g_order5():
    rep = search_class_g(5, 100)
    assert rep.exhaustive and rep.space_size == 2
    assert len(rep.members) == 1
    assert find_isomorphism(rep.members[0], Graph.cycle(5)) is not None


def test_search_class_g_rejects_negative_budget():
    with pytest.raises(DomainError):
        search_class_g(5, -1)
    assert search_class_g(5, 0).members == ()


@pytest.mark.parametrize(
    "build, args",
    [
        (clique_pair_counterexample, (6,)),
        (cycle_swap_pair, (6,)),
        (k7_counterexample, (9,)),
        (star_parity_pair, (3, 5)),
        (threshold_pair, (5, 2)),
        (search_class_g, (5, 100)),
    ],
)
def test_validation_constructions_take_integer_arguments(build, args):
    plain = json.dumps(build(*args).to_json())
    assert json.dumps(build(*map(np.int64, args)).to_json()) == plain
    for i in range(len(args)):
        floats = list(args)
        floats[i] = float(args[i])
        with pytest.raises(TypeError):
            build(*floats)


def test_validation_class_g_characterization_takes_an_integer():
    plain = json.dumps(verify_class_g_characterization(5).details)
    assert json.dumps(verify_class_g_characterization(np.int64(5)).details) == plain
    with pytest.raises(TypeError):
        verify_class_g_characterization(5.0)


def test_validation_paley_takes_an_integer():
    """A numpy q gives the certificates of 13 as ints, which dump to the
    same JSON; a float q raises."""
    plain = json.dumps(class_g_member(paley_graph(13), paley_certifier(13)).certificates)
    got = class_g_member(paley_graph(13), paley_certifier(np.int64(13))).certificates
    assert json.dumps(got) == plain
    with pytest.raises(TypeError):
        paley_certifier(13.0)


def test_search_class_g_order13_contains_paley():
    rep = search_class_g(13, 1000)
    assert any(find_isomorphism(m, paley_graph(13)) is not None for m in rep.members)
    for m in rep.members:  # every reported member is genuinely verified
        assert m.edge_count == 13 * 12 // 4


def test_search_class_g_order21_coverage_only():
    rep = search_class_g(21, 10**6)
    assert rep.exhaustive and rep.space_size == 252
    assert rep.members == ()  # no claim beyond the searched circulant space
    blob = rep.to_json()
    assert blob["candidates_examined"] == 252 and blob["members"] == []


def test_search_class_g_budget_cap():
    rep = search_class_g(13, 3)
    assert rep.candidates_examined == 3 and not rep.exhaustive


def test_search_class_g_domain():
    with pytest.raises(DomainError):
        search_class_g(8, 10)
    with pytest.raises(DomainError):
        search_class_g(33, 10)


# -- equal-or-class-G ---------------------------------------------------------


def test_equal_or_class_g_trivial():
    g = Graph.random(8, __import__("random").Random(11))
    assert verify_equal_or_class_g(g, g, 4).ok


def test_equal_or_class_g_p9():
    p9 = paley_graph(9)
    res = verify_equal_or_class_g(p9, complement(p9), 4)
    assert res.ok and res.details["class_g_member"] and not res.details["equal"]


def test_equal_or_class_g_hypothesis_guard():
    with pytest.raises(HypothesisNotMet):
        verify_equal_or_class_g(Graph.empty(6), Graph.complete(6), 4)
    with pytest.raises(DomainError):
        verify_equal_or_class_g(Graph.empty(6), Graph.empty(6), 3)


def test_circulant_builder():
    assert circulant(5, [1]) == Graph.cycle(5)
    assert circulant(7, [1, 2, 3]) == Graph.complete(7)
