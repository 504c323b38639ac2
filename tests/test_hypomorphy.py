from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest

from recomp.atlas import THEOREM_DOMAINS, sweep_theorem
from recomp.errors import DomainError, KTooLarge, OrderMismatch
from recomp.graphs import (
    Graph,
    complement,
    induced,
    invariants,
)
from recomp.hypomorphy import (
    SIGNATURES,
    equal_up_to_complementation,
    equality_threshold,
    k_hypomorphic,
    k_hypomorphic_utc,
    same_3_homogeneous,
    same_a0_counts,
    same_edge_counts_utc,
    same_h3_counts,
    same_parity,
    same_parity_utc,
)
from recomp.isomorphism import IsoUtcKind, find_isomorphism, isomorphic_up_to_complementation

from graph_reference import homogeneous_triples, mask_of, subgraph_edge_count
from theorem_reference import (
    HypothesisNotMet,
    dense_subset_edge_bound,
    verify_boolean_sum_clawfree,
    verify_complementary_size_transfer,
    verify_dense_subset_equality,
    verify_downward_hypomorphy,
    verify_edge_product_criterion,
    verify_mixed_pair_identities,
    verify_order4_classification,
    verify_principal_theorem,
    verify_profile_implications,
    verify_theorem_k0mod4,
    verify_theorem_k1mod4,
)


def relabel(g: Graph, perm) -> Graph:
    return Graph.from_edges(g.n, [(perm[a], perm[b]) for a, b in g.edges()])


# -- per-subset predicates --------------------------------------------------


def test_k_hypomorphic_reflexive(rng):
    for _ in range(20):
        g = Graph.random(rng.randint(2, 8), rng)
        k = rng.randint(1, g.n)
        assert k_hypomorphic(g, g, k).holds


def test_k_hypomorphic_counterexample_witness():
    empty = Graph.empty(4)
    edge = Graph.from_edges(4, [(0, 1)])
    verdict = k_hypomorphic(empty, edge, 2)
    assert not verdict.holds and verdict.witness == (0, 1)


def test_cycle_swap_hypomorphy_spec_case():
    from recomp.constructions import cycle_swap_pair

    pair = cycle_swap_pair(6, verify=False)
    assert k_hypomorphic(pair.g, pair.g_prime, 5).holds
    assert k_hypomorphic(pair.g, pair.g_prime, 6).holds
    assert not k_hypomorphic(pair.g, pair.g_prime, 2).holds


def test_k_hypomorphic_utc_with_complement(rng):
    for _ in range(20):
        g = Graph.random(rng.randint(2, 8), rng)
        k = rng.randint(1, g.n)
        assert k_hypomorphic_utc(g, complement(g), k).holds


def test_large_k_pairwise_lane(rng):
    # k >= 7 runs per-subset isomorphism searches instead of code tables
    for _ in range(5):
        g = Graph.random(9, rng)
        perm = tuple(rng.sample(range(9), 9))
        h = relabel(g, perm)
        assert k_hypomorphic(g, g, 8).holds
        assert k_hypomorphic_utc(g, complement(g), 9).holds
        # the single 9-subset is the whole vertex set: relabelings pass
        assert k_hypomorphic(g, h, 9).holds
    with pytest.raises(OrderMismatch):
        k_hypomorphic(Graph.empty(4), Graph.empty(5), 2)
    with pytest.raises(DomainError):
        k_hypomorphic(Graph.empty(4), Graph.empty(4), 5)


def test_same_edge_counts_utc():
    empty = Graph.empty(4)
    edge = Graph.from_edges(4, [(0, 1)])
    # at k = 2 the condition is vacuous: e and C(2,2)-e cover {0,1}
    assert same_edge_counts_utc(empty, edge, 2).holds
    r = same_edge_counts_utc(empty, edge, 3)
    assert not r.holds and r.witness == (0, 1, 2)


def test_same_edge_counts_utc_with_complement(rng):
    for _ in range(20):
        g = Graph.random(rng.randint(3, 9), rng)
        k = rng.randint(1, g.n)
        assert same_edge_counts_utc(g, complement(g), k).holds


def test_k7_pair_edges_utc_but_not_equal():
    from recomp.constructions import k7_counterexample

    pair = k7_counterexample(10, verify=False)
    assert same_edge_counts_utc(pair.g, pair.g_prime, 7).holds
    assert not equal_up_to_complementation(pair.g, pair.g_prime)
    assert not same_edge_counts_utc(pair.g, pair.g_prime, 6).holds


def test_edge_counts_utc_iff_product_equality(rng):
    # per-subset: e' in {e, C-e}  iff  e(C-e) = e'(C-e')
    for _ in range(200):
        n = rng.randint(3, 9)
        g, h = Graph.random(n, rng), Graph.random(n, rng)
        k = rng.randint(2, n)
        for _ in range(50):
            s = mask_of(rng.sample(range(n), k))
            kk = comb(k, 2)
            eg, eh = subgraph_edge_count(g, s), subgraph_edge_count(h, s)
            assert (eh in (eg, kk - eg)) == (eg * (kk - eg) == eh * (kk - eh))


def test_same_parity():
    g = Graph.cycle(6)
    assert same_parity(g, g, 3).holds
    assert same_parity(g, complement(g), 4).holds  # C(4,2) = 6 is even
    r = same_parity(Graph.empty(4), Graph.from_edges(4, [(0, 1)]), 3)
    assert not r.holds


def test_same_parity_utc():
    from recomp.constructions import star_parity_pair

    pair = star_parity_pair(6, 8, verify=False)  # complete vs star
    assert same_parity_utc(pair.g, pair.g_prime, 6).holds
    assert not same_parity(pair.g, pair.g_prime, 6).holds


def test_same_3_homogeneous(rng):
    g = Graph.cycle(6)
    assert same_3_homogeneous(g, complement(g)).holds
    assert same_3_homogeneous(Graph.complete(4), Graph.empty(4)).holds
    star0 = Graph.from_edges(5, [(0, i) for i in range(1, 5)])
    star1 = Graph.from_edges(5, [(1, i) for i in (0, 2, 3, 4)])
    r = same_3_homogeneous(star0, star1)
    assert not r.holds and r.witness is not None
    # the witness is the lex-first triple homogeneous in exactly one graph
    for n in range(3, 11):
        g = Graph.random(n, rng)
        for h in (Graph.random(n, rng), _flip(g, n - 2, n - 1), complement(g)):
            want = next(
                (
                    t
                    for t in combinations(range(n), 3)
                    if (subgraph_edge_count(g, mask_of(t)) in (0, 3))
                    != (subgraph_edge_count(h, mask_of(t)) in (0, 3))
                ),
                None,
            )
            got = same_3_homogeneous(g, h)
            assert (got.holds, got.witness) == (want is None, want)


def test_equal_up_to_complementation():
    g = Graph.cycle(5)
    assert equal_up_to_complementation(g, g)
    assert equal_up_to_complementation(g, complement(g))
    moved = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)])
    assert not equal_up_to_complementation(g, moved)


def test_hypomorphy_ladder(rng):
    # k-hypomorphic implies utc-hypomorphic implies equal edge counts utc
    for _ in range(50):
        n = rng.randint(3, 8)
        g, h = Graph.random(n, rng), Graph.random(n, rng)
        k = rng.randint(1, n)
        if k_hypomorphic(g, h, k).holds:
            assert k_hypomorphic_utc(g, h, k).holds
        if k_hypomorphic_utc(g, h, k).holds:
            assert same_edge_counts_utc(g, h, k).holds


def test_ladder_strictness_witnesses():
    # utc-hypo without plain hypo
    k3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert k_hypomorphic_utc(k3, Graph.empty(3), 3).holds
    assert not k_hypomorphic(k3, Graph.empty(3), 3).holds
    # edges-utc without utc-hypo
    from recomp.constructions import k7_counterexample

    pair = k7_counterexample(10, verify=False)
    assert same_edge_counts_utc(pair.g, pair.g_prime, 7).holds
    assert not k_hypomorphic_utc(pair.g, pair.g_prime, 7).holds


# -- identity verifiers -------------------------------------------------------


def test_mixed_pair_identities_random(rng):
    for _ in range(60):
        n = rng.randint(5, 10)
        g = Graph.random(n, rng)
        for k in range(3, n + 1):
            assert verify_mixed_pair_identities(g, k).ok


def test_mixed_pair_identities_k3_and_complete():
    g = Graph.complete(4)
    for k in (3, 4):
        res = verify_mixed_pair_identities(g, k)
        assert res.ok
    with pytest.raises(DomainError):
        verify_mixed_pair_identities(Graph.empty(5), 2)


def test_mixed_pair_identity_subset_sums_match_direct_enumeration(rng):
    # the degree-formula restriction counts equal direct pair enumeration
    for _ in range(15):
        n = rng.randint(4, 7)
        g = Graph.random(n, rng)
        k = rng.randint(4, n)
        direct0 = direct1 = 0
        for s in combinations(range(n), k):
            b = invariants(induced(g, s))
            direct0 += b.a0
            direct1 += b.a1
        full = invariants(g)
        assert comb(n - 4, k - 4) * full.a0 == direct0
        assert comb(n - 3, k - 3) * full.a1 == direct1


def test_edge_product_criterion():
    g = Graph.cycle(6)
    assert verify_edge_product_criterion(g, complement(g)).ok
    assert verify_edge_product_criterion(g, g).ok
    res = verify_edge_product_criterion(Graph.empty(4), Graph.from_edges(4, [(0, 1)]))
    assert res.ok  # equivalence holds: both sides false (0 != 5)
    assert not res.details["edge_match_utc"] and not res.details["product_match"]


def test_edge_product_criterion_always_holds(rng):
    for _ in range(300):
        n = rng.randint(2, 10)
        assert verify_edge_product_criterion(Graph.random(n, rng), Graph.random(n, rng)).ok


# -- theorem verifiers --------------------------------------------------------


def test_downward_hypomorphy():
    from recomp.constructions import clique_pair_counterexample, cycle_swap_pair

    g = Graph.random(8, __import__("random").Random(5))
    assert verify_downward_hypomorphy(g, complement(g), 5, 3).ok
    cs = cycle_swap_pair(8, verify=False)
    assert verify_downward_hypomorphy(cs.g, cs.g_prime, 7, 1).ok
    cp = clique_pair_counterexample(8, verify=False)
    assert verify_downward_hypomorphy(cp.g, cp.g_prime, 3, 2).ok
    with pytest.raises(DomainError):
        verify_downward_hypomorphy(cp.g, cp.g_prime, 3, 4)  # t > min(k, v-k)
    with pytest.raises(HypothesisNotMet):
        verify_downward_hypomorphy(Graph.empty(6), Graph.from_edges(6, [(0, 1)]), 4, 2)


def test_theorem_k0mod4():
    g = Graph.cycle(6)
    res = verify_theorem_k0mod4(g, g, 4)
    assert res.ok and res.details["parity_holds"] and res.details["equal_utc"]
    with pytest.raises(DomainError):
        verify_theorem_k0mod4(g, g, 3)  # scope: k must be 0 (mod 4)
    with pytest.raises(DomainError):
        verify_theorem_k0mod4(Graph.empty(5), Graph.empty(5), 4)  # k > v-2


def test_theorem_k0mod4_random_pairs(rng):
    # the equivalence must hold on every pair
    for _ in range(300):
        g, h = Graph.random(6, rng), Graph.random(6, rng)
        res = verify_theorem_k0mod4(g, h, 4)
        assert res.ok
        if res.details["parity_holds"]:
            assert equal_up_to_complementation(g, h)


def test_star_parity_pair_shows_scope_constraint():
    # parity-utc holds at k = 3 yet the pair is not isomorphic utc; k = 3
    # is outside the theorem's k = 0 (mod 4) scope
    from recomp.constructions import star_parity_pair

    pair = star_parity_pair(3, 6, verify=False)
    assert same_parity_utc(pair.g, pair.g_prime, 3).holds
    assert isomorphic_up_to_complementation(pair.g, pair.g_prime).kind is IsoUtcKind.NEITHER


def test_theorem_k1mod4():
    c8 = Graph.cycle(8)
    res = verify_theorem_k1mod4(c8, complement(c8), 5)
    assert res.ok and res.details["equal_utc"]
    star0 = Graph.from_edges(8, [(0, i) for i in range(1, 8)])
    star1 = Graph.from_edges(8, [(1, i) for i in (0, 2, 3, 4, 5, 6, 7)])
    res = verify_theorem_k1mod4(star0, star1, 5)
    assert res.ok
    assert not res.details["same_3_homogeneous"] and not res.details["equal_utc"]
    with pytest.raises(DomainError):
        verify_theorem_k1mod4(c8, c8, 4)


def test_theorem_k1mod4_random_pairs(rng):
    for _ in range(200):
        g, h = Graph.random(7, rng), Graph.random(7, rng)
        assert verify_theorem_k1mod4(g, h, 5).ok


def test_boolean_sum_clawfree():
    g = Graph.cycle(6)
    assert verify_boolean_sum_clawfree(g, g).ok  # U empty
    assert verify_boolean_sum_clawfree(g, complement(g)).ok  # U complete
    star0 = Graph.from_edges(5, [(0, i) for i in range(1, 5)])
    star1 = Graph.from_edges(5, [(1, i) for i in (0, 2, 3, 4)])
    with pytest.raises(HypothesisNotMet):
        verify_boolean_sum_clawfree(star0, star1)


def test_boolean_sum_clawfree_on_h3_matching_pairs(rng):
    checked = 0
    for _ in range(800):
        n = rng.randint(4, 7)
        g, h = Graph.random(n, rng), Graph.random(n, rng)
        if same_3_homogeneous(g, h).holds:
            assert verify_boolean_sum_clawfree(g, h).ok
            checked += 1
    assert checked > 5


def test_dense_subset_equality():
    assert dense_subset_edge_bound(4) == 6
    assert dense_subset_edge_bound(5) == 10
    assert dense_subset_edge_bound(8) == 27
    assert dense_subset_edge_bound(6) == Fraction(15)  # min(16.5, 15)


def test_dense_subset_equality_end_to_end(rng):
    # graph with a planted 5-clique against its complement
    edges = list(combinations(range(5), 2))
    edges += [(5, 6), (6, 7), (0, 8)]
    g = Graph.from_edges(9, edges)
    res = verify_dense_subset_equality(g, complement(g), 5)
    assert res.ok and res.details["applies"] and res.details["conclusion"]


def test_dense_subset_equality_k7_exclusion():
    from recomp.constructions import k7_counterexample

    pair = k7_counterexample(10, verify=False)
    res = verify_dense_subset_equality(pair.g, pair.g_prime, 7)
    assert res.ok  # no claim at k = 7
    assert not res.details["applies"] and not res.details["conclusion"]
    # the same hypotheses falsify nothing at k = 7, but k != 7 must conclude
    res8 = verify_dense_subset_equality(pair.g, complement(pair.g), 8)
    assert res8.ok and res8.details["applies"] and res8.details["conclusion"]


def test_dense_subset_equality_hypotheses():
    g = Graph.empty(8)
    with pytest.raises(HypothesisNotMet):
        verify_dense_subset_equality(g, Graph.from_edges(8, [(0, 1)]), 4)
    with pytest.raises(HypothesisNotMet):
        # empty graph vs itself: hypothesis 1 holds, but no dense subset
        # in either the graph or its complement is impossible; use k = 4,
        # where the complement of the empty graph is complete: dense in
        # complement, so instead force failure with a sparse middling pair
        verify_dense_subset_equality(
            Graph.from_edges(8, [(0, 1), (2, 3), (4, 5)]),
            Graph.from_edges(8, [(0, 1), (2, 3), (4, 5)]),
            8,
        )
    with pytest.raises(DomainError):
        verify_dense_subset_equality(g, g, 3)


def test_pair_verifiers_raise_outside_the_sweep_domains():
    # each pair verifier and its sweep read one predicate on (v, k); the
    # profile implications are the two corkk1 claims, the h3 transfer is kaplus
    verifiers = {
        "k0mod4": lambda g, k: verify_theorem_k0mod4(g, g, k),
        "k1mod4": lambda g, k: verify_theorem_k1mod4(g, g, k),
        "principal": lambda g, k: verify_principal_theorem(g, g, k),
        "corkk1": lambda g, k: verify_profile_implications(g, g, k, 3),
        "kaplus": lambda g, k: verify_complementary_size_transfer(g, g, k, "h3"),
    }
    for theorem, verify in verifiers.items():
        in_domain = THEOREM_DOMAINS[theorem][0]
        for v in range(1, 10):
            g = Graph.cycle(v) if v >= 3 else Graph.empty(v)
            for k in range(0, v + 2):
                calls = [lambda: verify(g, k)]
                if v <= 6:
                    calls.append(lambda: sweep_theorem(theorem, v, k))
                for call in calls:
                    if in_domain(v, k):
                        call()
                    else:
                        with pytest.raises(DomainError, match=theorem):
                            call()
    # the domains with a congruence or a threshold, pinned for v <= 9
    pinned = {
        "k0mod4": {(6, 4), (7, 4), (8, 4), (9, 4)},
        "k1mod4": {(7, 5), (8, 5), (9, 5)},
        "principal": {(6, 4), (7, 4), (8, 4), (8, 5), (9, 4), (9, 5)},
    }
    for theorem, want in pinned.items():
        holds = THEOREM_DOMAINS[theorem][0]
        assert {(v, k) for v in range(1, 10) for k in range(v + 1) if holds(v, k)} == want


def test_profile_implications(rng):
    g = Graph.cycle(6)
    assert verify_profile_implications(g, complement(g), 4, 3).ok
    # the implications are theorems: they must hold on every pair
    for _ in range(200):
        n = rng.randint(4, 8)
        g, h = Graph.random(n, rng), Graph.random(n, rng)
        k = rng.randint(4, n)
        kp = rng.randint(3, k - 1)
        assert verify_profile_implications(g, h, k, kp).ok
    with pytest.raises(DomainError):
        verify_profile_implications(g, g, 3, 2)


def test_complementary_size_transfer(rng):
    h8 = Graph.random(8, rng)
    assert verify_complementary_size_transfer(h8, complement(h8), 3, "h3").ok
    h9 = Graph.random(9, rng)
    assert verify_complementary_size_transfer(h9, complement(h9), 4, "a0").ok
    # k = v - k: hypothesis equals conclusion
    h6 = Graph.random(6, rng)
    assert verify_complementary_size_transfer(h6, complement(h6), 3, "h3").ok
    with pytest.raises(HypothesisNotMet):
        verify_complementary_size_transfer(
            Graph.empty(8), Graph.from_edges(8, [(0, 1), (1, 2), (0, 2)]), 3, "h3"
        )
    with pytest.raises(DomainError):
        verify_complementary_size_transfer(h8, h8, 2, "h3")
    with pytest.raises(DomainError):
        verify_complementary_size_transfer(h8, h8, 3, "a2")


def test_complementary_size_transfer_is_theorem(rng):
    # whenever the hypothesis holds the conclusion must; random pairs
    # mostly fail the hypothesis, while a graph and its complement share
    # every per-subset h3 and a0 count, so those pairs always exercise it
    hits = 0
    for _ in range(300):
        n = rng.randint(6, 8)
        g = Graph.random(n, rng)
        for h in (Graph.random(n, rng), complement(g)):
            for mode, lo in (("h3", 3), ("a0", 4)):
                for k in range(lo, n - lo + 1):
                    try:
                        assert verify_complementary_size_transfer(g, h, k, mode).ok
                        hits += 1
                    except HypothesisNotMet:
                        pass
    assert hits >= 300  # at least one hypothesis-satisfying k per complement pair


def test_order4_classification():
    res = verify_order4_classification()
    assert res.ok
    assert res.details == {"iso_classes": 11, "utc_classes": 6, "distinct_pairs": 6}


def test_order4_pair_values():
    # triangle-plus-isolated-vertex vs the 4-path: same e*e_bar, distinct h3
    k3_iso = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)])
    p4 = Graph.path(4)
    b1, b2 = invariants(k3_iso), invariants(p4)
    assert b1.e * b1.e_bar == b2.e * b2.e_bar == 9
    assert (b1.h3, b2.h3) == (1, 0)
    g = Graph.random(4, __import__("random").Random(9))
    bg, bc = invariants(g), invariants(complement(g))
    assert (bg.e * bg.e_bar, bg.h3) == (bc.e * bc.e_bar, bc.h3)


def test_validation_equality_threshold_takes_an_integer():
    t = equality_threshold(np.int64(9))
    assert type(t) is int and t == 5
    for bad in (9.0, 9.5):
        with pytest.raises(TypeError):
            equality_threshold(bad)


def test_equality_threshold():
    assert equality_threshold(6) == 4
    assert equality_threshold(7) == 4
    assert equality_threshold(8) == 5
    assert equality_threshold(9) == 5
    assert equality_threshold(13) == 9
    with pytest.raises(DomainError):
        equality_threshold(3)


def test_principal_theorem():
    g = Graph.cycle(6)
    res = verify_principal_theorem(g, complement(g), 4)
    assert res.ok and all(
        res.details[key]
        for key in ("i_hypomorphic_utc", "ii_edges_h3", "iii_edges_all_kprime", "iv_equal_utc")
    )
    with pytest.raises(DomainError):
        verify_principal_theorem(g, g, 5)  # above threshold(6) = 4


def test_principal_theorem_cycle_swap_9():
    from recomp.constructions import cycle_swap_pair

    pair = cycle_swap_pair(9, verify=False)
    res = verify_principal_theorem(pair.g, pair.g_prime, 4)
    assert res.ok
    assert not res.details["iv_equal_utc"] and not res.details["i_hypomorphic_utc"]


def test_principal_theorem_random(rng):
    for _ in range(150):
        g, h = Graph.random(6, rng), Graph.random(6, rng)
        assert verify_principal_theorem(g, h, 4).ok


def test_edge_count_transfer_up(rng):
    # k-hypomorphic utc pairs keep matching edge counts utc at every l >= k
    from recomp.constructions import (
        clique_pair_counterexample,
        cycle_swap_pair,
        k7_counterexample,
        threshold_pair,
    )

    pairs = [
        (clique_pair_counterexample(7, verify=False), 3),
        (cycle_swap_pair(6, verify=False), 5),
        (threshold_pair(5, 2, verify=False), 5),
    ]
    for pair, k in pairs:
        assert k_hypomorphic_utc(pair.g, pair.g_prime, k).holds
        if k >= 4:
            for l in range(k, pair.g.n + 1):
                assert same_edge_counts_utc(pair.g, pair.g_prime, l).holds


def colex_order(n: int, k: int) -> list[tuple[int, ...]]:
    """k-subsets of range(n) in colex order, independently of recomp."""
    return sorted(combinations(range(n), k), key=lambda s: s[::-1])


def test_utc_hypo_lanes_agree_with_direct_route(rng):
    # table lane (k <= 6), pairwise lane (k >= 7), and a third
    # independent route (induced subgraphs + isomorphism search) must
    # give identical verdicts and witnesses
    for trial in range(15):
        g = Graph.random(8, rng)
        h = Graph.random(8, rng) if trial % 3 else complement(g)
        for k in (5, 7):
            fast = k_hypomorphic_utc(g, h, k)
            slow_holds, slow_witness = True, None
            for s in colex_order(8, k):
                gi, hi = induced(g, s), induced(h, s)
                ok = (
                    find_isomorphism(gi, hi) is not None
                    or find_isomorphism(complement(gi), hi) is not None
                )
                if not ok:
                    slow_holds, slow_witness = False, s
                    break
            assert fast.holds == slow_holds and fast.witness == slow_witness


def test_h3_counts_and_a0_counts(rng):
    for _ in range(30):
        n = rng.randint(4, 8)
        g = Graph.random(n, rng)
        k = rng.randint(3, n)
        assert same_h3_counts(g, complement(g), k).holds
        assert same_a0_counts(g, complement(g), k).holds


def test_restriction_h3_count_matches_triple_census(rng):
    # Goodman's identity against a direct count of homogeneous triples
    for n in range(3, 13):
        for p in (0.2, 0.5, 0.8):
            g = Graph.random(n, rng, p)
            for k in {3, max(3, n // 2 + 1), n}:
                sub = induced(g, rng.sample(range(n), k))
                bits = np.array([[sub.code >> r & 1 for r in range(comb(k, 2))]], dtype=np.uint8)
                assert SIGNATURES["h3"](bits, k)[0] == len(homogeneous_triples(sub))


def _iso(a: Graph, b: Graph) -> bool:
    return find_isomorphism(a, b) is not None


# per-subset failure of each ladder rung, from the two restrictions alone
_RUNG_FAILS = {
    k_hypomorphic: lambda a, b: not _iso(a, b),
    k_hypomorphic_utc: lambda a, b: not _iso(a, b) and not _iso(complement(a), b),
    same_edge_counts_utc: lambda a, b: b.edge_count
    not in (a.edge_count, comb(a.n, 2) - a.edge_count),
    same_parity: lambda a, b: (a.edge_count - b.edge_count) % 2 == 1,
    same_parity_utc: lambda a, b: (a.edge_count - b.edge_count) % 2 == 1
    and (a.edge_count - (comb(a.n, 2) - b.edge_count)) % 2 == 1,
    same_h3_counts: lambda a, b: invariants(a).h3 != invariants(b).h3,
    same_a0_counts: lambda a, b: invariants(a).a0 != invariants(b).a0,
}


def _first_failures(g: Graph, h: Graph, k: int, rungs=tuple(_RUNG_FAILS)) -> dict:
    """Brute-force first failing colex k-subset of every rung, or None."""
    want = dict.fromkeys(rungs)
    for s in colex_order(g.n, k):
        open_rungs = [rung for rung in rungs if want[rung] is None]
        if not open_rungs:
            break
        a, b = induced(g, s), induced(h, s)
        for rung in open_rungs:
            if _RUNG_FAILS[rung](a, b):
                want[rung] = s
    return want


def _assert_ladder_matches(g: Graph, h: Graph, k: int, rungs=tuple(_RUNG_FAILS)) -> None:
    for rung, want in _first_failures(g, h, k, rungs).items():
        got = rung(g, h, k)
        assert (got.holds, got.witness) == (want is None, want), (rung.__name__, g.n, k)


def _flip(g: Graph, i: int, j: int) -> Graph:
    return Graph.from_edges(g.n, set(g.edges()) ^ {(min(i, j), max(i, j))})


def test_ladder_witness_is_first_failing_subset(rng):
    # every rung, on both subset lanes, against a brute-force colex scan of
    # induced restrictions; k = 12 restrictions carry 66 code bits
    from recomp.constructions import clique_pair_counterexample, cycle_swap_pair, k7_counterexample

    for n in (7, 8, 9, 13):
        g = Graph.random(n, rng)
        pairs = [(g, Graph.random(n, rng)), (g, complement(g))]
        pairs += [(g, _flip(g, *rng.sample(range(n), 2)))]
        pairs += [(g, _flip(complement(g), *rng.sample(range(n), 2)))]
        pairs += [(g, relabel(complement(g), rng.sample(range(n), n)))]
        for make in (clique_pair_counterexample, cycle_swap_pair):
            pair = make(n, verify=False)
            pairs.append((pair.g, pair.g_prime))
        if n >= 9:
            pair = k7_counterexample(n, verify=False)
            pairs.append((pair.g, pair.g_prime))
        ks = (2, 4, 6, 7, 8) if n < 13 else (2, 3, 7, 11, 12)
        for a, b in pairs:
            for k in ks:
                if k <= n:
                    _assert_ladder_matches(a, b, k)


def test_search_lane_matches_brute_force(rng):
    # the k > TABLE_MAX_K lane, witnesses reused within each scan, against
    # a search per subset; both graphs of a construction are relabeled by
    # one permutation, which keeps every rung's verdict
    from recomp.constructions import cycle_swap_pair, k7_counterexample, threshold_pair

    rungs = (k_hypomorphic, k_hypomorphic_utc)
    for n in (11, 12, 13):
        perm = rng.sample(range(n), n)
        made = (threshold_pair(9, n - 9), cycle_swap_pair(n), k7_counterexample(n))
        pairs = [(relabel(p.g, perm), relabel(p.g_prime, perm)) for p in made]
        g = Graph.random(n, rng)
        pairs.append((g, complement(g)))
        for a, b in pairs:
            for k in range(7, n):
                _assert_ladder_matches(a, b, k, rungs)


@pytest.fixture
def cold_streams():
    """An empty stream cache, so a test counts every search of its scans."""
    from recomp.hypomorphy import _stream

    _stream.cache_clear()
    yield
    _stream.cache_clear()


def test_search_lane_reuses_witnesses(monkeypatch, cold_streams):
    # at n = 13, k = 10 the threshold pair is k-hypomorphic up to
    # complementation, so every candidate row (its restrictions neither
    # equal nor complementary as labeled graphs) must be settled; stored
    # witnesses settle most of them without a search
    from recomp import hypomorphy
    from recomp.constructions import threshold_pair

    pair = threshold_pair(9, 4)
    g, h, k = pair.g, pair.g_prime, 10
    full = (1 << comb(k, 2)) - 1
    candidates = 0
    for s in combinations(range(13), k):
        cg, ch = induced(g, s).code, induced(h, s).code
        candidates += ch not in (cg, full ^ cg)
    searches, searched = [], []
    real_find, real_pair_iso = hypomorphy.find_isomorphism_rows, hypomorphy._pair_iso

    def find(a, b):
        searches.append((a, b))
        return real_find(a, b)

    def pair_iso(k, rg, rh, utc):
        idx = real_pair_iso(k, rg, rh, utc)
        searched.append((rg.tolist(), rh.tolist(), idx))
        return idx

    monkeypatch.setattr(hypomorphy, "find_isomorphism_rows", find)
    monkeypatch.setattr(hypomorphy, "_pair_iso", pair_iso)
    assert k_hypomorphic_utc(g, h, k).holds
    assert 0 < len(searches) < candidates
    # each new witness is tried on the rest of its chunk at once and stays
    # stored, so the next search is never on a row it maps
    for (_, _, idx), (rg, rh, _) in zip(searched, searched[1:]):
        mapped = [rh[x] for x in idx.tolist()]
        assert mapped != rg and mapped != [1 - bit for bit in rg]


def test_search_lane_never_maps_an_empty_row_set(monkeypatch, rng, cold_streams):
    # a k > TABLE_MAX_K scan stops trying witnesses on a chunk once no row
    # is left, so every witness it tries meets at least one row
    from recomp import hypomorphy
    from recomp.constructions import threshold_pair

    sizes = []
    real_maps = hypomorphy._maps

    def maps(bg, bh, idx, utc):
        sizes.append(len(bg))
        return real_maps(bg, bh, idx, utc)

    monkeypatch.setattr(hypomorphy, "_maps", maps)
    pair = threshold_pair(9, 4)
    scans = [(pair.g, pair.g_prime, 10)]
    for n in range(9, 14):
        g = Graph.random(n, rng)
        for h in (Graph.random(n, rng), _flip(g, *rng.sample(range(n), 2))):
            scans += [(g, h, k) for k in range(7, n)]
    for g, h, k in scans:
        for rung in (k_hypomorphic, k_hypomorphic_utc):
            rung(g, h, k)
    assert sizes and min(sizes) > 0


def _scan_row(a: Graph) -> np.ndarray:
    """The restriction bits of a graph of order k as a scan row holds them:
    bit r is the pair of colex rank r."""
    return np.array([a.code >> r & 1 for r in range(comb(a.n, 2))], dtype=np.uint8)


def _swap_edges(g: Graph, rng, swaps: int) -> Graph:
    """g after `swaps` degree-preserving swaps ab, cd -> ad, cb."""
    edges = set(g.edges())
    for _ in range(swaps):
        (a, b), (c, d) = rng.sample(sorted(edges), 2)
        new = {tuple(sorted(e)) for e in ((a, d), (c, b))}
        if len({a, b, c, d}) == 4 and not new & edges:
            edges = edges - {(a, b), (c, d)} | new
    return Graph.from_edges(g.n, edges)


def _row_engine_cases(rng):
    """Graph pairs of orders 7..12 with a label: random graphs, relabeled
    and complemented copies, cycles, circulants, restrictions of Paley(9),
    Paley(13) and the threshold pair, pairs with equal degree sequences,
    one-pair flips, and complements after degree-preserving swaps."""
    from recomp.constructions import circulant, paley_graph, threshold_pair

    pair = threshold_pair(9, 4)
    for k in range(7, 13):
        perm = rng.sample(range(k), k)
        g = Graph.random(k, rng, rng.choice((0.3, 0.5, 0.7)))
        yield "random", g, Graph.random(k, rng)
        yield "relabeled", g, relabel(g, perm)
        yield "complement", g, relabel(complement(g), perm)
        yield "equal degrees", g, _swap_edges(g, rng, 3)
        cycle = Graph.cycle(k)
        triangle = [(i, (i + 1) % 3) for i in range(3)]
        rest = [(3 + i, 3 + (i + 1) % (k - 3)) for i in range(k - 3)]
        yield "equal degrees", cycle, Graph.from_edges(k, triangle + rest)
        yield "relabeled", cycle, relabel(cycle, perm)
        for jumps in ((1, 2), (1, 3), (2, 3)):
            yield "equal degrees", circulant(k, (1, 2)), relabel(circulant(k, jumps), perm)
        for q in (9, 13):
            if k <= q:
                s = sorted(rng.sample(range(q), k))
                p = induced(paley_graph(q), s)
                yield "paley", p, relabel(p, perm)
                yield "paley", p, complement(p)
                yield "paley", p, induced(paley_graph(q), sorted(rng.sample(range(q), k)))
        for _ in range(4):
            s = sorted(rng.sample(range(13), k))
            yield "threshold", induced(pair.g, s), induced(pair.g_prime, s)
        # edge counts that match neither direction, and ones that match
        # only the complement's
        yield "edges differ", g, _flip(g, *rng.sample(range(k), 2))
        yield "complement edges", g, _swap_edges(relabel(complement(g), perm), rng, 3)


def test_row_engine_matches_graph_search_and_networkx(rng):
    # _pair_iso builds adjacency rows from restriction bits and searches
    # them; it must find the witness find_isomorphism finds on the Graphs
    # (the graph itself first, then its complement), return None exactly
    # when networkx finds no isomorphism, and map rg onto rh (or, utc, onto
    # its complement)
    nx = pytest.importorskip("networkx")
    from recomp.graphs import pair_rank
    from recomp.hypomorphy import _pair_iso

    def to_nx(a: Graph):
        out = nx.Graph()
        out.add_nodes_from(range(a.n))
        out.add_edges_from(a.edges())
        return out

    outcomes, by_edges = set(), set()
    for label, g, h in _row_engine_cases(rng):
        for a, b in ((g, h), (h, g)):
            k, ra, rb = a.n, _scan_row(a), _scan_row(b)
            ea, eb = a.edge_count, b.edge_count
            edges = "same" if ea == eb else "complement" if ea + eb == comb(k, 2) else "neither"
            pairs = [(i, j) for j in range(k) for i in range(j)]
            for utc in (False, True):
                idx = _pair_iso(k, ra, rb, utc)
                iso = nx.is_isomorphic(to_nx(a), to_nx(b))
                iso |= utc and nx.is_isomorphic(nx.complement(to_nx(a)), to_nx(b))
                assert (idx is not None) == iso, (label, a.adj, b.adj, utc)
                w = find_isomorphism(a, b)
                if w is None and utc:
                    w = find_isomorphism(complement(a), b)
                want = None if w is None else [pair_rank(w[i], w[j]) for i, j in pairs]
                assert (None if idx is None else idx.tolist()) == want
                if idx is not None:
                    same = rb[idx] == ra
                    assert same.all() or (utc and not same.any())
                outcomes.add((label, utc, iso))
                by_edges.add((edges, utc, iso))
    # every family met both outcomes where it can
    for label in ("random", "equal degrees", "paley", "threshold"):
        assert (label, False, False) in outcomes, label
    for label in ("relabeled", "complement", "equal degrees", "paley", "threshold"):
        assert (label, True, True) in outcomes, label
    # pairs whose edge counts match in neither direction, or only the
    # complement's, reach the engine too, and meet each outcome there
    for case in (
        ("neither", True, False),
        ("complement", False, False),
        ("complement", True, True),
        ("complement", True, False),
    ):
        assert case in by_edges, case


def _chunk_bounds(k: int, total: int) -> list[tuple[int, int]]:
    """(start, stop) ranks of the chunks of a stream of `total` k-subsets."""
    from recomp.hypomorphy import _GROWTH, _max_rows

    bounds, start, size = [], 0, _GROWTH
    while start < total:
        bounds.append((start, min(total, start + size)))
        start, size = start + size, min(_GROWTH * size, _max_rows(k))
    return bounds


def _chunk_edges(k: int, total: int) -> set[int]:
    """Ranks of the first and the last row of every chunk after the first."""
    edges = {r for _, stop in _chunk_bounds(k, total) for r in (stop - 1, stop)}
    return {r for r in edges if 0 < r < total}


def test_ladder_witness_on_chunk_edges(rng):
    # one-edge flips of a pair {i, j}: the first failing subset is the first
    # one holding both ends, chosen to sit on the first or the last row of
    # a chunk
    n = 13
    g = Graph.random(n, rng)
    hit = set()
    for k in (2, 3, 4, 7):
        order = colex_order(n, k)
        edges = _chunk_edges(k, len(order))
        for i, j in combinations(range(n), 2):
            first = next(r for r, s in enumerate(order) if i in s and j in s)
            if first in edges and (k, first) not in hit:
                hit.add((k, first))
                h = _flip(g, i, j)
                assert same_parity(g, h, k).witness == order[first]
                _assert_ladder_matches(g, h, k)
    assert {r for k, r in hit if k == 2} == _chunk_edges(2, comb(n, 2))


def test_subset_table_rows_are_colex_combinations(rng):
    # the cached prefix rows for k are the same whatever order asked first
    from recomp.graphs import MAX_ORDER, pair_rank
    from recomp.hypomorphy import _max_rows, _stream, _subset_rows
    from recomp.incidence import colex_vertices

    for n in (10, 4, 7, 9, 10):
        for k in range(1, n + 1):
            order = colex_order(n, k)
            rows = _subset_rows(k, 0, len(order))
            assert rows[:, :k].tolist() == [list(s) for s in order]
            ranks = [[pair_rank(s[a], s[b]) for b in range(k) for a in range(b)] for s in order]
            assert rows[:, k:].tolist() == ranks
    # a scan past the cached prefix meets every subset once, in order, with
    # the bits of its restriction
    n, k = 16, 8
    assert comb(n, k) > _max_rows(k)
    g = Graph.random(n, rng)
    seen, codes = [], []
    for start, bits in _stream(g, g, k):
        assert start == len(seen)
        seen += map(tuple, _subset_rows(k, start, start + bits.shape[1])[:, :k].tolist())
        codes += [sum(int(b) << r for r, b in enumerate(row)) for row in bits[0]]
    assert seen == colex_order(n, k)
    assert codes == [induced(g, s).code for s in seen]
    for k in range(1, MAX_ORDER + 1):
        last = comb(MAX_ORDER, k) - 1
        top = list(range(MAX_ORDER - k, MAX_ORDER))
        assert colex_vertices(k, last, last + 1).tolist() == [top]


def test_scan_is_lazy_and_bounded_at_order_48(rng):
    import time

    from recomp.hypomorphy import _BUDGET_BYTES, _max_rows, _stream, _subset_tables
    from recomp.incidence import subset_rank

    n, k = 48, 8
    g, h = Graph.random(n, rng), Graph.random(n, rng)
    t0 = time.perf_counter()
    got = k_hypomorphic_utc(g, h, k)
    assert time.perf_counter() - t0 < 0.5
    # the first C(12, k) colex k-subsets are those of range(12)
    head = tuple(range(12))
    assert got.witness == _first_failures(induced(g, head), induced(h, head), k)[k_hypomorphic_utc]
    # the flip of {0, 20} first shows on {0, ..., 6, 20}, rank C(20, 8),
    # past the cached prefix
    flipped = _flip(g, 0, 20)
    assert same_parity(g, flipped, k).witness == (*range(7), 20)
    assert _subset_tables[k].nbytes <= _BUDGET_BYTES
    assert all(table.nbytes <= _BUDGET_BYTES for table in _subset_tables.values())
    # each stream keeps exactly the chunks its scan made whose rows the
    # subset table holds, keyed by their first ranks, read-only and within
    # the budget
    bounds = _chunk_bounds(k, comb(n, k))
    for pair, witness in (((g, h), got.witness), ((g, flipped), (*range(7), 20))):
        stream, reached = _stream(*pair, k), subset_rank(witness)
        kept = {start: stop - start for start, stop in bounds if start <= reached and stop <= _max_rows(k)}
        assert {start: bits.shape[1] for start, bits in stream.chunks.items()} == kept
        assert 0 < sum(bits.nbytes for bits in stream.chunks.values()) <= _BUDGET_BYTES
        assert not any(bits.flags.writeable for bits in stream.chunks.values())
    # the flipped pair's scan reached rank C(20, 8), past what its stream keeps
    assert subset_rank((*range(7), 20)) == comb(20, 8) > sum(kept.values())


def test_concurrent_scans_share_kept_chunks(rng):
    # four threads, switching often, scan one fresh stream of a pair whose
    # scan runs past the kept chunks: each gets the serial verdicts, and
    # for each kept start yields the very array the stream's store holds
    import sys
    from itertools import islice
    from threading import Barrier, Thread

    from recomp.hypomorphy import _max_rows, _stream

    n, k = 48, 8
    g = Graph.random(n, rng)
    flipped = _flip(g, 0, 20)
    rungs = (same_parity, same_edge_counts_utc, k_hypomorphic, k_hypomorphic_utc)
    serial = [rung(g, flipped, k) for rung in rungs]
    assert serial[0].witness == (*range(7), 20)
    kept = [start for start, stop in _chunk_bounds(k, comb(n, k)) if stop <= _max_rows(k)]
    _stream.cache_clear()
    stream = _stream(g, flipped, k)
    start_line, results = Barrier(4), []

    def scan() -> None:
        start_line.wait(timeout=60)
        yielded = dict(islice(stream, len(kept)))
        results.append((yielded, [rung(g, flipped, k) for rung in rungs]))

    threads = [Thread(target=scan) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert _stream(g, flipped, k) is stream and len(results) == 4
    assert sorted(stream.chunks) == kept
    for yielded, verdicts in results:
        assert verdicts == serial
        assert all(yielded[start] is stream.chunks[start] for start in kept)


def test_scan_argument_validation(rng):
    # a float k must not hit the stream cached for the equal int k, so
    # `_check_pair` raises TypeError from every rung that takes k; these are
    # if/raise checks, which python -O keeps
    g, h = Graph.random(10, rng), Graph.random(10, rng)
    rungs = (
        k_hypomorphic,
        k_hypomorphic_utc,
        same_edge_counts_utc,
        same_parity,
        same_parity_utc,
        same_h3_counts,
        same_a0_counts,
    )
    for k in (4, 8):
        for rung in rungs:
            rung(g, h, k)
            with pytest.raises(TypeError):
                rung(g, h, float(k))
    g, h = Graph.random(40, rng), Graph.random(40, rng)
    for rung in (k_hypomorphic, k_hypomorphic_utc):
        with pytest.raises(KTooLarge):
            rung(g, h, 33)


def _stream_cases(rng):
    """Seeded random, flip, complement and threshold pairs at n = 8..13,
    with a table-lane and a search-lane k each, and a pair to interleave."""
    from recomp.constructions import threshold_pair

    made = {8: (5, 3), 9: (5, 4), 11: (9, 2), 12: (9, 3), 13: (9, 4)}
    for n in range(8, 14):
        g = Graph.random(n, rng)
        pairs = [(g, Graph.random(n, rng)), (g, _flip(g, *rng.sample(range(n), 2)))]
        pairs.append((g, complement(g)))
        if n in made:
            pair, perm = threshold_pair(*made[n], verify=False), rng.sample(range(n), n)
            pairs.append((relabel(pair.g, perm), relabel(pair.g_prime, perm)))
        other = (Graph.random(n, rng), Graph.random(n, rng))
        for a, b in pairs:
            for k in (rng.randint(3, 6), rng.randint(7, n - 1)):
                yield a, b, k, other


def test_stream_shared_by_every_rung(rng, cold_streams):
    # every rung reads the pair's cached stream at k: its verdicts must not
    # depend on what the cache holds or on the order of the calls, and must
    # match the brute-force scan
    from recomp.hypomorphy import _stream

    rungs = list(_RUNG_FAILS)
    for g, h, k, (g2, h2) in _stream_cases(rng):
        want = [(w is None, w) for w in _first_failures(g, h, k).values()]

        def verdicts(order=rungs):
            got = {rung: rung(g, h, k) for rung in order}
            return [(got[rung].holds, got[rung].witness) for rung in rungs]

        _stream.cache_clear()
        assert verdicts() == want, (g.adj, h.adj, k)  # cold
        assert verdicts() == want  # warm
        _stream.cache_clear()
        assert verdicts(rungs[::-1]) == want  # hypo_utc before hypo
        _stream.cache_clear()
        mixed = []
        for rung in rungs:
            rung(g2, h2, k)
            got = rung(g, h, k)
            mixed.append((got.holds, got.witness))
        assert mixed == want  # interleaved with a second pair
        _stream.cache_clear()
        assert verdicts() == want  # after clearing the cache


def test_utc_rung_searches_no_row_the_hypo_rung_settled(monkeypatch, cold_streams):
    # the utc rung starts from the witnesses the hypo rung left on the
    # stream, so it searches no row the hypo rung settled.  At k = 10 the
    # threshold pair fails hypomorphy but holds up to complementation;
    # under this relabeling the hypo rung settles 45 rows, some by
    # searches, before it fails
    from recomp import hypomorphy
    from recomp.constructions import threshold_pair

    pair, perm, k = threshold_pair(9, 4), (12, 9, 1, 7, 4, 0, 11, 10, 8, 3, 2, 5, 6), 10
    g, h = relabel(pair.g, perm), relabel(pair.g_prime, perm)
    settled, searched = set(), []
    real_maps, real_pair_iso = hypomorphy._maps, hypomorphy._pair_iso

    def maps(bg, bh, idx, utc):
        hit = real_maps(bg, bh, idx, utc)
        if not utc:
            settled.update((a.tobytes(), b.tobytes()) for a, b in zip(bg[hit], bh[hit]))
        return hit

    def pair_iso(k, rg, rh, utc):
        searched.append((rg.tobytes(), rh.tobytes()))
        return real_pair_iso(k, rg, rh, utc)

    monkeypatch.setattr(hypomorphy, "_maps", maps)
    monkeypatch.setattr(hypomorphy, "_pair_iso", pair_iso)
    assert not k_hypomorphic(g, h, k).holds
    first = len(searched)
    assert k_hypomorphic_utc(g, h, k).holds
    assert first and settled and not set(searched[first:]) & settled
