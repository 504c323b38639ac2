"""Per-pair theorem verifiers, the per-pair forms of `atlas.THEOREMS`.

Each computes both sides of one statement of the paper independently,
on one given pair (or graph), from the pairwise decision ladder, and
reports whether the claimed implication or equivalence held; a failed
equivalence is either an implementation bug or a genuine falsification,
never assumed away.  The sieve decides the same theorems per order, so
these serve the tests as its independent per-pair oracle, next to the
checks of the subset-averaging identities, the edge-product criterion
and the order-4 classification."""

from __future__ import annotations

from fractions import Fraction
from math import ceil, comb

import numpy as np

from recomp import codes as codetables
from recomp.atlas import check_domain
from recomp.constructions import VerifierResult, class_g_member
from recomp.errors import DomainError, OrderMismatch, RecompError
from recomp.graphs import Graph, boolean_sum, complement, invariants, is_claw_free
from recomp.hypomorphy import (
    _a_counts,
    _edges,
    _stream,
    equal_up_to_complementation,
    k_hypomorphic,
    k_hypomorphic_utc,
    same_3_homogeneous,
    same_a0_counts,
    same_edge_counts_utc,
    same_h3_counts,
    same_parity,
    same_parity_utc,
    signature_table,
)


class HypothesisNotMet(RecompError):
    """A conditional verifier was called on a pair violating its hypothesis."""


def _restriction_bits(g: Graph, k: int):
    """g's restriction bits, chunk by chunk in colex order: g's half of the
    stream of the pair (g, g)."""
    return (bits[0] for _, bits in _stream(g, g, k))


def verify_mixed_pair_identities(g: Graph, k: int) -> VerifierResult:
    """Subset-averaging identities for the {edge, non-edge} pair counts.

    a) C(v-4+i, k-4+i) * a_i(G) = sum over k-subsets of a_i(G|K), for
       i in {0, 1} with 4-i <= k <= v.
    b) a0(G) and a1(G) recovered from sum over k-subsets of
       e(G|K)*e_bar(G|K) with the Cramer coefficients, 3 <= k <= v-1.

    The left sides come from direct pair enumeration on G, the right
    sides from subset summation; both exact.
    """
    v = g.n
    applicable_a = [i for i in (0, 1) if 4 - i <= k <= v]
    applicable_b = 3 <= k <= v - 1
    if not applicable_a and not applicable_b:
        raise DomainError(f"no identity applies for k={k}, v={v}")
    bundle = invariants(g)
    left = {0: bundle.a0, 1: bundle.a1}
    checks: dict[str, bool] = {}

    # one pass: a2(G|K) = e(G|K) * e_bar(G|K) is the product summed in b)
    sums = {0: 0, 1: 0}
    prod_sum = 0
    for bits in _restriction_bits(g, k):
        a0, a1, a2 = _a_counts(bits, k)
        sums[0] += int(a0.sum())
        sums[1] += int(a1.sum())
        prod_sum += int(a2.sum())
    for i in applicable_a:
        checks[f"a{i}_subset_sum"] = comb(v - 4 + i, k - 4 + i) * left[i] == sums[i]

    if applicable_b:
        ee = bundle.e * bundle.e_bar
        coeff = Fraction(1, comb(v - 4, k - 3))
        rhs_a0 = Fraction(v - 3, v - k) * ee - coeff * prod_sum
        rhs_a1 = coeff * prod_sum - Fraction(k - 3, v - k) * ee
        checks["a0_cramer"] = Fraction(left[0]) == rhs_a0
        checks["a1_cramer"] = Fraction(left[1]) == rhs_a1

    return VerifierResult(all(checks.values()), {"v": v, "k": k, "checks": checks})


def verify_edge_product_criterion(g: Graph, h: Graph) -> VerifierResult:
    """e(h) in {e(g), e_bar(g)} holds iff e(g)e_bar(g) = e(h)e_bar(h);
    both directions evaluated on the given pair."""
    if g.n != h.n:
        raise OrderMismatch(f"orders differ: {g.n} vs {h.n}")
    total = comb(g.n, 2)
    eg, eh = g.edge_count, h.edge_count
    lhs = eh in (eg, total - eg)
    rhs = eg * (total - eg) == eh * (total - eh)
    return VerifierResult(lhs == rhs, {"edge_match_utc": lhs, "product_match": rhs})


def verify_downward_hypomorphy(g: Graph, h: Graph, k: int, t: int) -> VerifierResult:
    """k-hypomorphy up to complementation transfers down to t-subsets.

    Requires t <= min(k, v-k), the bound the inclusion-matrix rank
    argument needs (a looser printed bound exists; this one is enforced).
    """
    v = g.n
    if not 1 <= t <= min(k, v - k):
        raise DomainError(f"need 1 <= t <= min(k, v-k) = {min(k, v - k)}, got t={t}")
    hyp = k_hypomorphic_utc(g, h, k)
    if not hyp:
        raise HypothesisNotMet(f"pair is not {k}-hypomorphic up to complementation")
    concl = k_hypomorphic_utc(g, h, t)
    return VerifierResult(concl.holds, {"k": k, "t": t, "witness": concl.witness})


def verify_theorem_k0mod4(g: Graph, h: Graph, k: int) -> VerifierResult:
    """For k = 0 (mod 4): equal restriction parities at k hold iff the
    graphs are equal up to complementation."""
    check_domain("k0mod4", g.n, k)
    parity = same_parity(g, h, k)
    equal = equal_up_to_complementation(g, h)
    return VerifierResult(
        parity.holds == equal,
        {"parity_holds": parity.holds, "equal_utc": equal, "witness": parity.witness},
    )


def verify_theorem_k1mod4(g: Graph, h: Graph, k: int) -> VerifierResult:
    """For k = 1 (mod 4): equal parities at k plus identical
    3-homogeneous sets hold iff equal up to complementation."""
    check_domain("k1mod4", g.n, k)
    parity = same_parity(g, h, k)
    homog = same_3_homogeneous(g, h)
    left = parity.holds and homog.holds
    equal = equal_up_to_complementation(g, h)
    return VerifierResult(
        left == equal,
        {
            "parity_holds": parity.holds,
            "same_3_homogeneous": homog.holds,
            "equal_utc": equal,
            "witness": parity.witness or homog.witness,
        },
    )


def verify_boolean_sum_clawfree(g: Graph, h: Graph) -> VerifierResult:
    """Pairs with the same 3-homogeneous sets have a claw-free boolean
    sum with claw-free complement."""
    hyp = same_3_homogeneous(g, h)
    if not hyp:
        raise HypothesisNotMet(f"3-homogeneous sets differ, witness {hyp.witness}")
    u = boolean_sum(g, h)
    cf_u = is_claw_free(u)
    cf_uc = is_claw_free(complement(u))
    return VerifierResult(cf_u and cf_uc, {"u_claw_free": cf_u, "u_complement_claw_free": cf_uc})


def dense_subset_edge_bound(k: int) -> Fraction:
    """min((k^2 + 7k - 12)/4, k(k-1)/2), the density hypothesis bound."""
    return min(Fraction(k * k + 7 * k - 12, 4), Fraction(k * (k - 1), 2))


def verify_dense_subset_equality(g: Graph, h: Graph, k: int) -> VerifierResult:
    """Equal edge counts up to complementation at k, plus one k-subset of
    density at least the bound, force equality up to complementation.
    The statement excludes k = 7; called at k = 7 the check still runs
    but carries no claim (applies = False)."""
    v = g.n
    if k < 4 or k > v:
        raise DomainError(f"need 4 <= k <= v, got k={k}, v={v}")
    ell = dense_subset_edge_bound(k)
    hyp1 = same_edge_counts_utc(g, h, k)
    if not hyp1:
        raise HypothesisNotMet(f"edge counts differ up to complementation at {hyp1.witness}")
    kk, need = comb(k, 2), ceil(ell)  # edge counts are ints
    dense = any(
        bool((np.maximum(e, kk - e) >= need).any())
        for e in map(_edges, _restriction_bits(g, k))
    )
    if not dense:
        raise HypothesisNotMet(f"no k-subset reaches {ell} edges in g or its complement")
    conclusion = equal_up_to_complementation(g, h)
    applies = k != 7
    return VerifierResult(
        conclusion or not applies,
        {"applies": applies, "conclusion": conclusion, "edge_bound": float(ell)},
    )


def verify_profile_implications(g: Graph, h: Graph, k: int, k_prime: int) -> VerifierResult:
    """Implication chain between per-subset profile conditions:

    (i)   equal edge counts utc and equal h3 counts at k;
    (ii)  equal edge counts utc at k and at k_prime;
    (iii) equal edge counts utc and equal h3 counts at every l, k <= l <= v.

    Checks (ii) -> (i) and (i) -> (iii) on the pair.
    """
    check_domain("corkk1", g.n, k)
    if not 3 <= k_prime < k:
        raise DomainError(f"need 3 <= k' < k, got k={k}, k'={k_prime}")
    edges_k = same_edge_counts_utc(g, h, k).holds
    cond_i = edges_k and same_h3_counts(g, h, k).holds
    cond_ii = edges_k and same_edge_counts_utc(g, h, k_prime).holds
    cond_iii = all(
        same_edge_counts_utc(g, h, l).holds and same_h3_counts(g, h, l).holds
        for l in range(k, g.n + 1)
    )
    ok = ((not cond_ii) or cond_i) and ((not cond_i) or cond_iii)
    return VerifierResult(ok, {"i": cond_i, "ii": cond_ii, "iii": cond_iii})


def verify_complementary_size_transfer(g: Graph, h: Graph, k: int, mode: str) -> VerifierResult:
    """Per-subset equality of h3 counts (mode 'h3', 3 <= k <= v-3) or a0
    counts (mode 'a0', 4 <= k <= v-4) at size k transfers to size v-k."""
    v = g.n
    if mode == "h3":
        check_domain("kaplus", v, k)
        hyp, concl_fn = same_h3_counts(g, h, k), same_h3_counts
    elif mode == "a0":
        if not 4 <= k <= v - 4:
            raise DomainError(f"a0 mode needs 4 <= k <= v-4, got k={k}, v={v}")
        hyp, concl_fn = same_a0_counts(g, h, k), same_a0_counts
    else:
        raise DomainError(f"mode must be 'h3' or 'a0', got {mode!r}")
    if not hyp:
        raise HypothesisNotMet(f"{mode} counts differ at {hyp.witness}")
    concl = concl_fn(g, h, v - k)
    return VerifierResult(concl.holds, {"mode": mode, "k": k, "witness": concl.witness})


def verify_order4_classification() -> VerifierResult:
    """On at most 4 vertices the pair (e * e_bar, h3) separates graphs
    exactly up to isomorphism and complementation."""
    edges = signature_table("edges", 4)  # min(e, e_bar), so e * e_bar = edges * (6 - edges)
    pairs = list(zip((edges * (6 - edges)).tolist(), signature_table("h3", 4).tolist()))
    utc = codetables.canonical_utc_table(4).tolist()
    utc_classes, distinct_pairs = len(set(utc)), len(set(pairs))
    iso_classes = len(set(codetables.canonical_table(4).tolist()))
    # the pair is constant on each utc class iff the (class, pair)
    # combinations are as many as the classes, and separates the classes
    # iff they are as many as the distinct pairs
    joint = len(set(zip(utc, pairs)))
    return VerifierResult(
        joint == utc_classes == distinct_pairs == 6 and iso_classes == 11,
        {
            "iso_classes": iso_classes,
            "utc_classes": utc_classes,
            "distinct_pairs": distinct_pairs,
        },
    )


def verify_principal_theorem(g: Graph, h: Graph, k: int) -> VerifierResult:
    """For v >= 6 and 4 <= k <= threshold(v), four conditions are
    equivalent: (i) k-hypomorphic utc; (ii) equal edge counts utc and
    equal h3 counts at k; (iii) equal edge counts utc at k and at every
    k' with 3 <= k' < k; (iv) equal up to complementation.

    (iii) is checked over all k'; the per-k' bits are reported so the
    weakest single-k' variant can be read off.
    """
    check_domain("principal", g.n, k)
    cond_i = k_hypomorphic_utc(g, h, k).holds
    edges_k = same_edge_counts_utc(g, h, k).holds
    cond_ii = edges_k and same_h3_counts(g, h, k).holds
    by_kprime = {
        kp: same_edge_counts_utc(g, h, kp).holds for kp in range(3, k)
    }
    cond_iii = edges_k and all(by_kprime.values())
    cond_iv = equal_up_to_complementation(g, h)
    ok = cond_i == cond_ii == cond_iii == cond_iv
    return VerifierResult(
        ok,
        {
            "i_hypomorphic_utc": cond_i,
            "ii_edges_h3": cond_ii,
            "iii_edges_all_kprime": cond_iii,
            "iii_by_kprime": {str(kp): val for kp, val in by_kprime.items()},
            "iii_weakest_single_kprime": edges_k and any(by_kprime.values()),
            "iv_equal_utc": cond_iv,
        },
    )


def verify_equal_or_class_g(g: Graph, h: Graph, k: int) -> VerifierResult:
    """Pairs that are (v-1)-hypomorphic with matching restriction
    parities up to complementation at some k = 0 (mod 4) are either
    equal or the first graph is a class-G member."""
    v = g.n
    if not (1 <= k <= v - 2 and k % 4 == 0):
        raise DomainError(f"need 1 <= k <= v-2 with k = 0 (mod 4), got k={k}")
    hyp1 = k_hypomorphic(g, h, v - 1)
    if not hyp1:
        raise HypothesisNotMet(f"pair is not (v-1)-hypomorphic, witness {hyp1.witness}")
    hyp2 = same_parity_utc(g, h, k)
    if not hyp2:
        raise HypothesisNotMet(f"parity condition fails at {hyp2.witness}")
    equal = g.adj == h.adj
    member = False if equal else class_g_member(g).is_member
    return VerifierResult(equal or member, {"equal": equal, "class_g_member": member})
