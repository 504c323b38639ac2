"""Pairwise decision procedures and executable theorem verifiers.

Two graphs on the same vertex set are k-hypomorphic when every
k-element restriction pair is isomorphic, k-hypomorphic up to
complementation when every restriction pair is isomorphic up to
complementation, and so on down a ladder of weaker per-subset
conditions (equal edge counts up to complementation, equal parity,
equal 3-homogeneous data).

Subset lanes: every per-subset condition is one scan over the k-subsets
in colexicographic order, stopping at the first subset that fails, so
witnesses are deterministic.  The scan reads chunks of subsets that
grow geometrically from a few rows, so an early exit pays only for a
short prefix.  A chunk holds, per graph, one row of restriction bits
per subset: the graph's code bits gathered at the global colex pair
ranks i + C(j,2) of the subset's local pairs.  Colex order of k-subsets
does not depend on the vertex count, so one prefix table per k of the
subsets and those ranks, grown on demand within a fixed byte budget,
serves every graph.  Unlike the package's other tables, each a
`functools.cache` function keyed by its order, a prefix table grows in
place as longer prefixes are asked for.  Each condition compares one row function of
`SIGNATURES`, which maps a chunk of restriction bits to a value per
row: parity, edge count up to complementation, h3, a0, or for k <= 6 a
canonical-code table entry.  `signature_table` applies the same
function to every code of one order, for the atlas sieve.  Larger
restrictions compare edge counts, then try the few isomorphism
witnesses the scan found most recently useful on whole chunks: w, kept
as the pair-index array idx[rank(i,j)] = rank(w[i], w[j]), settles a
row when h's bits gathered by idx equal g's (or, up to complementation,
differ in every column).  Each row left gets a backtracking search, in
row order, whose witness is then tried on the rest of the chunk.  h3
and a0 counts come from the restriction degrees by Goodman's identity.

Every theorem verifier computes both sides of its statement
independently and reports whether the claimed implication or
equivalence held on the given pair; a failed equivalence is either an
implementation bug or a genuine falsification, never assumed away.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from fractions import Fraction
from itertools import combinations
from math import ceil, comb
from typing import Callable, Iterator

import numpy as np

from . import codes as codetables
from .errors import DomainError, HypothesisNotMet, KTooLarge, OrderMismatch
from .graphs import (
    Graph,
    boolean_sum,
    complement,
    invariants,
    is_claw_free,
)
from .incidence import colex_vertices
from .isomorphism import ISO_MAX_ORDER, find_isomorphism

TABLE_MAX_K = 6
# isomorphism witnesses one k > TABLE_MAX_K scan keeps, most recently useful first
_WITNESSES = 4


@dataclass(frozen=True)
class HypoVerdict:
    """Outcome of a per-subset condition; witness is a failing subset."""

    holds: bool
    witness: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.holds

    def to_json(self) -> dict:
        return {"holds": self.holds, "witness_subset": list(self.witness) if self.witness else None}


@dataclass(frozen=True)
class VerifierResult:
    """Outcome of a theorem check with the independently computed sides."""

    ok: bool
    details: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.ok


def _check_pair(g: Graph, h: Graph, k: int) -> None:
    if g.n != h.n:
        raise OrderMismatch(f"orders differ: {g.n} vs {h.n}")
    if not 1 <= k <= g.n:
        raise DomainError(f"need 1 <= k <= {g.n}, got k={k}")


# -- subset lanes ----------------------------------------------------------

# Byte cap on each cached prefix table and on the subset rows of one chunk.
_BUDGET_BYTES = 1 << 20
_FIRST_CHUNK = 8

_subset_tables: dict[int, np.ndarray] = {}


def _max_rows(k: int) -> int:
    """Rows of `_subset_rows(k, ...)` that fit the budget."""
    return max(_FIRST_CHUNK, _BUDGET_BYTES // (np.dtype(np.intp).itemsize * (k + comb(k, 2))))


def _rows_of(vertices: np.ndarray) -> np.ndarray:
    """Each row of ascending vertices, followed by the global colex pair
    ranks i + C(j,2) of its local pairs in colex order."""
    j, i = np.tril_indices(vertices.shape[1], -1)
    vj = vertices[:, j]
    return np.hstack([vertices, vertices[:, i] + vj * (vj - 1) // 2])


def _subset_rows(k: int, start: int, stop: int) -> np.ndarray:
    """`_rows_of` the colex k-subsets of rank start..stop-1.  Colex order
    of k-subsets does not depend on the ground set, so one prefix table
    per k serves every order.  It grows to the rows asked for, up to the
    byte budget; rows beyond it are computed per call."""
    if stop > _max_rows(k):
        return _rows_of(colex_vertices(k, start, stop))
    table = _subset_tables.get(k)
    have = 0 if table is None else len(table)
    if stop > have:
        more = _rows_of(colex_vertices(k, have, stop))
        table = _subset_tables[k] = more if table is None else np.concatenate([table, more])
    return table[start:stop]


@lru_cache(maxsize=8)
def _codebits(g: Graph) -> np.ndarray:
    """Entry r is bit r of g.code: 1 iff the pair of colex rank r is an
    edge.  Cached for the few graphs a ladder walk asks about, and bounded,
    since graphs are unbounded keys; read-only."""
    raw = g.code.to_bytes((comb(g.n, 2) + 7) // 8, "little")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    bits.flags.writeable = False
    return bits


def _restriction_bits(
    k: int, *graphs: Graph
) -> Iterator[tuple[np.ndarray, list[np.ndarray]]]:
    """The colex k-subsets of the common vertex set in chunks: yields the
    chunk's (rows, k) vertex array and, per graph, a (rows, C(k,2)) uint8
    array whose row r holds the bits of the restriction code for the
    subset in vertex row r.  Chunks grow geometrically from a few rows, so
    an early exit pays only for a short prefix, and stay within the
    budget."""
    codebits = [_codebits(g) for g in graphs]
    total, most = comb(graphs[0].n, k), _max_rows(k)
    start, size = 0, _FIRST_CHUNK
    while start < total:
        stop = min(total, start + size)
        rows = _subset_rows(k, start, stop)
        yield rows[:, :k], [bits[rows[:, k:]] for bits in codebits]
        start, size = stop, min(2 * size, most)


def _first_mismatch(
    g: Graph, h: Graph, k: int, fails: Callable[[np.ndarray, np.ndarray], np.ndarray]
) -> HypoVerdict:
    """Scan the k-subsets in colex order; `fails` maps a chunk of the two
    graphs' restriction bits to one bool per row, and the subset of the
    first True row is the witness."""
    _check_pair(g, h, k)
    for vertices, (bg, bh) in _restriction_bits(k, g, h):
        bad = fails(bg, bh)
        if bad.any():
            return HypoVerdict(False, tuple(vertices[bad.argmax()].tolist()))
    return HypoVerdict(True)


def _edges(bits: np.ndarray) -> np.ndarray:
    """Edge count of each row's restriction."""
    return bits.sum(axis=1, dtype=np.int64)


def _codes(bits: np.ndarray) -> np.ndarray:
    """Restriction code of each row, for C(k,2) <= 62."""
    return bits @ (np.int64(1) << np.arange(bits.shape[1], dtype=np.int64))


def _code(row: np.ndarray) -> int:
    """Restriction code of one row, any k."""
    return int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")


def _a_counts(bits: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a0, a1, a2) of each row's restriction, from its degrees: a pair
    {edge, non-edge} shares a vertex x in d(x) * (k - 1 - d(x)) ways."""
    j, i = np.tril_indices(k, -1)
    inc = np.zeros((len(i), k), dtype=np.int64)  # local pair -> its two ends
    inc[np.arange(len(i)), i] = inc[np.arange(len(i)), j] = 1
    deg = bits @ inc
    e = deg.sum(axis=1) // 2
    a1 = (deg * (k - 1 - deg)).sum(axis=1)
    a2 = e * (comb(k, 2) - e)
    return a2 - a1, a1, a2


def _h3(bits: np.ndarray, k: int) -> np.ndarray:
    """3-homogeneous triples of each row's restriction, by Goodman's
    identity: a triple that is not homogeneous has exactly two vertices
    meeting one edge and one non-edge of it, so h3 = C(k,3) - a1/2."""
    return comb(k, 3) - _a_counts(bits, k)[1] // 2


# Per-subset signatures: row functions (bits, k) -> one value per row of
# restriction bits, equal for two restrictions iff they agree on the
# signature.  Up to complementation, parity is a signature only when
# C(k,2) is even; when it is odd, complementing flips the parity, so
# every pair agrees.
SIGNATURES: dict[str, Callable[[np.ndarray, int], np.ndarray]] = {
    "parity": lambda bits, k: _edges(bits) % 2,
    "parity_utc": lambda bits, k: _edges(bits) % 2 * (1 - comb(k, 2) % 2),
    "edges": lambda bits, k: np.minimum(e := _edges(bits), comb(k, 2) - e),
    "h3": _h3,
    "a0": lambda bits, k: _a_counts(bits, k)[0],
    "iso": lambda bits, k: codetables.canonical_table(k)[_codes(bits)],
    "utc": lambda bits, k: codetables.canonical_utc_table(k)[_codes(bits)],
}


def _same_signature(kind: str, g: Graph, h: Graph, k: int) -> HypoVerdict:
    """The two graphs agree on the `kind` signature of every k-subset."""
    sig = SIGNATURES[kind]
    return _first_mismatch(g, h, k, lambda bg, bh: sig(bg, k) != sig(bh, k))


def signature_table(kind: str, k: int) -> np.ndarray:
    """The `kind` signature of every labeled graph of order k, indexed by
    code: the row function applied to the bits of all 2^C(k,2) codes, in
    chunks of `_max_rows(k)` rows so its int64 temporaries stay small."""
    sig, codes, step = SIGNATURES[kind], codetables.all_codes(k), _max_rows(k)
    shifts = np.arange(comb(k, 2), dtype=np.int64)
    out = np.empty(len(codes), dtype=np.int64)
    for start in range(0, len(codes), step):
        chunk = codes[start : start + step, None]
        out[start : start + len(chunk)] = sig((chunk >> shifts & 1).astype(np.uint8), k)
    return out


def _maps(bg: np.ndarray, bh: np.ndarray, idx: np.ndarray, utc: bool) -> np.ndarray:
    """Per row: witness idx maps g's restriction (or, if utc, its complement) onto h's."""
    same = bh[:, idx] == bg
    hit = same.all(axis=1)
    if utc:
        hit |= ~same.any(axis=1)
    return hit


def _pair_iso(k: int, rg: np.ndarray, rh: np.ndarray, utc: bool) -> np.ndarray | None:
    """An isomorphism w from the restriction in row rg (or, if utc, its
    complement) onto the one in row rh, as the pair-index array
    idx[rank(i,j)] = rank(w[i], w[j]), rank(i,j) = i + C(j,2) for i < j;
    None if there is none."""
    a, b = Graph.from_code(k, _code(rg)), Graph.from_code(k, _code(rh))
    w = find_isomorphism(a, b)
    if w is None and utc:
        w = find_isomorphism(complement(a), b)
    if w is None:
        return None
    j, i = np.tril_indices(k, -1)
    wi, wj = np.take(w, i), np.take(w, j)
    lo, hi = np.minimum(wi, wj), np.maximum(wi, wj)
    return lo + hi * (hi - 1) // 2


def _hypomorphic(g: Graph, h: Graph, k: int, utc: bool) -> HypoVerdict:
    _check_pair(g, h, k)  # before the k cap and the lane set-up
    if k > ISO_MAX_ORDER:
        raise KTooLarge(f"restriction isomorphism supports k <= {ISO_MAX_ORDER}")
    if k <= TABLE_MAX_K:
        return _same_signature("utc" if utc else "iso", g, h, k)
    kk = comb(k, 2)
    witnesses: list[np.ndarray] = []

    def fails(bg: np.ndarray, bh: np.ndarray) -> np.ndarray:
        eg, eh = _edges(bg), _edges(bh)
        bad = eh != eg
        if utc:
            bad &= eh != kk - eg
        # rows before the first edge failure are settled by the identity,
        # then by the stored witnesses, then searched in row order
        end = int(bad.argmax()) if bad.any() else len(bad)
        rows = np.flatnonzero(~_maps(bg[:end], bh[:end], np.arange(kk), utc))
        hits, misses = [], []
        for idx in witnesses:
            hit = _maps(bg[rows], bh[rows], idx, utc)
            (hits if hit.any() else misses).append(idx)
            rows = rows[~hit]
        witnesses[:] = hits + misses
        while len(rows):
            idx = _pair_iso(k, bg[rows[0]], bh[rows[0]], utc)
            if idx is None:
                bad[rows[0]] = True
                break
            witnesses.insert(0, idx)
            del witnesses[_WITNESSES:]
            rows = rows[1:][~_maps(bg[rows[1:]], bh[rows[1:]], idx, utc)]
        return bad

    return _first_mismatch(g, h, k, fails)


def k_hypomorphic(g: Graph, h: Graph, k: int) -> HypoVerdict:
    """Every k-element restriction pair isomorphic."""
    return _hypomorphic(g, h, k, utc=False)


def k_hypomorphic_utc(g: Graph, h: Graph, k: int) -> HypoVerdict:
    """Every k-element restriction pair isomorphic up to complementation."""
    return _hypomorphic(g, h, k, utc=True)


def same_edge_counts_utc(g: Graph, h: Graph, k: int) -> HypoVerdict:
    """e(h|K) equals e(g|K) or C(k,2) - e(g|K) for every K."""
    return _same_signature("edges", g, h, k)


def same_parity(g: Graph, h: Graph, k: int) -> HypoVerdict:
    """e(g|K) and e(h|K) share parity for every K."""
    return _same_signature("parity", g, h, k)


def same_parity_utc(g: Graph, h: Graph, k: int) -> HypoVerdict:
    """e(g|K) shares parity with e(h|K) or with C(k,2) - e(h|K)."""
    return _same_signature("parity_utc", g, h, k)


def same_3_homogeneous(g: Graph, h: Graph) -> HypoVerdict:
    """The two graphs have identical sets of 3-homogeneous subsets; the
    witness is the lex-least triple in exactly one of them: the first pair
    i < j whose third vertices differ, with its least such l."""
    if g.n != h.n:
        raise OrderMismatch(f"orders differ: {g.n} vs {h.n}")
    full = (1 << g.n) - 1
    for i, j in combinations(range(g.n), 2):
        differ = 0
        for x in (g, h):
            # third vertices l > j joined to both i and j, or to neither, as i to j
            a, b = x.adj[i], x.adj[j]
            differ ^= (a & b if a >> j & 1 else full & ~(a | b)) >> j + 1
        if differ:
            return HypoVerdict(False, (i, j, j + (differ & -differ).bit_length()))
    return HypoVerdict(True)


def same_h3_counts(g: Graph, h: Graph, k: int) -> HypoVerdict:
    """h3(g|K) = h3(h|K) for every k-subset K (counts, not sets)."""
    return _same_signature("h3", g, h, k)


def same_a0_counts(g: Graph, h: Graph, k: int) -> HypoVerdict:
    """a0(g|K) = a0(h|K) for every k-subset K."""
    return _same_signature("a0", g, h, k)


def equal_up_to_complementation(g: Graph, h: Graph) -> bool:
    """h equals g or the complement of g, as labeled edge sets."""
    if g.n != h.n:
        raise OrderMismatch(f"orders differ: {g.n} vs {h.n}")
    return h.adj == g.adj or h.adj == complement(g).adj


# -- counting-identity and theorem verifiers -----------------------------


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
    for _, (bits,) in _restriction_bits(k, g):
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
        for e in (_edges(bits) for _, (bits,) in _restriction_bits(k, g))
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


def equality_threshold(v: int) -> int:
    """Piecewise threshold: 4l for v in {4l+2, 4l+3}, 4l-3 for v in
    {4l, 4l+1}.  Largest k proven to put (v, k) in the equality set."""
    if v < 4:
        raise DomainError(f"threshold defined for v >= 4, got {v}")
    l = v // 4
    return 4 * l if v % 4 in (2, 3) else 4 * l - 3


# Domains of the theorems swept by `atlas.sweep_theorem`, read there and
# by the pair verifiers: theorem -> (predicate on (v, k), its statement).
THEOREM_DOMAINS: dict[str, tuple[Callable[[int, int], bool], str]] = {
    "k0mod4": (lambda v, k: 4 <= k <= v - 2 and k % 4 == 0, "4 <= k <= v-2, k = 0 (mod 4)"),
    "k1mod4": (lambda v, k: 5 <= k <= v - 2 and k % 4 == 1, "5 <= k <= v-2, k = 1 (mod 4)"),
    "principal": (
        lambda v, k: v >= 6 and 4 <= k <= equality_threshold(v),
        "v >= 6, 4 <= k <= threshold(v)",
    ),
    "down": (lambda v, k: 2 <= k <= v - 1, "2 <= k <= v-1"),
    "corkk1": (lambda v, k: 4 <= k <= v, "4 <= k <= v"),
    "kaplus": (lambda v, k: 3 <= k <= v - 3, "3 <= k <= v-3"),
}


def check_domain(theorem: str, v: int, k: int | None) -> None:
    """Raise DomainError unless k is given and (v, k) is in the domain."""
    holds, statement = THEOREM_DOMAINS[theorem]
    if k is None or not holds(v, k):
        raise DomainError(f"{theorem} needs {statement}; got k={k}, v={v}")


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
