"""Explicit graphs and graph pairs witnessing the sharpness results,
plus the class-G machinery (Paley graphs, lexicographic products).

Class G is the family of finite graphs of order other than 2 whose
every vertex-deleted subgraph is self-complementary.  Members built
here carry constructive certificates: for each vertex x, a permutation
mapping the graph onto its complement while fixing x.  For a Paley
graph the certificate is y -> s*(y - x) + x with s a fixed non-square;
certificates compose coordinatewise through lexicographic products.

Every constructed pair re-verifies its claimed properties through the
hypomorphy module before being returned; a construction that fails its
own claims raises instead of returning quietly.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import combinations
from math import comb, gcd
from typing import Callable, Iterable

from .errors import (
    DomainError,
    NotPrimePowerOneMod4,
    OrderTooLarge,
    VerificationError,
)
from .graphs import Graph, complement_rows, induced
from .hypomorphy import (
    equal_up_to_complementation,
    k_hypomorphic,
    k_hypomorphic_utc,
    same_edge_counts_utc,
    same_parity_utc,
    equality_threshold,
)
from .isomorphism import (
    IsoUtcKind,
    find_isomorphism,
    find_isomorphism_rows,
    is_self_complementary,
    is_vertex_transitive,
    isomorphic_up_to_complementation,
)

PALEY_MAX_Q = 61
CLASS_G_MAX_ORDER = 25
CLASS_G_SEARCH_MAX_ORDER = 16  # beyond this a certifier is required


# -- finite fields -------------------------------------------------------


def _factor_prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise DomainError(f"not a prime power: {q}")
    p = 2
    while p * p <= q:
        if q % p == 0:
            e = 0
            r = q
            while r % p == 0:
                r //= p
                e += 1
            if r != 1:
                raise DomainError(f"not a prime power: {q}")
            return p, e
        p += 1
    return q, 1


class FiniteField:
    """GF(p^e) for e <= 2, elements indexed 0..q-1 as a + b*p for the
    polynomial a + b*x.  Quadratic extensions (p odd) use x^2 + c with c
    the least residue making -c a non-square mod p, so the table is fixed
    and outputs are reproducible."""

    def __init__(self, q: int):
        q = operator.index(q)  # a numpy q would make every element a numpy int
        p, e = _factor_prime_power(q)
        if e > 2 or q == 4:  # over GF(2) every x^2 + c has a root
            raise DomainError(f"only GF(p) and GF(p^2), p odd, are supported, got q={q}")
        self.q = q
        self.p = p
        self.e = e
        if e == 2:
            sq = {z * z % p for z in range(1, p)}
            self.c = next(c for c in range(1, p) if (-c) % p not in sq)
        else:
            self.c = 0
        self.squares = frozenset(self.mul(z, z) for z in range(1, q))

    def _split(self, i: int) -> tuple[int, int]:
        return i % self.p, i // self.p

    def add(self, i: int, j: int) -> int:
        a, b = self._split(i)
        c, d = self._split(j)
        return (a + c) % self.p + ((b + d) % self.p) * self.p

    def neg(self, i: int) -> int:
        a, b = self._split(i)
        return (-a) % self.p + ((-b) % self.p) * self.p

    def sub(self, i: int, j: int) -> int:
        return self.add(i, self.neg(j))

    def mul(self, i: int, j: int) -> int:
        if self.e == 1:
            return i * j % self.p
        a, b = self._split(i)
        c, d = self._split(j)
        lo = (a * c - b * d * self.c) % self.p
        hi = (a * d + b * c) % self.p
        return lo + hi * self.p

    def least_nonsquare(self) -> int:
        z = next((z for z in range(1, self.q) if z not in self.squares), None)
        if z is None:  # GF(2): its one nonzero element is a square
            raise DomainError(f"GF({self.q}) has no non-square")
        return z


# -- single-graph constructions ------------------------------------------


def star_graph(v: int) -> Graph:
    """Vertex 0 joined to all others, no other edges."""
    if v < 2:
        raise DomainError(f"star needs v >= 2, got {v}")
    return Graph.from_edges(v, [(0, i) for i in range(1, v)])


def _paley_field(q: int) -> FiniteField:
    """GF(q), for a Paley graph of order q: q a prime power with
    q = 1 (mod 4), up to PALEY_MAX_Q."""
    q = operator.index(q)
    try:
        _factor_prime_power(q)
    except DomainError:
        raise NotPrimePowerOneMod4(f"{q} is not a prime power")
    if q % 4 != 1:
        raise NotPrimePowerOneMod4(f"{q} is not 1 (mod 4)")
    if q > PALEY_MAX_Q:
        raise DomainError(f"Paley construction capped at q <= {PALEY_MAX_Q}")
    return FiniteField(q)


def paley_graph(q: int) -> Graph:
    """Vertices GF(q), edges the pairs whose difference is a nonzero
    square; q a prime power with q = 1 (mod 4)."""
    f = _paley_field(q)
    edges = [(x, y) for x, y in combinations(range(q), 2) if f.sub(x, y) in f.squares]
    return Graph.from_edges(q, edges)


def paley_certifier(q: int) -> Callable[[int], tuple[int, ...]]:
    """Per-vertex complementing isomorphisms of the Paley graph:
    the certificate for x is y -> s*(y - x) + x, s a fixed non-square."""
    f = _paley_field(q)
    s = f.least_nonsquare()

    def certify(x: int) -> tuple[int, ...]:
        return tuple(f.add(f.mul(s, f.sub(y, x)), x) for y in range(f.q))

    return certify


def lex_product(g: Graph, h: Graph) -> Graph:
    """Lexicographic product: a copy of g substituted into each vertex
    of h.  Vertex (u, w) maps to index u + w * g.n."""
    n = g.n * h.n
    if n > 64:
        raise OrderTooLarge(f"product order {n} exceeds 64")
    edges = []
    for w in range(h.n):
        base = w * g.n
        edges.extend((base + a, base + b) for a, b in g.edges())
    for w1, w2 in h.edges():
        for a in range(g.n):
            for b in range(g.n):
                edges.append((w1 * g.n + a, w2 * g.n + b))
    return Graph.from_edges(n, edges)


def lex_certifier(
    cert_g: Callable[[int], tuple[int, ...]],
    cert_h: Callable[[int], tuple[int, ...]],
    g_order: int,
    h_order: int,
) -> Callable[[int], tuple[int, ...]]:
    """Compose per-vertex complementing isomorphisms through the product."""

    def certify(x: int) -> tuple[int, ...]:
        u0, w0 = x % g_order, x // g_order
        phi = cert_g(u0)
        theta = cert_h(w0)
        return tuple(
            phi[u] + theta[w] * g_order for w in range(h_order) for u in range(g_order)
        )

    return certify


def circulant(n: int, difference_classes: Iterable[int]) -> Graph:
    edges = []
    for d in difference_classes:
        edges.extend((i, (i + d) % n) for i in range(n))
    return Graph.from_edges(n, edges)


# -- constructed pairs ----------------------------------------------------


@dataclass(frozen=True)
class ConstructedPair:
    g: Graph
    g_prime: Graph
    provenance: dict
    claimed_properties: tuple[str, ...]

    def to_json(self) -> dict:
        from .graph6 import encode

        return {
            "g": encode(self.g),
            "g_prime": encode(self.g_prime),
            "provenance": self.provenance,
            "verified": list(self.claimed_properties),
        }


def _check_claim(g: Graph, h: Graph, tag: str) -> bool:
    kind, _, arg = tag.partition(":")
    if kind == "k-hypo":
        return k_hypomorphic(g, h, int(arg)).holds
    if kind == "k-hypo-utc":
        return k_hypomorphic_utc(g, h, int(arg)).holds
    if kind == "edges-utc":
        return same_edge_counts_utc(g, h, int(arg)).holds
    if kind == "parity-utc":
        return same_parity_utc(g, h, int(arg)).holds
    if kind == "not-iso-utc":
        return isomorphic_up_to_complementation(g, h).kind is IsoUtcKind.NEITHER
    if kind == "not-equal-utc":
        return not equal_up_to_complementation(g, h)
    raise DomainError(f"unknown claim tag {tag!r}")


def _verified_pair(
    g: Graph, h: Graph, provenance: dict, claims: Iterable[str], verify: bool = True
) -> ConstructedPair:
    claims = tuple(claims)
    if verify:
        for tag in claims:
            if not _check_claim(g, h, tag):
                raise VerificationError(f"{provenance}: claimed property {tag!r} failed")
    return ConstructedPair(g, h, provenance, claims)


def clique_pair_counterexample(v: int, verify: bool = True) -> ConstructedPair:
    """Two cliques covering the vertex set; the second graph adds one
    cross edge.  3-hypomorphic up to complementation yet not isomorphic
    up to complementation."""
    v = operator.index(v)  # a numpy v would reach the provenance
    if v < 4:
        raise DomainError(f"need v >= 4, got {v}")
    p = v // 2
    cliques = [(i, j) for i, j in combinations(range(p), 2)]
    cliques += [(i, j) for i, j in combinations(range(p, v), 2)]
    g = Graph.from_edges(v, cliques)
    h = Graph.from_edges(v, cliques + [(0, p)])
    return _verified_pair(
        g,
        h,
        {"construction": "clique-pair", "v": v},
        ["k-hypo-utc:3", "not-iso-utc"],
        verify,
    )


def cycle_swap_pair(v: int, verify: bool = True) -> ConstructedPair:
    """Two v-cycles, the second obtained by exchanging vertices 0 and 1.
    (v-1)- and v-hypomorphic, yet distinct from the first graph and from
    its complement."""
    v = operator.index(v)
    if v < 4:
        raise DomainError(f"need v >= 4, got {v}")
    cyc = [(i, i + 1) for i in range(v - 1)] + [(0, v - 1)]
    swapped = set(map(frozenset, cyc))
    swapped -= {frozenset((0, v - 1)), frozenset((1, 2))}
    swapped |= {frozenset((1, v - 1)), frozenset((0, 2))}
    g = Graph.from_edges(v, cyc)
    h = Graph.from_edges(v, [tuple(sorted(e)) for e in swapped])
    return _verified_pair(
        g,
        h,
        {"construction": "cycle-swap", "v": v},
        [f"k-hypo:{v - 1}", f"k-hypo:{v}", "not-equal-utc"],
        verify,
    )


def five_cycle_deletion_pairs(verify: bool = True) -> list[ConstructedPair]:
    """The order-4 and order-3 pairs obtained from the swapped 5-cycles
    by deleting vertex 3, then vertices 3 and 4.  Each is hypomorphic up
    to complementation at every size, plainly hypomorphic at the top two
    sizes, and not equal up to complementation."""
    base = cycle_swap_pair(5, verify=False)
    out = []
    for keep in ((0, 1, 2, 4), (0, 1, 2)):
        g = induced(base.g, keep)
        h = induced(base.g_prime, keep)
        n = len(keep)
        claims = [f"k-hypo-utc:{k}" for k in range(1, n + 1)]
        claims += [f"k-hypo:{k}" for k in range(3, n + 1)]  # plain 2-hypomorphy would force equality
        claims.append("not-equal-utc")
        out.append(
            _verified_pair(
                g, h, {"construction": "cycle-swap-deletion", "v": n}, claims, verify
            )
        )
    return out


def k7_counterexample(v: int, verify: bool = True) -> ConstructedPair:
    """A clique on all but the last two vertices in both graphs; the
    second adds the edge between the two leftover vertices.  Same edge
    counts up to complementation on every 7-subset, yet the graphs are
    not equal up to complementation."""
    v = operator.index(v)
    if v < 9:
        raise DomainError(f"need v >= 9, got {v}")
    cliq = [(i, j) for i, j in combinations(range(v - 2), 2)]
    g = Graph.from_edges(v, cliq)
    h = Graph.from_edges(v, cliq + [(v - 2, v - 1)])
    return _verified_pair(
        g,
        h,
        {"construction": "k7-pair", "v": v},
        ["edges-utc:7", "not-equal-utc"],
        verify,
    )


def star_parity_pair(k: int, v: int, verify: bool = True) -> ConstructedPair:
    """For k not divisible by 4: a star against the empty graph (k odd)
    or the complete graph (k = 2 mod 4).  Restriction parities match up
    to complementation at k, yet the pair is not isomorphic up to
    complementation."""
    k, v = operator.index(k), operator.index(v)
    if k % 4 == 0:
        raise DomainError("k must not be divisible by 4")
    if v < k + 2:
        raise DomainError(f"need v >= k + 2, got k={k}, v={v}")
    g = Graph.complete(v) if k % 4 == 2 else Graph.empty(v)
    h = star_graph(v)
    return _verified_pair(
        g,
        h,
        {"construction": "star-parity", "k": k, "v": v},
        [f"parity-utc:{k}", "not-iso-utc"],
        verify,
    )


def threshold_pair(m: int, r: int, verify: bool = True) -> ConstructedPair:
    """Pairs of order v = m + r (r in {2,3,4}, m carrying a class-G
    graph) that are k-hypomorphic up to complementation for every k with
    threshold(v) < k <= v, yet not equal up to complementation.

    r = 4: four extra vertices a,b,c,d; both graphs put b,c adjacent to
    all of the class-G part; the first adds the path a-b-c-d, the second
    the path b-d plus a-c plus b-c.  r = 3 deletes a from the r = 4
    pair.  r = 2: two extra vertices, one dominating the class-G part in
    each graph.
    """
    m, r = operator.index(m), operator.index(r)
    if r not in (2, 3, 4):
        raise DomainError(f"r must be in {{2,3,4}}, got {r}")
    if m + r > 30:
        raise DomainError(f"order {m + r} exceeds the desk-scale cap of 30")
    base = paley_graph(m)

    def build_r4() -> tuple[Graph, Graph]:
        a, b, c, d = m, m + 1, m + 2, m + 3
        shared = list(base.edges()) + [(b, x) for x in range(m)] + [(c, x) for x in range(m)]
        g = Graph.from_edges(m + 4, shared + [(a, b), (b, c), (c, d)])
        h = Graph.from_edges(m + 4, shared + [(a, c), (b, c), (b, d)])
        return g, h

    if r == 4:
        g, h = build_r4()
    elif r == 3:
        g4, h4 = build_r4()
        keep = [x for x in range(m + 4) if x != m]
        g, h = induced(g4, keep), induced(h4, keep)
    else:
        a, b = m, m + 1
        shared = list(base.edges())
        g = Graph.from_edges(m + 2, shared + [(b, x) for x in range(m)])
        h = Graph.from_edges(m + 2, shared + [(a, x) for x in range(m)])
    v = m + r
    claims = [f"k-hypo-utc:{k}" for k in range(equality_threshold(v) + 1, v + 1)]
    claims.append("not-equal-utc")
    return _verified_pair(
        g, h, {"construction": "threshold-pair", "m": m, "r": r, "v": v}, claims, verify
    )


# -- class G ---------------------------------------------------------------


@dataclass(frozen=True)
class ClassGResult:
    is_member: bool
    certificates: dict[int, tuple[int, ...]] | None
    deletion_witnesses: dict[int, tuple[int, ...]] | None
    failed_vertex: int | None

    def __bool__(self) -> bool:
        return self.is_member


def _validate_certificate(g: Graph, x: int, perm: tuple[int, ...]) -> None:
    if sorted(perm) != list(range(g.n)) or perm[x] != x:
        raise VerificationError(f"certificate for vertex {x} is not a permutation fixing it")
    for i, j in combinations(range(g.n), 2):
        if g.has_edge(i, j) == g.has_edge(perm[i], perm[j]):
            raise VerificationError(
                f"certificate for vertex {x} is not a complementing isomorphism"
            )


def class_g_member(
    g: Graph, certifier: Callable[[int], tuple[int, ...]] | None = None
) -> ClassGResult:
    """Is every vertex-deleted subgraph self-complementary?

    With a certifier (constructive provenance): each per-vertex
    complementing isomorphism of g fixing the vertex is validated, which
    proves membership.  Without one: a per-vertex isomorphism search on
    the deleted subgraphs, supported for n <= 16.
    """
    if g.n == 2:
        raise DomainError("class membership is defined for orders other than 2")
    if g.n > CLASS_G_MAX_ORDER:
        raise OrderTooLarge(f"class membership capped at n <= {CLASS_G_MAX_ORDER}")
    if certifier is not None:
        certs = {}
        for x in range(g.n):
            perm = tuple(certifier(x))
            _validate_certificate(g, x, perm)
            certs[x] = perm
        return ClassGResult(True, certs, None, None)
    if g.n > CLASS_G_SEARCH_MAX_ORDER:
        raise OrderTooLarge(
            f"certifier-free membership capped at n <= {CLASS_G_SEARCH_MAX_ORDER}"
        )
    witnesses = {}
    for x in range(g.n):
        keep = [y for y in range(g.n) if y != x]
        rows = induced(g, keep).adj
        w = find_isomorphism_rows(rows, complement_rows(rows))
        if w is None:
            return ClassGResult(False, None, None, x)
        witnesses[x] = w
    return ClassGResult(True, None, witnesses, None)


def _four_regular_order9_classes() -> list[Graph]:
    """All order-9 4-regular graphs up to isomorphism, built by
    completing the order-8 catalog members having exactly four
    degree-3 vertices (the deleted vertex's former neighborhood)."""
    from .atlas import enumerate_graphs

    candidates = []
    for rep in enumerate_graphs(8).representatives:
        degs = [rep.degree(x) for x in range(8)]
        if sorted(degs) != [3, 3, 3, 3, 4, 4, 4, 4]:
            continue
        nbrs = [x for x in range(8) if degs[x] == 3]
        candidates.append(
            Graph.from_edges(9, list(rep.edges()) + [(x, 8) for x in nbrs])
        )
    reps: list[Graph] = []
    for cand in candidates:
        if all(find_isomorphism(cand, r) is None for r in reps):
            reps.append(cand)
    return reps


@dataclass(frozen=True)
class VerifierResult:
    """Outcome of a theorem check with the independently computed sides."""

    ok: bool
    details: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.ok


def verify_class_g_characterization(n: int) -> VerifierResult:
    """Class membership coincides with being self-complementary and
    vertex-transitive, checked exhaustively over order-n isomorphism
    classes (n <= 8 via the catalog; n = 9 over the 4-regular classes,
    the only ones where either side can hold: both sides force
    e(G - x) = C(n-1,2)/2 for all x, hence 4-regularity with 18 edges)."""
    from .atlas import enumerate_graphs

    n = operator.index(n)  # a numpy n would reach the details
    if not 1 <= n <= 9 or n == 2:
        raise DomainError(f"characterization check supports n in 1..9, n != 2, got {n}")
    if n <= 8:
        pool = enumerate_graphs(n).representatives
    else:
        pool = _four_regular_order9_classes()
    members = []
    ok = True
    for g in pool:
        lhs = class_g_member(g).is_member
        rhs = is_self_complementary(g) and is_vertex_transitive(g)
        if lhs != rhs:
            ok = False
        if lhs:
            members.append(g)
    from .graph6 import encode

    return VerifierResult(
        ok,
        {"n": n, "members": [encode(g) for g in members], "classes_checked": len(pool)},
    )


@dataclass(frozen=True)
class ClassGSearchReport:
    n: int
    budget: int
    space_size: int
    candidates_examined: int
    exhaustive: bool
    members: tuple[Graph, ...]
    connection_sets: tuple[tuple[int, ...], ...]

    def to_json(self) -> dict:
        from .graph6 import encode

        return {
            "n": self.n,
            "budget": self.budget,
            "search_space": "circulant difference-class subsets",
            "space_size": self.space_size,
            "candidates_examined": self.candidates_examined,
            "exhaustive": self.exhaustive,
            "members": [encode(g) for g in self.members],
            "connection_sets": [list(cs) for cs in self.connection_sets],
        }


def search_class_g(n: int, budget: int) -> ClassGSearchReport:
    """Exploratory circulant search for class-G members of order n.

    Candidates are the C((n-1)/2, (n-1)/4) choices of difference
    classes; a candidate is kept when a unit multiplier maps its class
    set onto the complementary classes, which yields verified
    per-vertex certificates.  An empty result is a coverage statement
    about this candidate space, never a nonexistence proof.
    """
    n, budget = operator.index(n), operator.index(budget)  # both reach the report
    if n % 4 != 1 or not 5 <= n <= 29:
        raise DomainError(f"need n = 1 (mod 4) with 5 <= n <= 29, got {n}")
    if budget < 0:
        raise DomainError(f"budget must be non-negative, got {budget}")
    half = (n - 1) // 2
    pick = (n - 1) // 4
    space = comb(half, pick)
    units = [m for m in range(2, n) if gcd(m, n) == 1]
    found: list[tuple[Graph, tuple[int, ...], int]] = []
    examined = 0
    for classes in combinations(range(1, half + 1), pick):
        if examined >= budget:
            break
        examined += 1
        chosen = set(classes)
        complement_classes = set(range(1, half + 1)) - chosen
        mult = None
        for mcand in units:
            image = {min(mcand * d % n, (n - mcand * d) % n) for d in chosen}
            if image == complement_classes:
                mult = mcand
                break
        if mult is None:
            continue
        g = circulant(n, classes)

        def certifier(x: int, m: int = mult) -> tuple[int, ...]:
            return tuple((m * (y - x) + x) % n for y in range(n))

        result = class_g_member(g, certifier)
        if not result.is_member:
            raise VerificationError(f"circulant {classes} fails its class-G certificate")
        found.append((g, classes, mult))
    members: list[Graph] = []
    sets: list[tuple[int, ...]] = []
    for g, classes, _ in found:
        if all(find_isomorphism(g, other) is None for other in members):
            members.append(g)
            sets.append(classes)
    return ClassGSearchReport(
        n=n,
        budget=budget,
        space_size=space,
        candidates_examined=examined,
        exhaustive=examined == space,
        members=tuple(members),
        connection_sets=tuple(sets),
    )
