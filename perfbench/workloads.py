"""The four benchmark workloads: inputs from a seed, the timed calls, and
the output checks.

Each workload is a list of requests.  `make_*` builds the requests from
the seed before anything is timed; a request carries only graph6 text or
(t, k, v) tuples for the program, plus the expected answers and the
benchmark's own copy of the graphs for the checks.  `run_*` makes the
timed calls into recomp, each inside a span named after the layer it
enters.  `check_*` compares the output against answers that do not come
from the call being checked and returns the mismatches.

Importing this module imports recomp, so only the worker process does.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb

import numpy as np

import oracle
from recomp import codes as codetables
from recomp.atlas import enumerate_graphs, r_membership, s_membership, sweep_theorem
from recomp.constructions import (
    clique_pair_counterexample,
    cycle_swap_pair,
    k7_counterexample,
    threshold_pair,
)
from recomp.graph6 import decode, encode
from recomp.graphs import Graph, induced
from recomp.hypomorphy import (
    equal_up_to_complementation,
    equality_threshold,
    k_hypomorphic,
    k_hypomorphic_utc,
    same_3_homogeneous,
    same_edge_counts_utc,
    same_parity,
)
from recomp.incidence import build_w, kernel_graphs_mod2, subset_rank
from recomp.isomorphism import isomorphic_up_to_complementation
from recomp.linalg import rank_exact, rank_mod

# recomp compares restrictions of up to this many vertices through canonical
# tables and searches beyond it; the span names follow the lane.
TABLE_LANE_MAX_K = 6

# graph classes per order (OEIS A000088)
GRAPH_CLASSES = {3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


# -- atlas ---------------------------------------------------------------

ATLAS_SWEEPS = (
    ("k0mod4", 6, 4),
    ("principal", 6, 4),
    ("down", 6, 3),
    ("corkk1", 6, 4),
    ("kaplus", 6, 3),
    ("clawfree", 5, None),  # k1mod4 is left out: its domain starts at order 7
)
S_MEMBERS_V6 = {4}
R_MEMBERS_V6 = {4, 5, 6}


def _cell_examined(v: int, k: int) -> int:
    # k < v: every canonical g against every labeled g'.  k == v: the
    # hypothesis set of g is its iso-utc class; with no self-complementary
    # graph at orders 2, 3 (mod 4) the classes of g and of its complement
    # are disjoint, and over all representatives they cover the code space
    # twice.
    if k < v:
        return GRAPH_CLASSES[v] << comb(v, 2)
    return 2 << comb(v, 2)


def make_atlas(seed: int, small: bool) -> list[dict]:
    rng = random.Random(seed)
    ks = [3, 4, 5, 6]
    reqs: list[dict] = [
        {"op": "tables", "ks": ks, "expect": {"classes": [GRAPH_CLASSES[k] for k in ks]}}
    ]
    for rel, members in (("S", S_MEMBERS_V6), ("R", R_MEMBERS_V6)):
        row = [
            {
                "op": "cell",
                "rel": rel,
                "v": 6,
                "k": k,
                "expect": {
                    "verdict": "Member" if k in members else "NonMember",
                    "pairs_examined": _cell_examined(6, k),
                },
            }
            for k in ([4] if small else range(1, 7))
        ]
        rng.shuffle(row)
        reqs += row
    sweeps = [s for s in ATLAS_SWEEPS if not small or s[0] in ("k0mod4", "clawfree")]
    rng.shuffle(sweeps)
    for theorem, v, k in sweeps:
        expect = {"violation_count": 0, "pairs_examined": GRAPH_CLASSES[v] << comb(v, 2)}
        if theorem == "clawfree":
            expect["pairs_examined"] = 1 << 2 * comb(v, 2)  # all ordered pairs
        if theorem in ("k0mod4", "principal", "corkk1"):
            # the hypothesis is equivalent to equality up to complementation
            expect["hypothesis_count"] = 2 * GRAPH_CLASSES[v]
        reqs.append({"op": "sweep", "theorem": theorem, "v": v, "k": k, "expect": expect})
    if not small:
        reqs.append({"op": "catalog", "v": 7, "expect": {"classes": GRAPH_CLASSES[7]}})
        cells = [
            {
                "op": "cell",
                "rel": rel,
                "v": 7,
                "k": 7,
                "expect": {"verdict": verdict, "pairs_examined": _cell_examined(7, 7)},
            }
            for rel, verdict in (("S", "NonMember"), ("R", "Member"))
        ]
        rng.shuffle(cells)
        reqs += cells
    return reqs


def run_atlas(req: dict, tracer, rid: int):
    op = req["op"]
    if op == "tables":
        with tracer.span("codes.canonical_tables", rid):
            return [codetables.canonical_table(k) for k in req["ks"]]
    if op == "catalog":
        with tracer.span("atlas.catalog7", rid):
            return enumerate_graphs(req["v"])
    if op == "cell":
        fn = s_membership if req["rel"] == "S" else r_membership
        name = "atlas.k7_cells" if req["v"] == 7 else f"atlas.{req['rel'].lower()}_row6"
        with tracer.span(name, rid):
            rec = fn(req["v"], req["k"], long_running=req["v"] > 6)
        tracer.count("atlas.cells")
        tracer.count("atlas.pairs_examined", rec.pairs_examined)
        return rec
    with tracer.span(f"atlas.sweep.{req['theorem']}", rid):
        rep = sweep_theorem(req["theorem"], req["v"], req["k"])
    tracer.count("atlas.pairs_examined", rep.pairs_examined)
    tracer.count("atlas.hypothesis_count", rep.hypothesis_count)
    return rep


def check_atlas(req: dict, out) -> list[str]:
    exp = req["expect"]
    op = req["op"]
    if op == "tables":
        got = [len(np.unique(t)) for t in out]
        return [] if got == exp["classes"] else [f"table classes {got}"]
    if op == "catalog":
        codes = [g.code for g in out.representatives]
        bad = []
        if len(codes) != exp["classes"]:
            bad.append(f"catalog has {len(codes)} classes")
        if any(a >= b for a, b in zip(codes, codes[1:])):
            bad.append("catalog codes not strictly increasing")
        if any(g.n != req["v"] for g in out.representatives):
            bad.append("catalog graph of the wrong order")
        return bad
    if op == "sweep":
        bad = [
            f"{key} {getattr(out, key)} != {want}"
            for key, want in exp.items()
            if getattr(out, key) != want
        ]
        if not out.ok:
            bad.append("sweep not ok")
        return bad
    bad = []
    if out.verdict != exp["verdict"]:
        bad.append(f"verdict {out.verdict}")
    if out.pairs_examined != exp["pairs_examined"]:
        bad.append(f"pairs_examined {out.pairs_examined}")
    if out.verdict == "Member":
        if out.witness is not None:
            bad.append("Member with a witness")
        return bad
    if out.witness is None:
        return bad + ["NonMember without a witness"]
    # re-check the witness: k-hypomorphic up to complementation, yet the
    # conclusion of the relation fails
    g, h = decode(out.witness[0]), decode(out.witness[1])
    if not k_hypomorphic_utc(g, h, req["k"]).holds:
        bad.append("witness is not k-hypomorphic up to complementation")
    if equal_up_to_complementation(g, h):
        bad.append("witness is equal up to complementation")
    if req["rel"] == "R":
        a, b = tuple(g.adj), tuple(h.adj)
        if oracle.isomorphic(a, b) or oracle.isomorphic(oracle.complement(a), b):
            bad.append("R witness is isomorphic up to complementation")
    return bad


# -- pairs ---------------------------------------------------------------

PAIR_ORDERS = range(8, 14)
PAIR_REPLICAS = 6
THRESHOLD_PAIRS = {8: (5, 3), 9: (5, 4), 11: (9, 2), 12: (9, 3), 13: (9, 4)}
RUNGS = (
    ("parity", same_parity),
    ("edges_utc", same_edge_counts_utc),
    ("hypo", k_hypomorphic),
    ("hypo_utc", k_hypomorphic_utc),
)


def _random_rows(n: int, rng: random.Random) -> tuple[int, ...]:
    p = rng.uniform(0.25, 0.75)
    return oracle.rows_from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def _pair_family(family: str, n: int, rng: random.Random):
    """(g rows, h rows, expectations) of one request."""
    expect: dict[str, bool] = {}
    if family in ("threshold", "cycle_swap", "clique_pair", "k7"):
        if family == "threshold":
            pair = threshold_pair(*THRESHOLD_PAIRS[n], verify=False)
            for k in range(equality_threshold(n) + 1, n):
                expect[f"hypo_utc:{k}"] = True
        elif family == "cycle_swap":
            pair = cycle_swap_pair(n, verify=False)
            expect[f"hypo:{n - 1}"] = True
        elif family == "clique_pair":
            pair = clique_pair_counterexample(n, verify=False)
            expect["hypo_utc:3"] = True
            expect["iso_utc"] = False
        else:
            pair = k7_counterexample(n, verify=False)
            expect["edges_utc:7"] = True
        # none of these pairs is equal up to complementation, so by the
        # principal theorem they fail k-hypomorphy up to complementation at
        # every 4 <= k <= threshold(n)
        for k in range(4, equality_threshold(n) + 1):
            expect[f"hypo_utc:{k}"] = False
        # hypomorphy is invariant under relabeling both graphs at once
        perm = list(range(n))
        rng.shuffle(perm)
        g = oracle.relabel(tuple(pair.g.adj), perm)
        h = oracle.relabel(tuple(pair.g_prime.adj), perm)
        return g, h, expect
    g = _random_rows(n, rng)
    if family == "complement":
        h = oracle.complement(g)
        expect["h3"] = True
        expect["iso_utc"] = True
        for k in range(3, n):
            expect[f"hypo_utc:{k}"] = True
            expect[f"edges_utc:{k}"] = True
            expect[f"parity:{k}"] = comb(k, 2) % 2 == 0
        return g, h, expect
    if family == "flip":
        i, j = rng.sample(range(n), 2)
        h = tuple(row ^ (1 << j if x == i else 1 << i if x == j else 0) for x, row in enumerate(g))
        for k in range(3, n):
            # a k-subset holding the flipped pair changes its edge count by one
            expect[f"parity:{k}"] = False
            expect[f"hypo:{k}"] = False
            if comb(k, 2) % 2 == 0:
                expect[f"edges_utc:{k}"] = False
                expect[f"hypo_utc:{k}"] = False
        return g, h, expect
    return g, _random_rows(n, rng), expect


def make_pairs(seed: int, small: bool) -> list[dict]:
    rng = random.Random(seed)
    reqs = []
    orders = range(8, 10) if small else PAIR_ORDERS
    for _ in range(1 if small else PAIR_REPLICAS):
        for n in orders:
            families = ["cycle_swap", "clique_pair", "complement", "flip", "random"]
            if n in THRESHOLD_PAIRS:
                families.append("threshold")
            if n >= 9:
                families.append("k7")
            for family in families:
                g, h, expect = _pair_family(family, n, rng)
                reqs.append(
                    {
                        "family": family,
                        "n": n,
                        "g6": [oracle.graph6(g), oracle.graph6(h)],
                        "rows": [g, h],
                        "expect": expect,
                    }
                )
    rng.shuffle(reqs)
    return reqs


def _count_scan(tracer, verdict, n: int, k: int, lex: bool = False) -> None:
    tracer.count("hypomorphy.checks")
    if verdict.witness is None:
        tracer.count("hypomorphy.subsets_scanned", comb(n, k))
        return
    tracer.count("hypomorphy.early_exits")
    w = tuple(verdict.witness)
    rank = oracle.lex_rank(w, n) if lex else subset_rank(w)
    tracer.count("hypomorphy.subsets_scanned", rank + 1)


def run_pairs(req: dict, tracer, rid: int):
    with tracer.span("request", rid):
        with tracer.span("graph6.decode"):
            g = decode(req["g6"][0])
            h = decode(req["g6"][1])
        n = g.n
        with tracer.span("hypomorphy.h3"):
            h3 = same_3_homogeneous(g, h)
        if tracer.on:
            _count_scan(tracer, h3, n, 3, lex=True)
        with tracer.span("isomorphism.iso_utc"):
            utc = isomorphic_up_to_complementation(g, h)
        rungs = {}
        for k in range(3, n):
            for name, fn in RUNGS:
                span = f"hypomorphy.{name}"
                if name.startswith("hypo"):
                    span += "_table" if k <= TABLE_LANE_MAX_K else "_search"
                with tracer.span(span):
                    verdict = fn(g, h, k)
                if tracer.on:
                    _count_scan(tracer, verdict, n, k)
                rungs[f"{name}:{k}"] = verdict
        texts = {}
        for key, verdict in rungs.items():
            if verdict.witness is None:
                continue
            with tracer.span("graphs.induced"):
                parts = induced(g, verdict.witness), induced(h, verdict.witness)
            with tracer.span("graph6.encode"):
                texts[key] = [encode(part) for part in parts]
            if tracer.on:
                tracer.count("graph6.bytes", sum(map(len, texts[key])))
        if tracer.on:
            tracer.count("graph6.bytes", sum(map(len, req["g6"])))
    return {"h3": h3, "utc": utc, "rungs": rungs, "texts": texts}


def _edges_allow(name: str, k: int, ea: int, eb: int) -> bool:
    """The rung can hold on a k-subset with these restriction edge counts;
    for the parity and edge rungs this is the rung itself."""
    if name == "parity":
        return (ea - eb) % 2 == 0
    if name == "hypo":
        return ea == eb
    return eb in (ea, comb(k, 2) - ea)


def _rung_violated(name: str, a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    if not _edges_allow(name, len(a), oracle.edge_count(a), oracle.edge_count(b)):
        return True
    if name in ("parity", "edges_utc"):
        return False
    if name == "hypo":
        return not oracle.isomorphic(a, b)
    return not oracle.isomorphic(a, b) and not oracle.isomorphic(oracle.complement(a), b)


def check_pairs(req: dict, out) -> list[str]:
    g, h = req["rows"]
    n = len(g)
    bad = []
    holds = {key: v.holds for key, v in out["rungs"].items()}
    holds["h3"] = out["h3"].holds
    holds["iso_utc"] = bool(out["utc"])
    for key, want in req["expect"].items():
        if holds[key] != want:
            bad.append(f"{key} gave {holds[key]}, expected {want}")
    # every witness subset must really violate its rung on the two restrictions
    for key, verdict in out["rungs"].items():
        if verdict.holds != (verdict.witness is None):
            bad.append(f"{key}: verdict and witness disagree")
            continue
        if verdict.witness is None:
            continue
        name = key.split(":")[0]
        subset = tuple(verdict.witness)
        a, b = oracle.restrict(g, subset), oracle.restrict(h, subset)
        if len(subset) != int(key.split(":")[1]) or not _rung_violated(name, a, b):
            bad.append(f"{key}: witness {subset} does not violate the rung")
        if out["texts"][key] != [oracle.graph6(a), oracle.graph6(b)]:
            bad.append(f"{key}: witness restriction encoded wrongly")
        # scans run in colex order, so every earlier subset passes the rung,
        # or at least its edge-count condition
        k = len(subset)
        for earlier in oracle.colex_subsets(n, k):
            if earlier == subset:
                break
            eg, eh = oracle.subset_edge_count(g, earlier), oracle.subset_edge_count(h, earlier)
            if not _edges_allow(name, k, eg, eh):
                bad.append(f"{key}: {earlier} fails before the witness {subset}")
                break
    w = out["h3"].witness
    if (w is None) != out["h3"].holds or (
        w is not None and oracle.homogeneous(g, w) == oracle.homogeneous(h, w)
    ):
        bad.append(f"3-homogeneous witness {w} is wrong")
    elif w is not None:
        for triple in combinations(range(n), 3):  # the scan's order
            if triple == tuple(w):
                break
            if oracle.homogeneous(g, triple) != oracle.homogeneous(h, triple):
                bad.append(f"3-homogeneous triple {triple} differs before the witness {w}")
                break
    # implications between the rungs
    for k in range(3, n):
        if holds[f"hypo:{k}"] and not (holds[f"hypo_utc:{k}"] and holds[f"parity:{k}"]):
            bad.append(f"k={k}: hypomorphic without utc hypomorphy or parity")
        if holds[f"hypo_utc:{k}"] and not holds[f"edges_utc:{k}"]:
            bad.append(f"k={k}: utc hypomorphic without edge counts utc")
        if holds[f"hypo_utc:{k}"]:
            for t in range(3, min(k, n - k) + 1):
                if not holds[f"hypo_utc:{t}"]:
                    bad.append(f"utc hypomorphy at {k} does not transfer down to {t}")
    utc = out["utc"]
    if utc.to_graph is not None and not oracle.maps_onto(g, h, utc.to_graph):
        bad.append("isomorphism witness does not map g onto h")
    if utc.to_complement is not None and not oracle.maps_onto(
        oracle.complement(g), h, utc.to_complement
    ):
        bad.append("isomorphism witness does not map the complement of g onto h")
    if utc.to_graph is None and oracle.isomorphic(g, h):
        bad.append("missed an isomorphism")
    if utc.to_complement is None and oracle.isomorphic(oracle.complement(g), h):
        bad.append("missed an isomorphism to the complement")
    return bad


# -- ranks ---------------------------------------------------------------

RANK_MAX_V = 11
# [W(t, k); W(t-1, k)] is rank deficient, so only these reach Bareiss
STACKED_CELLS = ((2, 4, 11), (2, 5, 10), (3, 6, 11))


def make_ranks(seed: int, small: bool) -> list[dict]:
    rng = random.Random(seed)
    max_v = 7 if small else RANK_MAX_V
    reqs = []
    for v in range(1, max_v + 1):
        for k in range(v + 1):
            for t in range(k + 1):
                # Gottlieb-Kantor: W(t, k) has full rank for every t <= k
                reqs.append(
                    {"op": "rank", "field": "Q", "t": t, "k": k, "v": v,
                     "expect": {"rank": min(comb(v, t), comb(v, k))}}
                )
                if t <= min(k, v - k):
                    for p in (2, 3):
                        reqs.append(
                            {"op": "rank", "field": p, "t": t, "k": k, "v": v,
                             "expect": {"rank": oracle.wilson_rank(t, k, v, p)}}
                        )
        for k in range(2, v - 1):
            # kernel of W(2, k)^T over GF(2): 2^(C(v,2) - rank) graphs
            size = 1 << comb(v, 2) - oracle.wilson_rank(2, k, v, 2)
            reqs.append({"op": "census", "k": k, "v": v, "expect": {"size": size}})
    for t, k, v in [(2, 4, 7)] if small else STACKED_CELLS:
        reqs.append({"op": "stacked", "t": t, "k": k, "v": v, "expect": {"rank": comb(v, t)}})
    rng.shuffle(reqs)
    return reqs


def _build_w(tracer, t: int, k: int, v: int):
    with tracer.span("incidence.build_w"):
        return build_w(t, k, v)


def _count_rank(tracer, shape) -> None:
    tracer.count("linalg.cells")
    tracer.count("linalg.entries", shape[0] * shape[1])


def run_ranks(req: dict, tracer, rid: int):
    t, k, v = req.get("t"), req["k"], req["v"]
    with tracer.span("request", rid):
        if req["op"] == "census":
            with tracer.span("incidence.kernel_census"):
                return kernel_graphs_mod2(k, v)
        if req["op"] == "stacked":
            stacked = np.vstack([_build_w(tracer, t, k, v).array, _build_w(tracer, t - 1, k, v).array])
            with tracer.span("linalg.rank_bareiss"):
                rank = rank_exact(stacked)
            _count_rank(tracer, stacked.shape)
            return rank
        # the body of incidence.rank_report, one public call per span
        w = _build_w(tracer, t, k, v)
        if req["field"] == "Q":
            with tracer.span("linalg.rank_certified"):
                rank = rank_exact(w.array)
        else:
            with tracer.span(f"linalg.rank_mod{req['field']}"):
                rank = rank_mod(w.mod(req["field"]))
        _count_rank(tracer, w.array.shape)
        return rank


def check_ranks(req: dict, out) -> list[str]:
    exp = req["expect"]
    if req["op"] != "census":
        return [] if out == exp["rank"] else [f"rank {out}, expected {exp['rank']}"]
    k, v = req["k"], req["v"]
    bad = []
    if len(out) != exp["size"]:
        bad.append(f"census has {len(out)} graphs, expected {exp['size']}")
    # every graph lies in the kernel: each k-subset holds an even number of edges
    pairs = [(i, j) for j in range(v) for i in range(j)]
    vectors = np.array([[g.adj[i] >> j & 1 for i, j in pairs] for g in out], dtype=np.int64)
    if len(out) and ((vectors @ oracle.pair_subset_incidence(k, v)) % 2).any():
        bad.append("census graph outside the kernel")
    if len({g.adj for g in out}) != len(out) or any(g.n != v for g in out):
        bad.append("census graphs repeat or have the wrong order")
    return bad


# -- codec ---------------------------------------------------------------

CODEC_MAX_N = 62
CODEC_LINES_PER_ORDER = 64


def make_codec(seed: int, small: bool) -> list[dict]:
    rng = np.random.default_rng(random.Random(seed).getrandbits(64))
    # pair r of the colex order is (lo[r], hi[r]); order n uses the first C(n, 2)
    lo = np.array([i for j in range(CODEC_MAX_N) for i in range(j)], dtype=np.int64)
    hi = np.array([j for j in range(CODEC_MAX_N) for _ in range(j)], dtype=np.int64)
    per_order = 2 if small else CODEC_LINES_PER_ORDER
    reqs = []
    for n in range(1, CODEC_MAX_N + 1):
        # densities stratified over [0, 1], so every seed does about the same work
        for density in (np.arange(per_order) + rng.random(per_order)) / per_order:
            bits = (rng.random(comb(n, 2)) < density).astype(np.uint8)
            on = np.nonzero(bits)[0]
            adj = np.zeros((n, 64), dtype=np.uint8)
            adj[lo[on], hi[on]] = 1
            adj[hi[on], lo[on]] = 1
            packed = np.packbits(adj, axis=1, bitorder="little")
            rows = tuple(int.from_bytes(r.tobytes(), "little") for r in packed)
            text = oracle.graph6_from_bits(n, bits)
            reqs.append(
                {
                    "text": text,
                    "n": n,
                    "edges": (lo[on].tolist(), hi[on].tolist()),
                    "expect": {"text": text, "rows": rows},
                }
            )
    order = rng.permutation(len(reqs))
    return [reqs[i] for i in order]


def run_codec(req: dict, tracer, rid: int):
    with tracer.span("request", rid):
        with tracer.span("graph6.decode"):
            g = decode(req["text"])
        with tracer.span("graph6.encode"):
            text = encode(g)
        with tracer.span("graphs.from_edges"):
            built = Graph.from_edges(req["n"], zip(*req["edges"]))
    if tracer.on:
        tracer.count("graph6.bytes", len(req["text"]) + len(text))
        tracer.count("graphs.built", 2)
    return g, text, built


def check_codec(req: dict, out) -> list[str]:
    g, text, built = out
    bad = []
    if text != req["expect"]["text"]:
        bad.append("re-encoded bytes differ from the input")
    if g.adj != req["expect"]["rows"]:
        bad.append("decoded adjacency differs from the generated graph")
    if built != g:
        bad.append("graph from the edge list differs from the decoded graph")
    return bad


WORKLOADS = {
    "atlas": (make_atlas, run_atlas, check_atlas),
    "pairs": (make_pairs, run_pairs, check_pairs),
    "ranks": (make_ranks, run_ranks, check_ranks),
    "codec": (make_codec, run_codec, check_codec),
}


def corrupt(reqs: list[dict]) -> None:
    """Falsify the first expected answer, for the self-test."""
    for req in reqs:
        for key, value in req.get("expect", {}).items():
            if isinstance(value, bool):
                req["expect"][key] = not value
            elif isinstance(value, int):
                req["expect"][key] = value + 1
            elif isinstance(value, str):
                req["expect"][key] = value + "?"
            elif isinstance(value, list):
                req["expect"][key] = value[1:] + value[:1] + [0]
            else:
                req["expect"][key] = tuple(value) + (0,)
            return
    raise ValueError("no expected answer to corrupt")
