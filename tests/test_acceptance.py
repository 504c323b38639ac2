"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its runtime and enforcing the stated budget.  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import contextlib
import io
import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from math import comb

from recomp.atlas import s_membership, sweep_theorem
from recomp.cli import main as cli_main
from recomp.graph6 import decode, encode
from recomp.graphs import (
    BipartiteKernelClass,
    Graph,
    classify_bipartite_kernel,
    complement,
    invariants,
)
from recomp.hypomorphy import (
    equal_up_to_complementation,
    equality_threshold,
    k_hypomorphic,
    k_hypomorphic_utc,
    same_edge_counts_utc,
)
from recomp.incidence import kernel_graphs_mod2, rank_report, wilson_rank_expected
from recomp.isomorphism import IsoUtcKind, find_isomorphism, isomorphic_up_to_complementation
from recomp.constructions import (
    class_g_member,
    clique_pair_counterexample,
    cycle_swap_pair,
    k7_counterexample,
    lex_certifier,
    lex_product,
    paley_certifier,
    paley_graph,
    threshold_pair,
    verify_class_g_characterization,
)

from theorem_reference import verify_mixed_pair_identities


@contextmanager
def criterion(num: int, name: str, budget_seconds: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] {name}: FAIL ({time.perf_counter() - t0:.1f}s)")
        raise
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_seconds, f"runtime {elapsed:.1f}s exceeds {budget_seconds}s"
    print(f"[criterion {num:02d}] {name}: PASS ({elapsed:.1f}s)")


def test_criterion_01_counting_identities():
    with criterion(1, "counting identities on 1000 random graphs", 5):
        rng = random.Random(101)
        for _ in range(1000):
            n = rng.randint(4, 12)
            g = Graph.random(n, rng)
            b = invariants(g)
            bc = invariants(complement(g))
            # item 1: invariant under complementation
            assert (b.a0, b.a1, b.a2) == (bc.a0, bc.a1, bc.a2) and b.h3 == bc.h3
            # item 2: a2 = e * e_bar
            assert b.a2 == b.e * b.e_bar
            # item 3: a1 = sum of d(x) * d_bar(x)
            assert b.a1 == sum(g.degree(x) * (n - 1 - g.degree(x)) for x in range(n))
            # item 4: h3 = C(n,3) - a1/2
            assert b.a1 % 2 == 0 and b.h3 == comb(n, 3) - b.a1 // 2


def test_criterion_02_subset_averaging_identities():
    with criterion(2, "subset-averaging identities, 500 random (g, k)", 30):
        rng = random.Random(202)
        checked = 0
        while checked < 500:
            n = rng.randint(4, 10)
            g = Graph.random(n, rng)
            for k in range(3, n + 1):
                assert verify_mixed_pair_identities(g, k).ok, (encode(g), k)
                checked += 1


def test_criterion_03_full_row_rank_all_cells():
    with criterion(3, "rational full row rank, every (t,k,v<=10)", 120):
        for v in range(1, 11):
            for k in range(v + 1):
                for t in range(min(k, v - k) + 1):
                    assert rank_report(t, k, v)["pass"], (t, k, v)


def test_criterion_04_modular_rank_formula():
    with criterion(4, "modular rank formula, t=2, p in {2,3}, v<=10", 60):
        assert wilson_rank_expected(2, 4, 6, 2) == 14
        assert wilson_rank_expected(2, 5, 8, 2) == 20
        for v in range(4, 11):
            for k in range(2, v - 1):
                for p in (2, 3):
                    assert rank_report(2, k, v, p)["pass"], (k, v, p)


def test_criterion_05_kernel_characterizations():
    with criterion(5, "GF(2) kernel characterizations", 60):
        kernel = kernel_graphs_mod2(4, 6)
        assert len(kernel) == 2
        assert {g.edge_count for g in kernel} == {0, 15}
        for v in (7, 8, 9):
            kernel = kernel_graphs_mod2(5, v)
            assert len(kernel) == 2**v
            for g in kernel:
                assert classify_bipartite_kernel(g) is not BipartiteKernelClass.NEITHER


def test_criterion_06_parity_theorem_exhaustive():
    with criterion(6, "parity theorem sweep (v=6, k=4), single-threaded", 600):
        rep = sweep_theorem("k0mod4", 6, 4)
        assert rep.ok and rep.violation_count == 0
        assert rep.pairs_examined == 156 * (1 << 15)
    with criterion(6, "parity theorem sweep (v=6, k=4), CLI with --jobs 8", 120):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(["verify", "k0mod4", "--v", "6", "--k", "4", "--jobs", "8", "--mode", "json"])
        assert code == 0 and json.loads(buf.getvalue()) == rep.to_json()


def test_criterion_07_clawfree_exhaustive():
    with criterion(7, "claw-free boolean sums, all 2^20 ordered pairs on v=5", 120):
        rep = sweep_theorem("clawfree", 5)
        assert rep.ok and rep.violation_count == 0
        assert rep.pairs_examined == 1 << 20


def test_criterion_08_constructions_reverify():
    with criterion(8, "constructions re-verify their claims", 300):
        for v in range(4, 10):
            pair = clique_pair_counterexample(v)  # construction re-verifies
            assert k_hypomorphic_utc(pair.g, pair.g_prime, 3).holds
            assert (
                isomorphic_up_to_complementation(pair.g, pair.g_prime).kind
                is IsoUtcKind.NEITHER
            )
        for v in range(4, 10):
            pair = cycle_swap_pair(v)
            assert k_hypomorphic(pair.g, pair.g_prime, v - 1).holds
            assert k_hypomorphic(pair.g, pair.g_prime, v).holds
            assert not equal_up_to_complementation(pair.g, pair.g_prime)
        pair = k7_counterexample(10)
        assert same_edge_counts_utc(pair.g, pair.g_prime, 7).holds
        assert not equal_up_to_complementation(pair.g, pair.g_prime)
        for r in (2, 3, 4):
            pair = threshold_pair(5, r)
            v = 5 + r
            for k in range(equality_threshold(v) + 1, v + 1):
                assert k_hypomorphic_utc(pair.g, pair.g_prime, k).holds
            assert not equal_up_to_complementation(pair.g, pair.g_prime)


def test_criterion_09_class_g():
    with criterion(9, "class-G membership with certificates", 60):
        for q in (5, 9, 13):
            res = class_g_member(paley_graph(q), paley_certifier(q))
            assert res.is_member and set(res.certificates) == set(range(q))
        prod = lex_product(paley_graph(5), paley_graph(5))
        res = class_g_member(
            prod, lex_certifier(paley_certifier(5), paley_certifier(5), 5, 5)
        )
        assert res.is_member and set(res.certificates) == set(range(25))
        for x, perm in res.certificates.items():
            assert perm[x] == x
        char5 = verify_class_g_characterization(5)
        assert char5.ok and len(char5.details["members"]) == 1
        assert find_isomorphism(decode(char5.details["members"][0]), Graph.cycle(5)) is not None


def test_criterion_10_atlas_s_row_v6():
    with criterion(10, "atlas S-row at v=6 (Member iff k=4)", 600):
        for k in range(1, 7):
            rec = s_membership(6, k)
            assert rec.verdict == ("Member" if k == 4 else "NonMember")
            if rec.verdict == "NonMember":
                g, h = decode(rec.witness[0]), decode(rec.witness[1])
                assert k_hypomorphic_utc(g, h, k).holds
                assert not equal_up_to_complementation(g, h)


def test_criterion_11_graph6_roundtrip():
    with criterion(11, "graph6 round-trip and reference encoder", 120):
        from test_graph6 import reference_encode

        rng = random.Random(1111)
        for _ in range(10_000):
            n = rng.randint(1, 62)
            g = Graph.random(n, rng, p=rng.random())
            s = encode(g)
            assert decode(s) == g and encode(decode(s)) == s
        for _ in range(100):
            n = rng.randint(1, 62)
            g = Graph.random(n, rng)
            assert encode(g) == reference_encode(g)


DEFAULT_SUITE = [
    ["analyze", "Dhc", "--mode", "json"],
    ["check-pair", "Dhc", "DUW", "--k", "3", "--mode", "hypo-utc"],
    ["matrix", "--t", "2", "--k", "4", "--v", "6", "--p", "2", "--mode", "json"],
    ["matrix", "--t", "2", "--k", "3", "--v", "6", "--mode", "json"],
    ["kernel", "--k", "5", "--v", "7", "--mode", "json"],
    ["construct", "clique-pair", "6", "--mode", "json"],
    ["construct", "paley", "13", "--mode", "json"],
    ["verify", "k0mod4", "--v", "6", "--k", "4", "--mode", "json"],
    ["verify", "clawfree", "--v", "5", "--mode", "json"],
    ["atlas", "--relation", "S", "--v", "6", "--k", "4", "--mode", "json"],
    ["atlas", "--relation", "S", "--v", "6", "--k", "3", "--mode", "json"],
    ["search-class-g", "--n", "13", "--budget", "1000", "--mode", "json"],
]


def _run_suite_inprocess() -> list[str]:
    outputs = []
    for argv in DEFAULT_SUITE:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(list(argv))
        assert code == 0, (argv, buf.getvalue())
        json.loads(buf.getvalue())  # every report is valid JSON
        outputs.append(buf.getvalue())
    return outputs


def test_criterion_12_determinism():
    with criterion(12, "two runs of the default suite are byte-identical", 600):
        first = _run_suite_inprocess()
        second = _run_suite_inprocess()
        assert first == second
        # also across fresh processes, for a pair of representative commands
        cmd = (
            "from recomp.cli import main\n"
            "main(['verify', 'k0mod4', '--v', '6', '--k', '4', '--mode', 'json'])\n"
            "main(['atlas', '--relation', 'S', '--v', '6', '--k', '3', '--mode', 'json'])\n"
        )
        runs = [
            subprocess.run(
                [sys.executable, "-c", cmd], capture_output=True, text=True, check=True
            ).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        # subprocess output matches the in-process output line for line
        verify_out = first[DEFAULT_SUITE.index(
            ["verify", "k0mod4", "--v", "6", "--k", "4", "--mode", "json"]
        )]
        atlas_out = first[DEFAULT_SUITE.index(
            ["atlas", "--relation", "S", "--v", "6", "--k", "3", "--mode", "json"]
        )]
        assert runs[0] == verify_out + atlas_out
