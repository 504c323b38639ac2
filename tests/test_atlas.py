import json
import resource
import subprocess
import sys
import time
import warnings
from functools import cache, reduce
from math import comb

import numpy as np
import pytest

from recomp import atlas
from recomp import codes
from recomp.atlas import (
    THEOREM_DOMAINS,
    THEOREM_IDS,
    VIOLATION_LIST_CAP,
    check_domain,
    enumerate_graphs,
    lookup_jsonl,
    membership_with_resume,
    r_membership,
    s_membership,
    sweep_theorem,
)
from recomp.codes import CATALOG_COUNTS
from recomp.errors import DomainError, OrderTooLarge, VerificationError
from recomp.graph6 import decode, encode
from recomp.graphs import Graph, complement
from recomp.hypomorphy import (
    equal_up_to_complementation,
    k_hypomorphic_utc,
    signature_table,
)
from recomp.isomorphism import canonical_form, find_isomorphism, isomorphic_up_to_complementation

from graph_reference import clawfree_both, signature_labels
from theorem_reference import (
    HypothesisNotMet,
    verify_boolean_sum_clawfree,
    verify_complementary_size_transfer,
    verify_downward_hypomorphy,
    verify_principal_theorem,
    verify_profile_implications,
    verify_theorem_k0mod4,
    verify_theorem_k1mod4,
)


def test_catalog_counts_small():
    for n in range(1, 7):
        assert len(enumerate_graphs(n)) == CATALOG_COUNTS[n]


def test_catalog_order7():
    assert len(enumerate_graphs(7)) == 1044


@pytest.mark.slow
def test_catalog_order8():
    reps = enumerate_graphs(8).representatives
    assert len({g.code for g in reps}) == 12346
    assert all(canonical_form(g) == g.code for g in reps)


def test_catalog_reps_pairwise_nonisomorphic():
    reps = enumerate_graphs(5).representatives
    assert len({canonical_form(g) for g in reps}) == len(reps)
    for i in range(0, len(reps), 7):
        for j in range(i + 1, min(i + 4, len(reps))):
            assert find_isomorphism(reps[i], reps[j]) is None


def test_catalog_guards():
    with pytest.raises(OrderTooLarge):
        enumerate_graphs(9)


def test_catalog_order_below_one_raises():
    for n in (0, -1):
        with pytest.raises(DomainError, match="n >= 1"):
            enumerate_graphs(n)


def test_enumerate_graphs_float_order_raises():
    # the cache is keyed by operator.index(n): a numpy order is stored as a
    # plain int, and 5.0, equal to it by value, finds no cached catalog
    enumerate_graphs.cache_clear()
    assert type(enumerate_graphs(np.int64(5)).n) is int
    for n in (5.0, np.float64(5)):
        with pytest.raises(TypeError):
            enumerate_graphs(n)


def _only_catalogs_up_to_order_3():
    """Drop every cached catalog, then build orders 1-3 again."""
    codes.catalog.cache_clear()
    enumerate_graphs.cache_clear()
    codes.catalog(3)


def test_catalog_count_mismatch_raises(monkeypatch):
    _only_catalogs_up_to_order_3()
    monkeypatch.setitem(codes.CATALOG_COUNTS, 4, 12)
    with pytest.raises(VerificationError, match="order-4 catalog has 11 classes"):
        enumerate_graphs(4)


def test_labels_renumber_before_int64_overflow():
    # an injective table on 4-subsets separates every code (each edge lies
    # in some 4-subset); its 64 values over the 15 4-subsets of 6 vertices
    # make 2^90 combinations, so labels must be renumbered on the way, and
    # wrapped int64 arithmetic would show as negative labels
    labels = signature_labels(6, 4, np.arange(64)[::-1])
    assert labels.min() >= 0
    assert len(np.unique(labels)) == 1 << 15


def test_s_row_v6():
    verdicts = {}
    for k in range(1, 7):
        rec = s_membership(6, k)
        verdicts[k] = rec.verdict
        if rec.verdict == "NonMember":
            g = decode(rec.witness[0])
            h = decode(rec.witness[1])
            assert k_hypomorphic_utc(g, h, k).holds
            assert not equal_up_to_complementation(g, h)
    assert verdicts == {
        1: "NonMember",
        2: "NonMember",
        3: "NonMember",
        4: "Member",
        5: "NonMember",
        6: "NonMember",
    }


def test_s_small_orders():
    # at order <= 2 every k qualifies
    assert s_membership(1, 1).verdict == "Member"
    assert s_membership(2, 1).verdict == "Member"
    assert s_membership(2, 2).verdict == "Member"
    # order 5: no k at all (below 6 nothing forces equality)
    for k in range(3, 6):
        assert s_membership(5, k).verdict == "NonMember"


def test_r_records():
    rec = r_membership(4, 3)
    assert rec.verdict == "NonMember"
    g, h = decode(rec.witness[0]), decode(rec.witness[1])
    assert k_hypomorphic_utc(g, h, 3).holds
    assert not isomorphic_up_to_complementation(g, h)
    assert r_membership(5, 4).verdict == "Member"
    # S is contained in R
    assert r_membership(6, 4).verdict == "Member"


def test_s_subset_of_r():
    for (v, k) in ((5, 4), (6, 4), (6, 3)):
        if s_membership(v, k).verdict == "Member":
            assert r_membership(v, k).verdict == "Member"


def test_witness_reverifies_in_fresh_process():
    rec = s_membership(6, 3)
    assert rec.verdict == "NonMember"
    code = (
        "import sys, json\n"
        "from recomp.graph6 import decode\n"
        "from recomp.hypomorphy import k_hypomorphic_utc, equal_up_to_complementation\n"
        "g = decode(sys.argv[1]); h = decode(sys.argv[2]); k = int(sys.argv[3])\n"
        "assert k_hypomorphic_utc(g, h, k).holds\n"
        "assert not equal_up_to_complementation(g, h)\n"
        "print('ok')\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, rec.witness[0], rec.witness[1], "3"],
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "ok"


def test_membership_guards():
    with pytest.raises(OrderTooLarge):
        s_membership(7, 4)  # gated
    with pytest.raises(OrderTooLarge):
        s_membership(8, 4, long_running=True)
    with pytest.raises(DomainError):
        s_membership(6, 0)


def test_sweeps_zero_violations():
    assert sweep_theorem("k0mod4", 6, 4).ok
    assert sweep_theorem("clawfree", 5).ok
    assert sweep_theorem("principal", 6, 4).ok
    assert sweep_theorem("down", 6, 4).ok
    assert sweep_theorem("corkk1", 6, 4).ok
    assert sweep_theorem("kaplus", 6, 3).ok


def test_sweep_param_validation():
    with pytest.raises(DomainError):
        sweep_theorem("k0mod4", 6, 3)
    with pytest.raises(DomainError):
        sweep_theorem("k1mod4", 6, 5)  # needs k <= v-2
    with pytest.raises(DomainError):
        sweep_theorem("unknown", 6, 4)
    with pytest.raises(DomainError):
        sweep_theorem("principal", 6, None)


def test_validation_numpy_order_and_k(tmp_path):
    # numpy v and k give the int-argument record, which serializes; a
    # float v or k is a TypeError
    def dumped(record) -> str:
        return json.dumps(record.to_json(), sort_keys=True)

    log = str(tmp_path / "resume.jsonl")
    for v, k in ((5, 3), (6, 6), (4, 1)):
        for dtype in (np.int64, np.uint8):
            for cell in (s_membership, r_membership):
                assert dumped(cell(dtype(v), dtype(k))) == dumped(cell(v, k))
            twice = [membership_with_resume("S", dtype(v), dtype(k), log) for _ in range(2)]
            assert {dumped(rec) for rec in twice} == {dumped(s_membership(v, k))}
    for theorem, v, k in (("k0mod4", 6, 4), ("down", 5, 3), ("clawfree", 5, None)):
        want = dumped(sweep_theorem(theorem, v, k))
        numpy_k = None if k is None else np.int64(k)
        assert dumped(sweep_theorem(theorem, np.int64(v), numpy_k)) == want
    for bad in ((5.0, 3), (5, 3.0), (np.float64(5), 3)):
        with pytest.raises(TypeError):
            s_membership(*bad)
        with pytest.raises(TypeError):
            r_membership(*bad)
    for v, k in ((6.0, 4), (6, 4.0)):
        with pytest.raises(TypeError):
            sweep_theorem("k0mod4", v, k)
    with pytest.raises(TypeError):
        sweep_theorem("clawfree", 5.0)


def test_sweep_determinism_and_jobs():
    a = sweep_theorem("k0mod4", 6, 4)
    b = sweep_theorem("k0mod4", 6, 4)
    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)
    r1 = s_membership(6, 5)
    r2 = s_membership(6, 5)
    assert r1.to_json() == r2.to_json()


def test_sweep_hypothesis_counts():
    # at (6,4) the parity hypothesis selects exactly {g, complement(g)}
    # for every representative
    rep = sweep_theorem("k0mod4", 6, 4)
    assert rep.hypothesis_count == 2 * len(enumerate_graphs(6))
    assert rep.pairs_examined == len(enumerate_graphs(6)) * (1 << 15)


# (theorem, v, k) -> (hypothesis_count, pairs_examined) of every valid
# sweep with v <= 6; none has a violation
SWEEP_COUNTS = {
    ("clawfree", 1, None): (1, 1),
    ("clawfree", 2, None): (4, 4),
    ("clawfree", 3, None): (40, 64),
    ("clawfree", 4, None): (608, 4096),
    ("clawfree", 5, None): (10608, 1048576),
    ("clawfree", 6, None): (249376, 1073741824),
    ("down", 3, 2): (32, 32),
    ("down", 4, 2): (704, 704),
    ("down", 4, 3): (94, 704),
    ("down", 5, 2): (34816, 34816),
    ("down", 5, 3): (298, 34816),
    ("down", 5, 4): (120, 34816),
    ("down", 6, 2): (5111808, 5111808),
    ("down", 6, 3): (1528, 5111808),
    ("down", 6, 4): (312, 5111808),
    ("down", 6, 5): (1024, 5111808),
    ("corkk1", 4, 4): (116, 704),
    ("corkk1", 5, 4): (120, 34816),
    ("corkk1", 5, 5): (2676, 34816),
    ("corkk1", 6, 4): (312, 5111808),
    ("corkk1", 6, 5): (1416, 5111808),
    ("corkk1", 6, 6): (244900, 5111808),
    ("k0mod4", 6, 4): (312, 5111808),
    ("principal", 6, 4): (312, 5111808),
    ("kaplus", 6, 3): (1528, 5111808),
}


def test_sweep_counts_pinned():
    got = {}
    for v in range(1, 7):
        for theorem in THEOREM_IDS:
            for k in [None] if theorem == "clawfree" else range(1, v + 1):
                try:
                    rep = sweep_theorem(theorem, v, k)
                except DomainError:
                    continue
                got[theorem, v, k] = (rep.hypothesis_count, rep.pairs_examined)
                assert rep.violation_count == 0 and rep.violations == ()
    assert got == SWEEP_COUNTS


# theorem -> (v, k) in its domain and the claims (A, B, iff) expected there.
# Atoms: ("parity", k) equal restriction parities, ("edges", k) equal edge
# counts up to complementation, ("h3", k) equal 3-homogeneous counts, and at
# k = 3 equal 3-homogeneous sets, ("utc", k) k-hypomorphy up to
# complementation, ("equal", v) equality up to complementation.
THEOREM_CLAIMS = {
    # 4 <= k <= v-2, k = 0 (mod 4): equal parities at k iff equal utc
    "k0mod4": (6, 4, [((("parity", 4),), (("equal", 6),), True)]),
    # 5 <= k <= v-2, k = 1 (mod 4): equal parities at k and the same
    # 3-homogeneous sets iff equal utc
    "k1mod4": (7, 5, [((("parity", 5), ("h3", 3)), (("equal", 7),), True)]),
    # v >= 6, 4 <= k <= threshold(v), the principal theorem: (i) k-hypomorphic
    # utc, (ii) equal edge counts utc and equal h3 counts at k, (iii) equal
    # edge counts utc at every k' with 3 <= k' <= k, and (iv) equal utc are
    # equivalent; each claim is (i) against one of the others
    "principal": (
        8,
        5,
        [
            ((("utc", 5),), (("edges", 5), ("h3", 5)), True),
            ((("utc", 5),), (("edges", 3), ("edges", 4), ("edges", 5)), True),
            ((("utc", 5),), (("equal", 8),), True),
        ],
    ),
    # boolean sum of a pair with the same 3-homogeneous sets: claw-free, and
    # so is its complement; a conclusion on g xor g', not a join of atoms
    "clawfree": (5, None, None),
    # k-hypomorphic utc implies t-hypomorphic utc for 1 <= t <= min(k, v-k)
    "down": (7, 3, [((("utc", 3),), (("utc", 1), ("utc", 2), ("utc", 3)), False)]),
    # equal edge counts utc and equal h3 counts at k imply both at every l
    # with k <= l <= v; equal edge counts utc at k and at one k' with
    # 3 <= k' < k imply equal h3 counts at k
    "corkk1": (
        6,
        4,
        [
            (
                (("edges", 4), ("h3", 4)),
                (("edges", 4), ("edges", 5), ("edges", 6), ("h3", 4), ("h3", 5), ("h3", 6)),
                False,
            ),
            ((("edges", 4), ("edges", 3)), (("edges", 4), ("h3", 4)), False),
        ],
    ),
    # 3 <= k <= v-3: equal h3 counts at k imply equal h3 counts at v-k
    "kaplus": (7, 3, [((("h3", 3),), (("h3", 4),), False)]),
}


def test_theorem_claims_pinned():
    # the claims a sweep decides, spelled out once per theorem; a dropped
    # atom or an iff turned one-way changes no sweep verdict in the domain
    assert set(THEOREM_IDS) == set(THEOREM_CLAIMS)
    for theorem, (v, k, want) in THEOREM_CLAIMS.items():
        claims = atlas.THEOREMS[theorem]
        if want is None:
            assert claims is None
            continue
        check_domain(theorem, v, k)
        assert claims(v, k) == want, theorem


def test_violation_listing_with_narrowed_conclusion(monkeypatch):
    """Narrowing the conclusion "equal up to complementation" to "equal"
    makes each representative's complement a violation of k0mod4 and of
    principal at (6, 4): the hypothesis class of g is {g, complement of g},
    and no order-6 graph is self-complementary."""

    monkeypatch.setattr(atlas, "_equal_partners", lambda v, c: c)  # each code alone
    reps = enumerate_graphs(6).representatives
    listed = [
        {"g": encode(g), "g_prime": encode(complement(g))} for g in reps[:VIOLATION_LIST_CAP]
    ]
    for theorem in ("k0mod4", "principal"):
        rep = sweep_theorem(theorem, 6, 4)
        assert rep.violation_count == len(reps) == 156
        assert list(rep.violations) == listed


def test_resume_log(tmp_path):
    log = tmp_path / "atlas.jsonl"
    a = membership_with_resume("S", 6, 3, resume_log=str(log))
    b = membership_with_resume("S", 6, 3, resume_log=str(log))
    assert a.to_json() == b.to_json()
    assert b.wall_time_seconds == a.wall_time_seconds  # came from the log
    lines = log.read_text().strip().splitlines()
    assert len(lines) == 1
    entry = json.loads(lines[0])
    assert entry["relation"] == "S" and entry["v"] == 6 and entry["k"] == 3


def test_resume_log_survives_truncated_tail(tmp_path):
    # a crash mid-append leaves a partial last line without a newline
    log = tmp_path / "atlas.jsonl"
    other = membership_with_resume("S", 4, 1, resume_log=str(log))
    log.write_text(log.read_text() + '{"k": 2, "relation": "S", "v": 4, "verd')
    with pytest.warns(UserWarning, match="does not parse"):
        rec = membership_with_resume("S", 4, 2, resume_log=str(log))
    assert rec.to_json() == s_membership(4, 2).to_json()
    with pytest.warns(UserWarning, match="does not parse"):
        found = lookup_jsonl(str(log), "S", 4, 2)
        kept = lookup_jsonl(str(log), "S", 4, 1)
    assert found is not None and found.to_json() == rec.to_json()
    assert kept is not None and kept.to_json() == other.to_json()


def _forged_lines(relation: str, v: int, k: int) -> list[dict]:
    """Resume-log lines that match the cell but are not valid records."""
    base = {"relation": relation, "v": v, "k": k, "code_version": atlas.__version__}
    member = dict(base, verdict="Member", witness=None, pairs_examined=10)
    nonmember = dict(base, verdict="NonMember", witness=["C?", "C_"], pairs_examined=10)
    no_verdict = dict(member)
    del no_verdict["verdict"]
    no_count = dict(member)
    del no_count["pairs_examined"]
    return [
        no_verdict,
        no_count,
        dict(member, verdict="Maybe", pairs_examined=-5),
        dict(member, verdict="Maybe"),
        dict(member, pairs_examined=-5),
        dict(member, pairs_examined=True),
        dict(member, pairs_examined=10.0),
        dict(member, pairs_examined="10"),
        dict(member, witness=["C?", "C_"]),
        dict(nonmember, witness=None),
        dict(nonmember, witness=["C?"]),
        dict(nonmember, witness=["C?", 5]),
        dict(nonmember, witness="C?C_"),
    ]


def test_resume_log_rejects_invalid_records(tmp_path):
    # a matching line that is not a valid record is skipped with a
    # warning; the cell is recomputed and appended after it
    want = s_membership(4, 2).to_json()
    for forged in _forged_lines("S", 4, 2):
        log = tmp_path / "atlas.jsonl"
        log.write_text(json.dumps(forged) + "\n")
        with pytest.warns(UserWarning, match="skipping a resume-log line"):
            rec = membership_with_resume("S", 4, 2, resume_log=str(log))
        assert rec.to_json() == want, forged
        assert len(log.read_text().splitlines()) == 2, forged
        with pytest.warns(UserWarning, match="skipping a resume-log line"):
            found = lookup_jsonl(str(log), "S", 4, 2)
        assert found is not None and found.to_json() == want, forged


def test_resume_log_accepts_valid_records(tmp_path):
    # valid records are returned as written, with no warning
    log = tmp_path / "atlas.jsonl"
    base = {"relation": "S", "v": 4, "k": 2, "code_version": atlas.__version__}
    for entry in (
        dict(base, verdict="Member", witness=None, pairs_examined=0),
        dict(base, verdict="NonMember", witness=["C?", "C_"], pairs_examined=704),
    ):
        log.write_text("[1, 2]\n" + json.dumps(entry) + "\n")  # not an object: no match
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = lookup_jsonl(str(log), "S", 4, 2)
        assert rec is not None and rec.to_json() == entry


def test_atlas_record_json_is_stable():
    rec = s_membership(6, 4)
    blob = rec.to_json()
    assert "wall_time_seconds" not in blob  # canonical reports stay byte-stable
    assert blob["code_version"]


def test_gated_order7_smembership():
    rec = s_membership(7, 5, long_running=True)
    assert rec.verdict == "NonMember"
    g, h = decode(rec.witness[0]), decode(rec.witness[1])
    assert k_hypomorphic_utc(g, h, 5).holds
    assert not equal_up_to_complementation(g, h)


def test_gated_order7_k1mod4_sweep():
    rep = sweep_theorem("k1mod4", 7, 5, long_running=True)
    assert rep.ok


def test_sweep_raises_on_bad_order_or_clawfree_k():
    for v in (0, -2):
        with pytest.raises(DomainError, match="v >= 1"):
            sweep_theorem("clawfree", v)
        with pytest.raises(DomainError, match="v >= 1"):
            sweep_theorem("down", v, 2)
    with pytest.raises(DomainError, match="takes no k"):
        sweep_theorem("clawfree", 4, 9)


# (theorem, k) -> hypothesis_count at order 7, every valid k
ORDER7_SWEEPS = {
    ("k0mod4", 4): 2088,
    ("principal", 4): 2088,
    ("corkk1", 4): 2088,
    ("corkk1", 5): 2092,
    ("corkk1", 6): 21528,
    ("corkk1", 7): 68816412,
    ("k1mod4", 5): 2088,
    ("down", 2): 2189426688,
    ("down", 3): 6728,
    ("down", 4): 2088,
    ("down", 5): 2092,
    ("down", 6): 7040,
    ("kaplus", 3): 6728,
    ("kaplus", 4): 6728,
    ("clawfree", None): 10545376,
}


def test_order7_sweeps():
    domains = THEOREM_DOMAINS.items()
    valid = {(t, k) for t, (holds, _) in domains for k in range(1, 8) if holds(7, k)}
    assert set(ORDER7_SWEEPS) == valid | {("clawfree", None)}
    for (theorem, k), hyp in ORDER7_SWEEPS.items():
        start = time.perf_counter()
        rep = sweep_theorem(theorem, 7, k, long_running=True)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"{theorem}(7,{k}) {time.perf_counter() - start:.2f} s, peak RSS {rss:.0f} MB")
        assert rep.ok and rep.violations == ()
        assert rep.hypothesis_count == hyp, theorem
        assert rep.pairs_examined == (1 << 42 if k is None else 1044 << comb(7, 2))


# theorem -> its per-pair verifier at (g, h, k), and the flag of the
# sweep's hypothesis in the verifier's details, or None where the
# verifier raises HypothesisNotMet instead
PAIR_VERIFIERS = {
    "k0mod4": (verify_theorem_k0mod4, lambda d: d["parity_holds"]),
    "k1mod4": (verify_theorem_k1mod4, lambda d: d["parity_holds"] and d["same_3_homogeneous"]),
    "principal": (verify_principal_theorem, lambda d: d["i_hypomorphic_utc"]),
    "down": (lambda g, h, k: verify_downward_hypomorphy(g, h, k, min(k, g.n - k)), None),
    "corkk1": (lambda g, h, k: verify_profile_implications(g, h, k, 3), lambda d: d["i"]),
    "kaplus": (lambda g, h, k: verify_complementary_size_transfer(g, h, k, "h3"), None),
    "clawfree": (lambda g, h, k: verify_boolean_sum_clawfree(g, h), None),
}


def test_sweeps_agree_with_pair_verifiers_order7():
    """The per-pair verifiers, the sieve's independent oracle at order 7.
    For each sweep, 12 seeded representatives g; for each g, up to 4
    seeded members of its hypothesis class, read off the sieve, and each
    member with one seeded pair flipped.  Every verifier call holds, and
    its hypothesis holds (the flag, or no HypothesisNotMet) iff the code
    is in g's class."""
    rng = np.random.default_rng(23)
    reps = codes.catalog(7)[0]
    for theorem, k in ORDER7_SWEEPS:
        claims = atlas.THEOREMS[theorem]
        atoms = (("h3", 3),) if claims is None else claims(7, k)[0][0]
        state = atlas._join_state(7, reps, atlas._normal(7, atoms), {})
        verify, flag = PAIR_VERIFIERS[theorem]
        for i in rng.choice(len(reps), 12, replace=False):
            members = atlas._class_codes(state, i)
            picked = rng.choice(members, min(4, len(members)), replace=False)
            pairs = np.concatenate([picked, picked ^ 1 << rng.integers(comb(7, 2), size=len(picked))])
            at = np.minimum(np.searchsorted(members, pairs), len(members) - 1)
            g = Graph.from_code(7, int(reps[i]))
            for c, inside in zip(pairs.tolist(), (members[at] == pairs).tolist()):
                try:
                    res = verify(g, Graph.from_code(7, c), k)
                except HypothesisNotMet:
                    held = False
                else:
                    assert res.ok, (theorem, k, encode(g), c)
                    held = flag is None or flag(res.details)
                assert held == inside, (theorem, k, encode(g), c)


def _mask_scan_membership(relation: str, v: int, k: int) -> tuple[str, tuple | None, int]:
    """Reference for S/R cells: per representative g, the mask of codes
    sharing g's utc-k label (at k == v, the union of the orbits of g and
    its complement), minus the codes where the conclusion holds.  Returns
    (verdict, witness, pairs_examined)."""
    reps = enumerate_graphs(v).representatives
    full = codes.full_code(v)
    if k < v:
        labels = signature_labels(v, k, codes.canonical_utc_table(k))
        utc = codes.canonical_utc_table(v)
    witness, examined = None, 0
    for g in reps:
        gbar = full ^ g.code
        if k == v:
            cls = np.union1d(codes.relabelings(v, g.code), codes.relabelings(v, gbar))
            examined += len(cls)
            # for R the hypothesis class is exactly the conclusion class
            bad = cls[(cls != g.code) & (cls != gbar)] if relation == "S" else cls[:0]
        else:
            hyp = labels == labels[g.code]
            if relation == "S":
                concl = np.zeros(len(labels), dtype=bool)
                concl[[g.code, gbar]] = True
            else:
                concl = utc == utc[g.code]
            bad = np.flatnonzero(hyp & ~concl)
            examined += len(labels)
        if len(bad) and witness is None:
            witness = (encode(g), encode(Graph.from_code(v, int(bad[0]))))
    return ("NonMember" if witness else "Member"), witness, examined


def test_membership_matches_mask_scan_oracle():
    for v in range(1, 7):
        for k in range(1, v + 1):
            for relation, fn in (("S", s_membership), ("R", r_membership)):
                rec = fn(v, k)
                want = _mask_scan_membership(relation, v, k)
                assert (rec.verdict, rec.witness, rec.pairs_examined) == want, (relation, v, k)


def test_order7_k7_cells():
    s = s_membership(7, 7, long_running=True)
    assert s.verdict == "NonMember" and s.witness == ("F_???", "FO???")
    r = r_membership(7, 7, long_running=True)
    assert r.verdict == "Member" and r.witness is None
    assert s.pairs_examined == r.pairs_examined == 4_194_304
    # no order-7 graph is self-complementary: each code is in two classes,
    # its own representative's and its complement's


def test_orbit_count_mismatch_raises(monkeypatch):
    # orders 1-3 are built with the true relabelings; order 4 is rebuilt
    _only_catalogs_up_to_order_3()
    real = codes.relabelings

    def extra_automorphism(n, code):
        orbit = real(n, code).copy()
        orbit[-1] = code
        return orbit

    monkeypatch.setattr(codes, "relabelings", extra_automorphism)
    with pytest.raises(VerificationError, match="order-4 orbits cover"):
        enumerate_graphs(4)


# the witness of each order-7 NonMember cell, in graph6: its first failing
# representative and that one's smallest violation
ORDER7_WITNESSES = {
    ("S", 1): ("F????", "F_???"),
    ("R", 1): ("F????", "F_???"),
    ("S", 2): ("F????", "F_???"),
    ("R", 2): ("F????", "F_???"),
    ("S", 3): ("Fsa??", "Fs_C?"),
    ("R", 3): ("Fsa??", "FsaC?"),
    ("S", 5): ("Ftv_?", "F}i[?"),
    ("S", 6): ("FK???", "FQ???"),
    ("S", 7): ("F_???", "FO???"),
}


def test_order7_rows():
    for k in range(1, 8):
        for relation, fn, members in (
            ("S", s_membership, {4}),
            ("R", r_membership, {4, 5, 6, 7}),
        ):
            start = time.perf_counter()
            rec = fn(7, k, long_running=True)
            wall = time.perf_counter() - start
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            print(f"{relation}(7,{k}) {rec.verdict} {wall:.2f} s, peak RSS {rss:.0f} MB")
            assert rss < 512
            assert rec.verdict == ("Member" if k in members else "NonMember"), (relation, k)
            assert rec.witness == ORDER7_WITNESSES.get((relation, k)), (relation, k)
            assert rec.pairs_examined == (1044 << comb(7, 2) if k < 7 else 2 << comb(7, 2))
            if rec.verdict == "Member":
                continue
            g, h = decode(rec.witness[0]), decode(rec.witness[1])
            assert k_hypomorphic_utc(g, h, k).holds
            assert not equal_up_to_complementation(g, h)
            if relation == "R":
                assert not isomorphic_up_to_complementation(g, h)


def test_order7_records_read_no_whole_space_table(monkeypatch):
    """S and R at (7, k), k = 3..6, and corkk1 at (7, 4..6) read no table
    over all 2^21 order-7 codes: the canonical tables of order 7 raise
    here, and so does a signature table asked for every order-7 code.  R
    reads orbits, and a size-7 column only the alive codes."""

    def refused(name: str):
        real = getattr(codes, name)

        def table(n):
            if n == 7:
                raise AssertionError(f"{name}(7) read")
            return real(n)

        return table

    for name in ("canonical_table", "canonical_utc_table"):
        monkeypatch.setattr(codes, name, refused(name))
    real = atlas.signature_table

    def table(kind: str, k: int, chosen=None) -> np.ndarray:
        if k == 7 and chosen is None:
            raise AssertionError(f"signature_table({kind!r}, 7) over every code")
        return real(kind, k, chosen)

    monkeypatch.setattr(atlas, "signature_table", table)
    # tables read with the refusals only, in a cache that ends with the test
    monkeypatch.setattr(atlas, "_numbering", cache(atlas._numbering.__wrapped__))
    for k in range(3, 7):
        for relation, fn in (("S", s_membership), ("R", r_membership)):
            rec = fn(7, k, long_running=True)
            assert rec.witness == ORDER7_WITNESSES.get((relation, k)), (relation, k)
    for k in range(4, 7):
        rep = sweep_theorem("corkk1", 7, k, long_running=True)
        assert rep.ok and rep.hypothesis_count == ORDER7_SWEEPS["corkk1", k]


# the witness of each order-8 NonMember cell of `test_order8_cells`
ORDER8_WITNESSES = {
    ("S", 3): ("GsaC??", "Gsa?C?"),
    ("S", 6): ("Gtvc??", "Gtv_C?"),
    ("R", 3): ("GsaC??", "GsaCC?"),
}


@pytest.mark.slow
def test_order8_cells():
    """S and R at (8, k), k = 3..6, past the public order gate, which stays
    at 7.  The paper puts (n, k) in S for 4 <= k <= n - 4, so S(8, 4) is
    a Member.  Each witness is checked pair by pair."""
    for relation in "SR":
        for k in range(3, 7):
            start = time.perf_counter()
            rec = atlas._membership(relation, 8, k)
            wall = time.perf_counter() - start
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            print(f"{relation}(8,{k}) {rec.verdict} {wall:.2f} s, peak RSS {rss:.0f} MB")
            want = ORDER8_WITNESSES.get((relation, k))
            assert rec.verdict == ("NonMember" if want else "Member"), (relation, k)
            assert rec.witness == want, (relation, k)
            assert rec.pairs_examined == CATALOG_COUNTS[8] << comb(8, 2)
            if want is None:
                continue
            g, h = decode(want[0]), decode(want[1])
            assert k_hypomorphic_utc(g, h, k).holds
            assert not equal_up_to_complementation(g, h)
            if relation == "R":
                assert not isomorphic_up_to_complementation(g, h)


# -- mask-scan reference for the theorem sweeps -----------------------------


def _signature_equality(v: int):
    """same(kind, k, g): mask of the codes whose `kind` signature on every
    k-subset equals that of code g."""
    cache: dict[tuple[str, int], np.ndarray] = {}

    def same(kind: str, k: int, g: int) -> np.ndarray:
        if (kind, k) not in cache:
            cache[kind, k] = signature_labels(v, k, atlas.signature_table(kind, k))
        labels = cache[kind, k]
        return labels == labels[g]

    return same


def _equal_utc(v: int, g: int) -> np.ndarray:
    """Mask of g and its complement over all order-v codes."""
    mask = np.zeros(1 << comb(v, 2), dtype=bool)
    mask[[g, codes.full_code(v) ^ g]] = True
    return mask


def _scan(rep_codes: list[int], test) -> tuple[list[tuple[int, int]], int, int]:
    """Apply `test(g) -> (hypothesis, violation)`, two masks over all codes,
    to every representative code g.  Returns the first VIOLATION_LIST_CAP
    violations (rep index, code) of each representative, and the violation
    and hypothesis totals."""
    violations: list[tuple[int, int]] = []
    bad_total = hyp_total = 0
    for rep_idx, g in enumerate(rep_codes):
        hyp, bad = test(g)
        hyp_total += int(np.count_nonzero(hyp))
        bad_codes = np.flatnonzero(bad)
        bad_total += len(bad_codes)
        violations += [(rep_idx, int(c)) for c in bad_codes[:VIOLATION_LIST_CAP]]
    return violations, bad_total, hyp_total


def _theorem_masks(theorem: str, v: int, k: int | None, same, g: int):
    """(hypothesis, violation) masks of one theorem over all order-v codes
    paired with code g, each statement written out as mask algebra."""
    if theorem == "clawfree":
        hyp = same("h3", 3, g)
        return hyp, hyp & ~clawfree_both(v)[codes.all_codes(v) ^ g]
    if theorem == "k0mod4":
        hyp = same("parity", k, g)
        return hyp, hyp ^ _equal_utc(v, g)
    if theorem == "k1mod4":
        hyp = same("parity", k, g) & same("h3", 3, g)
        return hyp, hyp ^ _equal_utc(v, g)
    if theorem == "principal":
        cond_i = same("utc", k, g)
        edges_k = same("edges", k, g)
        cond_ii = edges_k & same("h3", k, g)
        cond_iii = reduce(np.logical_and, (same("edges", kp, g) for kp in range(3, k)), edges_k)
        cond_iv = _equal_utc(v, g)
        return cond_i, (cond_i != cond_ii) | (cond_i != cond_iii) | (cond_i != cond_iv)
    if theorem == "down":
        hyp = same("utc", k, g)
        concl = reduce(np.logical_and, (same("utc", t, g) for t in range(1, min(k, v - k) + 1)))
        return hyp, hyp & ~concl
    if theorem == "corkk1":
        edges_k = same("edges", k, g)
        cond_i = edges_k & same("h3", k, g)
        cond_iii = reduce(
            np.logical_and, (same("edges", l, g) & same("h3", l, g) for l in range(k, v + 1))
        )
        any_ii = edges_k & reduce(np.logical_or, (same("edges", kp, g) for kp in range(3, k)))
        return cond_i | any_ii, (cond_i & ~cond_iii) | (any_ii & ~cond_i)
    hyp = same("h3", k, g)  # kaplus
    return hyp, hyp & ~same("h3", v - k, g)


def _mask_scan_sweep(theorem: str, v: int, k: int | None) -> dict:
    """Reference report JSON of one sweep: two masks over all codes for
    each representative, and for clawfree each labeled code."""
    if theorem == "clawfree":
        rep_codes = codes.all_codes(v).tolist()
    else:
        rep_codes = [g.code for g in enumerate_graphs(v).representatives]
    same = _signature_equality(v)
    violations, bad, hyp = _scan(rep_codes, lambda g: _theorem_masks(theorem, v, k, same, g))
    entries = tuple(
        {"g": encode(Graph.from_code(v, rep_codes[ri])), "g_prime": encode(Graph.from_code(v, c))}
        for ri, c in violations[:VIOLATION_LIST_CAP]
    )
    report = atlas.SweepReport(
        theorem, v, k, entries, bad, hyp, len(rep_codes) << comb(v, 2), 0.0, atlas.__version__
    )
    return report.to_json()


def test_sweeps_match_mask_scan_oracle():
    for theorem, v, k in SWEEP_COUNTS:
        if theorem == "clawfree" and v > 5:
            continue  # 2^30 ordered pairs, two masks each: too slow for the reference
        assert sweep_theorem(theorem, v, k).to_json() == _mask_scan_sweep(theorem, v, k), (
            theorem,
            v,
            k,
        )


def _replace_table(monkeypatch, atom: tuple[str, int], values) -> None:
    """Make one signature table `values(number of codes)` for the test;
    asked for chosen codes, it gives their entries, so a size-v column is
    narrowed too."""
    real = atlas.signature_table

    def table(kind: str, k: int, chosen=None) -> np.ndarray:
        if (kind, k) != atom:
            return real(kind, k, chosen)
        return values(1 << comb(k, 2)) if chosen is None else values(1 << comb(k, 2))[chosen]

    monkeypatch.setattr(atlas, "signature_table", table)
    # tables read with the replacement only, in a cache that ends with the test
    monkeypatch.setattr(atlas, "_numbering", cache(atlas._numbering.__wrapped__))


def _narrow(monkeypatch, narrowed: tuple[str, int]) -> None:
    """Make one signature table the restriction code itself, so its atom
    separates every code (each pair of vertices lies in some subset)."""
    _replace_table(monkeypatch, narrowed, np.arange)


def test_failing_union_hypothesis_matches_oracle(monkeypatch):
    """With h3 at size 6 narrowed, the first corkk1 antecedent at (6, 6)
    is g alone, so the claims from edge counts at 6 and at k' = 3, 4 or 5
    fail wherever their classes hold more than g.  Each failing
    representative's hypothesis is the union of those three classes,
    counted code by code; on 44 of them no one class holds it."""
    _narrow(monkeypatch, ("h3", 6))
    got = sweep_theorem("corkk1", 6, 6).to_json()
    assert (got["violation_count"], got["hypothesis_count"]) == (8448, 8604)
    assert len(got["violations"]) == VIOLATION_LIST_CAP
    assert got == _mask_scan_sweep("corkk1", 6, 6)


def test_narrowed_utc_reaches_the_hypothesis_only(monkeypatch):
    """Narrowing utc at size 5 makes the S(6, 5) hypothesis class g alone,
    so the cell turns Member.  R's conclusion reads the orbits of g and
    its complement, not a utc table, so narrowing utc at size 6 leaves
    R(6, 4) a Member."""
    assert s_membership(6, 5).verdict == "NonMember"
    _narrow(monkeypatch, ("utc", 5))
    assert s_membership(6, 5).verdict == "Member"
    _narrow(monkeypatch, ("utc", 6))
    assert r_membership(6, 4).verdict == "Member"


def test_iff_claim_fails_on_its_converse(monkeypatch):
    """With parity at size 4 narrowed, the k0mod4 hypothesis at (6, 4) is
    g alone: "parity implies equal" holds, and only the converse fails,
    at each representative's complement."""
    _narrow(monkeypatch, ("parity", 4))
    got = sweep_theorem("k0mod4", 6, 4).to_json()
    assert (got["violation_count"], got["hypothesis_count"]) == (156, 156)
    assert got == _mask_scan_sweep("k0mod4", 6, 4)


def test_widened_clawfree_lists_relabeled_violations(monkeypatch):
    """With h3 at size 3 made constant, all codes share one class, so the
    claw-free sweep fails wherever the sum of two codes or its complement
    has a claw.  The sweep tests each representative against its class
    and lists each failing pair with all its relabelings; the list,
    sorted and capped, must equal the scan over every labeled pair."""
    _replace_table(monkeypatch, ("h3", 3), lambda size: np.zeros(size, dtype=np.int64))
    for v, bad in ((3, 0), (4, 512)):
        got = sweep_theorem("clawfree", v).to_json()
        assert (got["violation_count"], got["hypothesis_count"]) == (bad, 1 << 2 * comb(v, 2))
        assert got == _mask_scan_sweep("clawfree", v, None), v
    assert len(got["violations"]) == VIOLATION_LIST_CAP


# dense tables (kind, size) of sizes up to 7: those the order <= 7 cells and
# sweeps read below their order, and the order-8 ones of edges and h3
DENSE_ATOMS_V7 = [
    *((kind, size) for kind in ("edges", "h3") for size in range(3, 8)),
    ("parity", 4),
    ("parity", 5),
    *(("utc", size) for size in range(1, 7)),
]


def test_dense_tables_number_like_unique(monkeypatch):
    """The presence-rank numbering of each table equals `np.unique`'s."""
    monkeypatch.setattr(atlas, "_numbering", cache(atlas._numbering.__wrapped__))
    tables = []

    def recorded(kind, size):
        tables.append(signature_table(kind, size))
        return tables[-1]

    monkeypatch.setattr(atlas, "signature_table", recorded)
    for kind, size in DENSE_ATOMS_V7:
        got = atlas._numbering(kind, size)
        assert got.dtype == np.int32
        assert np.array_equal(got, np.unique(tables.pop(), return_inverse=True)[1])


def test_union_matches_union1d():
    """`_union` equals `np.union1d` over seeded code arrays, sorted class
    arrays and unsorted ones with repeats, sharing codes or empty; a lone
    array comes back as it is."""
    rng = np.random.default_rng(22)
    for trial in range(300):
        arrays = [rng.integers(0, 64, rng.integers(0, 40)) for _ in range(rng.integers(2, 5))]
        if trial % 2:
            arrays = [np.unique(a) for a in arrays]
        got = atlas._union(arrays)
        assert got.dtype == np.int64
        assert np.array_equal(got, reduce(np.union1d, arrays)), trial
    empty = np.zeros(0, dtype=np.int64)
    assert np.array_equal(atlas._union([empty, empty]), empty)
    lone = np.arange(5)
    assert atlas._union([lone]) is lone


SIEVE_KINDS = ("utc", "edges", "h3", "parity", "parity_utc", "a0")


def _assert_grown_matches_full_space(v: int, atom: tuple[str, int], sample=None) -> None:
    """The oracle: the state of every code in one group, refined below v
    by every column of `atom`; at size v the atom's one column is each
    code's signature, numbered by `np.unique`, and past v it has none.
    The sieve of the atom's join (`_normal`) must give each representative
    (or each of `sample`) the same class size and the same class codes."""
    reps = codes.catalog(v)[0]
    kind, k = atom
    full = None, np.zeros(1 << comb(v, 2), np.int32), np.zeros(len(reps), np.int32)
    if k < v:
        full = atlas._refine(v, reps, full, atom)
    elif k == v:
        labels = np.unique(signature_table(kind, v), return_inverse=True)[1]
        full = None, labels, labels[reps]
    grown = atlas._join_state(v, reps, atlas._normal(v, (atom,)), {})
    sizes = [np.bincount(groups)[rep_groups] for _, groups, rep_groups in (grown, full)]
    assert np.array_equal(*sizes), (v, atom)
    for i in range(len(reps)) if sample is None else sample:
        assert np.array_equal(atlas._class_codes(grown, i), atlas._class_codes(full, i)), (v, atom, i)


def test_grown_sieve_matches_full_space():
    """Every single atom at v <= 6 and every size 1..v+1, and 1..3 at
    v = 1 for the claw-free sweep's ("h3", 3): constant atoms and atoms
    past v included, which `_normal` drops, and atoms of size v, whose
    column is read on the alive codes."""
    for v in range(1, 7):
        for kind in SIEVE_KINDS:
            for k in range(1, max(v, 2) + 2):
                _assert_grown_matches_full_space(v, (kind, k))


def test_grown_sieve_matches_full_space_order7_sample():
    """Three seeded atoms at v = 7, on 40 seeded representatives each."""
    rng = np.random.default_rng(7)
    reps = len(codes.catalog(7)[0])
    atoms = [(kind, k) for kind in SIEVE_KINDS for k in range(1, 8)]
    for a in rng.choice(len(atoms), 3, replace=False):
        _assert_grown_matches_full_space(7, atoms[a], rng.choice(reps, 40, replace=False))


def test_normal_puts_parity_atoms_after_the_others_below_v():
    """`_normal`'s key order: "equal" first, then the atoms below v with
    parity atoms after the others, atoms of size v last; repeats, constant
    atoms and atoms past v dropped.  k1mod4's antecedent grows its sieve
    from ("h3", 3), whose classes are small, not from ("parity", 5), and
    the join has the same partition in either order."""
    assert atlas._normal(8, (("parity", 5), ("h3", 3), ("equal", 8))) == (
        ("equal", 8),
        ("h3", 3),
        ("parity", 5),
    )
    atoms = (
        ("parity", 6),
        ("edges", 7),
        ("utc", 1),
        ("parity", 3),
        ("parity_utc", 4),
        ("parity", 7),
        ("equal", 7),
        ("h3", 9),
        ("utc", 3),
        ("parity", 6),
    )
    assert atlas._normal(7, atoms) == (
        ("equal", 7),
        ("parity_utc", 4),
        ("utc", 3),
        ("parity", 6),
        ("parity", 3),
        ("edges", 7),
        ("parity", 7),
    )
    reps = codes.catalog(7)[0]
    new = atlas._join_state(7, reps, atlas._normal(7, (("parity", 5), ("h3", 3))), {})
    old = atlas._join_state(7, reps, (("parity", 5), ("h3", 3)), {})
    assert new[0] is not None and np.array_equal(new[0], old[0])
    pairs = np.unique(np.stack([new[1], old[1]]), axis=1)  # a bijection of the groups
    assert pairs.shape[1] == len(np.unique(new[1])) == len(np.unique(old[1]))
    assert np.array_equal(np.bincount(new[1])[new[2]], np.bincount(old[1])[old[2]])
