"""Exhaustive small-order sweeps: catalogs, membership tables, theorem checks.

The pair space for a sweep at order v is (canonical representative g) x
(every labeled graph g'), sound because hypothesis and conclusion of
every swept statement are invariant under relabeling both graphs at
once, while g' must genuinely range over labelings (hypomorphy lives on
a fixed labeled vertex set).

Catalogs (n <= 8) come from orbit marking: the order n-1
representatives, each joined to a new vertex in every way, are the
candidates, and each unmarked candidate opens a class and marks every
candidate in its orbit (`codes.relabelings`).

Per-subset predicates are evaluated over the whole labeled code space
at once: for each k-subset K the restriction codes of all 2^C(v,2)
graphs form one gather, and canonical/parity/h3 lookup tables (canonical
tables for orders up to 7) turn the hypothesis into a handful of numpy
array operations per representative.  At k == v the hypothesis set of a
representative is its orbit together with its complement's.  Order 7
multiplies the space by 64 and is gated behind `long_running`.

Verdicts and sweep reports serialize deterministically (sorted keys,
no volatile fields), so two runs of the same sweep are byte-identical.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import comb

import numpy as np

from . import __version__
from . import codes as codetables
from .errors import DomainError, OrderTooLarge, VerificationError
from .graph6 import encode
from .graphs import Graph
from .hypomorphy import equality_threshold
from .incidence import colex_subsets

CATALOG_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
SWEEP_MAX_V = 6  # order 7 needs long_running=True
VIOLATION_LIST_CAP = 100

THEOREM_IDS = ("k0mod4", "k1mod4", "principal", "clawfree", "down", "corkk1", "kaplus")


@dataclass(frozen=True)
class GraphCatalog:
    """One representative per isomorphism class, sorted by canonical code."""

    n: int
    representatives: tuple[Graph, ...]

    def __len__(self) -> int:
        return len(self.representatives)


_catalogs: dict[int, GraphCatalog] = {}


def enumerate_graphs(n: int) -> GraphCatalog:
    """Catalog of order n by orbit marking over one-vertex augmentations;
    sound because every order-n class contains a graph whose first n-1
    vertices induce an order-(n-1) representative."""
    if not 1 <= n <= 8:
        raise OrderTooLarge(f"catalogs support n <= 8, got {n}")
    if n in _catalogs:
        return _catalogs[n]
    prev = np.array(  # order 0 has one graph, the empty one, with code 0
        [g.code for g in enumerate_graphs(n - 1).representatives] if n > 1 else [0],
        dtype=np.int64,
    )
    base_bits = comb(n - 1, 2)
    low = (1 << base_bits) - 1
    marked = np.zeros((len(prev), 1 << (n - 1)), dtype=bool)
    canon = []
    for r, rep in enumerate(prev.tolist()):
        for x in range(1 << (n - 1)):
            if marked[r, x]:
                continue
            orbit = codetables.relabelings(n, rep | x << base_bits)
            canon.append(int(orbit.min()))
            rows = np.searchsorted(prev, orbit & low).clip(max=len(prev) - 1)
            hit = prev[rows] == orbit & low
            marked[rows[hit], orbit[hit] >> base_bits] = True
    reps = tuple(Graph.from_code(n, c) for c in sorted(canon))
    if len(reps) != CATALOG_COUNTS[n]:
        raise VerificationError(
            f"order-{n} catalog has {len(reps)} classes, expected {CATALOG_COUNTS[n]}"
        )
    cat = GraphCatalog(n, reps)
    _catalogs[n] = cat
    return cat


# -- vectorized per-subset predicate layer ---------------------------------

_extraction_cache: dict[tuple[int, tuple[int, ...]], np.ndarray] = {}


def _restrictions(v: int, subset: tuple[int, ...]) -> np.ndarray:
    """Restriction code of every labeled order-v graph for one subset."""
    key = (v, subset)
    if key not in _extraction_cache:
        arr = codetables.extract_restriction_codes(codetables.all_codes(v), subset)
        bits = comb(len(subset), 2)
        dtype = np.int16 if bits <= 15 else np.int32
        _extraction_cache[key] = arr.astype(dtype)
    return _extraction_cache[key]


def _subset_list(v: int, k: int) -> list[tuple[int, ...]]:
    return list(colex_subsets(v, k))


def _hyp_utc_hypo(v: int, k: int, gcode: int, sl: slice) -> np.ndarray:
    table = codetables.canonical_utc_table(k)
    acc = None
    for s in _subset_list(v, k):
        rc = _restrictions(v, s)[sl]
        want = table[int(codetables.restriction_code(Graph.from_code(v, gcode), s))]
        cond = table[rc] == want
        acc = cond if acc is None else (acc & cond)
    return acc


def _per_subset_equal(
    v: int, k: int, gcode: int, sl: slice, table: np.ndarray
) -> np.ndarray:
    g = Graph.from_code(v, gcode)
    acc = None
    for s in _subset_list(v, k):
        rc = _restrictions(v, s)[sl]
        want = table[int(codetables.restriction_code(g, s))]
        cond = table[rc] == want
        acc = cond if acc is None else (acc & cond)
    return acc


def _hyp_parity(v: int, k: int, gcode: int, sl: slice) -> np.ndarray:
    parity = codetables.edge_count_table(k) & 1
    return _per_subset_equal(v, k, gcode, sl, parity)


def _hyp_h3_counts(v: int, k: int, gcode: int, sl: slice) -> np.ndarray:
    return _per_subset_equal(v, k, gcode, sl, codetables.h3_count_table(k))


def _hyp_edges_utc(v: int, k: int, gcode: int, sl: slice) -> np.ndarray:
    counts = codetables.edge_count_table(k)
    kk = comb(k, 2)
    g = Graph.from_code(v, gcode)
    acc = None
    for s in _subset_list(v, k):
        rc = _restrictions(v, s)[sl]
        eg = int(counts[int(codetables.restriction_code(g, s))])
        ck = counts[rc]
        cond = (ck == eg) | (ck == kk - eg)
        acc = cond if acc is None else (acc & cond)
    return acc


def _concl_equal_utc(v: int, gcode: int, sl: slice) -> np.ndarray:
    codes = codetables.all_codes(v)[sl]
    gbar = codetables.full_code(v) ^ gcode
    return (codes == gcode) | (codes == gbar)


def _concl_iso_utc_table(v: int, gcode: int, sl: slice) -> np.ndarray:
    table = codetables.canonical_utc_table(v)
    codes = codetables.all_codes(v)[sl]
    return table[codes] == table[gcode]


# -- membership sweeps ------------------------------------------------------


@dataclass(frozen=True)
class AtlasRecord:
    relation: str  # "S" or "R"
    v: int
    k: int
    verdict: str  # "Member" or "NonMember"
    witness: tuple[str, str] | None  # graph6 pair
    pairs_examined: int
    wall_time_seconds: float
    code_version: str

    def to_json(self) -> dict:
        # wall time deliberately excluded: canonical reports must be
        # byte-identical across runs
        return {
            "relation": self.relation,
            "v": self.v,
            "k": self.k,
            "verdict": self.verdict,
            "witness": list(self.witness) if self.witness else None,
            "pairs_examined": self.pairs_examined,
            "code_version": self.code_version,
        }


def _check_sweep_order(v: int, long_running: bool) -> None:
    if v <= SWEEP_MAX_V:
        return
    if v == SWEEP_MAX_V + 1 and long_running:
        return
    raise OrderTooLarge(
        f"sweeps support v <= {SWEEP_MAX_V} (v = {SWEEP_MAX_V + 1} with long_running=True)"
    )


def _membership_chunk(payload: dict) -> dict:
    relation = payload["relation"]
    v, k = payload["v"], payload["k"]
    sl = slice(payload["lo"], payload["hi"])
    violations: list[tuple[int, int]] = []
    total_bad = 0
    hyp_total = 0
    codes = codetables.all_codes(v)[sl]
    for rep_idx, gcode in enumerate(payload["rep_codes"]):
        hyp = _hyp_utc_hypo(v, k, gcode, sl)
        hyp_total += int(hyp.sum())
        concl = _concl_equal_utc if relation == "S" else _concl_iso_utc_table
        bad = hyp & ~concl(v, gcode, sl)
        total_bad += int(bad.sum())
        for pos in np.nonzero(bad)[0][:VIOLATION_LIST_CAP]:
            violations.append((rep_idx, int(codes[pos])))
    return {
        "violations": violations,
        "violation_total": total_bad,
        "hyp_count": hyp_total,
        "examined": len(codes) * len(payload["rep_codes"]),
    }


def bounded_jobs(jobs: int) -> int:
    """Worker processes to start for `jobs`: at least 1, at most the CPUs
    this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, min(jobs, len(os.sched_getaffinity(0))))
    return max(1, min(jobs, os.cpu_count() or 1))


def _run_chunks(worker, payload: dict, total: int, jobs: int) -> list[dict]:
    jobs = bounded_jobs(jobs)
    bounds = [(total * i) // jobs for i in range(jobs + 1)]
    payloads = [
        dict(payload, lo=lo, hi=hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo
    ]
    if len(payloads) == 1:
        return [worker(payloads[0])]
    with ProcessPoolExecutor(max_workers=len(payloads)) as pool:
        return list(pool.map(worker, payloads))


def _membership(
    relation: str, v: int, k: int, long_running: bool, jobs: int
) -> AtlasRecord:
    _check_sweep_order(v, long_running)
    if not 1 <= k <= v:
        raise DomainError(f"need 1 <= k <= v, got k={k}, v={v}")
    start = time.perf_counter()
    reps = enumerate_graphs(v).representatives
    rep_codes = [g.code for g in reps]
    violations: list[tuple[int, int]] = []
    examined = 0
    if k == v:
        # hypothesis set = the iso-utc class of g, enumerated directly
        for rep_idx, gcode in enumerate(rep_codes):
            gbar = codetables.full_code(v) ^ gcode
            cls = np.union1d(codetables.relabelings(v, gcode), codetables.relabelings(v, gbar))
            examined += len(cls)
            if relation == "S":
                bad = cls[(cls != gcode) & (cls != gbar)]
                violations.extend((rep_idx, int(c)) for c in bad[:VIOLATION_LIST_CAP])
            # for R the hypothesis class is exactly the conclusion class
    else:
        payload = {"relation": relation, "v": v, "k": k, "rep_codes": rep_codes}
        results = _run_chunks(_membership_chunk, payload, 1 << comb(v, 2), jobs)
        for res in results:
            violations.extend(res["violations"])
            examined += res["examined"]
    violations.sort()
    if violations:
        rep_idx, code = violations[0]
        witness = (encode(reps[rep_idx]), encode(Graph.from_code(v, code)))
        verdict = "NonMember"
    else:
        witness = None
        verdict = "Member"
    return AtlasRecord(
        relation=relation,
        v=v,
        k=k,
        verdict=verdict,
        witness=witness,
        pairs_examined=examined,
        wall_time_seconds=time.perf_counter() - start,
        code_version=__version__,
    )


def s_membership(v: int, k: int, long_running: bool = False, jobs: int = 1) -> AtlasRecord:
    """Does k-hypomorphy up to complementation force equality up to
    complementation at order v?  Exhaustive over (canonical g, labeled g')."""
    return _membership("S", v, k, long_running, jobs)


def r_membership(v: int, k: int, long_running: bool = False, jobs: int = 1) -> AtlasRecord:
    """Does k-hypomorphy up to complementation force isomorphy up to
    complementation at order v?"""
    return _membership("R", v, k, long_running, jobs)


# -- theorem sweeps ----------------------------------------------------------


@dataclass(frozen=True)
class SweepReport:
    theorem: str
    v: int
    k: int | None
    violations: tuple[dict, ...]
    violation_count: int
    hypothesis_count: int
    pairs_examined: int
    wall_time_seconds: float
    code_version: str

    @property
    def ok(self) -> bool:
        return self.violation_count == 0

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "v": self.v,
            "k": self.k,
            "ok": self.ok,
            "violation_count": self.violation_count,
            "violations": list(self.violations),
            "hypothesis_count": self.hypothesis_count,
            "pairs_examined": self.pairs_examined,
            "code_version": self.code_version,
        }


def _theorem_chunk(payload: dict) -> dict:
    theorem = payload["theorem"]
    v, k = payload["v"], payload["k"]
    sl = slice(payload["lo"], payload["hi"])
    codes = codetables.all_codes(v)[sl]
    violations: list[tuple[int, int]] = []
    total_bad = 0
    hyp_total = 0

    if theorem == "clawfree":
        h3set = codetables.h3_set_table(v)
        cf_both = codetables.clawfree_both_table(v)
        for rep_idx, gcode in enumerate(payload["rep_codes"]):
            hyp = h3set[codes] == h3set[gcode]
            hyp_total += int(hyp.sum())
            bad = hyp & ~cf_both[codes ^ gcode]
            total_bad += int(bad.sum())
            for pos in np.nonzero(bad)[0][:VIOLATION_LIST_CAP]:
                violations.append((rep_idx, int(codes[pos])))
        return {
            "violations": violations,
            "violation_total": total_bad,
            "hyp_count": hyp_total,
            "examined": len(codes) * len(payload["rep_codes"]),
        }

    for rep_idx, gcode in enumerate(payload["rep_codes"]):
        if theorem == "k0mod4":
            hyp = _hyp_parity(v, k, gcode, sl)
            bad = hyp ^ _concl_equal_utc(v, gcode, sl)
        elif theorem == "k1mod4":
            h3set = codetables.h3_set_table(v)
            hyp = _hyp_parity(v, k, gcode, sl) & (h3set[codes] == h3set[gcode])
            bad = hyp ^ _concl_equal_utc(v, gcode, sl)
        elif theorem == "principal":
            cond_i = _hyp_utc_hypo(v, k, gcode, sl)
            edges_k = _hyp_edges_utc(v, k, gcode, sl)
            cond_ii = edges_k & _hyp_h3_counts(v, k, gcode, sl)
            cond_iii = edges_k.copy()
            for kp in range(3, k):
                cond_iii &= _hyp_edges_utc(v, kp, gcode, sl)
            cond_iv = _concl_equal_utc(v, gcode, sl)
            hyp = cond_i
            bad = (cond_i != cond_ii) | (cond_i != cond_iii) | (cond_i != cond_iv)
        elif theorem == "down":
            hyp = _hyp_utc_hypo(v, k, gcode, sl)
            concl = np.ones(len(codes), dtype=bool)
            for t in range(1, min(k, v - k) + 1):
                concl &= _hyp_utc_hypo(v, t, gcode, sl)
            bad = hyp & ~concl
        elif theorem == "corkk1":
            edges_k = _hyp_edges_utc(v, k, gcode, sl)
            cond_i = edges_k & _hyp_h3_counts(v, k, gcode, sl)
            cond_iii = np.ones(len(codes), dtype=bool)
            for l in range(k, v + 1):
                cond_iii &= _hyp_edges_utc(v, l, gcode, sl)
                cond_iii &= _hyp_h3_counts(v, l, gcode, sl)
            bad = cond_i & ~cond_iii
            any_ii = np.zeros(len(codes), dtype=bool)
            for kp in range(3, k):
                cond_ii = edges_k & _hyp_edges_utc(v, kp, gcode, sl)
                any_ii |= cond_ii
                bad |= cond_ii & ~cond_i
            hyp = cond_i | any_ii
        elif theorem == "kaplus":
            hyp = _hyp_h3_counts(v, k, gcode, sl)
            bad = hyp & ~_hyp_h3_counts(v, v - k, gcode, sl)
        else:
            raise DomainError(f"unknown theorem id {theorem!r}")
        hyp_total += int(hyp.sum())
        total_bad += int(bad.sum())
        for pos in np.nonzero(bad)[0][:VIOLATION_LIST_CAP]:
            violations.append((rep_idx, int(codes[pos])))
    return {
        "violations": violations,
        "violation_total": total_bad,
        "hyp_count": hyp_total,
        "examined": len(codes) * len(payload["rep_codes"]),
    }


def _validate_sweep_params(theorem: str, v: int, k: int | None) -> None:
    if theorem == "clawfree":
        return
    if k is None:
        raise DomainError(f"theorem {theorem!r} needs k")
    if theorem == "k0mod4" and not (4 <= k <= v - 2 and k % 4 == 0):
        raise DomainError(f"k0mod4 needs 4 <= k <= v-2, k = 0 (mod 4); got k={k}, v={v}")
    if theorem == "k1mod4" and not (5 <= k <= v - 2 and k % 4 == 1):
        raise DomainError(f"k1mod4 needs 5 <= k <= v-2, k = 1 (mod 4); got k={k}, v={v}")
    if theorem == "principal" and not (v >= 6 and 4 <= k <= equality_threshold(v)):
        raise DomainError(f"principal needs v >= 6, 4 <= k <= threshold(v); got k={k}, v={v}")
    if theorem == "down" and not 2 <= k <= v - 1:
        raise DomainError(f"down needs 2 <= k <= v-1; got k={k}, v={v}")
    if theorem == "corkk1" and not 4 <= k <= v:
        raise DomainError(f"corkk1 needs 4 <= k <= v; got k={k}, v={v}")
    if theorem == "kaplus" and not 3 <= k <= v - 3:
        raise DomainError(f"kaplus needs 3 <= k <= v-3; got k={k}, v={v}")


def sweep_theorem(
    theorem_id: str,
    v: int,
    k: int | None = None,
    long_running: bool = False,
    jobs: int = 1,
) -> SweepReport:
    """Run one theorem verifier exhaustively over the order-v pair space."""
    if theorem_id not in THEOREM_IDS:
        raise DomainError(f"theorem id must be one of {THEOREM_IDS}, got {theorem_id!r}")
    _check_sweep_order(v, long_running)
    _validate_sweep_params(theorem_id, v, k)
    start = time.perf_counter()
    if theorem_id == "clawfree":
        k = None  # the claim has no subset-size parameter
        rep_codes = codetables.all_codes(v).tolist()  # all ordered pairs
        reps = None
    else:
        reps = enumerate_graphs(v).representatives
        rep_codes = [g.code for g in reps]
    payload = {"theorem": theorem_id, "v": v, "k": k, "rep_codes": rep_codes}
    results = _run_chunks(_theorem_chunk, payload, 1 << comb(v, 2), jobs)
    violations: list[tuple[int, int]] = []
    total_bad = 0
    hyp = 0
    examined = 0
    for res in results:
        violations.extend(res["violations"])
        total_bad += res["violation_total"]
        hyp += res["hyp_count"]
        examined += res["examined"]
    violations.sort()
    entries = tuple(
        {
            "g": encode(Graph.from_code(v, rep_codes[ri]) if reps is None else reps[ri]),
            "g_prime": encode(Graph.from_code(v, code)),
        }
        for ri, code in violations[:VIOLATION_LIST_CAP]
    )
    return SweepReport(
        theorem=theorem_id,
        v=v,
        k=k,
        violations=entries,
        violation_count=total_bad,
        hypothesis_count=hyp,
        pairs_examined=examined,
        wall_time_seconds=time.perf_counter() - start,
        code_version=__version__,
    )


# -- persistence -------------------------------------------------------------


def append_jsonl(path: str, record: AtlasRecord) -> None:
    """Append one record durably (flushed and fsynced).  A crash mid-append
    can leave a partial last line; the record then starts a fresh line."""
    entry = record.to_json()
    entry["wall_time_seconds"] = record.wall_time_seconds
    line = (json.dumps(entry, sort_keys=True) + "\n").encode("utf-8")
    with open(path, "ab+") as fh:
        if fh.seek(0, os.SEEK_END) > 0:
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) != b"\n":
                line = b"\n" + line
        fh.write(line)
        fh.flush()
        os.fsync(fh.fileno())


def lookup_jsonl(path: str, relation: str, v: int, k: int) -> AtlasRecord | None:
    try:
        fh = open(path, encoding="utf-8")
    except FileNotFoundError:
        return None
    with fh:
        for line in fh:
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                warnings.warn(f"{path}: skipping a resume-log line that does not parse")
                continue
            if (
                entry.get("relation") == relation
                and entry.get("v") == v
                and entry.get("k") == k
                and entry.get("code_version") == __version__
            ):
                return AtlasRecord(
                    relation=relation,
                    v=v,
                    k=k,
                    verdict=entry["verdict"],
                    witness=tuple(entry["witness"]) if entry.get("witness") else None,
                    pairs_examined=entry["pairs_examined"],
                    wall_time_seconds=entry.get("wall_time_seconds", 0.0),
                    code_version=entry["code_version"],
                )
    return None


def membership_with_resume(
    relation: str,
    v: int,
    k: int,
    resume_log: str | None = None,
    long_running: bool = False,
    jobs: int = 1,
) -> AtlasRecord:
    if resume_log:
        cached = lookup_jsonl(resume_log, relation, v, k)
        if cached is not None:
            return cached
    record = _membership(relation, v, k, long_running, jobs)
    if resume_log:
        append_jsonl(resume_log, record)
    return record


def write_csv(records: list[AtlasRecord], path: str) -> None:
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["v", "k", "relation", "verdict", "witness_g", "witness_g_prime"])
        for r in records:
            wg, wh = r.witness if r.witness else ("", "")
            writer.writerow([r.v, r.k, r.relation, r.verdict, wg, wh])


def write_witness_files(records: list[AtlasRecord], directory: str) -> list[str]:
    """One two-line graph6 file per NonMember record; returns the paths."""
    paths = []
    for r in records:
        if not r.witness:
            continue
        path = os.path.join(directory, f"{r.relation}_v{r.v}_k{r.k}.g6")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(r.witness[0] + "\n" + r.witness[1] + "\n")
        paths.append(path)
    return paths
