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

Every swept hypothesis asks whether a per-k-subset signature (iso-utc
class, edge parity, edge count up to complementation, or h3 count; equal
3-homogeneous sets are equal h3 counts at k = 3) agrees for g and g'.
The signatures are the ladder's own row functions
(`hypomorphy.SIGNATURES`), tabulated over the order-k codes by
`hypomorphy.signature_table`.  For each (order v, subset size k,
signature) one label array over all 2^C(v,2) codes is built: the class
id of each colex k-subset restriction is folded into the label, so two
codes share a label iff they agree on every k-subset.

Membership cells (S, R) are decided from class counts.  The partitions
respect relabeling, so a relation holds on the whole pair space iff,
for every representative g, g's hypothesis class is no larger than its
part where the conclusion holds: {g, complement of g} for S, the codes
also in g's iso-utc class for R (counted on the join of the utc-k
labels with the utc-v classes).  One `np.unique` per label array gives
all class sizes, and the witness is the smallest offending code in the
class of the first representative whose counts differ.  At k == v the
hypothesis class is g's iso-utc class, whose size is v!/|Aut g| by
orbit-stabilizer, doubled unless g is self-complementary; the orbit
sizes must add up to 2^C(v,2).  Theorem sweeps still loop (`_scan`)
over the representatives, each statement mask algebra on
`labels == labels[g]`.  Order 7 multiplies the space by 64 and is gated
behind `long_running`; sweeps run in one process.

Verdicts and sweep reports serialize deterministically (sorted keys,
no volatile fields), so two runs of the same sweep are byte-identical.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from dataclasses import dataclass
from functools import reduce
from math import comb

import numpy as np

from . import __version__
from . import codes as codetables
from .errors import DomainError, OrderTooLarge, VerificationError
from .graph6 import encode
from .graphs import Graph
from .hypomorphy import equality_threshold, signature_table
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


# -- per-subset signature labels ---------------------------------------------

def _labels(v: int, k: int, table: np.ndarray) -> np.ndarray:
    """One label per labeled order-v graph; two graphs share a label iff
    `table` takes equal values on their restrictions to every k-subset."""
    codes = codetables.all_codes(v)
    values, dense = np.unique(table, return_inverse=True)
    width = len(values)
    labels = np.zeros(len(codes), dtype=np.int64)
    bound = 1  # labels < bound
    for s in colex_subsets(v, k):
        if bound * width > np.iinfo(np.int64).max:
            _, labels = np.unique(labels, return_inverse=True)
            bound = int(labels.max()) + 1
        labels = labels * width + dense[codetables.extract_restriction_codes(codes, s)]
        bound *= width
    return labels


def _signature_equality(v: int):
    """same(kind, k, g): mask of the codes whose `kind` signature on every
    k-subset equals that of code g.  Labels are kept for one sweep only."""
    cache: dict[tuple[str, int], np.ndarray] = {}

    def same(kind: str, k: int, g: int) -> np.ndarray:
        if (kind, k) not in cache:
            cache[kind, k] = _labels(v, k, signature_table(kind, k))
        labels = cache[kind, k]
        return labels == labels[g]

    return same


def _equal_utc(v: int, g: int) -> np.ndarray:
    """Mask of g and its complement over all order-v codes."""
    mask = np.zeros(1 << comb(v, 2), dtype=bool)
    mask[[g, codetables.full_code(v) ^ g]] = True
    return mask


def _scan(rep_codes: list[int], test) -> tuple[list[tuple[int, int]], int, int]:
    """Apply `test(g) -> (hypothesis, violation)`, two masks over all codes,
    to every representative code g.  Returns the first VIOLATION_LIST_CAP
    violations (rep index, code) of each representative, sorted, and the
    violation and hypothesis totals."""
    violations: list[tuple[int, int]] = []
    bad_total = hyp_total = 0
    for rep_idx, g in enumerate(rep_codes):
        hyp, bad = test(g)
        hyp_total += int(np.count_nonzero(hyp))
        bad_codes = np.flatnonzero(bad)
        bad_total += len(bad_codes)
        violations += [(rep_idx, int(c)) for c in bad_codes[:VIOLATION_LIST_CAP]]
    return violations, bad_total, hyp_total


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


def _check_cell(v: int, k: int, long_running: bool) -> None:
    _check_sweep_order(v, long_running)
    if not 1 <= k <= v:
        raise DomainError(f"need 1 <= k <= v, got k={k}, v={v}")


def _classes(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Class id of every entry of `labels` and the size of every class."""
    _, ids = np.unique(labels, return_inverse=True)
    return ids, np.bincount(ids)


def _utc_class_sizes(v: int, rep_codes: np.ndarray) -> np.ndarray:
    """Size of each representative's iso-utc class: v!/|Aut g| relabelings
    by orbit-stabilizer, twice that unless g is self-complementary (the
    complement has the same automorphisms, so its orbit is as large)."""
    full = codetables.full_code(v)
    orbits, sizes = [], []
    for g in rep_codes.tolist():
        orbit = codetables.relabelings(v, g)
        size = len(orbit) // int(np.count_nonzero(orbit == g))
        orbits.append(size)
        sizes.append(size if np.any(orbit == full ^ g) else 2 * size)
    if sum(orbits) != 1 << comb(v, 2):
        raise VerificationError(
            f"order-{v} orbits cover {sum(orbits)} codes, expected {1 << comb(v, 2)}"
        )
    return np.array(sizes, dtype=np.int64)


def _membership(relation: str, v: int, k: int, long_running: bool) -> AtlasRecord:
    _check_cell(v, k, long_running)
    start = time.perf_counter()
    reps = enumerate_graphs(v).representatives
    rep_codes = np.array([g.code for g in reps], dtype=np.int64)
    full = codetables.full_code(v)
    # hyp: size of each representative's hypothesis class; held: size of
    # the part of it where the conclusion holds.  The relation holds for
    # every pair iff the two agree for every representative.
    if k == v:
        hyp = _utc_class_sizes(v, rep_codes)
        examined = int(hyp.sum())
    else:
        cls, counts = _classes(_labels(v, k, signature_table("utc", k)))
        hyp = counts[cls[rep_codes]]
        examined = len(rep_codes) << comb(v, 2)
    if relation == "S":
        held = np.where(rep_codes == full ^ rep_codes, 1, 2)  # {g, complement}
    elif k == v:
        held = hyp  # the hypothesis class is the conclusion class
    else:
        utc = codetables.canonical_utc_table(v)
        joint, joint_counts = _classes(cls << comb(v, 2) | utc)
        held = joint_counts[joint[rep_codes]]
    failing = np.flatnonzero(hyp != held)
    if len(failing):
        rep_idx = int(failing[0])
        g = int(rep_codes[rep_idx])
        if k == v:
            members = np.union1d(
                codetables.relabelings(v, g), codetables.relabelings(v, full ^ g)
            )
        else:
            members = np.flatnonzero(cls == cls[g])
        if relation == "S":
            bad = members[(members != g) & (members != full ^ g)]
        else:
            bad = members[utc[members] != utc[g]]
        witness = (encode(reps[rep_idx]), encode(Graph.from_code(v, int(bad[0]))))
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


def s_membership(v: int, k: int, long_running: bool = False) -> AtlasRecord:
    """Does k-hypomorphy up to complementation force equality up to
    complementation at order v?  Exhaustive over (canonical g, labeled g')."""
    return _membership("S", v, k, long_running)


def r_membership(v: int, k: int, long_running: bool = False) -> AtlasRecord:
    """Does k-hypomorphy up to complementation force isomorphy up to
    complementation at order v?"""
    return _membership("R", v, k, long_running)


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


def _theorem_masks(theorem: str, v: int, k: int | None, same, g: int):
    """(hypothesis, violation) masks of one theorem over all order-v codes
    paired with code g."""
    # equal 3-homogeneous sets: a 3-subset has h3 = 1 iff it is homogeneous
    if theorem == "clawfree":
        hyp = same("h3", 3, g)
        return hyp, hyp & ~codetables.clawfree_both_table(v)[codetables.all_codes(v) ^ g]
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
    same = _signature_equality(v)
    violations, total_bad, hyp = _scan(
        rep_codes, lambda g: _theorem_masks(theorem_id, v, k, same, g)
    )
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
        pairs_examined=len(rep_codes) << comb(v, 2),
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
                isinstance(entry, dict)
                and entry.get("relation") == relation
                and entry.get("v") == v
                and entry.get("k") == k
                and entry.get("code_version") == __version__
            ):
                if _valid_record(entry):
                    return AtlasRecord(
                        relation=relation,
                        v=v,
                        k=k,
                        verdict=entry["verdict"],
                        witness=tuple(entry["witness"]) if entry["witness"] else None,
                        pairs_examined=entry["pairs_examined"],
                        wall_time_seconds=entry.get("wall_time_seconds", 0.0),
                        code_version=entry["code_version"],
                    )
                warnings.warn(f"{path}: skipping a resume-log line that is not a valid record")
    return None


def _valid_record(entry: dict) -> bool:
    """Member with no witness or NonMember with a graph6 pair, and a
    non-negative int pairs_examined."""
    examined, witness = entry.get("pairs_examined"), entry.get("witness", False)
    if type(examined) is not int or examined < 0:
        return False
    if entry.get("verdict") == "Member":
        return witness is None
    pair = isinstance(witness, list) and len(witness) == 2
    return entry.get("verdict") == "NonMember" and pair and all(isinstance(t, str) for t in witness)


def membership_with_resume(
    relation: str,
    v: int,
    k: int,
    resume_log: str | None = None,
    long_running: bool = False,
) -> AtlasRecord:
    _check_cell(v, k, long_running)
    if resume_log:
        cached = lookup_jsonl(resume_log, relation, v, k)
        if cached is not None:
            return cached
    record = _membership(relation, v, k, long_running)
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
