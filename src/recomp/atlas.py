"""Exhaustive small-order sweeps: catalogs, membership tables, theorem checks.

The pair space for a sweep at order v is (canonical representative g) x
(every labeled graph g'), sound because hypothesis and conclusion of
every swept statement are invariant under relabeling both graphs at
once, while g' must genuinely range over labelings (hypomorphy lives on
a fixed labeled vertex set).

Cells and sweeps read codes: the representatives are the canonical
codes of `codes.catalog`, the one orbit-marking pass per order, which
also checks them.  `enumerate_graphs` (n <= 8) wraps those codes in
Graphs for callers that want them.

Each theorem is a list of claims "A implies B" or "A iff B" (`THEOREMS`,
its domain of (v, k) beside it in `THEOREM_DOMAINS`).  A and B join
atoms, each a relabeling-invariant partition of the codes: g' is in g's
class iff it agrees with g on a per-k-subset signature (a row function
of `hypomorphy.SIGNATURES`; equal h3 counts at k = 3 are equal
3-homogeneous sets), or iff it is g or its complement.  A claim holds
iff each g's class in A is as large as in the join of A and B (and in
B, for iff).  `_decide` gets those sizes by sieving the representatives'
classes: a state holds the codes still in some g's class, with a group
each.  A column, one k-subset's signature, maps (old group, value) to a
new group through a table filled from the representatives' keys; a code
whose key no representative has drops.  Below v the values are read from
tables over every order-k code, numbered once per process; an atom of
size v has one column, the code itself, computed on the alive codes
only.  `_normal` drops repeated atoms, atoms past v and constant ones,
and puts "equal" first, parity atoms after the other atoms below v and
atoms of size v last.  The empty join is one class of every code, "equal"
starts from each g and its complement, and any other first atom grows
the sieve a vertex at a time (`_grow`): the codes gain vertex j's
neighbourhoods just before the columns whose largest vertex is j, so a
code dies before its extensions exist.  A class is a sorted array of its
group's codes (`_class_codes`).

An S or R cell reads only the hypothesis class: g's class of ("utc",
k), or at k == v its iso-utc class, whose size the catalog records.  S
fails where the class holds more than g and its complement, R where it
holds a code outside their orbits.  The claw-free sweep tests the
boolean sum of g with each member of its ("h3", 3) class for a claw; g
stands for its n!/|Aut g| relabelings.  Order 7 is gated behind
`long_running`.

Verdicts and sweep reports serialize deterministically (sorted keys,
no volatile fields), so two runs of the same sweep are byte-identical.
"""

from __future__ import annotations

import json
import operator
import os
import time
import warnings
from dataclasses import dataclass
from functools import cache
from itertools import groupby, product
from math import comb
from typing import Callable

import numpy as np

from . import __version__
from . import codes as codetables
from .errors import DomainError, OrderTooLarge
from .graph6 import encode
from .graphs import Graph
from .hypomorphy import equality_threshold, signature_table
from .incidence import colex_subsets

SWEEP_MAX_V = 6  # order 7 needs long_running=True
VIOLATION_LIST_CAP = 100


@dataclass(frozen=True)
class GraphCatalog:
    """One representative per isomorphism class, sorted by canonical code."""

    n: int
    representatives: tuple[Graph, ...]

    def __len__(self) -> int:
        return len(self.representatives)


@codetables._order_cache
def enumerate_graphs(n: int) -> GraphCatalog:
    """Catalog of order n (1 <= n <= 8): the codes of `codes.catalog` as Graphs."""
    return GraphCatalog(n, tuple(Graph.from_code(n, c) for c in codetables.catalog(n)[0].tolist()))


# -- per-subset signature classes ---------------------------------------------

@cache
def _numbering(kind: str, size: int) -> np.ndarray:
    """The `kind` signature of every order-`size` code, numbered (`_ranks`)."""
    return _ranks(signature_table(kind, size))


def _ranks(values: np.ndarray) -> np.ndarray:
    """Each value numbered by its rank among the values present, as
    `np.unique` would number them (the values are small and non-negative:
    counts, or codes of a small order)."""
    present = np.zeros(int(values.max()) + 1, dtype=bool)
    present[values] = True
    return (np.cumsum(present, dtype=np.int32) - 1)[values]


def _equal_partners(v: int, codes: np.ndarray) -> np.ndarray:
    """Each code's partner in its class of the atom ("equal", v): its complement."""
    return codetables.full_code(v) ^ codes


def _refine(v: int, reps: np.ndarray, state: tuple, atom: tuple[str, int], columns=None) -> tuple:
    """Sieve `state` by the columns of one atom, a per-subset signature:
    every k-subset in colex order, or the k-subsets `columns`.  A state is
    (alive codes, ascending, or None for all; group per alive code; group
    per representative): the alive codes are those in some
    representative's class, and share its group.  An atom of size v has
    one column, the code itself, numbered on the alive codes only."""
    alive, groups, rep_groups = state
    kind, k = atom
    if k == v:
        dense, columns = _ranks(signature_table(kind, v, alive)), [None]
        at = reps if alive is None else np.searchsorted(alive, reps)  # each g is alive
    else:
        dense = _numbering(kind, k)
    width = int(dense.max()) + 1
    for s in colex_subsets(v, k) if columns is None else columns:
        rep_column = dense[at] if s is None else dense[codetables.restriction_codes(v, s, reps)]
        keys = rep_groups * width + rep_column
        # (old group, value) -> new group: the index of one representative
        # with that key, whichever the scatter keeps
        table = np.full((int(rep_groups.max()) + 1) * width, -1, dtype=np.int32)
        table[keys] = np.arange(len(reps), dtype=np.int32)
        rep_groups = table[keys]
        column = dense if s is None else dense[codetables.restriction_codes(v, s, alive)]
        new = table[groups * width + column]
        keep = new >= 0
        if keep.all():
            groups = new
        else:
            alive = np.flatnonzero(keep) if alive is None else alive[keep]
            groups = new[keep]
    return alive, groups, rep_groups


def _grow(v: int, reps: np.ndarray, atom: tuple[str, int]) -> tuple:
    """Sieve state of the join of one atom of size k, 2 <= k <= v, grown
    from every code on k - 1 vertices: at each vertex j, the 2^j
    neighbourhoods of j as top bits (the codes stay ascending), then the
    columns whose largest vertex is j."""
    k = atom[1]
    alive = codetables.all_codes(k - 1)
    state = alive, np.zeros(len(alive), np.int32), np.zeros(len(reps), np.int32)
    for j, columns in groupby(colex_subsets(v, k), key=lambda s: s[-1]):
        alive, groups, rep_groups = state
        alive = (np.arange(1 << j, dtype=np.int64)[:, None] << comb(j, 2) | alive).ravel()
        if len(alive) == 1 << comb(v, 2):  # every code alive: read them whole
            alive = None
        state = _refine(v, reps, (alive, np.tile(groups, 1 << j), rep_groups), atom, columns)
    return state


def _join_state(v: int, reps: np.ndarray, join: tuple, states: dict) -> tuple:
    """Sieve state of a join of atoms (`_normal`), continued from its
    longest prefix in `states`.  The empty join is one class of every code,
    the atom ("equal", v), always first, starts from each representative
    and its partner, and any other first atom grows the sieve (`_grow`)."""
    if join not in states:
        if not join:
            states[join] = None, np.zeros(1 << comb(v, 2), np.int32), np.zeros(len(reps), np.int32)
        elif join == (("equal", v),):
            partners = _equal_partners(v, reps)
            rep_groups = np.unique(np.minimum(reps, partners), return_inverse=True)[1]
            alive, first = np.unique(np.concatenate([reps, partners]), return_index=True)
            states[join] = alive, np.tile(rep_groups, 2)[first].astype(np.int32), rep_groups
        elif len(join) == 1:
            states[join] = _grow(v, reps, join[0])
        else:
            states[join] = _refine(v, reps, _join_state(v, reps, join[:-1], states), join[-1])
    return states[join]


def _class_codes(state: tuple, i: int) -> np.ndarray:
    """The codes of representative i's class in a sieve state, ascending."""
    alive, groups, rep_groups = state
    own = groups == rep_groups[i]
    return np.flatnonzero(own) if alive is None else alive[own]


def _normal(v: int, atoms: tuple) -> tuple:
    """The join of `atoms` as a state key: repeats, atoms past v and
    constant atoms dropped; "equal" first, parity atoms after the other
    atoms below v and atoms of size v last, so a selective atom grows the
    sieve (a parity signature keeps many codes alive)."""
    kept = [a for a in dict.fromkeys(atoms) if a[1] == v or a[1] < v and _numbering(*a).any()]
    return tuple(sorted(kept, key=lambda a: (a[0] != "equal", a[1] == v, a[0] == "parity")))


def _union(arrays: list) -> np.ndarray:
    """The ascending union of code arrays: one stable sort, which merges
    ascending runs, and repeats dropped (numpy 2's `np.union1d` hashes
    through `np.unique`, seconds on 2^21 codes).  A lone array is a class
    array, ascending already, and comes back as it is."""
    if len(arrays) == 1:
        return arrays[0]
    codes = np.sort(np.concatenate(arrays), kind="stable")
    keep = np.ones(len(codes), dtype=bool)
    keep[1:] = codes[1:] != codes[:-1]
    return codes[keep]


def _decide(v: int, claims: list):
    """Decide claims (A, B, iff) on the pairs (g, g') with g in the order-v
    catalog.  Returns each g's first antecedent class size, the indices of
    the g that fail a claim, and `reread(i)`: the hypothesis size of the
    g of index i (the union of its antecedents, the first one where g
    passes) and its violating codes, ascending, read off the sieve states
    as sorted code sets."""
    reps = codetables.catalog(v)[0]
    states: dict[tuple, tuple] = {}

    def size(atoms: tuple) -> np.ndarray:
        """Size of each representative's class in the join of `atoms`."""
        _, groups, rep_groups = _join_state(v, reps, _normal(v, atoms), states)
        return np.bincount(groups)[rep_groups]

    held = np.ones(len(reps), dtype=bool)
    for a, b, iff in claims:
        held &= size(a) == size(a + b)
        if iff:
            held &= size(b) == size(a + b)

    def reread(i: int) -> tuple[int, np.ndarray]:
        def members(atoms: tuple) -> np.ndarray:
            return _class_codes(_join_state(v, reps, _normal(v, atoms), states), i)

        hyp, bad = [], []
        for a, b, iff in claims:
            in_a, in_ab = members(a), members(a + b)
            hyp.append(in_a)
            bad.append(np.setdiff1d(in_a, in_ab, assume_unique=True))
            if iff:
                bad.append(np.setdiff1d(members(b), in_ab, assume_unique=True))
        return len(_union(hyp)), _union(bad)

    return size(claims[0][0]), np.flatnonzero(~held), reread


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
    if v < 1:
        raise DomainError(f"need v >= 1, got v={v}")
    if v > SWEEP_MAX_V + long_running:
        raise OrderTooLarge(
            f"sweeps support v <= {SWEEP_MAX_V} (v = {SWEEP_MAX_V + 1} with long_running=True)"
        )


def _membership(relation: str, v: int, k: int) -> AtlasRecord:
    """One S or R cell from each g's hypothesis class alone.  R's orbits
    come from one `relabelings` call, as relabeling commutes with
    complementing; it holds at k == v by definition.  The first failing
    g, in index order, gives its smallest outside code as the witness."""
    start = time.perf_counter()
    reps, utc_sizes, _ = codetables.catalog(v)
    full = codetables.full_code(v)
    if k == v:
        sizes, examined = utc_sizes, int(utc_sizes.sum())
    else:
        state = _join_state(v, reps, _normal(v, (("utc", k),)), {})
        _, groups, rep_groups = state
        sizes, examined = np.bincount(groups)[rep_groups], len(reps) << comb(v, 2)
    more = sizes > 1 + (reps != full ^ reps)  # the class holds more than {g, complement}
    witness = None
    for i in [] if relation == "R" and k == v else np.flatnonzero(more).tolist():
        g = int(reps[i])
        orbit = codetables.relabelings(v, g)
        members = _union([orbit, full ^ orbit]) if k == v else _class_codes(state, i)
        # a member is in the conclusion's class iff min(c, complement) is
        inside = np.sort(np.minimum(orbit, full ^ orbit)) if relation == "R" else [min(g, full ^ g)]
        least = np.minimum(members, full ^ members)
        bad = members[np.take(inside, np.searchsorted(inside, least), mode="clip") != least]
        if len(bad):
            witness = (encode(Graph.from_code(v, g)), encode(Graph.from_code(v, int(bad[0]))))
            break
    return AtlasRecord(
        relation=relation,
        v=v,
        k=k,
        verdict="NonMember" if witness else "Member",
        witness=witness,
        pairs_examined=examined,
        wall_time_seconds=time.perf_counter() - start,
        code_version=__version__,
    )


def s_membership(v: int, k: int, long_running: bool = False) -> AtlasRecord:
    """Does k-hypomorphy up to complementation force equality up to
    complementation at order v?  Exhaustive over (canonical g, labeled g')."""
    return membership_with_resume("S", v, k, long_running=long_running)


def r_membership(v: int, k: int, long_running: bool = False) -> AtlasRecord:
    """Does k-hypomorphy up to complementation force isomorphy up to
    complementation at order v?"""
    return membership_with_resume("R", v, k, long_running=long_running)


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


# theorem -> its claims (A, B, iff) at (v, k), A and B tuples of atoms;
# where the claims hold, the first antecedent holds every later one
THEOREMS: dict[str, Callable[[int, int], list] | None] = {
    "k0mod4": lambda v, k: [((("parity", k),), (("equal", v),), True)],
    "k1mod4": lambda v, k: [((("parity", k), ("h3", 3)), (("equal", v),), True)],
    "principal": lambda v, k: [
        ((("utc", k),), (("edges", k), ("h3", k)), True),
        ((("utc", k),), tuple(("edges", j) for j in range(3, k + 1)), True),
        ((("utc", k),), (("equal", v),), True),
    ],
    "clawfree": None,  # the conclusion reads g xor g' (`_clawfree`)
    "down": lambda v, k: [
        ((("utc", k),), tuple(("utc", t) for t in range(1, min(k, v - k) + 1)), False)
    ],
    "corkk1": lambda v, k: [
        ((("edges", k), ("h3", k)), tuple(product(("edges", "h3"), range(k, v + 1))), False)
    ]
    + [((("edges", k), ("edges", j)), (("edges", k), ("h3", k)), False) for j in range(3, k)],
    "kaplus": lambda v, k: [((("h3", k),), (("h3", v - k),), False)],
}
THEOREM_IDS = tuple(THEOREMS)

# theorem -> its domain: (predicate on (v, k), its statement)
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


def _has_claw(v: int, codes: np.ndarray) -> np.ndarray:
    """Per code: the graph or its complement has a claw, that is, some
    4-subset induces a graph of the claw's class up to complementation."""
    utc4 = codetables.canonical_utc_table(4)
    claw = utc4[Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]).code]
    out = np.zeros(len(codes), dtype=bool)
    for s in colex_subsets(v, 4):
        out |= utc4[codetables.restriction_codes(v, s, codes)] == claw
    return out


def _clawfree(v: int) -> tuple[list[tuple[int, int]], int, int]:
    """Ordered pairs (c, c') in one h3 class at size 3 whose boolean sum
    c ^ c' or its complement has a claw: the first VIOLATION_LIST_CAP in
    (c, c') order, their number, and the number of pairs in the classes.
    Relabeling both codes keeps their class and relabels their sum, so
    each representative g is paired with its class, read off the sieve,
    for n!/|Aut g| labeled pairs, and a failing pair is listed relabeled."""
    reps, _, orbit_sizes = codetables.catalog(v)
    state = _join_state(v, reps, _normal(v, (("h3", 3),)), {})
    classes = [_class_codes(state, i) for i in range(len(reps))]
    owner = np.repeat(np.arange(len(reps)), [len(c) for c in classes])
    members = np.concatenate(classes)
    weight = orbit_sizes[owner]
    bad = _has_claw(v, reps[owner] ^ members)
    found = np.zeros(0, dtype=np.int64)  # the least pairs so far, as c << C(v,2) | c'
    for g, c in zip(reps[owner[bad]].tolist(), members[bad].tolist()):
        pairs = codetables.relabelings(v, g) << comb(v, 2) | codetables.relabelings(v, c)
        found = _union([found, pairs])[:VIOLATION_LIST_CAP]
    listed = [divmod(p, 1 << comb(v, 2)) for p in found.tolist()]
    return listed, int(weight[bad].sum()), int(weight.sum())


def sweep_theorem(
    theorem_id: str,
    v: int,
    k: int | None = None,
    long_running: bool = False,
) -> SweepReport:
    """Run one theorem verifier exhaustively over the order-v pair space."""
    if theorem_id not in THEOREMS:
        raise DomainError(f"theorem id must be one of {THEOREM_IDS}, got {theorem_id!r}")
    v, k = operator.index(v), None if k is None else operator.index(k)  # numpy ints become ints
    _check_sweep_order(v, long_running)
    claims = THEOREMS[theorem_id]
    if claims:
        check_domain(theorem_id, v, k)
    elif k is not None:
        raise DomainError(f"{theorem_id} takes no k, got k={k}")
    start = time.perf_counter()
    if claims is None:
        violations, total_bad, hyp_total = _clawfree(v)
        examined = 1 << 2 * comb(v, 2)  # all ordered pairs
    else:
        rep_codes = codetables.catalog(v)[0]
        hyp, failing, reread = _decide(v, claims(v, k))
        hyp_total, total_bad, violations = int(np.delete(hyp, failing).sum()), 0, []
        for i, g in zip(failing.tolist(), rep_codes[failing].tolist()):  # each failing g
            in_hyp, bad = reread(i)
            hyp_total, total_bad = hyp_total + in_hyp, total_bad + len(bad)
            violations += [(g, c) for c in bad[: VIOLATION_LIST_CAP - len(violations)].tolist()]
        examined = len(rep_codes) << comb(v, 2)
    entries = tuple(
        {"g": encode(Graph.from_code(v, g)), "g_prime": encode(Graph.from_code(v, c))}
        for g, c in violations
    )
    return SweepReport(
        theorem=theorem_id,
        v=v,
        k=k,
        violations=entries,
        violation_count=total_bad,
        hypothesis_count=hyp_total,
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
    v, k = operator.index(v), operator.index(k)  # numpy ints become ints
    _check_sweep_order(v, long_running)  # before the log, so it cannot bypass the checks
    if not 1 <= k <= v:
        raise DomainError(f"need 1 <= k <= v, got k={k}, v={v}")
    if resume_log:
        cached = lookup_jsonl(resume_log, relation, v, k)
        if cached is not None:
            return cached
    record = _membership(relation, v, k)
    if resume_log:
        append_jsonl(resume_log, record)
    return record
