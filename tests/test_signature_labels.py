"""Full-space signature labels against the scalar pairwise ladder on
sampled pairs.

Two codes share a signature label iff the scalar predicate for that
signature holds on the pair.  Labels and rungs read the same row
functions (`hypomorphy.SIGNATURES`), so this checks the label fold over
all codes (`graph_reference.signature_labels`, the oracle of the sweeps'
sieve) against the per-pair subset scan; the h3set predicate counts
homogeneous triples on its own.
"""

from math import comb

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from recomp.graphs import Graph
from recomp.hypomorphy import (
    k_hypomorphic_utc,
    same_3_homogeneous,
    same_edge_counts_utc,
    same_h3_counts,
    same_parity,
    signature_table,
)

from graph_reference import signature_labels

PREDICATES = {
    "utc": k_hypomorphic_utc,
    "parity": same_parity,
    "edges": same_edge_counts_utc,
    "h3": same_h3_counts,
    "h3set": lambda g, h, k: same_3_homogeneous(g, h),
}
# equal 3-homogeneous sets are equal h3 labels at k = 3
SIGNATURE_OF = {"h3set": "h3"}

_labels: dict[tuple[int, int, str], np.ndarray] = {}


def labels(v: int, k: int, kind: str) -> np.ndarray:
    if (v, k, kind) not in _labels:
        table = signature_table(SIGNATURE_OF.get(kind, kind), k)
        _labels[v, k, kind] = signature_labels(v, k, table)
    return _labels[v, k, kind]


@st.composite
def cases(draw):
    v = draw(st.sampled_from([5, 6]))
    kind = draw(st.sampled_from(sorted(PREDICATES)))
    k = 3 if kind == "h3set" else draw(st.integers(1, v))
    rnd = draw(st.randoms(use_true_random=False))
    g = rnd.getrandbits(comb(v, 2))
    partner = draw(st.sampled_from(["random", "edge flip", "complement", "same label"]))
    if partner == "random":
        h = rnd.getrandbits(comb(v, 2))
    elif partner == "edge flip":
        h = g ^ 1 << rnd.randrange(comb(v, 2))
    elif partner == "complement":
        h = g ^ (1 << comb(v, 2)) - 1
    else:  # labels equal by construction; the predicate must still hold
        lab = labels(v, k, kind)
        same = np.flatnonzero(lab == lab[g])
        h = int(same[rnd.randrange(len(same))])
    return v, k, kind, g, h


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cases())
def test_label_equality_matches_scalar_predicate(case):
    v, k, kind, g, h = case
    lab = labels(v, k, kind)
    holds = PREDICATES[kind](Graph.from_code(v, g), Graph.from_code(v, h), k).holds
    assert (lab[g] == lab[h]) == holds
