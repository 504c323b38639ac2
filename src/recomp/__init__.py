"""Graph hypomorphy up to complementation, computed and verified at desk scale."""

__version__ = "0.1.0"

from .graphs import (
    BipartiteKernelClass,
    Graph,
    InvariantBundle,
    boolean_sum,
    classify_bipartite_kernel,
    complement,
    induced,
    invariants,
    is_claw_free,
    is_regular,
)
from .isomorphism import (
    IsoUtcKind,
    UtcVerdict,
    canonical_form,
    canonical_form_utc,
    is_self_complementary,
    is_vertex_transitive,
    isomorphic_up_to_complementation,
)
from .graph6 import decode, encode

__all__ = [
    "__version__",
    "BipartiteKernelClass",
    "Graph",
    "InvariantBundle",
    "IsoUtcKind",
    "UtcVerdict",
    "boolean_sum",
    "canonical_form",
    "canonical_form_utc",
    "classify_bipartite_kernel",
    "complement",
    "decode",
    "encode",
    "induced",
    "invariants",
    "is_claw_free",
    "is_regular",
    "is_self_complementary",
    "is_vertex_transitive",
    "isomorphic_up_to_complementation",
]
