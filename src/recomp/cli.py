"""Command-line surface: graph reports, pair checks, rank verifications,
constructions, kernel censuses, atlas sweeps, and the class-G search.

Exit codes: 0 on success (including negative answers like a NonMember
verdict or a holds=false pair check), 1 when a verified statement is
falsified (a rank mismatch, a sweep violation, a construction failing
its own claims), 2 on usage errors.  With `--mode json` every path,
including errors, prints exactly one JSON object to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .atlas import SWEEP_MAX_V, THEOREM_IDS, membership_with_resume, sweep_theorem
from .errors import RecompError, VerificationError
from .graph6 import decode, encode
from .graphs import (
    Graph,
    classify_bipartite_kernel,
    induced,
    invariants,
    is_claw_free,
    is_regular,
)
from .hypomorphy import (
    k_hypomorphic,
    k_hypomorphic_utc,
    same_3_homogeneous,
    same_edge_counts_utc,
    same_parity,
)
from .incidence import kernel_graphs_mod2, rank_report
from .isomorphism import is_self_complementary
from .constructions import (
    clique_pair_counterexample,
    cycle_swap_pair,
    k7_counterexample,
    lex_product,
    paley_graph,
    search_class_g,
    star_graph,
    star_parity_pair,
    threshold_pair,
)

PAIR_CHECKS = {
    "hypo": k_hypomorphic,
    "hypo-utc": k_hypomorphic_utc,
    "edges-utc": same_edge_counts_utc,
    "parity": same_parity,
    "h3": same_3_homogeneous,
}


class _CliParser(argparse.ArgumentParser):
    def error(self, message: str):  # raise instead of exiting, for JSON error paths
        raise RecompError(message)


def _build_parser() -> argparse.ArgumentParser:
    p = _CliParser(prog="recomp", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_mode(sp):
        sp.add_argument("--mode", choices=["human", "json"], default="human")

    sp = sub.add_parser("analyze", help="invariants and flags of one graph")
    sp.add_argument("graph6")
    add_mode(sp)

    sp = sub.add_parser("check-pair", help="per-subset pair condition; JSON verdict")
    sp.add_argument("graph6_g")
    sp.add_argument("graph6_g_prime")
    sp.add_argument("--k", type=int)
    sp.add_argument("--mode", choices=sorted(PAIR_CHECKS), required=True)

    sp = sub.add_parser("matrix", help="inclusion-matrix rank verification row")
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--v", type=int, required=True)
    sp.add_argument("--p", type=int)
    add_mode(sp)

    sp = sub.add_parser("kernel", help="GF(2) kernel graph census for W(2,k) transposed")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--v", type=int, required=True)
    add_mode(sp)

    sp = sub.add_parser("construct", help="emit a named construction")
    sp.add_argument("name")
    sp.add_argument("params", nargs="*", type=int)
    add_mode(sp)

    sp = sub.add_parser("verify", help="exhaustive theorem sweep")
    sp.add_argument("theorem", choices=THEOREM_IDS)
    sp.add_argument("--v", type=int, required=True)
    sp.add_argument("--k", type=int)
    sp.add_argument("--jobs", type=int, default=1, help="N >= 1; sweeps run in one process")
    sp.add_argument("--long", action="store_true", help="allow order-7 sweeps")
    add_mode(sp)

    sp = sub.add_parser("atlas", help="membership sweep for one (relation, v, k) cell")
    sp.add_argument("--relation", choices=["S", "R"], required=True)
    sp.add_argument("--v", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--resume", help="JSONL log to reuse and append")
    sp.add_argument("--jobs", type=int, default=1, help="N >= 1; sweeps run in one process")
    sp.add_argument("--long", action="store_true", help="allow order-7 sweeps")
    add_mode(sp)

    sp = sub.add_parser("search-class-g", help="exploratory circulant class-G search")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--budget", type=int, required=True)
    add_mode(sp)

    return p


def _emit(payload: dict, mode: str) -> None:
    if mode == "json":
        print(json.dumps(payload, sort_keys=True))
        return
    for key, value in payload.items():
        if isinstance(value, (list, tuple)) and all(isinstance(x, str) for x in value):
            print(f"{key}: {' '.join(value)}")
        else:
            print(f"{key}: {value}")


def _cmd_analyze(args) -> tuple[dict, int]:
    g = decode(args.graph6)
    b = invariants(g)
    return {
        "graph6": encode(g),
        "n": g.n,
        "e": b.e,
        "e_bar": b.e_bar,
        "a0": b.a0,
        "a1": b.a1,
        "a2": b.a2,
        "triangles": b.t,
        "h3": b.h3,
        "regular": is_regular(g),
        "self_complementary": is_self_complementary(g),
        "claw_free": is_claw_free(g),
        "code_version": __version__,
    }, 0


def _cmd_check_pair(args) -> tuple[dict, int]:
    g = decode(args.graph6_g)
    h = decode(args.graph6_g_prime)
    check = PAIR_CHECKS[args.mode]
    if args.mode == "h3":
        if args.k is not None:
            raise RecompError(f"check mode 'h3' takes no --k, got --k {args.k}")
        verdict = check(g, h)
        k = None
    else:
        if args.k is None:
            raise RecompError(f"check mode {args.mode!r} needs --k")
        k = args.k
        verdict = check(g, h, k)
    payload = {
        "check": args.mode,
        "v": g.n,
        "k": k,
        "holds": verdict.holds,
        "code_version": __version__,
    }
    if verdict.witness is not None:
        payload["witness_subset"] = list(verdict.witness)
        payload["witness_graph6"] = encode(induced(g, verdict.witness))
    return payload, 0


def _cmd_matrix(args) -> tuple[dict, int]:
    row = rank_report(args.t, args.k, args.v, args.p)
    row["code_version"] = __version__
    return row, 0 if row["pass"] else 1


def _cmd_kernel(args) -> tuple[dict, int]:
    graphs = kernel_graphs_mod2(args.k, args.v)
    classes: dict[str, int] = {}
    neither = 0
    for g in graphs:
        label = classify_bipartite_kernel(g).value
        classes[label] = classes.get(label, 0) + 1
        neither += label == "Neither"
    payload = {
        "k": args.k,
        "v": args.v,
        "dimension": len(graphs).bit_length() - 1,
        "count": len(graphs),
        "classification": dict(sorted(classes.items())),
        "all_in_family": neither == 0,
        "code_version": __version__,
    }
    if len(graphs) <= 512:
        payload["graphs"] = [encode(g) for g in graphs]
    # the kernel characterization is only claimed for k = 1 (mod 4)
    falsified = args.k % 4 == 1 and neither > 0
    return payload, 1 if falsified else 0


# name -> (constructor, parameter names).  The lambdas look the
# constructors up when called, so a patched module attribute is used.
CONSTRUCTIONS = {
    "paley": (lambda q: paley_graph(q), ("q",)),
    "star": (lambda v: star_graph(v), ("v",)),
    "lex-paley": (lambda q1, q2: lex_product(paley_graph(q1), paley_graph(q2)), ("q1", "q2")),
    "clique-pair": (lambda v: clique_pair_counterexample(v), ("v",)),
    "cycle-swap": (lambda v: cycle_swap_pair(v), ("v",)),
    "k7-pair": (lambda v: k7_counterexample(v), ("v",)),
    "star-parity": (lambda k, v: star_parity_pair(k, v), ("k", "v")),
    "threshold-pair": (lambda m, r: threshold_pair(m, r), ("m", "r")),
}


def _cmd_construct(args) -> tuple[dict, int]:
    name, params = args.name, args.params
    if name not in CONSTRUCTIONS:
        raise RecompError(f"unknown construction; use one of {', '.join(CONSTRUCTIONS)}")
    build, names = CONSTRUCTIONS[name]
    if len(params) != len(names):
        raise RecompError(
            f"construction {name!r} takes {len(names)} integer parameter(s) "
            f"({' '.join(names)}), got {len(params)}"
        )
    built = build(*params)
    if isinstance(built, Graph):
        payload = {
            "name": name,
            "params": list(params),
            "graph6": encode(built),
            "code_version": __version__,
        }
    else:
        payload = dict(built.to_json(), name=name, code_version=__version__)
    return payload, 0


def _cmd_verify(args) -> tuple[dict, int]:
    report = sweep_theorem(args.theorem, args.v, args.k, long_running=args.long)
    return report.to_json(), 0 if report.ok else 1


def _cmd_atlas(args) -> tuple[dict, int]:
    record = membership_with_resume(
        args.relation,
        args.v,
        args.k,
        resume_log=args.resume,
        long_running=args.long,
    )
    return record.to_json(), 0


def _cmd_search(args) -> tuple[dict, int]:
    report = search_class_g(args.n, args.budget)
    payload = report.to_json()
    payload["code_version"] = __version__
    return payload, 0


_DISPATCH = {
    "analyze": _cmd_analyze,
    "check-pair": _cmd_check_pair,
    "matrix": _cmd_matrix,
    "kernel": _cmd_kernel,
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "atlas": _cmd_atlas,
    "search-class-g": _cmd_search,
}


def _error_mode(argv: list[str]) -> str:
    """Output format for an error raised while parsing argv: the --mode
    value as far as it can be read, and JSON always for check-pair."""
    pre = _CliParser(add_help=False)
    pre.add_argument("command", nargs="?")
    pre.add_argument("--mode")
    try:
        known, _ = pre.parse_known_args(argv)
    except RecompError:
        return "human"
    return "json" if known.command == "check-pair" or known.mode == "json" else "human"


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(argv)
        if getattr(args, "jobs", 1) < 1:
            raise RecompError(f"argument --jobs: need N >= 1, got {args.jobs}")
        top = SWEEP_MAX_V  # the sweeps' own limit names long_running, which the CLI spells --long
        if hasattr(args, "long") and args.v > top + args.long:
            raise RecompError(f"sweeps support --v <= {top} (--v {top + 1} with --long), got {args.v}")
    except RecompError as exc:
        _emit({"error": str(exc)}, _error_mode(argv))
        return 2
    mode = getattr(args, "mode", "human")
    if args.command == "check-pair":
        mode = "json"  # pair checks always answer with the JSON verdict
    try:
        payload, code = _DISPATCH[args.command](args)
    except VerificationError as exc:
        _emit({"error": str(exc), "falsified": True}, mode)
        return 1
    except (RecompError, ValueError) as exc:
        _emit({"error": str(exc)}, mode)
        return 2
    if args.command == "construct" and mode == "human" and "graph6" in payload:
        print(payload["graph6"])
        return code
    _emit(payload, mode)
    return code


if __name__ == "__main__":
    sys.exit(main())
