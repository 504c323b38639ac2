import contextlib
import io
import json

import pytest

from recomp import __version__
from recomp.cli import main
from recomp.graph6 import decode, encode
from recomp.graphs import Graph


def run(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def run_json(*argv):
    code, out = run(*argv)
    return code, json.loads(out)


def test_construct_paley5_graph6():
    code, out = run("construct", "paley", "5")
    assert code == 0 and out.strip() == "Dhc"
    assert decode(out.strip()) == Graph.cycle(5)


def test_construct_pair_json():
    code, payload = run_json("construct", "clique-pair", "6", "--mode", "json")
    assert code == 0
    g, h = decode(payload["g"]), decode(payload["g_prime"])
    assert g.n == h.n == 6
    assert payload["provenance"]["construction"] == "clique-pair"
    assert "not-iso-utc" in payload["verified"]


def test_construct_unknown_name():
    code, payload = run_json("construct", "mystery", "3", "--mode", "json")
    assert code == 2 and "error" in payload


def test_construct_wrong_parameter_count_is_usage_error():
    for argv, names in (["construct", "paley"], "(q)"), (["construct", "k7-pair", "9", "9"], "(v)"):
        code, payload = run_json(*argv, "--mode", "json")
        assert code == 2 and names in payload["error"], payload
        assert "unpack" not in payload["error"]


def test_search_class_g_negative_budget_is_usage_error():
    code, payload = run_json("search-class-g", "--n", "5", "--budget", "-1", "--mode", "json")
    assert code == 2 and "budget" in payload["error"]


def test_matrix_wilson_row():
    code, row = run_json("matrix", "--t", "2", "--k", "4", "--v", "6", "--p", "2", "--mode", "json")
    assert code == 0
    assert row["expected_rank"] == row["computed_rank"] == 14 and row["pass"]


def test_matrix_large_prime_returns():
    code, row = run_json(
        "matrix", "--t", "1", "--k", "2", "--v", "5", "--p", "2305843009213693951", "--mode", "json"
    )
    assert code == 0 and row["field"] == (1 << 61) - 1 and row["computed_rank"] == 5 and row["pass"]
    code, payload = run_json(
        "matrix", "--t", "1", "--k", "2", "--v", "5", "--p", str(10**25), "--mode", "json"
    )
    assert code == 2 and "primality" in payload["error"]


def test_matrix_rational_row():
    code, row = run_json("matrix", "--t", "2", "--k", "3", "--v", "6", "--mode", "json")
    assert code == 0 and row["field"] == "Q" and row["expected_rank"] == 15 and row["pass"]


def test_matrix_outside_rank_theorem_domain_is_usage_error():
    # t > min(k, v-k) is outside both rank theorems: a usage error (2), not a falsification (1)
    for t, k, v in (("2", "4", "5"), ("1", "1", "1")):
        for field in ((), ("--p", "2")):
            code, payload = run_json("matrix", "--t", t, "--k", k, "--v", v, *field, "--mode", "json")
            assert code == 2 and "min(k, v-k)" in payload["error"], payload


def test_check_pair_verdict():
    code, verdict = run_json("check-pair", encode(Graph.empty(4)), encode(Graph.from_edges(4, [(0, 1)])), "--k", "2", "--mode", "hypo")
    assert code == 0
    assert not verdict["holds"] and verdict["witness_subset"] == [0, 1]
    assert decode(verdict["witness_graph6"]).n == 2


def test_check_pair_h3_mode():
    g6 = encode(Graph.cycle(6))
    code, verdict = run_json("check-pair", g6, g6, "--mode", "h3")
    assert code == 0 and verdict["holds"] and verdict["k"] is None


def test_check_pair_h3_with_k_is_usage_error():
    # h3 compares the sets of 3-homogeneous triples and has no k
    g6 = encode(Graph.cycle(5))
    code, payload = run_json("check-pair", g6, g6, "--mode", "h3", "--k", "9")
    assert code == 2 and "takes no --k" in payload["error"], payload


def test_check_pair_missing_k():
    code, payload = run_json("check-pair", "Dhc", "Dhc", "--mode", "hypo")
    assert code == 2 and "error" in payload


def test_kernel_census():
    code, payload = run_json("kernel", "--k", "5", "--v", "7", "--mode", "json")
    assert code == 0
    assert payload["count"] == 128 and payload["dimension"] == 7
    assert payload["all_in_family"]
    assert len(payload["graphs"]) == 128
    for s in payload["graphs"][:10]:
        assert encode(decode(s)) == s


def test_verify_sweep_exit_codes():
    code, rep = run_json("verify", "k0mod4", "--v", "6", "--k", "4", "--mode", "json")
    assert code == 0 and rep["ok"] and rep["violation_count"] == 0
    code, payload = run_json("verify", "k0mod4", "--v", "6", "--k", "3", "--mode", "json")
    assert code == 2 and "error" in payload  # precondition violation is usage


def test_verify_order_below_one_is_usage_error():
    for v in ("0", "-2"):
        code, payload = run_json("verify", "clawfree", "--v", v, "--mode", "json")
        assert code == 2 and "v >= 1" in payload["error"], payload


def test_verify_clawfree_with_k_is_usage_error():
    code, payload = run_json("verify", "clawfree", "--v", "4", "--k", "9", "--mode", "json")
    assert code == 2 and "takes no k" in payload["error"], payload


def test_verify_jobs_below_one_is_usage_error():
    for jobs in ("0", "-3"):
        argv = ("verify", "k0mod4", "--v", "6", "--k", "4", "--jobs", jobs)
        code, payload = run_json(*argv, "--mode", "json")
        assert code == 2 and "--jobs" in payload["error"], payload


def test_atlas_jobs_below_one_is_usage_error():
    for jobs in ("0", "-3"):
        argv = ("atlas", "--relation", "S", "--v", "4", "--k", "2", "--jobs", jobs)
        code, payload = run_json(*argv, "--mode", "json")
        assert code == 2 and "--jobs" in payload["error"], payload


def test_order7_without_long_is_usage_error():
    for argv in (
        ("atlas", "--relation", "S", "--v", "7", "--k", "3"),
        ("verify", "k0mod4", "--v", "7", "--k", "4"),
    ):
        code, payload = run_json(*argv, "--mode", "json")
        assert code == 2 and "--long" in payload["error"], payload
        assert "long_running" not in payload["error"], payload
    argv = ("atlas", "--relation", "R", "--v", "8", "--k", "3", "--long")
    code, payload = run_json(*argv, "--mode", "json")
    assert code == 2 and "--v <= 6 (--v 7 with --long), got 8" in payload["error"], payload


def test_atlas_subcommand(tmp_path):
    log = tmp_path / "log.jsonl"
    args = ("atlas", "--relation", "S", "--v", "6", "--k", "4", "--resume", str(log), "--mode", "json")
    code, rec = run_json(*args)
    assert code == 0 and rec["verdict"] == "Member"
    code2, rec2 = run_json(*args)  # resumed from the log
    assert code2 == 0 and rec2 == rec


def test_atlas_resume_log_does_not_bypass_input_checks(tmp_path):
    log = tmp_path / "log.jsonl"
    for v, k in ((12, 0), (12, 4), (6, 0), (6, 7)):
        forged = {
            "relation": "S",
            "v": v,
            "k": k,
            "verdict": "Member",
            "witness": None,
            "pairs_examined": 0,
            "code_version": __version__,
        }
        log.write_text(json.dumps(forged) + "\n")
        argv = ("atlas", "--relation", "S", "--v", str(v), "--k", str(k), "--resume", str(log))
        code, payload = run_json(*argv, "--mode", "json")
        assert code == 2 and "error" in payload, (v, k)


def test_atlas_resume_log_invalid_record_is_recomputed(tmp_path):
    log = tmp_path / "log.jsonl"
    want = run_json("atlas", "--relation", "S", "--v", "4", "--k", "2", "--mode", "json")
    base = {"relation": "S", "v": 4, "k": 2, "code_version": __version__}
    for forged in (dict(base, witness=None, pairs_examined=0), dict(base, verdict="Maybe", pairs_examined=-5)):
        log.write_text(json.dumps(forged) + "\n")
        argv = ("atlas", "--relation", "S", "--v", "4", "--k", "2", "--resume", str(log), "--mode", "json")
        with pytest.warns(UserWarning, match="skipping a resume-log line"):
            got = run_json(*argv)
        assert got == want, forged


def test_search_class_g_subcommand():
    code, rep = run_json("search-class-g", "--n", "5", "--budget", "100", "--mode", "json")
    assert code == 0 and rep["members"] == ["Dhc"]


def test_analyze_json_roundtrip():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    code, payload = run_json("analyze", encode(g), "--mode", "json")
    assert code == 0
    assert payload["e"] == 5 and payload["self_complementary"] and payload["regular"]
    assert encode(decode(payload["graph6"])) == payload["graph6"]


def test_error_paths_emit_valid_json():
    for argv in (
        ["analyze", "not graph6!!", "--mode", "json"],
        ["matrix", "--t", "9", "--k", "2", "--v", "6", "--mode", "json"],
        ["kernel", "--k", "1", "--v", "6", "--mode", "json"],
        ["totally-bogus", "--mode", "json"],
        ["construct", "paley", "7", "--mode", "json"],
        ["matrix", "--t", "2", "--mode=json"],  # parse error, --mode=VALUE spelling
        ["check-pair", "Dhc", "Dhc", "--k", "2"],  # parse error; check-pair is always JSON
    ):
        code, out = run(*argv)
        payload = json.loads(out)
        assert code == 2 and "error" in payload


def test_construct_verification_failure_would_exit_1(monkeypatch):
    # force a construction to lie about its claims to check the exit path
    import recomp.cli as cli_mod

    def bad_construct(v, verify=True):
        from recomp.errors import VerificationError

        raise VerificationError("claimed property failed")

    monkeypatch.setattr(cli_mod, "clique_pair_counterexample", bad_construct)
    code, payload = run_json("construct", "clique-pair", "6", "--mode", "json")
    assert code == 1 and payload.get("falsified")


def test_verify_output_ignores_jobs():
    # --jobs N (N >= 1) is accepted for compatibility; sweeps run in one process
    argv = ("verify", "k0mod4", "--v", "6", "--k", "4", "--mode", "json")
    outs = [run(*argv, "--jobs", jobs) for jobs in ("8", "1")]
    assert outs[0] == outs[1]
    code, out = outs[0]
    assert code == 0 and json.loads(out)["ok"]
