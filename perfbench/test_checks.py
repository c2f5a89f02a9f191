"""Tests of the benchmark's output checks and of its runner.

Run from the repository root: python3 -m pytest perfbench
"""

import itertools
import json
import random
import shutil
import subprocess
import sys

import pytest

import run
import workloads as wl

sys.path.insert(0, str(run.SRC))


def _answer(argv):
    code, text = wl.call_program(argv + ["--format", "json"])
    assert code == 0
    return text


def _perturb_first_coeff(text):
    obj = json.loads(text)
    obj["polynomial"]["terms"][0]["coeff"] += 1
    return json.dumps(obj)


@pytest.mark.parametrize("argv", [
    ["key", "--w", "3142", "--lambda", "2,1"],
    ["key", "--w", "2413", "--lambda", "3,1,1", "--xi"],
    ["pw", "--w", "31425", "--tdeg", "3"],
])
def test_query_answers_pass_and_perturbed_answers_fail(argv):
    text = _answer(argv)
    assert wl.check_query(argv, 0, text, random.Random(1), True) == []
    assert wl.check_query(argv, 0, _perturb_first_coeff(text), random.Random(1), True)
    assert wl.check_query(argv, 2, text, random.Random(1), True)


def test_perturbed_listing_fails():
    argv = ["sets", "--w", "42531", "--B", "2,3"]
    text = _answer(argv)
    assert wl.check_query(argv, 0, text, random.Random(1), False) == []
    obj = json.loads(text)
    obj["elements"] = obj["elements"][1:]
    assert wl.check_query(argv, 0, json.dumps(obj), random.Random(1), False)


def test_sweep_checks_reject_wrong_reports():
    stats = {f"pattern_{p}": 1 for p in ("123_456", "124_356", "125_346", "134_256")}
    stats["multisets"] = 4
    assert wl.check_lketa23(0, {"counterexamples": [], "stats": stats}, 1)
    found = [{"claim": "support", "w": "123456", "levels": [1, 1, 1], "tau": "123", "m": 1}]
    assert wl.check_formpw3(1, {"counterexamples": found, "stats": {}}, 1)
    bad = {"counterexamples": [], "stats": {"checks": 120, "failed": 1}}
    assert wl.check_formofkw(0, bad, 1)


def test_query_mix_is_seeded_stratified_and_distinct():
    a, b = wl.query_mix(7), wl.query_mix(7)
    assert a == b and len(a) == wl.QUERY_CALLS >= 200
    assert len({tuple(x) for x in a}) == len(a)
    assert wl.query_mix(8) != a
    kinds = [x[0] + ("-xi" if "--xi" in x else "") for x in a]
    assert all(kinds.count(k) == wl.QUERY_CALLS // 4 for k in ("key", "key-xi", "pw", "sets"))
    pw = sorted(wl.parse_w(x[2]) for x in a if x[0] == "pw")
    assert pw == sorted(wl.pw_permutations(wl.QUERY_CALLS // 4))
    lengths = {sum(a > b for a, b in itertools.combinations(w, 2)) for w in pw}
    assert lengths == set(range(16))


def test_length_profile_takes_lengths_in_turn_and_uses_up_rare_ones():
    sizes = [len(g) for g in wl.perms_by_length(6)]
    assert sizes == [1, 5, 14, 29, 49, 71, 90, 101, 101, 90, 71, 49, 29, 14, 5, 1]
    assert wl.length_profile(sizes, 60) == [1, 5, 5] + [4] * 12 + [1]
    assert wl.length_profile(sizes, 90) == [1, 5] + [7] * 6 + [6] * 6 + [5, 1]


def test_failed_check_counts_as_failed_operation(monkeypatch, tmp_path):
    ops = [["key", "--w", "21", "--lambda", "1", "--format", "json"],
           ["sets", "--w", "321", "--A", "2", "--format", "json"],
           ["pw", "--w", "231", "--tdeg", "3", "--format", "json"]]
    real = wl.check_query

    def wrong_on_sets(argv, code, text, rng, point_check):
        if argv[0] == "sets":
            return ["made to fail"]
        return real(argv, code, text, rng, point_check)

    monkeypatch.setattr(run, "RUNS", tmp_path)
    monkeypatch.setattr(wl, "operations", lambda workload, seed: ops)
    monkeypatch.setattr(wl, "check_query", wrong_on_sets)
    result = run.run_workload("query-mix", 1, 0, False)
    assert result["attempted"] == 3 and result["failed"] == 1
    assert result["correct"] is False
    assert set(result["metrics"]) == set(run.UNITS)
    record = json.loads(next((tmp_path / "query-mix").glob("*.json")).read_text())
    assert record["problems"] == ["made to fail"]


def test_a_call_that_raises_is_a_wrong_answer_and_the_round_goes_on(monkeypatch, tmp_path):
    import child
    import keyseries.cli

    ops = [["sets", "--w", "321", "--A", "2", "--format", "json"],
           ["key", "--w", "21", "--lambda", "1", "--format", "json"],
           ["sets", "--w", "321", "--A", "1", "--format", "json"]]
    real = keyseries.cli.main

    def broken_key(argv):
        if argv[0] == "key":
            raise AssertionError("P_w is wrong")
        return real(argv)

    monkeypatch.setattr(keyseries.cli, "main", broken_key)
    spec = {"ops": ops, "trace": False, "keep_stdout": True, "scratch": str(tmp_path),
            "span_dump": None, "cpu": None}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    child.main(str(tmp_path / "spec.json"), str(tmp_path / "result.json"))
    result = json.loads((tmp_path / "result.json").read_text())
    assert [c["code"] for c in result["calls"]] == [0, None, 0]
    assert result["calls"][1]["raised"] == "AssertionError: P_w is wrong"
    with open(tmp_path / "outputs.jsonl") as fh:
        for call, line in zip(result["calls"], fh):
            call["stdout"] = json.loads(line)
    problems, _ = run.check_rounds("query-mix", ops, [result, result], 1, {})
    assert problems == [[], ["raised AssertionError: P_w is wrong"], []] * 2

    monkeypatch.setattr(run, "RUNS", tmp_path / "runs")
    monkeypatch.setattr(wl, "operations", lambda workload, seed: ops[1:2])
    monkeypatch.setattr(run, "run_round", lambda *a, **k: (result, 1.0, ""))
    monkeypatch.setattr(run, "measure_setup", lambda env, count: [0.1] * count)
    out = run.run_workload("query-mix", 1, 0, False)
    assert out["correct"] is False and out["failed"] == out["attempted"] == 1


def test_only_timeouts_and_outside_kills_keep_correct(monkeypatch, tmp_path):
    ops = [["sets", "--w", "321", "--A", "2", "--format", "json"]]
    monkeypatch.setattr(run, "RUNS", tmp_path)
    monkeypatch.setattr(wl, "operations", lambda workload, seed: ops)
    monkeypatch.setattr(run, "measure_setup", lambda env, count: [0.1] * count)
    for error, correct in ((run.TIMED_OUT, True), (f"{run.KILLED} 9", True),
                           ("child exit 1: Traceback ...", False)):
        monkeypatch.setattr(run, "run_round", lambda *a, **k: (None, 1.0, error))
        out = run.run_workload("query-mix", 1, 0, False)
        assert (out["correct"], out["attempted"], out["failed"]) == (correct, 1, 1)


def test_malformed_answers_fail_their_operation(tmp_path):
    ops = [["key", "--w", "21", "--lambda", "1", "--format", "json"],
           ["sets", "--w", "321", "--A", "2", "--format", "json"]]
    calls = [{"code": 0, "stdout": "not json", "stdout_sha256": "a"},
             {"code": 0, "stdout": '{"elements": 3}', "stdout_sha256": "b"}]
    problems, _ = run.check_rounds("query-mix", ops, [{"calls": calls}], 1, {})
    assert len(problems) == 2 and all(problems)
    (tmp_path / "r.json").write_text('{"stats": {}}')
    call = {"code": 0, "out": str(tmp_path / "r.json")}
    problems, _ = run.check_rounds("lketa23-s7", ops[:1], [{"calls": [call]}], 1, {})
    assert problems[0]


def test_traced_round_reports_every_layer_metric(tmp_path):
    import spans

    ops = [["key", "--w", "321", "--lambda", "2,1", "--xi", "--format", "json"],
           ["pw", "--w", "2413", "--tdeg", "2", "--format", "json"]]
    result, _, error = run.run_round(ops, True, False, tmp_path / "round", run.child_env(),
                                     run.time.monotonic() + 60, str(tmp_path / "s.tsv.gz"))
    assert error == ""
    layers = result["layers"]
    assert set(layers) == set(spans.metric_units())
    assert layers["cli.main.calls"] == 2 and layers["series.key.calls"] == 1
    # pi_xi calls pi: both are counted, and self times never go negative
    assert layers["poly.pi_xi.calls"] >= 1 and layers["poly.pi.calls"] > layers["poly.pi_xi.calls"]
    assert all(v >= 0 for v in layers.values())
    assert sum(v for k, v in layers.items() if k.endswith("self_s")) <= sum(
        c["s"] for c in result["calls"])


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "query-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
