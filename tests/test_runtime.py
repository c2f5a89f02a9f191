import dataclasses
import json

import pytest

import keyseries
from keyseries import counts, poly, series
from keyseries.cli import main

from keyseries.config import (
    ABSOLUTE_MAX_N,
    EngineConfig,
    ResourceCapError,
    load_config,
    parse_config,
)
from keyseries.mults import ScanOutcome, check_diff1, scan_siinc
from keyseries.report import (
    body_digest,
    canonical_json,
    hash_text,
    make_manifest,
    outcome_report,
)


def test_parse_config():
    cfg = parse_config("max_n = 5\n# comment\n\nmax_tdeg=6 # inline\n")
    assert cfg == EngineConfig(max_n=5, max_tdeg=6)


def test_parse_config_defaults():
    assert parse_config("") == EngineConfig()
    assert EngineConfig().max_n == 7
    assert EngineConfig().max_tdeg == 8


@pytest.mark.parametrize("text", [
    "max_n", "depth=3", "max_n=abc", "max_n=0", "threads=-1", "threads=2",
    "max_tdeg=2.5",
])
def test_parse_config_rejects(text):
    with pytest.raises(ValueError):
        parse_config(text)


def test_load_config_env_override(tmp_path, monkeypatch):
    # no environment variable overrides the config file
    path = tmp_path / "caps.cfg"
    path.write_text("max_n=4\n")
    monkeypatch.setenv("KEYSERIES_THREADS", "zero")
    assert load_config(str(path)) == EngineConfig(max_n=4)
    assert load_config(None) == EngineConfig()


def test_caps():
    cfg = EngineConfig(max_n=5, max_tdeg=4)
    cfg.check_rank(5)
    cfg.check_tdeg(4)
    with pytest.raises(ResourceCapError):
        cfg.check_rank(6)
    with pytest.raises(ResourceCapError):
        cfg.check_tdeg(5)
    roomy = EngineConfig(max_n=99)
    with pytest.raises(ResourceCapError):
        roomy.check_rank(ABSOLUTE_MAX_N + 1)


def test_canonical_json_is_sorted_and_stable():
    text = canonical_json({"b": 1, "a": [2, 3]})
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")
    assert json.loads(text) == {"b": 1, "a": [2, 3]}


def test_body_digest_ignores_wall_clock():
    base = {"scan": "x", "counterexamples": [], "elapsed_ms": 5}
    other = dict(base, elapsed_ms=99)
    changed = dict(base, scan="y")
    assert body_digest(base) == body_digest(other)
    assert body_digest(base) != body_digest(changed)


def test_outcome_report_shape():
    outcome = scan_siinc(3)
    report = outcome_report(outcome, {"n": 3}, 12)
    assert report["scan"] == "siinc"
    assert report["n"] == 3
    assert report["counterexamples"] == []
    assert report["stats"] == outcome.stats
    assert report["elapsed_ms"] == 12


def test_failed_form_check_becomes_finding(monkeypatch, capsys):
    real = series.verify_form

    def fail_on_231(w, **kwargs):
        check = real(w, **kwargs)
        if w.one_line() == "231":
            return dataclasses.replace(check, ok=False, detail="numerator differs")
        return check

    monkeypatch.setattr(series, "verify_form", fail_on_231)
    code = main(["verify", "--suite", "formofkw", "--n", "3", "--tdeg", "2",
                 "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["scan"] == "verify-formofkw"
    assert report["counterexamples"] == [{"w": "231", "detail": "numerator differs"}]
    assert report["stats"] == {"checks": 6, "failed": 1}


def test_scan_outcome_merge():
    out = ScanOutcome("s", 3, [], {"count": 1})
    assert out.ok
    found = [{"w": "x"}]
    out.merge(found, {"count": 2, "other": 0})
    out.merge([{"w": "y"}], {"count": 1})
    assert out.counterexamples == [{"w": "x"}, {"w": "y"}]
    assert out.stats == {"count": 4, "other": 0}
    assert found == [{"w": "x"}] and not out.ok


def test_manifest_fields():
    obj = make_manifest("scan", {"n": 3}, "0.1.0", {}, {"k": 1}, 0)
    assert sorted(obj) == [
        "command", "exit_status", "input_hashes", "params",
        "result_summary", "timestamp", "version",
    ]
    assert obj["timestamp"].endswith("+00:00")
    assert hash_text("abc") == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )


def test_clear_caches_empties_every_cache():
    check_diff1(3)
    series.suite_formofkw(3, 2)
    counts.suite_fcoeff(3, 3)
    poly.divided_difference(1, poly.SparsePoly.x_var(1))
    keyseries.enum_C(keyseries.parse_permutation("4123"), 1, 2, 3)
    sizes = keyseries.cache_stats()
    assert sorted(sizes) == [
        "bseq._A_CACHE", "bseq._A_SET_CACHE", "counts._level_selections",
        "multisets._BTILDE_CACHE", "multisets._B_CACHE", "multisets._C_CACHE",
        "poly._dd_pair", "poly._pi_pair", "series._KEY_CACHE", "series._P_CACHE",
    ]
    assert all(sizes.values()), sizes
    keyseries.clear_caches()
    assert not any(keyseries.cache_stats().values()), keyseries.cache_stats()
