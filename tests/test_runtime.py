import ast
import dataclasses
import hashlib
import importlib
import json
import pkgutil
import re
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

import keyseries
from keyseries import counts, poly, report, series
from keyseries.cli import CHECKS, main

from keyseries.config import (
    ABSOLUTE_MAX_N,
    EngineConfig,
    ResourceCapError,
    load_config,
    parse_config,
)
from keyseries.mults import (
    ScanOutcome,
    check_diff1,
    check_lketa23,
    check_multsiw,
    scan_formpw3,
    scan_siinc,
)
from keyseries.report import (
    body_digest,
    canonical_json,
    make_manifest,
    outcome_report,
    write_json,
)


def test_parse_config():
    cfg = parse_config("max_n = 5\n# comment\n\nmax_tdeg=6 # inline\n")
    assert cfg == EngineConfig(max_n=5, max_tdeg=6)


def test_parse_config_defaults():
    assert parse_config("") == EngineConfig()
    assert EngineConfig().max_n == 7
    assert EngineConfig().max_tdeg == 8
    assert EngineConfig().max_terms == 1_000_000
    assert parse_config("max_terms=500\n") == EngineConfig(max_terms=500)


@pytest.mark.parametrize("text", [
    "max_n", "depth=3", "max_n=abc", "max_n=0", "threads=-1", "threads=2",
    "max_tdeg=2.5", "max_n=3\nmax_n=9", "max_terms=0", "max_terms=1e6",
])
def test_parse_config_rejects(text):
    with pytest.raises(ValueError, match=r"^config line \d+: "):
        parse_config(text)


def test_all_entries_resolve():
    # A deleted name left in an __all__ would break `from ... import *`.
    modnames = ["keyseries"] + [f"keyseries.{m.name}"
                                for m in pkgutil.iter_modules(keyseries.__path__)]
    for modname in modnames:
        module = importlib.import_module(modname)
        stale = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert stale == [], modname
        exec(f"from {modname} import *", {})


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


def test_report_imports_no_other_keyseries_module():
    # The encoder is a leaf: the row tables import it, never the other way.
    tree = ast.parse(open(report.__file__, encoding="utf-8").read())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports and not [node for node in imports
                            if isinstance(node, ast.ImportFrom) and node.level]
    names = [alias.name for node in imports if isinstance(node, ast.Import)
             for alias in node.names]
    names += [node.module for node in imports if isinstance(node, ast.ImportFrom)]
    assert not [name for name in names if name.split(".")[0] == "keyseries"]


def test_canonical_json_is_sorted_and_stable():
    text = canonical_json({"b": 1, "a": [2, 3]})
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")
    assert json.loads(text) == {"b": 1, "a": [2, 3]}


# Strings with the characters an encoder must escape or pass through: quotes,
# backslashes, control characters, non-ASCII and lone surrogates.
_texts = st.text(st.one_of(
    st.sampled_from('"\\/\x00\x08\x1f\x7f\u2028\ud800\udfffé€𝄞'),
    st.characters(),
    st.characters(categories=["Cs"]),
), max_size=8)
_scalars = st.one_of(
    _texts, st.integers(), st.integers(min_value=-(2**200), max_value=2**200),
    st.booleans(), st.none(),
)


def _containers(items, min_size=0, max_size=4):
    return st.one_of(
        st.lists(items, min_size=min_size, max_size=max_size),
        st.lists(items, min_size=min_size, max_size=max_size).map(tuple),
        st.dictionaries(_texts, items, min_size=min_size, max_size=max_size),
    )


_trees = st.recursive(_scalars, _containers, max_leaves=6)
_deep_trees = _trees
for _ in range(4):  # at least four levels of non-empty containers above a tree
    _deep_trees = _containers(_deep_trees, min_size=1, max_size=2)


def _chunks(obj) -> list[str]:
    chunks: list[str] = []
    write_json(obj, chunks.append)
    return chunks


@given(_deep_trees)
@example([])
@example({})
@example(())
@example({"a": [{}, [], ()], "b": {"c": [[]]}})
def test_canonical_json_matches_json_dumps(obj):
    # write_json's chunks join to the same text with a flush after every
    # item, every third piece and at the shipped size.
    text = json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    for pieces in (1, 3, report.CHUNK_PIECES):
        with mock.patch.object(report, "CHUNK_PIECES", pieces):
            assert "".join(_chunks(obj)) == canonical_json(obj) == text


def _large_report(findings: int) -> dict:
    """A formpw3-shaped report with the given number of findings."""
    return {
        "scan": "formpw3", "n": 6, "params": {"conjecture": "formpw3", "n": 6},
        "counterexamples": [
            {"claim": "support", "w": "214365", "levels": (1, 2, 3),
             "tau": "1122334", "m": m % 7 - 3}
            for m in range(findings)
        ],
        "stats": {"c_elements": 1, "terms": 2}, "elapsed_ms": 7,
    }


def test_write_json_streams_a_large_report():
    obj = _large_report(20_000)
    chunks = _chunks(obj)
    assert len(chunks) > 5
    assert max(map(len, chunks)) < 30 * report.CHUNK_PIECES
    assert "".join(chunks) == canonical_json(obj) == (
        json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n")


def test_write_json_streams_a_large_polynomial():
    # Each term of P is one row of its table, here up to five x variables
    # each: the rows stream in chunks under the bound above.
    p = poly.SparsePoly({((a, b, a % 5, b % 4, 1), (0, c), a % 2): 1 + a % 3
                         for a in range(1, 64) for b in range(24) for c in range(12)})
    assert len(p.terms) > 2 * report.CHUNK_PIECES
    obj = {"command": "pw", "polynomial": p.to_json_obj()}
    chunks = _chunks(obj)
    assert len(chunks) > 1
    assert max(map(len, chunks)) < 30 * report.CHUNK_PIECES
    assert "".join(chunks) == canonical_json(obj) == json.dumps(
        {"command": "pw", "polynomial": {"terms": list(obj["polynomial"]["terms"])}},
        sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def test_write_json_holds_one_chunk_at_a_time():
    # Encoding 100k findings into a sink that drops them holds one chunk of
    # pieces, not the report's text (about 30 MB of pieces when joined whole).
    obj = {"counterexamples": [{"w": "214365", "m": m} for m in range(100_000)]}
    tracemalloc.start()
    try:
        write_json(obj, lambda chunk: None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "diff1", "--n", "4"],
    ["scan", "--conjecture", "formpw3", "--n", "5"],
    ["key", "--w", "3142", "--lambda", "3,2,1"],
    ["pw", "--w", "2413", "--tdeg", "3"],
    ["sets", "--w", "3412", "--C", "2,3,4"],
])
def test_out_file_digest_is_the_chunked_digest(tmp_path, capsys, argv):
    # The streamed file, its volatile line dropped, hashes to body_digest of
    # what it holds, and it is the one-string text of that value.
    path = tmp_path / "out.json"
    assert main(argv + ["--out", str(path)]) in (0, 1)
    capsys.readouterr()
    raw = path.read_bytes()
    obj = json.loads(raw)
    assert raw == canonical_json(obj).encode()
    body = re.sub(rb'\n  "elapsed_ms": \d+,', b"", raw)
    assert (body != raw) == ("elapsed_ms" in obj)
    assert hashlib.sha256(body).hexdigest() == body_digest(obj)


@given(_scalars)
def test_canonical_json_of_a_scalar(obj):
    assert canonical_json(obj) == json.dumps(obj, ensure_ascii=False) + "\n"


@pytest.mark.parametrize("obj", [
    1.5, [0.0], {"a": {"b": float("nan")}}, {1: "x"}, {"a": {None: 1}},
    {("a",): 1}, {1, 2}, [frozenset()], b"bytes",
])
def test_canonical_json_rejects_other_types(obj):
    with pytest.raises(TypeError):
        canonical_json(obj)


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


def test_clear_caches_empties_every_cache():
    keyseries.clear_caches()
    check_diff1(3)
    # sweeps leave no P_w and no key polynomial: single calls fill both memos
    series.key_polynomial((2, 1), keyseries.parse_permutation("231"))
    series.numerator_P(keyseries.parse_permutation("231"))
    counts.suite_fcoeff(3, 3)
    poly.divided_difference(1, poly.SparsePoly.x_var(1))
    keyseries.enum_C(keyseries.parse_permutation("4123"), 1, 2, 3)
    sizes = keyseries.cache_stats()
    assert sorted(sizes) == [
        "bseq._A_CACHE", "bseq._A_SET_CACHE", "counts._level_selections",
        "multisets._BTILDE_CACHE", "multisets._B_CACHE", "multisets._C_CACHE",
        "poly._dd_pair", "series._KEY_CACHE", "series._P_CACHE",
    ]
    assert all(sizes.values()), sizes
    keyseries.clear_caches()
    assert not any(keyseries.cache_stats().values()), keyseries.cache_stats()


def _module_containers() -> dict[str, int]:
    """Size of every module-level dict, set and list of the keyseries modules."""
    return {
        f"{modname}.{name}": len(obj)
        for modname, module in sorted(sys.modules.items())
        if modname.startswith("keyseries.")
        for name, obj in vars(module).items()
        if isinstance(obj, (dict, set, list))
    }


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_sweeps_grow_only_listed_tables(name):
    # A module-level container that a sweep fills is a memo table, so it must
    # be one that cache_stats() lists and clear_caches() empties.
    keyseries.clear_caches()
    before = _module_containers()
    _, fn, rank, further = CHECKS[name]
    fn(min(rank, 4), *further.values())
    grown = {key for key, size in _module_containers().items() if size > before.get(key, 0)}
    listed = {f"keyseries.{label}" for label in keyseries.cache_stats()}
    assert grown, name  # every sweep fills at least the A sets
    assert grown <= listed, sorted(grown - listed)


def test_sweeps_hold_no_numerator_memo():
    # A sweep hands each w its own P_w (and key series) and memoises none of
    # them, neither numerators nor key polynomials.
    keyseries.clear_caches()
    check_lketa23(6)
    scan_formpw3(5)
    check_multsiw(4)
    series.suite_formofkw(4, 3)
    series.check_piiKw(3, 3)
    sizes = keyseries.cache_stats()
    assert sizes["series._P_CACHE"] == 0
    assert sizes["series._KEY_CACHE"] == 0
