"""Packed finding rows (permutation.Findings): the dicts they decode to, their
report text, and what a formpw3 scan decodes and holds."""

import hashlib
import itertools
import json
import os
import subprocess
import sys
from array import array
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from keyseries import cli, report
from keyseries.bseq import format_seq, w_upper
from keyseries.cli import main
from keyseries.config import ResourceCapError
from keyseries.multisets import packed_C
from keyseries.mults import scan_formpw3
from keyseries.permutation import Findings, ScanOutcome, sweep
from keyseries.poly import key_multisets, multiset_key
from keyseries.report import canonical_json, outcome_report, write_json
from keyseries.series import numerator_carry

SRC = Path(__file__).resolve().parents[1] / "src"


def _formpw3_dicts(n: int) -> list[dict]:
    """The formpw3 findings as a list of dicts, one dict built per finding
    as the scan did before it packed them."""
    strata = [(levels, multiset_key(levels=levels))
              for levels in itertools.combinations_with_replacement(range(1, n + 1), 3)]

    def one(w, p_w):
        by_t = p_w.t_strata(3)
        own = sorted(strata + [(key_multisets(t)[1], t)
                               for t in by_t.keys() - {t for _, t in strata}])
        bounds = [()] + [w_upper(w, m) for m in range(1, own[-1][0][-1] + 1)]
        ces = []
        for levels, t in own:
            cs = packed_C(*(bounds[j] for j in levels))
            terms = by_t.get(t, {})
            for tau in cs:
                if terms.get(tau, 0) < 1:
                    ces.append({"claim": "positivity", "w": w.one_line(), "levels": levels,
                                "tau": format_seq(key_multisets(tau)[0]),
                                "m": terms.get(tau, 0)})
            for tau in sorted(terms.keys() - cs.keys()):
                ces.append({"claim": "support", "w": w.one_line(), "levels": levels,
                            "tau": format_seq(key_multisets(tau)[0]), "m": terms[tau]})
        return ces, {}

    return sweep("old", n, one, numerator_carry(tmax=3)).counterexamples


def test_rows_read_as_the_old_dicts_at_s4():
    found = scan_formpw3(4).counterexamples
    old = _formpw3_dicts(4)
    assert isinstance(found, Findings) and len(old) == 70
    assert len(found) == len(old) and bool(found) and found
    assert list(found) == old and found == old and old == found
    assert [list(ce) for ce in found] == [list(Findings.KEYS)] * len(old)
    assert all(type(ce["levels"]) is tuple and type(ce["m"]) is int for ce in found)
    assert [found[i] for i in range(-len(old), len(old))] == old + old
    for cut in (slice(None, 0), slice(None, 20), slice(5, 33), slice(None, None, 7),
                slice(60, 200), slice(None, None, -3), slice(40, 10, -1)):
        assert found[cut] == old[cut]
    with pytest.raises(IndexError):
        found[len(old)]
    assert found != old[:-1] and found != old[::-1]
    assert found != old[:-1] + [dict(old[-1], m=old[-1]["m"] + 1)]
    assert (found == "rows") is False


def test_slicing_decodes_only_the_rows_asked_for(monkeypatch):
    found = scan_formpw3(4).counterexamples
    seen = []
    real = Findings._decode
    monkeypatch.setattr(Findings, "_decode",
                        lambda self, w, row: seen.append(row) or real(self, w, row))
    assert len(found[:3]) == 3 and len(seen) == 3
    assert found[-1]["w"] == "4321" and len(seen) == 4


def test_merge_joins_blocks_undecoded(monkeypatch):
    tables = Findings(("no", "yes"), [(1, 2)], ["x", "y"])
    first = tables.block("21", array("q", [tables.pack(1, 0, 1, -4)]))
    second = tables.block("321", array("q", [tables.pack(0, 0, 0, 5)] * 2))
    out = ScanOutcome("s", 3)
    monkeypatch.setattr(Findings, "_decode", None)  # any decoding fails
    out.merge(tables.block("1", array("q")), {"c": 1})
    out.merge(first, {"c": 1})
    out.merge(second, {})
    monkeypatch.undo()
    assert out.stats == {"c": 2} and len(out.counterexamples) == 3
    assert out.counterexamples == [
        {"claim": "yes", "w": "21", "levels": (1, 2), "tau": "y", "m": -4},
        {"claim": "no", "w": "321", "levels": (1, 2), "tau": "x", "m": 5},
        {"claim": "no", "w": "321", "levels": (1, 2), "tau": "x", "m": 5},
    ]
    with pytest.raises(TypeError):
        out.merge([{"w": "x"}], {})
    with pytest.raises(TypeError):
        out.counterexamples.extend(Findings(("no", "yes")))


def test_a_value_past_its_field_is_a_resource_error():
    rows = Findings(("a", "b"))
    for args in ((0, 1 << 12, 0, 0), (0, 0, 1 << 27, 0), (0, 0, 0, 1 << 23),
                 (0, 0, 0, -(1 << 23) - 1)):
        with pytest.raises(ResourceCapError):
            rows.pack(*args)
    assert rows.pack(1, (1 << 12) - 1, (1 << 27) - 1, -(1 << 23)) >> 40 == -(1 << 23)


# Texts the encoder must escape or pass through, levels tuples (the empty one
# too) and m over its whole packed range.
_texts = st.text(st.sampled_from('ab"\\\x00\x1f% \ud800é𝄞'), max_size=4)
_rows = st.lists(st.tuples(
    st.integers(0, 1), st.integers(0, 2), st.integers(0, 3), _texts,
    st.integers(-(1 << 23), (1 << 23) - 1),
), max_size=12)


def _findings(claims, levels, taus, rows) -> Findings:
    out = Findings(claims, levels, taus)
    for w_text, block in itertools.groupby(rows, key=lambda row: row[3]):
        out.extend(out.block(w_text, array("q", [
            out.pack(claim, lid, tid, m) for claim, lid, tid, _, m in block])))
    return out


@given(st.tuples(_texts, _texts), st.lists(st.lists(st.integers(1, 9), max_size=3).map(tuple),
                                           min_size=3, max_size=3),
       st.lists(_texts, min_size=4, max_size=4), _rows, st.integers(0, 2))
@example(("positivity", "support"), [(1, 2, 3), (), (4,)], ["112", "", "x", "y"], [], 0)
@example(("a", "b"), [(1,), (), (4,)], ["%s", "%", "x", "y"],
         [(0, 0, 0, "21", -5), (1, 1, 1, "21", 0), (0, 2, 3, "4321", 7)], 2)
def test_encoded_rows_are_the_json_of_the_decoded_dicts(claims, levels, taus, rows, depth):
    found = _findings(claims, levels, taus, rows)
    nest = [lambda v: v, lambda v: {"counterexamples": v, "n": 3},
            lambda v: {"a": [{"b": v}, v]}][depth]
    decoded = [dict(ce) for ce in found]
    text = json.dumps(nest(decoded), sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    for pieces in (1, 3, report.CHUNK_PIECES):
        with mock.patch.object(report, "CHUNK_PIECES", pieces):
            assert canonical_json(nest(found)) == text


def test_scan_decodes_at_most_20_rows_before_encoding(tmp_path, monkeypatch, capsys):
    decoded = []
    at_encode = []
    real_decode = Findings._decode
    monkeypatch.setattr(Findings, "_decode",
                        lambda self, w, row: decoded.append(row) or real_decode(self, w, row))
    for name in ("canonical_json", "write_json"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda obj, *rest, real=real: (
            at_encode.append(len(decoded)), real(obj, *rest))[1])
    assert main(["scan", "--conjecture", "formpw3", "--n", "5", "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["stats"]
    assert at_encode == [20] and len(decoded) == 20
    decoded.clear()
    at_encode.clear()
    path = tmp_path / "r.json"
    assert main(["scan", "--conjecture", "formpw3", "--n", "5", "--out", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[21] == "  ... and 3212 more"
    assert at_encode == [20, 20] and len(decoded) == 20


def test_report_of_packed_rows_is_the_dict_report():
    out = scan_formpw3(4)
    body = outcome_report(out, {"n": 4}, 0)
    listed = dict(body, counterexamples=list(out.counterexamples))
    chunks: list[str] = []
    write_json(body, chunks.append)
    assert "".join(chunks) == json.dumps(listed, sort_keys=True, indent=2,
                                         ensure_ascii=False) + "\n"


# The S7 body digest of scan formpw3, first computed through
# run_check("formpw3", 7) while the findings were still dicts.
FORMPW3_S7_DIGEST = "39187d0b8e9e2600d86df3c7c08f87d17bd06791f3bf1bcdd85527cc36a1ae77"


@pytest.mark.slow
def test_formpw3_s7_out_file_peak_and_digest(tmp_path):
    # The 557 MB S7 report, written by a process that reports its own peak
    # resident memory; the file is hashed as a stream, its volatile line out.
    path = tmp_path / "s7.json"
    code = (
        "import sys\n"
        "from keyseries.cli import main\n"
        f"code = main(['scan', '--conjecture', 'formpw3', '--n', '7', '--out', {str(path)!r}])\n"
        "peak = [line for line in open('/proc/self/status') if line.startswith('VmHWM')]\n"
        "print(code, peak[0].split()[1], file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=900)
    exit_code, peak_kb = proc.stderr.split()
    assert exit_code == "1"
    assert proc.stdout.startswith("formpw3 n=7: 3433024 counterexample(s)")
    assert int(peak_kb) < 300 * 1024
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for line in fh:
            if not line.startswith(b'  "elapsed_ms": '):
                digest.update(line)
    assert digest.hexdigest() == FORMPW3_S7_DIGEST
