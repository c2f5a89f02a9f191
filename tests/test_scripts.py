import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import keyseries
from keyseries import series
from keyseries.cli import CHECKS, check_names, main
from keyseries.poly import SparsePoly
from keyseries.report import body_digest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_scan_conjectures_script(tmp_path):
    proc = run_script("scan_conjectures.py", "--min-n", "3", "--max-n", "3",
                      "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    names = sorted(check_names("scan"))
    assert names == ["formpw2bound", "formpw3", "poset", "siinc"]
    assert len(lines) == len(names)
    for name, line in zip(names, lines):
        path = tmp_path / f"{name}-n3.json"
        assert re.fullmatch(rf"{name} n=3: ok \(\d+ms\) -> {re.escape(str(path))}", line)
        report = json.loads(path.read_text())
        assert report["params"] == {"conjecture": name, "n": 3}
        assert report["counterexamples"] == []


def test_scan_conjectures_bad_config_exits_2(tmp_path):
    cfg = tmp_path / "caps.cfg"
    cfg.write_text("threads=2\n")
    out_dir = tmp_path / "reports"
    proc = run_script("scan_conjectures.py", "--config", str(cfg),
                      "--out-dir", str(out_dir))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == ["error: config line 1: unknown key 'threads'"]
    assert not out_dir.exists()


def test_scan_conjectures_capped_rank_exits_3(tmp_path):
    out_dir = tmp_path / "reports"
    proc = run_script("scan_conjectures.py", "--min-n", "10", "--max-n", "10",
                      "--out-dir", str(out_dir))
    assert proc.returncode == 3
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("resource cap: "), proc.stderr
    assert not out_dir.exists()


def test_scan_conjectures_empty_range_exits_2(tmp_path):
    out_dir = tmp_path / "reports"
    proc = run_script("scan_conjectures.py", "--min-n", "5", "--max-n", "3",
                      "--out-dir", str(out_dir))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == ["error: --min-n 5 is above --max-n 3"]
    assert not out_dir.exists()


def test_scan_conjectures_rank_zero_exits_2(tmp_path):
    out_dir = tmp_path / "reports"
    proc = run_script("scan_conjectures.py", "--min-n", "0", "--max-n", "0",
                      "--out-dir", str(out_dir))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == ["error: rank must be >= 1, got 0"]
    assert not out_dir.exists()


def test_scan_conjectures_report_matches_cli(tmp_path, capsys):
    # the script and `scan --out` run the same path: same body, and the
    # script leaves no temp file beside its reports
    proc = run_script("scan_conjectures.py", "--min-n", "4", "--max-n", "4",
                      "--out-dir", str(tmp_path / "reports"))
    assert proc.returncode == 1, proc.stderr
    names = sorted(check_names("scan"))
    assert sorted(p.name for p in (tmp_path / "reports").iterdir()) == [
        f"{name}-n4.json" for name in names]
    out = tmp_path / "cli.json"
    assert main(["scan", "--conjecture", "formpw3", "--n", "4", "--out", str(out)]) == 1
    capsys.readouterr()
    script_report = json.loads((tmp_path / "reports" / "formpw3-n4.json").read_text())
    assert body_digest(script_report) == body_digest(json.loads(out.read_text()))


def test_multiplicity_census_script():
    proc = run_script("multiplicity_census.py", "--n", "3")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "S_3: 3 two-presentation multisets",
        "floor 2^r-1 tight on 3/3",
        "",
        "multiplicity distribution by r:",
        "  r=1: m=1: 3",
        "",
        "multiplicity distribution by presentation count:",
        "  2 presentations: m=1: 2",
        "  3 presentations: m=1: 1",
    ]


def test_multiplicity_census_n4_pinned():
    # the whole S4 census, pinned so that a rewrite of its rows keeps every count
    proc = run_script("multiplicity_census.py", "--n", "4")
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "ad4e085d77a5ba214d318e7960d73fadf8d42a22e802b06c64b47b94685349f0")


@pytest.mark.parametrize("n, code, message", [
    ("0", 2, "error: rank must be >= 1, got 0"),
    ("8", 3, "resource cap: rank 8 exceeds the configured max_n 7"),
])
def test_multiplicity_census_bad_rank(n, code, message):
    proc = run_script("multiplicity_census.py", "--n", n)
    assert proc.returncode == code
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [message]


def test_verify_all_script():
    proc = run_script("verify_all.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(check_names("verify"))
    for name, line in zip(check_names("verify"), lines):
        n = CHECKS[name][2]
        assert re.fullmatch(rf"PASS {name} n={n}( tdeg=4)?: .+ \(\d+\.\ds\)", line), line


def test_verify_all_invariant_failure_exits_4(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("verify_all", ROOT / "scripts" / "verify_all.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    t_linear, real = SparsePoly.term(t=(1,)), series.pi_product

    def faulty(*args):  # a numerator step that leaves a T-linear term
        out, below = real(*args)
        return out + t_linear, (SparsePoly(below, _trusted=True) + t_linear).terms

    monkeypatch.setattr(series, "pi_product", faulty)
    keyseries.clear_caches()
    try:
        assert script.main() == 4
    finally:
        keyseries.clear_caches()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("invariant failed: P_"), err
