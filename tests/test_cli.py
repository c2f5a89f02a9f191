import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

from keyseries import cache_stats, cli
from keyseries.cli import main
from keyseries.permutation import ScanOutcome
from keyseries.poly import MAX_EXP
from keyseries.report import body_digest, canonical_json

DOCS = Path(__file__).resolve().parents[1] / "docs"
SRC = Path(__file__).resolve().parents[1] / "src"


def load_schema(name):
    schema = json.loads((DOCS / name).read_text())
    Draft202012Validator.check_schema(schema)
    return Draft202012Validator(schema)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_key_by_composition(capsys):
    code, out = run(capsys, "key", "--nu", "0,1")
    assert code == 0
    assert out.strip() == "x1 + x2"


def test_key_by_pair(capsys):
    code, out = run(capsys, "key", "--w", "321", "--lambda", "4,2")
    assert code == 0
    assert "3*x1^2*x2^2*x3^2" in out


def test_key_single_column(capsys):
    code, out = run(capsys, "key", "--w", "1", "--lambda", "3")
    assert code == 0
    assert out.strip() == "x1^3"


def test_key_usage_errors(capsys):
    assert run(capsys, "key")[0] == 2
    assert run(capsys, "key", "--nu", "0,1", "--w", "21")[0] == 2
    assert run(capsys, "key", "--w", "21")[0] == 2
    assert run(capsys, "key", "--w", "21", "--lambda", "1,2")[0] == 2
    assert run(capsys, "key", "--nu", "a,b")[0] == 2


def test_pw_trivial(capsys):
    code, out = run(capsys, "pw", "--w", "21")
    assert code == 0
    assert out.strip() == "1"


def test_pw_golden(capsys):
    code, out = run(capsys, "pw", "--w", "31425")
    assert code == 0
    assert out.strip() == (
        "1 - x1*x2*x3*T1*T2 - x1*x2*x3*x4*T1*T3 - x1^2*x2*x3*x4*T2*T3"
        " + x1^2*x2^2*x3*x4*T1*T2*T3 + x1^2*x2*x3^2*x4*T1*T2*T3"
    )


def test_pw_grade_slice(capsys):
    code, out = run(capsys, "pw", "--w", "14253", "--grade", "2")
    assert code == 0
    assert out.strip() == (
        "-x1^2*x2*x3*x4*T2*T3 - x1^2*x2*x3*x4*x5*T2*T4"
        " - x1^2*x2^2*x3*x4*x5*T3*T4"
    )


def test_pw_grade_above_tdeg_is_usage_error(capsys):
    assert run(capsys, "pw", "--w", "14253", "--grade", "3", "--tdeg", "2")[0] == 2
    assert run(capsys, "pw", "--w", "14253", "--grade", "2", "--tdeg", "2")[0] == 0


@pytest.mark.parametrize("w", ["21", "1"])
def test_pw_negative_tdeg_is_usage_error(capsys, w):
    # rejected before the induction runs, whether or not P_w has terms to truncate
    assert main(["pw", "--w", w, "--tdeg", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: --tdeg must be >= 0"]


def test_sets_A_golden(capsys):
    code, out = run(capsys, "sets", "--w", "42531", "--A", "3")
    assert code == 0
    assert out.split() == [
        "123", "124", "125", "134", "135", "145", "234", "235", "245",
    ]


def test_sets_B_golden(capsys):
    code, out = run(capsys, "sets", "--w", "42531", "--B", "2,3")
    assert code == 0
    lines = out.split()
    assert len(lines) == 13
    assert lines[0] == "11234" and lines[-1] == "22345"


def test_sets_beyond_rank(capsys):
    code, out = run(capsys, "sets", "--w", "1", "--A", "4")
    assert code == 0
    assert out.strip() == "1234"


def test_sets_C(capsys):
    code, out = run(capsys, "sets", "--w", "4123", "--C", "1,2,3")
    assert code == 0
    assert "112234" in out.split()


def test_sets_usage_errors(capsys):
    assert run(capsys, "sets", "--w", "42531")[0] == 2
    assert run(capsys, "sets", "--w", "42531", "--A", "3", "--B", "2,3")[0] == 2
    assert run(capsys, "sets", "--w", "42531", "--B", "3,2")[0] == 2
    assert run(capsys, "sets", "--w", "42531", "--C", "1,2")[0] == 2
    assert run(capsys, "sets", "--w", "42x", "--A", "2")[0] == 2


def test_verify_clean_suite(capsys):
    code, out = run(capsys, "verify", "--suite", "diff1", "--n", "4")
    assert code == 0
    assert out.startswith("verify-diff1 n=4: 0 counterexample(s)")


# Report bodies of the verify suites whose checks are pass/fail per
# permutation, pinned so that a rewrite of their sweep keeps every finding,
# its order and every stat.
VERIFY_PINS = {
    "formofkw-n4": (
        ("formofkw", "--n", "4"),
        "d0cc3f22c32cf89a91a68127b08129f0f3f439ffc6bdb2f6bca2873e8d702148"),
    "pxiw1-n4": (
        ("pxiw1", "--n", "4"),
        "0edf05c7b99bc270a59d49ab5f982a641a6c5dad5c89a146b65a57f184bb028f"),
    "fcoeff-n3": (
        ("fcoeff", "--n", "3"),
        "196cb92e31046546131d711ff648b39122d529b031db8121d699ad3a9ee9481b"),
    "formofkw-n5-tdeg4": (
        ("formofkw", "--n", "5", "--tdeg", "4"),
        "4491c2745139d20f482686c4eb6ea66b4e9ae1cc550ef1a692754abb713eaca2"),
}


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=[pytest.mark.slow] if "n5" in name else [])
    for name in VERIFY_PINS
])
def test_verify_body_pinned(tmp_path, capsys, name):
    argv, digest = VERIFY_PINS[name]
    path = tmp_path / "report.json"
    code, _ = run(capsys, "verify", "--suite", *argv, "--out", str(path))
    assert code == 0
    assert body_digest(json.loads(path.read_text())) == digest


# The --format json stdout of single answers, pinned byte for byte, so that
# a rewrite of the rendering or the encoder keeps every answer.
ANSWER_PINS = {
    "pw-52341-tdeg3": (
        ("pw", "--w", "52341", "--tdeg", "3"),
        "a18710e3f784a59127723fad122a3671eafe41a4be397a6d07f52cbe3b4cf599"),
    "pw-3412-xi-tdeg2": (
        ("pw", "--w", "3412", "--xi", "--tdeg", "2"),
        "e6195c0b71c889330c8bc3e3901cdaf873faf9e5c9b84498a3a2e264e85fae70"),
    "key-3412-311-xi": (
        ("key", "--w", "3412", "--lambda", "3,1,1", "--xi"),
        "035280f66b8daadc0c766c7c6753ba963a026caa7f955bdaa7609cb80352aec0"),
    "sets-4123-C123": (
        ("sets", "--w", "4123", "--C", "1,2,3"),
        "298c1e0fe34d4e984561bc5cf65742a122dfde35e374df861aeca396981f5cc5"),
    "sets-4715263-C235": (
        ("sets", "--w", "4715263", "--C", "2,3,5"),
        "858294fe04a42a22b955897b1ca12af54aaa4d1b6fc408e2e2b5aca89c55ef52"),
    "pw-654321-tdeg3": (
        ("pw", "--w", "654321", "--tdeg", "3"),
        "b0e91b7bfc3154d5c85a8de4d4df576d991571a5512c977d9c63877e2fd6116a"),
    "pw-3412-grade1": (  # "terms": []
        ("pw", "--w", "3412", "--grade", "1"),
        "5b518bcfe46113076e1a5a1a265e0617b6fd5f3f7f25d1a03ce932f1e9d5896a"),
    "key-nu021-xi": (
        ("key", "--nu", "0,2,1", "--xi"),
        "19929cdf72b3f689f50dcab2fc3ccb50a3eb286a936bca127b148bf337a770d0"),
}


@pytest.mark.parametrize("name", list(ANSWER_PINS))
def test_answer_json_pinned(capsys, name):
    argv, digest = ANSWER_PINS[name]
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_unknown_suite(capsys):
    assert run(capsys, "verify", "--suite", "nope")[0] == 2


@pytest.mark.parametrize("argv", [("diff2", "--n", "4"), ("lketa23", "--n", "5")])
def test_verify_that_checks_nothing_is_usage_error(tmp_path, capsys, argv):
    path = tmp_path / "rep.json"
    code = main(["verify", "--suite", *argv, "--out", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: verify {argv[0]} checks nothing at n={argv[2]}\n"
    assert list(tmp_path.iterdir()) == []
    code, out = run(capsys, "verify", "--suite", "diff2", "--n", "5")
    assert code == 0 and out.startswith("verify-diff2 n=5: 0 counterexample(s)")


def test_checks_run_under_their_own_subcommand(capsys):
    assert run(capsys, "verify", "--suite", "siinc", "--n", "4")[0] == 2
    assert run(capsys, "scan", "--conjecture", "diff1", "--n", "4")[0] == 2
    assert run(capsys, "scan", "--conjecture", "siinc", "--n", "4", "--tdeg", "2")[0] == 2


def test_scan_default_rank(tmp_path, capsys):
    path = tmp_path / "rep.json"
    code, out = run(capsys, "scan", "--conjecture", "siinc", "--out", str(path))
    assert code == 0
    assert out.startswith("siinc n=4: 0 counterexample(s) [comparisons=14]")
    assert json.loads(path.read_text())["params"] == {"conjecture": "siinc", "n": 4}


def test_scan_clean(capsys):
    code, out = run(capsys, "scan", "--conjecture", "siinc", "--n", "3")
    assert code == 0
    assert "0 counterexample(s)" in out


def test_scan_findings_exit_code(capsys):
    code, out = run(capsys, "scan", "--conjecture", "formpw3", "--n", "4",
                    "--format", "json")
    assert code == 1
    report = json.loads(out)
    assert len(report["counterexamples"]) == 70
    claims = {ce["claim"] for ce in report["counterexamples"]}
    assert claims == {"support", "positivity"}


def test_polynomial_json_schema(capsys):
    validator = load_schema("polynomial.schema.json")
    for argv in (
        ("key", "--nu", "0,1", "--format", "json"),
        ("key", "--w", "321", "--lambda", "2,1", "--xi", "--format", "json"),
        ("pw", "--w", "31425", "--format", "json"),
    ):
        code, out = run(capsys, *argv)
        assert code == 0
        validator.validate(json.loads(out))


def test_listing_json_schema(capsys):
    validator = load_schema("listing.schema.json")
    for argv in (
        ("sets", "--w", "42531", "--A", "3", "--format", "json"),
        ("sets", "--w", "42531", "--B", "2,3", "--format", "json"),
        ("sets", "--w", "31425", "--C", "1,2,3", "--format", "json"),
    ):
        code, out = run(capsys, *argv)
        assert code == 0
        obj = json.loads(out)
        validator.validate(obj)
        assert obj["size"] == len(obj["elements"])


def test_report_json_schema(capsys):
    validator = load_schema("report.schema.json")
    for argv in (
        ("scan", "--conjecture", "poset", "--n", "3", "--format", "json"),
        ("scan", "--conjecture", "formpw3", "--n", "4", "--format", "json"),
        ("verify", "--suite", "fcoeff", "--n", "3", "--format", "json"),
        ("verify", "--suite", "formofkw", "--n", "3", "--tdeg", "3",
         "--format", "json"),
    ):
        code, out = run(capsys, *argv)
        validator.validate(json.loads(out))


def test_out_writes_report_and_manifest(tmp_path, capsys):
    out_path = tmp_path / "rep.json"
    code, _ = run(capsys, "scan", "--conjecture", "siinc", "--n", "3",
                  "--out", str(out_path))
    assert code == 0
    report = json.loads(out_path.read_text())
    load_schema("report.schema.json").validate(report)
    manifest = json.loads((tmp_path / "rep.json.manifest.json").read_text())
    load_schema("manifest.schema.json").validate(manifest)
    assert manifest["command"] == "scan"
    assert manifest["exit_status"] == 0
    assert manifest["result_summary"]["counterexamples"] == 0


@pytest.mark.parametrize("failure", ["manifest", "write", "missing-dir", "midway"])
def test_failed_out_leaves_no_file(tmp_path, capsys, monkeypatch, failure):
    # The report is streamed into its temp file, and then the run fails: the
    # manifest cannot be encoded, or the report ends in text the file
    # encoding rejects; or that text sits midway through a report of several
    # chunks, after the first chunks reached the file; or the --out directory
    # does not exist.  No file is left and no result reaches stdout either.
    real = cli.write_json
    calls, written = [], []

    def encoder(obj, write):
        calls.append(obj)
        if failure == "manifest" and len(calls) == 2:
            raise ValueError("cannot encode the manifest")

        def spy(chunk):
            write(chunk)
            written.append(len(chunk))

        real(obj, spy)
        if failure == "write":
            write("\ud800")

    if failure != "missing-dir":
        monkeypatch.setattr(cli, "write_json", encoder)
    if failure == "midway":
        # a lone surrogate after more than CHUNK_PIECES pieces of findings
        findings = [{"w": "123", "m": m} for m in range(10_000)] + [{"w": "\ud800"}]
        monkeypatch.setitem(cli._CHECK_FUNCTIONS, "siinc",
                            lambda n: ScanOutcome("siinc", n, findings, {"comparisons": 1}))
    out_dir = tmp_path / "missing" if failure == "missing-dir" else tmp_path
    code = main(["scan", "--conjecture", "siinc", "--n", "3",
                 "--out", str(out_dir / "rep.json")])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error:" in err
    assert list(tmp_path.iterdir()) == []
    if failure == "midway":
        assert len(calls) == 1 and written  # failed in the report, after a chunk


def test_write_files_leaves_every_path_on_an_encode_error(tmp_path):
    # A float deep in the second file's findings fails its encoding after
    # chunks of it reached the temp file: the first file is not renamed into
    # place either, the file already at the second path is untouched, and no
    # temp file stays.
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    second.write_text("old\n")
    findings = [{"w": "123", "m": m} for m in range(10_000)] + [{"m": 0.5}]
    with pytest.raises(TypeError):
        cli._write_files({str(first): {"n": 1},
                          str(second): {"counterexamples": findings}})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b.json"]
    assert second.read_text() == "old\n"


def test_invariant_failure_exits_4_under_O():
    # A numerator step that leaves a T-linear term breaks an invariant of P_w.
    # Under -O, where assert statements vanish, it still ends in exit 4.
    code = (
        "import sys\n"
        "from keyseries import cli, series\n"
        "from keyseries.poly import SparsePoly\n"
        "real, stray = series.pi_product, SparsePoly.term(x=(1,), t=(1,))\n"
        "def faulty(*args):\n"
        "    out, below = real(*args)\n"
        "    return out + stray, (SparsePoly(below, _trusted=True) + stray).terms\n"
        "series.pi_product = faulty\n"
        "sys.exit(cli.main(['pw', '--w', '21', '--tdeg', '2']))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 4, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("invariant failed: P_21 ")
    assert "Traceback" not in proc.stderr


def test_presentation_invariant_exits_4_under_O():
    # Two entrywise-incomparable restricted candidates have no maximum, which
    # the presentation interval needs; verify diff2 reaches it via presentations
    # from rank 5 on (at rank 4 no multiset has two units of freedom).
    code = (
        "import sys\n"
        "from keyseries import cli, multisets\n"
        "multisets.restricted_A = lambda w, m, eta: (\n"
        "    tuple(range(1, m)) + (m + 2,), tuple(range(2, m + 2)))\n"
        "sys.exit(cli.main(['verify', '--suite', 'diff2', '--n', '5']))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 4, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("invariant failed: no entrywise maximum")
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("exc, status", [(MemoryError, 3), (RecursionError, 4),
                                         (KeyboardInterrupt, 130)])
def test_fatal_errors_exit_codes(tmp_path, capsys, monkeypatch, exc, status):
    def fail(args, cfg):
        raise exc()

    monkeypatch.setattr(cli, "cmd_check", fail)
    code = main(["verify", "--suite", "pxiw1", "--n", "3",
                 "--out", str(tmp_path / "rep.json")])
    assert code == status
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_manifest_hashes_config_input(tmp_path, capsys):
    cfg = tmp_path / "caps.cfg"
    cfg.write_text("max_n=6\n")
    out_path = tmp_path / "rep.json"
    code, _ = run(capsys, "scan", "--conjecture", "siinc", "--n", "3",
                  "--config", str(cfg), "--out", str(out_path))
    assert code == 0
    manifest = json.loads((tmp_path / "rep.json.manifest.json").read_text())
    assert set(manifest["input_hashes"]) == {"config"}
    assert len(manifest["input_hashes"]["config"]) == 64


def test_repeated_runs_identical_bodies(tmp_path, capsys):
    digests = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        code, _ = run(capsys, "scan", "--conjecture", "formpw3", "--n", "4",
                      "--out", str(path))
        assert code == 1
        digests.append(body_digest(json.loads(path.read_text())))
    assert digests[0] == digests[1]


def test_threads_do_not_change_bodies(tmp_path, capsys, monkeypatch):
    # KEYSERIES_THREADS is not read: the whole body, params included, is
    # byte-identical with and without it.
    bodies = []
    for threads in (None, "2"):
        if threads is None:
            monkeypatch.delenv("KEYSERIES_THREADS", raising=False)
        else:
            monkeypatch.setenv("KEYSERIES_THREADS", threads)
        path = tmp_path / f"t{threads}.json"
        code, _ = run(capsys, "scan", "--conjecture", "siinc", "--n", "4",
                      "--out", str(path))
        assert code == 0
        body = json.loads(path.read_text())
        body.pop("elapsed_ms")
        bodies.append(canonical_json(body).encode())
    assert bodies[0] == bodies[1]
    assert b"threads" not in bodies[0]


def test_resource_caps(tmp_path, capsys):
    assert run(capsys, "verify", "--suite", "diff1", "--n", "8")[0] == 3
    assert run(capsys, "scan", "--conjecture", "siinc", "--n", "10")[0] == 3
    assert run(capsys, "pw", "--w", "21", "--tdeg", "9")[0] == 3
    cfg = tmp_path / "caps.cfg"
    cfg.write_text("max_n=3\n")
    code, _ = run(capsys, "verify", "--suite", "diff1", "--n", "4",
                  "--config", str(cfg))
    assert code == 3


def test_untruncated_pw_is_bounded_by_max_terms(tmp_path, capsys):
    # P_654321 has millions of terms: the default cap stops its induction
    # within seconds, inside a series product.  A configured cap bounds the
    # answers pw gives; P_4321 has 54 terms.
    # The refused call leaves the numerator memo as it found it.
    path = tmp_path / "pw.json"
    held = cache_stats()["series._P_CACHE"]
    code = main(["pw", "--w", "654321", "--out", str(path)])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err.startswith("resource cap: ") and len(err.splitlines()) == 1
    assert not list(tmp_path.iterdir())
    assert cache_stats()["series._P_CACHE"] == held
    cfg = tmp_path / "terms.cfg"
    for cap, expected in (("53", 3), ("1000", 0)):
        cfg.write_text(f"max_terms={cap}\n")
        assert run(capsys, "pw", "--w", "4321", "--config", str(cfg))[0] == expected


def test_exponent_past_field_width_is_resource_error(tmp_path, capsys):
    # a config may lift max_tdeg past what a monomial field holds
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(f"max_tdeg={MAX_EXP + 10}\n")
    ok = run(capsys, "key", "--w", "21", "--lambda", str(MAX_EXP), "--config", str(cfg))
    assert ok[0] == 0
    code, out = run(capsys, "key", "--w", "21", "--lambda", str(MAX_EXP + 1),
                    "--config", str(cfg))
    assert code == 3 and out == ""


def test_bad_threads_env(capsys, monkeypatch):
    # the variable is not read, so no value of it is an error
    monkeypatch.setenv("KEYSERIES_THREADS", "many")
    assert run(capsys, "scan", "--conjecture", "siinc", "--n", "3")[0] == 0


def test_threads_config_key_is_unknown(tmp_path, capsys):
    cfg = tmp_path / "old.cfg"
    cfg.write_text("threads=2\n")
    code = main(["scan", "--conjecture", "siinc", "--n", "3", "--config", str(cfg)])
    assert code == 2
    assert "unknown key 'threads'" in capsys.readouterr().err


def test_verify_tdeg_only_for_formofkw(tmp_path, capsys):
    code, _ = run(capsys, "verify", "--suite", "diff1", "--n", "4", "--tdeg", "7")
    assert code == 2
    for suite in ("diff1", "formofkw"):
        path = tmp_path / f"{suite}.json"
        extra = ["--tdeg", "2"] if suite == "formofkw" else []
        code, _ = run(capsys, "verify", "--suite", suite, "--n", "3",
                      "--out", str(path), *extra)
        assert code == 0
        params = json.loads(path.read_text())["params"]
        assert ("tdeg" in params) == (suite == "formofkw")
    assert params["tdeg"] == 2


def test_json_stdout_equals_out_file(tmp_path, capsys):
    # stdout is a copy of the file, also for a report of many chunks
    path = tmp_path / "out.json"
    for argv, code in ((["pw", "--w", "2143", "--tdeg", "2"], 0),
                       (["scan", "--conjecture", "formpw3", "--n", "5"], 1)):
        assert main(argv + ["--format", "json", "--out", str(path)]) == code
        assert capsys.readouterr().out.encode() == path.read_bytes()


def test_missing_config_file(capsys):
    assert run(capsys, "scan", "--conjecture", "siinc", "--n", "3",
               "--config", "/nonexistent.cfg")[0] == 2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from keyseries.cli import main; sys.exit(main(['--version']))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"
