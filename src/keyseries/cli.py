"""Command line surface: polynomials, set listings, verification, scans.

`verify` and `scan` are one command over one table, `CHECKS`: each row names
the subcommand that runs it, and `run_check` runs any row and builds its
report, for the CLI and the scripts alike.  A verify suite that checks
nothing at the requested rank is a usage error.

Exit codes: 0 success, 1 mathematical counterexample or mismatch, 2 usage
error, 3 resource cap exceeded or memory exhausted, 4 a structural invariant
failed or the recursion limit was hit (a bug), 130 interrupted.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import shutil
import sys
import time

from . import __version__
from .bseq import enum_A, format_seq
from .config import EngineConfig, InvariantError, ResourceCapError, load_config
from .counts import suite_fcoeff
from .multisets import enum_B, enum_C
from .mults import (
    check_diff1,
    check_diff2,
    check_lketa23,
    check_lowbdr2,
    check_multsiw,
    check_quadratic_support,
    scan_formpw2bound,
    scan_formpw3,
    scan_poset,
    scan_siinc,
)
from .permutation import parse_permutation
from .report import canonical_json, hash_file, make_manifest, outcome_report, write_json
from .series import (
    key_by_composition,
    key_polynomial,
    lascoux_polynomial,
    numerator_P,
    suite_formofkw,
    suite_pxiw1,
)

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INVARIANT = 4
EXIT_INTERRUPT = 130

# Every check, the one list of them: name -> (subcommand, function, default
# rank, the further arguments it takes after the rank, by name, with their
# defaults).  The verify suites run the proved laws, the scans the open
# questions; rank 4 is the least at which every scan compares something.
# `verify`, `scan`, both scripts and the tests read it, and
# scripts/verify_all.py runs the suites in table order.
CHECKS = {
    "formofkw": ("verify", suite_formofkw, 4, {"tdeg": 4}),
    "pxiw1": ("verify", suite_pxiw1, 4, {}),
    "quadsupport": ("verify", check_quadratic_support, 5, {}),
    "diff1": ("verify", check_diff1, 5, {}),
    "diff2": ("verify", check_diff2, 5, {}),
    "lketa23": ("verify", check_lketa23, 6, {}),
    "bounds": ("verify", check_lowbdr2, 5, {}),
    "multsiw": ("verify", check_multsiw, 4, {}),
    "fcoeff": ("verify", suite_fcoeff, 3, {}),
    "poset": ("scan", scan_poset, 4, {}),
    "siinc": ("scan", scan_siinc, 4, {}),
    "formpw3": ("scan", scan_formpw3, 4, {}),
    "formpw2bound": ("scan", scan_formpw2bound, 4, {}),
}
# Checks are called through this plain dict, never through a table row, so
# that a tracer that rebinds module-level dict values (perfbench/spans.py)
# sees every check call.
_CHECK_FUNCTIONS = {name: row[1] for name, row in CHECKS.items()}
# subcommand -> (the option and params key naming the check, the report name
# prefix, the help line)
_SUBCOMMANDS = {
    "verify": ("suite", "verify-", "run a verification suite"),
    "scan": ("conjecture", "", "scan a conjecture for counterexamples"),
}


def check_names(command: str) -> list[str]:
    """Names of the checks run by the subcommand `command`, in table order."""
    return [name for name, row in CHECKS.items() if row[0] == command]


def run_check(name: str, n: int | None = None, cfg: EngineConfig = EngineConfig(),
              **extra) -> dict:
    """Report of the check `name` at rank n (default: its table rank), with
    its further arguments taken from extra or the table defaults.

    Arguments the check does not read, and a verify suite that checks nothing
    at n (every count in its stats is 0), are usage errors (ValueError)."""
    command, _, default_n, further = CHECKS[name]
    for key in extra:
        if key not in further:
            raise ValueError(f"--{key} is not read by {command} {name}")
    label, prefix, _ = _SUBCOMMANDS[command]
    params = {label: name, "n": default_n if n is None else n, **further, **extra}
    cfg.check_rank(params["n"])
    if "tdeg" in params:
        cfg.check_tdeg(params["tdeg"])
    start = time.monotonic()
    outcome = _CHECK_FUNCTIONS[name](params["n"], *(params[k] for k in further))
    elapsed = int((time.monotonic() - start) * 1000)
    if command == "verify" and not any(outcome.stats.values()):
        raise ValueError(f"verify {name} checks nothing at n={params['n']}")
    outcome.name = prefix + name
    return outcome_report(outcome, params, elapsed)


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse {what} {text!r}") from None


def _parse_partition(text: str) -> tuple[int, ...]:
    lam = _parse_ints(text, "partition")
    if any(a < 0 for a in lam) or any(a < b for a, b in zip(lam, lam[1:])):
        raise ValueError(f"not a partition: {lam}")
    return lam


def _write_files(files: dict[str, object]) -> None:
    """Stream each JSON value into a temp file beside its path, then rename
    all into place: a failure on the way leaves every path as it was."""
    pending: list[tuple[str, str]] = []
    try:
        for path, value in files.items():
            tmp = f"{path}.tmp{os.getpid()}"
            pending.append((tmp, path))
            with open(tmp, "w", encoding="utf-8") as fh:
                write_json(value, fh.write)
        while pending:
            os.replace(*pending[0])
            pending.pop(0)
    finally:
        for tmp, _ in pending:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def _emit(args, text_lines: list[str], json_obj: dict, summary: dict, status: int) -> int:
    """Print the result.  With --out, first stream its JSON and a manifest of
    the subcommand and the result's params into temp files and rename both
    into place, so a failed write prints nothing; --format json then prints
    the renamed file, and the report is encoded once.  Returns status."""
    if args.out:
        manifest = make_manifest(
            command=args.command,
            params=json_obj["params"],
            version=__version__,
            input_hashes={"config": hash_file(args.config)} if args.config else {},
            result_summary=summary,
            exit_status=status,
        )
        _write_files({args.out: json_obj, args.out + ".manifest.json": manifest})
    if args.format == "text":
        sys.stdout.write("\n".join(text_lines) + "\n")
    elif args.out:
        with open(args.out, encoding="utf-8", newline="") as fh:
            shutil.copyfileobj(fh, sys.stdout)
    else:
        sys.stdout.write(canonical_json(json_obj))
    return status


def cmd_key(args, cfg: EngineConfig) -> int:
    if (args.nu is None) == (args.w is None):
        raise ValueError("pass exactly one of --w (with --lambda) or --nu")
    if args.w is not None:
        if args.lam is None:
            raise ValueError("--w needs --lambda")
        w = parse_permutation(args.w)
        lam = _parse_partition(args.lam)
        cfg.check_rank(max(w.n, len(lam)))
        cfg.check_tdeg(lam[0] if lam else 0)
        poly = (lascoux_polynomial if args.xi else key_polynomial)(lam, w)
        params = {"w": w.one_line(), "lambda": list(lam), "xi": args.xi}
    else:
        if args.lam is not None:
            raise ValueError("--lambda is only valid with --w")
        nu = _parse_ints(args.nu, "composition")
        if any(a < 0 for a in nu):
            raise ValueError(f"composition entries must be >= 0: {nu}")
        cfg.check_rank(len(nu))
        cfg.check_tdeg(max(nu, default=0))
        poly = key_by_composition(nu, xi_mode=args.xi)
        params = {"nu": list(nu), "xi": args.xi}
    text, poly_obj = poly.render()
    obj = {"command": "key", "params": params, "polynomial": poly_obj, "text": text}
    return _emit(args, [text], obj, {"terms": len(poly.terms)}, EXIT_OK)


def cmd_pw(args, cfg: EngineConfig) -> int:
    w = parse_permutation(args.w)
    cfg.check_rank(w.n)
    tmax = None
    if args.grade is not None:
        if args.grade < 0:
            raise ValueError("--grade must be >= 0")
        cfg.check_tdeg(args.grade)
        tmax = args.grade
    if args.tdeg is not None:
        if args.tdeg < 0:
            raise ValueError("--tdeg must be >= 0")
        cfg.check_tdeg(args.tdeg)
        if tmax is None:
            tmax = args.tdeg
        elif tmax > args.tdeg:
            raise ValueError(f"--grade {tmax} is above --tdeg {args.tdeg}")
    poly = numerator_P(w, xi_mode=args.xi, tmax=tmax, max_terms=cfg.max_terms)
    if args.grade is not None:
        poly = poly.t_slice(args.grade)
    params = {"w": w.one_line(), "xi": args.xi, "grade": args.grade,
              "tdeg": args.tdeg}
    text, poly_obj = poly.render()
    obj = {"command": "pw", "params": params, "polynomial": poly_obj, "text": text}
    return _emit(args, [text], obj, {"terms": len(poly.terms)}, EXIT_OK)


def cmd_sets(args, cfg: EngineConfig) -> int:
    w = parse_permutation(args.w)
    chosen = [opt for opt in ("A", "B", "C") if getattr(args, opt) is not None]
    if len(chosen) != 1:
        raise ValueError("pass exactly one of --A, --B, --C")
    which = chosen[0]
    levels = _parse_ints(getattr(args, which), "levels")
    expected = {"A": 1, "B": 2, "C": 3}[which]
    if len(levels) != expected:
        raise ValueError(f"--{which} takes {expected} comma-separated level(s)")
    if any(v < 1 for v in levels) or any(
        a > b for a, b in zip(levels, levels[1:])
    ):
        raise ValueError(f"levels must satisfy 1 <= p <= k <= l, got {levels}")
    cfg.check_rank(max(w.n, levels[-1]))
    if which == "A":
        elements = [format_seq(a) for a in enum_A(w, levels[0])]
    elif which == "B":
        elements = [format_seq(e) for e in enum_B(w, *levels)]
    else:
        elements = [format_seq(t) for t in enum_C(w, *levels)]
    params = {"w": w.one_line(), "set": which, "levels": list(levels)}
    obj = {"command": "sets", "params": params, "elements": elements,
           "size": len(elements)}
    return _emit(args, elements, obj, {"size": len(elements)}, EXIT_OK)


def _report_lines(report: dict) -> list[str]:
    ces = report["counterexamples"]
    stats = " ".join(f"{k}={v}" for k, v in sorted(report["stats"].items()))
    lines = [
        f"{report['scan']} n={report['n']}: "
        f"{len(ces)} counterexample(s) [{stats}] {report['elapsed_ms']}ms"
    ]
    for ce in ces[:20]:
        lines.append("  " + ", ".join(f"{k}={v}" for k, v in ce.items()))
    if len(ces) > 20:
        lines.append(f"  ... and {len(ces) - 20} more")
    return lines


def cmd_check(args, cfg: EngineConfig) -> int:
    extra = {key: value for row in CHECKS.values() for key in row[3]
             if (value := getattr(args, key, None)) is not None}
    report = run_check(args.name, args.n, cfg, **extra)
    status = EXIT_OK if not report["counterexamples"] else EXIT_FINDING
    summary = {"counterexamples": len(report["counterexamples"]), "stats": report["stats"]}
    return _emit(args, _report_lines(report), report, summary, status)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="keyseries",
        description="Exact key/Lascoux generating series: compute, verify, scan.",
    )
    parser.add_argument("--version", action="version", version=__version__)

    def common(sub):
        sub.add_argument("--config", help="key=value config file with caps")
        sub.add_argument("--format", choices=("text", "json"), default="text")
        sub.add_argument("--out", help="write the JSON result and a manifest")

    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("key", help="key or Lascoux polynomial")
    p.add_argument("--w", help="permutation, one-line (e.g. 321 or 4,2,5,3,1)")
    p.add_argument("--lambda", dest="lam", help="partition, comma-separated")
    p.add_argument("--nu", help="weak composition, comma-separated")
    p.add_argument("--xi", action="store_true", help="Lascoux variant")
    common(p)
    p.set_defaults(func=cmd_key)

    p = subs.add_parser("pw", help="numerator polynomial of the series")
    p.add_argument("--w", required=True)
    p.add_argument("--xi", action="store_true")
    p.add_argument("--grade", type=int, help="extract one total T-degree")
    p.add_argument("--tdeg", type=int, help="truncate past this total T-degree")
    common(p)
    p.set_defaults(func=cmd_pw)

    p = subs.add_parser("sets", help="list A, B, or C sets")
    p.add_argument("--w", required=True)
    p.add_argument("--A", help="level l")
    p.add_argument("--B", help="levels k,l")
    p.add_argument("--C", help="levels p,k,l")
    common(p)
    p.set_defaults(func=cmd_sets)

    for command, (label, _, text) in _SUBCOMMANDS.items():
        names = check_names(command)
        p = subs.add_parser(command, help=text)
        p.add_argument(f"--{label}", dest="name", required=True, choices=sorted(names))
        p.add_argument("--n", type=int, help="symmetric group rank (default: the check's)")
        for name in names:
            for key, default in CHECKS[name][3].items():
                p.add_argument(f"--{key}", type=int,
                               help=f"read by {name} only (default {default})")
        common(p)
        p.set_defaults(func=cmd_check)

    return parser


def guarded(run, *args) -> int:
    """run(*args), its failures each ending in one stderr line and the exit
    code of the module docstring; the CLI and the scripts run through it."""
    try:
        return run(*args)
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("resource cap: out of memory", file=sys.stderr)
        return EXIT_RESOURCE
    except (InvariantError, RecursionError) as exc:
        print(f"invariant failed: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return guarded(lambda: args.func(args, load_config(args.config)))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
