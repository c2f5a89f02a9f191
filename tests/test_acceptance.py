"""Acceptance gate: one test per shipped guarantee, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
Budgets are asserted where a guarantee states one.
"""

import random
import time
from contextlib import contextmanager

import pytest

from conftest import make_poly, reduced_word, reduced_word_alt
from keyseries.bseq import enum_A, split_A
from keyseries.counts import F_coefficient, approx_coefficient, suite_fcoeff
from keyseries.multisets import (
    enum_B,
    enum_Btilde,
    presentations,
    presentations_direct,
)
from keyseries.mults import (
    check_diff1,
    check_diff2,
    check_lketa23,
    check_lowbdr2,
    scan_formpw2bound,
    scan_formpw3,
    scan_poset,
    scan_siinc,
)
from keyseries.permutation import Permutation, all_permutations, parse_permutation
from keyseries.poly import SparsePoly, pi, pi_word, pi_xi
from keyseries.series import (
    check_piiKw,
    key_polynomial,
    lascoux_polynomial,
    numerator_P,
    partitions,
    suite_formofkw,
    suite_pxiw1,
)

W42531 = parse_permutation("42531")
W321 = parse_permutation("321")

A3_42531 = tuple(
    tuple(int(c) for c in s)
    for s in ["123", "124", "125", "134", "135", "145", "234", "235", "245"]
)

B23_42531 = [
    "11234", "11235", "11245", "11345", "12234", "12235", "12245",
    "12334", "12335", "12344", "12345", "12445", "22345",
]

B23_ONLY_UPPER = [
    "11223", "11224", "11225", "11233", "11244", "11334", "11335",
    "11344", "11445", "12233", "12244", "22334", "22335", "22344", "22445",
]

P31425 = (
    "1 - x1*x2*x3*T1*T2 - x1*x2*x3*x4*T1*T3 - x1^2*x2*x3*x4*T2*T3"
    " + x1^2*x2^2*x3*x4*T1*T2*T3 + x1^2*x2*x3^2*x4*T1*T2*T3"
)

P14253 = (
    "1 - x1^2*x2*x3*x4*T2*T3 - x1^2*x2*x3*x4*x5*T2*T4"
    " - x1^2*x2^2*x3*x4*x5*T3*T4 + x1^3*x2^2*x3^2*x4*x5*T2*T3*T4"
    " + x1^3*x2^2*x3*x4^2*x5*T2*T3*T4"
)

P4123_CUBIC = (
    "x1*x2*x3*x4*T1^2*T2 + x1^2*x2*x3*x4*T1*T2^2"
    " + x1^2*x2^2*x3*x4*T1*T2*T3 + x1^2*x2*x3^2*x4*T1*T2*T3"
    " + x1^2*x2*x3*x4^2*T1*T2*T3"
)


@contextmanager
def verdict(tag, budget=None):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[FAIL] {tag}")
        raise
    elapsed = time.perf_counter() - t0
    if budget is not None and elapsed > budget:
        print(f"[FAIL] {tag}: {elapsed:.2f}s over the {budget:.0f}s budget")
        raise AssertionError(f"{tag} exceeded budget: {elapsed:.2f}s > {budget}s")
    print(f"[PASS] {tag} ({elapsed:.2f}s)")


def test_c01_golden_sets():
    with verdict("01 golden sets", budget=1.0):
        assert enum_A(W42531, 3) == A3_42531
        fixed, moved = split_A(W42531, 3, 2)
        assert moved == ((2, 4, 5),)
        assert set(fixed) | set(moved) == set(A3_42531)
        b = [tuple(map(int, s)) for s in B23_42531]
        assert list(enum_B(W42531, 2, 3)) == sorted(b)
        extra = [tuple(map(int, s)) for s in B23_ONLY_UPPER]
        assert list(enum_Btilde(W42531, 2, 3)) == sorted(b + extra)


def test_c02_golden_numerators():
    with verdict("02 golden numerators", budget=5.0):
        trivial = ["12345", "21345", "13245", "12435", "12354",
                   "21435", "21354", "13254"]
        for s in trivial:
            assert numerator_P(parse_permutation(s)) == SparsePoly.parse("1")
        quad_a = SparsePoly.parse("1 - x1*x2*x3*T1*T2")
        for s in ["23145", "23154", "31245", "31254", "32145", "32154"]:
            assert numerator_P(parse_permutation(s)) == quad_a
        quad_b = SparsePoly.parse("1 - x1^2*x2*x3*x4*T2*T3")
        for s in ["13425", "14235", "14325"]:
            assert numerator_P(parse_permutation(s)) == quad_b
        assert numerator_P(parse_permutation("31425")).to_text() == P31425
        assert numerator_P(parse_permutation("14253")).to_text() == P14253
        cubic = numerator_P(parse_permutation("4123")).t_slice(3)
        assert cubic.to_text() == P4123_CUBIC


def test_c03_series_identity_two_words():
    with verdict("03 series identity, S4 depth 5 + S5 depth 4", budget=120.0):
        for group_n, depth in ((4, 5), (5, 4)):
            outcome = suite_formofkw(group_n, depth)
            assert outcome.ok, outcome.counterexamples[:3]
            assert outcome.stats == {"checks": [24, 120][group_n - 4], "failed": 0}


def test_c04_single_presentation_multiplicities():
    with verdict("04 single-presentation strata, S5", budget=60.0):
        outcome = check_diff1(5)
        assert outcome.ok, outcome.counterexamples[:3]
        assert outcome.stats["multisets"] > 0


def test_c05_two_presentation_formulas():
    with verdict("05 two-presentation formula and bounds, S5"):
        diff2 = check_diff2(5)
        assert diff2.ok, diff2.counterexamples[:3]
        assert diff2.stats["multisets"] > 0
        low = check_lowbdr2(5)
        assert low.ok, low.counterexamples[:3]


@pytest.mark.slow
def test_c05_two_presentation_formulas_deep():
    with verdict("05s two-presentation formula and bounds, S6"):
        assert check_diff2(6).ok
        assert check_lowbdr2(6).ok


def test_c06_equal_level_patterns():
    with verdict("06 equal-level two-presentation patterns, S6"):
        outcome = check_lketa23(6)
        assert outcome.ok, outcome.counterexamples[:3]
        tags = sorted(t for t in outcome.stats if t.startswith("pattern_"))
        assert tags == [
            "pattern_123_456", "pattern_124_356", "pattern_125_346",
            "pattern_134_256", "pattern_135_246",
        ]
        seen = {t: outcome.stats[t] for t in tags}
        print(f"       witnessed: {seen}")
        assert all(count > 0 for count in seen.values())


@pytest.mark.slow
def test_c06_equal_level_patterns_deep():
    with verdict("06s equal-level two-presentation patterns, S7"):
        outcome = check_lketa23(7)
        assert outcome.ok
        tags = [t for t in outcome.stats if t.startswith("pattern_")]
        assert len(tags) == 5


def test_c07_worked_coefficient():
    with verdict("07 worked coefficient"):
        mu = (1, 1, 2, 2, 3, 3)
        assert key_polynomial((4, 2), W321).coefficient(x=(2, 2, 2)) == 3
        assert F_coefficient((4, 2), W321, mu) == 6
        assert approx_coefficient((4, 2), W321, mu, order=2) == 6 - 3


def test_c08_xi_refinement():
    with verdict("08 xi refinement and linear closed form"):
        for w in all_permutations(3):
            for lam in partitions(4, 3):
                if sum(lam) > 4:
                    continue
                L = lascoux_polynomial(lam, w)
                assert L.xi_slice(0) == key_polynomial(lam, w)
        outcome = suite_pxiw1(4)
        assert outcome.ok, outcome.counterexamples[:3]
        assert outcome.stats == {"checks": 24, "failed": 0}


def test_c09_operator_suite():
    with verdict("09 operator identities on random polynomials"):
        rng = random.Random(97)
        perms = [w for w in all_permutations(4) if w.length() >= 2]
        for name, op in (("pi", pi), ("pi_xi", pi_xi)):
            for trial in range(120):
                f = make_poly(rng, with_xi=(name == "pi_xi"))
                g = op(1, f)
                assert op(1, g) == g, name
                lhs = op(1, op(2, op(1, f)))
                rhs = op(2, op(1, op(2, f)))
                assert lhs == rhs, name
                assert op(1, op(3, f)) == op(3, op(1, f)), name
                w = perms[trial % len(perms)]
                first, second = reduced_word(w), reduced_word_alt(w)
                xi_mode = name == "pi_xi"
                assert pi_word(first, f, xi_mode) == pi_word(second, f, xi_mode)
        outcome = check_piiKw(4, 4)
        assert outcome.ok, outcome.counterexamples[:3]
        assert outcome.stats == {"checks": 72, "failed": 0}


def test_c10_oracle_equivalences():
    with verdict("10 oracle equivalences, S5 exhaustive"):
        for w in all_permutations(5):
            for k in range(1, 6):
                for l in range(k, 6):
                    members = set(enum_B(w, k, l))
                    for eta in enum_Btilde(w, k, l):
                        direct = presentations_direct(w, k, l, eta)
                        assert (eta in members) == (len(direct.pairs) >= 2)
                        ps = presentations(w, k, l, eta)
                        assert ps == direct
                        assert ps.count > 0
        outcome = suite_fcoeff(3, 6)
        assert outcome.ok, outcome.counterexamples[:3]


def test_c11_scans():
    with verdict("11 structural scans at n=4"):
        for scan in (scan_siinc, scan_poset, scan_formpw2bound):
            outcome = scan(4)
            assert outcome.counterexamples == [], outcome.name
        findings = scan_formpw3(4)
        claims = {}
        for ce in findings.counterexamples:
            claims[ce["claim"]] = claims.get(ce["claim"], 0) + 1
        assert claims == {"support": 26, "positivity": 44}
        print(f"       recorded findings (non-failing): {claims}")


@pytest.mark.slow
def test_c11_scans_deep():
    with verdict("11s structural scans at n=5"):
        for scan in (scan_siinc, scan_poset, scan_formpw2bound):
            assert scan(5).counterexamples == []
        findings = scan_formpw3(5)
        claims = {}
        for ce in findings.counterexamples:
            claims[ce["claim"]] = claims.get(ce["claim"], 0) + 1
        assert claims == {"support": 1240, "positivity": 1992}
        print(f"       recorded findings (non-failing): {claims}")
