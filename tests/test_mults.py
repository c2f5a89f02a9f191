import functools
import hashlib
import itertools

import pytest

from keyseries.cli import CHECKS, check_names
from keyseries.config import InvariantError
from keyseries import mults
from keyseries.bseq import format_seq, w_upper
from keyseries.multisets import enum_B, enum_C
from keyseries.mults import (
    _key_tuple,
    check_diff1,
    check_diff2,
    check_lketa23,
    check_lowbdr2,
    check_multsiw,
    check_quadratic_support,
    cubic_multiplicities,
    multiplicity2,
    multiplicity3,
    presentation_poset,
    quadratic_multiplicities,
    scan_formpw2bound,
    scan_formpw3,
    scan_poset,
    scan_siinc,
)
from keyseries.permutation import all_permutations, parse_permutation
from keyseries.poly import SparsePoly, x_exps
from keyseries.report import body_digest, canonical_json, outcome_report
from keyseries import series
from keyseries.series import n_factor_product, numerator_P

W = parse_permutation("42531")


def test_level_codecs():
    # a level multiset counts as T-exponents the way eta counts as x-exponents
    assert x_exps((2, 3)) == (0, 1, 1)
    assert x_exps((3, 3)) == (0, 0, 2)


def test_multiplicity2_golden():
    assert multiplicity2(parse_permutation("31425"), 1, 2, (1, 2, 3)) == 1
    assert multiplicity2(parse_permutation("31425"), 2, 3, (1, 1, 2, 3, 4)) == 1
    assert multiplicity2(W, 2, 3, (1, 2, 3, 4, 5)) == 3
    assert multiplicity2(W, 2, 3, (1, 1, 3, 3, 4)) == 0
    # eta need not be sorted
    assert multiplicity2(W, 2, 3, (5, 4, 3, 2, 1)) == 3
    with pytest.raises(ValueError):
        multiplicity2(W, 3, 2, (1, 2, 3, 4, 5))


def test_multiplicity3_golden():
    w = parse_permutation("31425")
    assert multiplicity3(w, 1, 2, 3, (1, 1, 2, 2, 3, 4)) == 1
    assert multiplicity3(w, 1, 2, 3, (1, 1, 2, 3, 3, 4)) == 1
    assert multiplicity3(w, 1, 1, 2, (1, 1, 2, 3)) == 0
    assert multiplicity3(w, 1, 2, 3, (4, 3, 2, 2, 1, 1)) == 1


def test_quadratic_table_matches_single_lookups():
    quad = quadratic_multiplicities(W)
    for (k, l, eta), m in quad.items():
        assert m == multiplicity2(W, k, l, eta)
    keys23 = {eta for (k, l, eta), _ in quad.items() if (k, l) == (2, 3)}
    assert keys23 == set(enum_B(W, 2, 3))


def test_cubic_table_matches_single_lookups():
    w = parse_permutation("4123")
    cubic = cubic_multiplicities(w)
    assert cubic
    for (p, k, l, tau), m in cubic.items():
        assert m == multiplicity3(w, p, k, l, tau)
        assert 1 <= p <= k <= l


def _decoded_slice(poly, grade, sign):
    """A T-slice decoded term by term, in ascending packed-key order (the
    order a table must have): {(levels..., eta): sign * c}."""
    out = {}
    for key, c in sorted(poly.t_slice(grade).terms.items()):
        single = SparsePoly()
        single.terms = {key: c}
        (((eta, levels, _), _c),) = single.multiset_items()
        out[levels + (eta,)] = sign * c
    return out


def _assert_table_matches(table, expected, lookup, n):
    """table is expected, in its order, and lookup(*key) reads the same m."""
    assert list(table.items()) == list(expected.items())
    # every key, and every key with the i, i+1 entries of eta redistributed,
    # most of which have no term
    queries = set(expected)
    for *levels, eta in expected:
        for i in range(1, n):
            pair = eta.count(i) + eta.count(i + 1)
            rest = [v for v in eta if v not in (i, i + 1)]
            for a in range(pair + 1):
                moved = tuple(sorted(rest + [i] * a + [i + 1] * (pair - a)))
                queries.add((*levels, moved))
    for key in queries:
        assert lookup(*key) == expected.get(key, 0), key


@pytest.mark.parametrize("n", [4, 5])
def test_multiplicity_tables_match_decoded_slices(n):
    for w in all_permutations(n):
        _assert_table_matches(
            quadratic_multiplicities(w), _decoded_slice(numerator_P(w, tmax=2), 2, -1),
            functools.partial(multiplicity2, w), n)
        _assert_table_matches(
            cubic_multiplicities(w), _decoded_slice(numerator_P(w, tmax=3), 3, 1),
            functools.partial(multiplicity3, w), n)


def test_view_lookups_outside_the_slice():
    # a table is a dict: a key with no term is missing from it, and m is 0
    quad = quadratic_multiplicities(W)
    assert quad[(2, 3, (1, 2, 3, 4, 5))] == multiplicity2(W, 2, 3, (1, 2, 3, 4, 5)) == 3
    assert quad.get((2, 3, (1, 1, 3, 3, 4))) is None
    assert multiplicity2(W, 2, 3, (1, 1, 3, 3, 4)) == 0
    # a key with the wrong number of levels or an index past x9 has no term
    assert (2, (1, 2, 3, 4, 5)) not in quad
    assert multiplicity3(W, 1, 2, 3, (1, 2, 3, 4, 5)) == 0
    assert multiplicity2(W, 2, 3, (1, 2, 3, 4, 10)) == 0


def test_n_quadratic_is_pure_in_the_pair():
    # each moved sequence holds i and not i+1, so its s_i image holds i+1 and
    # not i: N's quadratic terms sit at pair exponents (0, 2), its cubic ones
    # at (0, 3)
    checked = 0
    for n in (4, 5):
        for w in all_permutations(n):
            for i in range(1, n):
                if w.is_ascent(i):
                    for (x, t, _), _ in n_factor_product(w, i, tmax=3).exponent_items():
                        if sum(t) >= 2:
                            checked += 1
                            pair = (x + (0,) * (i + 1))[i - 1:i + 1]
                            assert pair == (0, sum(t)), (w.one_line(), i, x, t)
    assert checked == 1854


def test_multsiw_correction_reads_mirrored_keys():
    # with N_1 = 1 the correction is x_i C: at each quadratic key with a > b
    # the coefficient there less the one at its mirror (b, a); a = b drops out
    def quad(x):
        return SparsePoly.term(x=x, t=(2,)).terms

    assert mults._correction(1, {**quad((0, 1)), **quad((2, 2))}, {0: 1}) == (
        SparsePoly.term(-1, x=(1,), t=(2,)).terms)
    assert mults._correction(1, {**quad((2, 1)), **quad((1, 2))}, {0: 1}) == {}
    assert mults._correction(2, quad((0, 0, 2)), {0: 1}) == (
        SparsePoly.term(-1, x=(0, 2), t=(2,)).terms)


def test_multsiw_correction_rejects_pair_degree_three():
    with pytest.raises(InvariantError):
        mults._correction(1, SparsePoly.term(x=(3,), t=(2,)).terms, {0: 1})


def test_multsiw_makes_one_product_per_cover(monkeypatch):
    # the correction is one product N_1 x (x_i C), and nothing else in the
    # check multiplies polynomials
    calls = []
    real = SparsePoly.mul_trunc

    def counting(self, other, tmax):
        calls.append(tmax)
        return real(self, other, tmax)

    monkeypatch.setattr(SparsePoly, "mul_trunc", counting)
    out = check_multsiw(4)
    assert out.ok and out.stats["covers"] == 36
    assert len(calls) == 36


def test_quadratic_support_s4():
    out = check_quadratic_support(4)
    assert out.ok, out.counterexamples[:3]
    assert out.stats["terms"] == 100


def test_diff1_s5():
    out = check_diff1(5)
    assert out.ok, out.counterexamples[:3]
    assert out.stats["multisets"] > 0


def test_diff2_s5():
    out = check_diff2(5)
    assert out.ok, out.counterexamples[:3]
    assert out.stats["multisets"] == 40


def test_lketa23_s6_witnesses_all_patterns():
    out = check_lketa23(6)
    assert out.ok, out.counterexamples[:3]
    patterns = {k: v for k, v in out.stats.items() if k.startswith("pattern_")}
    assert len(patterns) == 5
    assert all(v > 0 for v in patterns.values())


def test_lowbdr2_s5():
    out = check_lowbdr2(5)
    assert out.ok, out.counterexamples[:3]


def test_multsiw_s4_with_cubic():
    out = check_multsiw(4)
    assert out.ok, out.counterexamples[:3]
    assert out.stats["covers"] == 36


@pytest.mark.slow
def test_diff2_s6():
    assert check_diff2(6).ok


@pytest.mark.slow
def test_lowbdr2_s6():
    assert check_lowbdr2(6).ok


@pytest.mark.slow
def test_multsiw_s5():
    assert check_multsiw(5).ok


def test_poset_shape_golden():
    # the diamond: four presentations of 12345 at levels (2,3)
    poset = presentation_poset(W, 2, 3, (1, 2, 3, 4, 5))
    assert len(poset.elements) == 4
    chain = presentation_poset(W, 2, 3, (1, 1, 2, 3, 4))
    assert len(chain.elements) == 3
    assert poset.canonical() != chain.canonical()


def test_poset_canonical_invariant_under_relabeling():
    # two different 2-chains: same canonical form, same multiplicity
    a = presentation_poset(W, 2, 3, (1, 1, 2, 3, 5))
    b = presentation_poset(W, 2, 3, (1, 1, 3, 4, 5))
    assert a.elements != b.elements
    assert a.canonical() == b.canonical()


def test_scan_registry():
    assert check_names("verify") == [
        "formofkw", "pxiw1", "quadsupport", "diff1", "diff2", "lketa23", "bounds", "multsiw",
        "fcoeff",
    ]
    assert check_names("scan") == ["poset", "siinc", "formpw3", "formpw2bound"]
    assert list(CHECKS) == check_names("verify") + check_names("scan")
    assert CHECKS["siinc"][1:] == (scan_siinc, 4, {})
    # rank 4 is the least at which every scan compares something
    for name in check_names("scan"):
        assert CHECKS[name][2] == 4
        assert any(CHECKS[name][1](4).stats.values())
    assert not CHECKS["siinc"][1](3).stats["comparisons"]


def test_scans_clean_at_n4():
    assert scan_siinc(4).ok
    assert scan_poset(4).ok
    assert scan_formpw2bound(4).ok


def test_scans_clean_at_n3():
    for name in check_names("scan"):
        assert CHECKS[name][1](3).ok


def test_formpw3_findings_recorded_at_n4():
    out = scan_formpw3(4)
    assert not out.ok
    claims = {}
    for ce in out.counterexamples:
        claims[ce["claim"]] = claims.get(ce["claim"], 0) + 1
    assert claims == {"support": 26, "positivity": 44}
    assert out.stats["terms"] > 0 and out.stats["c_elements"] > 0


def test_formpw3_records_both_level_shapes():
    # repeated-level and distinct-level strata both appear among the findings
    out = scan_formpw3(4)
    support_shapes = {
        len(set(ce["levels"]))
        for ce in out.counterexamples
        if ce["claim"] == "support"
    }
    assert 3 in support_shapes
    assert support_shapes & {1, 2}


def test_formpw3_n5_findings_in_pinned_order():
    # Within a stratum the support findings follow the cubic slice in
    # ascending packed-key order, a function of P_w's value only, so this
    # digest holds however the kernel orders its terms.
    ces = scan_formpw3(5).counterexamples
    assert len(ces) == 3232
    digest = hashlib.sha256(canonical_json(ces).encode()).hexdigest()
    assert digest == "48c786a4d1094310144fb226b6c94f616225b33ad792031a540a16eb5f2872bb"


# The functions behind the pinned bodies: six checks, check_quadratic_support
# test-only among them, and the four scans of the table.
PINNED_FUNCTIONS = {
    "quadratic_support": check_quadratic_support,
    "diff1": check_diff1,
    "diff2": check_diff2,
    "lketa23": check_lketa23,
    "lowbdr2": check_lowbdr2,
    "multsiw": check_multsiw,
    **{name: CHECKS[name][1] for name in check_names("scan")},
}

# Report bodies of every check and scan, pinned so that a rewrite of the sweep
# keeps each finding, its order and every stat.  lketa23 has nothing to check
# below n=6.
PINNED_BODIES = {
    "diff1": (5, "919b62dcb23d51497555c22610f5b3fe2ae6a5e7bca980ecf81ea372e66b5c19"),
    "diff2": (5, "e5fcdf489442325b08b4f5498fd3d501786c7af0acb5cf8191a9640d69595d67"),
    "lketa23": (6, "e545fab7e91b35e0d1edf3a14596ced9f640494ba806135fa62f19e808a12ed2"),
    "lowbdr2": (5, "2cc5ffd175d2b207d898eb778816045e2adc8a594839fcadbb35693b547afb1c"),
    "multsiw": (5, "4a199ac9096e584aa0ef4a0fa9a4a7dda9bfccb2a0810249865badf54971164a"),
    "quadratic_support": (
        5, "eabedb8a7a34b09f6fb15f46fdac473337599d79de55efbeaffbec5baf49b7eb"),
    "poset": (5, "156766005916822df24c0706604f90aed325e218ad57719d28f12545fd2a02bc"),
    "siinc": (5, "7c4172a228c2b1c4faaf55baee92f4694037d3744097c77df7ba4d0007c52bc9"),
    "formpw2bound": (
        5, "a51be341a0dac5935d797edb5c34ab3958213bc3d07cb6111dbd00599dd035e9"),
    "formpw3": (5, "b2e0f44e9f1a638e0d8f71347394699dea44498ee4d883063649d84a47fba3bb"),
}


@pytest.mark.parametrize("name", sorted(PINNED_BODIES))
def test_pinned_body_digest(name):
    assert sorted(PINNED_BODIES) == sorted(PINNED_FUNCTIONS)
    n, digest = PINNED_BODIES[name]
    fn = PINNED_FUNCTIONS[name]
    assert body_digest(outcome_report(fn(n), {}, 0)) == digest


@pytest.mark.parametrize("name", sorted(PINNED_BODIES))
def test_pinned_bodies_ignore_term_order(name, monkeypatch):
    # Every P_w the sweep hands the checks, its terms stored in reverse: the
    # same polynomial, so every body must keep its digest.
    calls = []

    def reversed_step(*args):
        calls.append(args[1])
        out = original(*args)
        out.terms = dict(reversed(out.terms.items()))
        return out

    original = series.numerator_step
    monkeypatch.setattr(series, "numerator_step", reversed_step)
    n, digest = PINNED_BODIES[name]
    assert body_digest(outcome_report(PINNED_FUNCTIONS[name](n), {}, 0)) == digest
    assert len(calls) > 0


def test_formpw3_reports_injected_faults(monkeypatch):
    # 3142 is clean at n=4: its one cubic stratum (1,2,3) is C = {112234,
    # 112334}, each with m = 1.  Hand the scan a P_w that gains 2*x^112233
    # outside C, drops 112234 and turns 112334 to -1, and also gains a term
    # on T4^2*T5, a stratum past n (its C is empty); the walk's own carry is
    # untouched, so no other w changes.
    target = parse_permutation("3142")
    assert enum_C(target, 1, 2, 3) == ((1, 1, 2, 2, 3, 4), (1, 1, 2, 3, 3, 4))
    t123 = x_exps((1, 2, 3))
    fault = (SparsePoly.term(2, x=x_exps((1, 1, 2, 2, 3, 3)), t=t123)
             - SparsePoly.term(1, x=x_exps((1, 1, 2, 2, 3, 4)), t=t123)
             - SparsePoly.term(2, x=x_exps((1, 1, 2, 3, 3, 4)), t=t123)
             + SparsePoly.term(x=x_exps((1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5)),
                               t=x_exps((4, 4, 5))))
    real_sweep = mults.sweep

    def faulty_sweep(name, n, one, carry):
        return real_sweep(name, n, lambda w, p: one(w, p + fault if w == target else p), carry)

    clean = scan_formpw3(4).counterexamples
    assert not [ce for ce in clean if ce["w"] == "3142"]
    monkeypatch.setattr(mults, "sweep", faulty_sweep)
    found = scan_formpw3(4).counterexamples
    assert [ce for ce in found if ce["w"] == "3142"] == [
        {"claim": "positivity", "w": "3142", "levels": (1, 2, 3), "tau": "112234", "m": 0},
        {"claim": "positivity", "w": "3142", "levels": (1, 2, 3), "tau": "112334", "m": -1},
        {"claim": "support", "w": "3142", "levels": (1, 2, 3), "tau": "112233", "m": 2},
        {"claim": "support", "w": "3142", "levels": (4, 4, 5), "tau": "1112223334445", "m": 1},
    ]
    assert [ce for ce in found if ce["w"] != "3142"] == clean


def test_formpw3_reports_all_of_c_on_an_empty_stratum():
    # A stratum with no cubic term (2,2,2 at eight w of S4, among them 2413)
    # reports every C element, in tuple order, with m = 0.
    found = scan_formpw3(4).counterexamples
    empty = 0
    for w in all_permutations(4):
        cubic = {key[:3] for key, _ in cubic_multiplicities(w).items()}
        for levels in itertools.combinations_with_replacement(range(1, 5), 3):
            cs = enum_C(w, *levels)
            if levels in cubic or not cs:
                continue
            empty += 1
            assert [(ce["claim"], ce["tau"], ce["m"]) for ce in found
                    if ce["w"] == w.one_line() and ce["levels"] == levels] == [
                ("positivity", format_seq(tau), 0) for tau in cs]
    assert empty == 8


def _quad_term(coeff, levels, eta):
    return SparsePoly.term(coeff, x=x_exps(eta), t=x_exps(levels))


def _faulty_covers(monkeypatch, target, fault):
    """Every P_{s_i w} a check reads as target comes back as P + fault: the
    check steps with a faulty carry, while its sweep walks the clean one, so
    the walk's own values are untouched."""
    real_carry, real_sweep, clean = mults.numerator_carry, mults.sweep, {}

    def faulty_carry(*args, **kwargs):
        start, step = carry = real_carry(*args, **kwargs)

        def faulty(p, v, i):
            value = step(p, v, i)
            return value + fault if v.left_mul_s(i) == target else value

        clean[faulty] = carry
        return start, faulty

    monkeypatch.setattr(mults, "numerator_carry", faulty_carry)
    monkeypatch.setattr(mults, "sweep", lambda name, n, one, carry: real_sweep(
        name, n, one, clean[carry[1]]))


def test_multsiw_reports_injected_faults(monkeypatch):
    # 3142 has one lower cover, 2143 at i = 2.  Read there, its quadratic m
    # at T1T2 x^123 and T2T3 x^11234 goes 1 -> 2 (both at pair exponents
    # (1, 1) of x2, x3), and its cubic m at T1T2T3 x^112234 (pair exponents
    # (2, 1)) goes 1 -> 2: one finding per key, quadratic before cubic and
    # in ascending (a + b, rest, a) order, each with its decoded key.
    target = parse_permutation("3142")
    fault = (_quad_term(-1, (1, 2), (1, 2, 3)) + _quad_term(-1, (2, 3), (1, 1, 2, 3, 4))
             + _quad_term(1, (1, 2, 3), (1, 1, 2, 2, 3, 4)))
    assert check_multsiw(4).ok
    _faulty_covers(monkeypatch, target, fault)
    assert check_multsiw(4).counterexamples == [
        {"w": "2143", "i": 2, "grade": 2, "key": (1, 2, (1, 2, 3)), "m": 2, "expected": 1},
        {"w": "2143", "i": 2, "grade": 2, "key": (2, 3, (1, 1, 2, 3, 4)), "m": 2,
         "expected": 1},
        {"w": "2143", "i": 2, "grade": 3, "key": (1, 2, 3, (1, 1, 2, 2, 3, 4)), "m": 2,
         "expected": 1},
    ]


def test_multsiw_reports_a_missing_cubic_term(monkeypatch):
    # 4123 covers 3124 at i = 3.  Read there, its cubic term T1^2T2 x^1234
    # (m = 1, pair exponents (1, 1) of x3, x4) is gone.  No other cubic term
    # of w or s_i w has its (a + b, rest), but a term of the correction
    # does, and the rule still gives it m = 1.
    target = parse_permutation("4123")
    assert numerator_P(target, tmax=3).coefficient(x=x_exps((1, 2, 3, 4)), t=(2, 1)) == 1
    _faulty_covers(monkeypatch, target, -SparsePoly.term(x=x_exps((1, 2, 3, 4)), t=(2, 1)))
    assert check_multsiw(4).counterexamples == [
        {"w": "3124", "i": 3, "grade": 3, "key": (1, 1, 2, (1, 2, 3, 4)), "m": 0,
         "expected": 1},
    ]


def test_multsiw_sees_every_deleted_term(monkeypatch):
    # Replay each rule a clean S4 run compares, once per in-cap term of
    # P_{s_i w} (both pair exponents at most the cap), with that term
    # deleted: the rule must report it, and nothing else.
    calls = []
    real = mults._transfer_mismatches

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(mults, "_transfer_mismatches", recording)
    assert check_multsiw(4).ok
    deleted = {2: 0, 3: 0}
    for i, cap, w, sw, corr, nfac in calls:
        for key, m in sw.items():
            *_, eta = _key_tuple(key)
            if max(eta.count(i), eta.count(i + 1)) > cap:
                continue
            deleted[cap] += 1
            rest = {k: c for k, c in sw.items() if k != key}
            assert list(real(i, cap, w, rest, corr, nfac)) == [(_key_tuple(key), 0, m)]
    assert deleted == {2: 183, 3: 250}


def test_formpw2bound_reports_injected_faults(monkeypatch):
    # 3412 has one lower cover, 2413 at i = 2, where m = 1 at T1T2 x^124
    # and at T2T3 x^11234 on both sides.  Read there, both drop to 0: two
    # findings, in ascending packed-key order.
    target = parse_permutation("3412")
    fault = _quad_term(1, (1, 2), (1, 2, 4)) + _quad_term(1, (2, 3), (1, 1, 2, 3, 4))
    assert scan_formpw2bound(4).ok
    _faulty_covers(monkeypatch, target, fault)
    assert scan_formpw2bound(4).counterexamples == [
        {"w": "2413", "i": 2, "key": (1, 2, (1, 2, 4)), "m": 1, "cover_m": 0},
        {"w": "2413", "i": 2, "key": (2, 3, (1, 1, 2, 3, 4)), "m": 1, "cover_m": 0},
    ]


def test_siinc_reports_injected_faults(monkeypatch):
    # 2341 has ascents 2 and 3.  Its m at T2T3 x^12334 (pair exponents (1, 2)
    # of x2, x3) goes 1 -> 2, above its swap x^12234 (m = 1), and it gains
    # T1T3 x^1334 (pair exponents (0, 2)), whose swap x^1224 has no term.
    # Neither key compares at ascent 3, where the pair exponents are (2, 1).
    target = parse_permutation("2341")
    fault = _quad_term(-1, (2, 3), (1, 2, 3, 3, 4)) + _quad_term(-1, (1, 3), (1, 3, 3, 4))
    real_sweep = mults.sweep

    def faulty_sweep(name, n, one, carry):
        return real_sweep(name, n, lambda w, p: one(w, p + fault if w == target else p), carry)

    clean = scan_siinc(4)
    assert clean.ok
    monkeypatch.setattr(mults, "sweep", faulty_sweep)
    out = scan_siinc(4)
    assert out.counterexamples == [
        {"w": "2341", "i": 2, "k": 1, "l": 3, "eta": "1334", "m": 1, "swapped_m": 0},
        {"w": "2341", "i": 2, "k": 2, "l": 3, "eta": "12334", "m": 2, "swapped_m": 1},
    ]
    assert out.stats["comparisons"] == clean.stats["comparisons"] + 1


def test_quadratic_checks_report_injected_faults(monkeypatch):
    # 3142 is clean at n=4, with m = 1 at T1T2 x^123, T1T3 x^1234 and T2T3
    # x^11234, each of freedom r = 1.  Hand the checks a P_w where T1T3
    # x^1234 drops to 0, T1T2 x^122 (outside B) gains m = 2 and T2T3 x^11234
    # goes to 2: the support check sees the first two, diff1 the first and
    # the third, the floor only the first, each with its decoded key.
    target = parse_permutation("3142")
    fault = (_quad_term(1, (1, 3), (1, 2, 3, 4)) + _quad_term(-2, (1, 2), (1, 2, 2))
             + _quad_term(-1, (2, 3), (1, 1, 2, 3, 4)))
    real_sweep = mults.sweep

    def faulty_sweep(name, n, one, carry):
        return real_sweep(name, n, lambda w, p: one(w, p + fault if w == target else p), carry)

    checks = (check_quadratic_support, check_diff1, check_lowbdr2)
    clean = [fn(4) for fn in checks]
    assert all(out.ok for out in clean)
    monkeypatch.setattr(mults, "sweep", faulty_sweep)
    faulty = [fn(4) for fn in checks]
    assert [out.counterexamples for out in faulty] == [
        [{"w": "3142", "key": (1, 2, (1, 2, 2)), "m": 2,
          "reason": "negative or outside the two-presentation sets"},
         {"w": "3142", "key": (1, 3, (1, 2, 3, 4)), "m": 0,
          "reason": "vanishes on a two-presentation multiset"}],
        [{"w": "3142", "k": 1, "l": 3, "eta": "1234", "m": 0, "expected": 1},
         {"w": "3142", "k": 2, "l": 3, "eta": "11234", "m": 2, "expected": 1}],
        [{"w": "3142", "k": 1, "l": 3, "eta": "1234", "m": 0, "bound": 1}],
    ]
    # one term gone and one gained: every count is unchanged
    assert [out.stats for out in faulty] == [out.stats for out in clean]


def test_presentations_once_per_bound_row(monkeypatch):
    # A sweep builds its rows once per pair of bounds, so presentations runs
    # at most once per (w_upper(w, k), w_upper(w, l), eta) in one sweep.
    seen = []
    real = mults.presentations

    def recording(w, k, l, eta):
        seen.append((w_upper(w, k), w_upper(w, l), eta))
        return real(w, k, l, eta)

    monkeypatch.setattr(mults, "presentations", recording)
    for fn in (scan_poset, check_diff2):
        seen.clear()
        assert fn(5).ok
        assert seen and len(seen) == len(set(seen)), fn.__name__


def test_cover_checks_step_once_per_cover(monkeypatch):
    # Each P_{s_i w} is one induction step from P_w: a check over S5 steps
    # once across each of the 240 covers of the weak order, and the walk
    # once more across each of the 119 on its tree.
    steps = []
    real_step = series.numerator_step

    def counting(*args, **kwargs):
        steps.append(args[1:3])
        return real_step(*args, **kwargs)

    monkeypatch.setattr(series, "numerator_step", counting)
    for check in (check_multsiw, scan_formpw2bound):
        steps.clear()
        assert check(5).ok
        assert (len(steps), len(set(steps))) == (119 + 240, 240), check.__name__


def test_row_checks_walk_their_t_support(monkeypatch):
    # A row check carries P_w projected onto the divisors of the T_k T_l its
    # rows read.  Over S6, the terms of the P_w the sweep hands out and the
    # N factors its steps build: lketa23 walks {1, T_k, T_k^2 : k >= 3} and
    # diff2 every T-monomial but the T_k^2, while diff1 reads every T_k T_l
    # and walks every term of the T-degree-2 walk.
    sizes, factors = [], []
    real_factors, real_sweep = series._n_factors, mults.sweep

    def counting(*args):
        out = real_factors(*args)
        factors.append(len(out))
        return out

    def sizing(name, n, one, carry):
        return real_sweep(name, n, lambda w, p: sizes.append(len(p.terms)) or one(w, p), carry)

    monkeypatch.setattr(series, "_n_factors", counting)
    monkeypatch.setattr(mults, "sweep", sizing)
    counts = {}
    for check in (check_lketa23, check_diff2, check_diff1):
        sizes.clear()
        factors.clear()
        assert check(6).ok
        counts[check.__name__] = (len(sizes), sum(sizes), sum(factors))
    assert counts == {"check_lketa23": (720, 9648, 2377), "check_diff2": (720, 57968, 3315),
                      "check_diff1": (720, 69920, 3315)}


@pytest.mark.slow
def test_lketa23_s7():
    # the whole S7 report body, pinned like the bodies above
    out = check_lketa23(7)
    assert out.ok
    patterns = {k: v for k, v in out.stats.items() if k.startswith("pattern_")}
    assert len(patterns) == 5
    assert body_digest(outcome_report(out, {}, 0)) == (
        "d53ed34de14473a45ab4a7225d995c6694af3bce60d20f5b7a144cd341f1f7eb"
    )


@pytest.mark.slow
def test_formpw2bound_s7():
    # the whole S7 report body: the floor rows and every cover, one step each
    out = scan_formpw2bound(7)
    assert out.ok
    assert body_digest(outcome_report(out, {}, 0)) == (
        "0829372ce74be298f0a1b7e1378be1695027b603808c01249b7caa366d806bdc"
    )


@pytest.mark.slow
def test_scans_at_n5():
    assert scan_siinc(5).ok
    assert scan_poset(5).ok
    assert scan_formpw2bound(5).ok
    out = scan_formpw3(5)
    claims = {}
    for ce in out.counterexamples:
        claims[ce["claim"]] = claims.get(ce["claim"], 0) + 1
    assert claims == {"support": 1240, "positivity": 1992}


# The S6 bodies of the quadratic checks, the cover checks and the scans that
# read no cubic slice, pinned like the n=5 bodies above.
PINNED_S6_BODIES = {
    "quadratic_support": "13d0070b1090e0d840d4664d41ba4cc9f064a76d3de55360c3253bc3925c9be7",
    "diff1": "24cf3cc979f6baa06a85fa43f4cbc1e87bde22f975a12b86283e616ad2667659",
    "diff2": "b7a5504539006a7e6fe1df190248729c60343b35d069f0aa9816018ab21ab94e",
    "lowbdr2": "2dc5da1e90b086569a484c1d09966bbe07677fa55132eeb785adb1405b5d863f",
    "poset": "1c1a94556e8abb94c3407971717d6f679aae5b8b229bfd1fd16301a30e25bb62",
    "multsiw": "0fb96adc6e03c85973d9c066b49413c39558ad1bb1df630af486683d4cd54721",
    "siinc": "659e8629944cb23d8b1c80ab826e4a6ab5fc54fcb5ff4d10ad0cdeca6b613727",
    "formpw2bound": "07e0a8a19cea6059573ace71c4f8e099001c0db5a38de32731b143e72aa65df5",
}


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(PINNED_S6_BODIES))
def test_pinned_s6_body_digest(name):
    out = PINNED_FUNCTIONS[name](6)
    assert body_digest(outcome_report(out, {}, 0)) == PINNED_S6_BODIES[name]


@pytest.mark.slow
def test_formpw3_n6_body_pinned():
    # The whole S6 report body: every finding in sweep order and every stat.
    out = scan_formpw3(6)
    claims = {}
    for ce in out.counterexamples:
        claims[ce["claim"]] = claims.get(ce["claim"], 0) + 1
    assert claims == {"support": 44028, "positivity": 65460}
    assert body_digest(outcome_report(out, {}, 0)) == (
        "307331ea74d3be1e76c5176a9df77ce443ca0193578f362866247a71ddd08241"
    )
