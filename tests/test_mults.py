import hashlib

import pytest

from keyseries.cli import CHECKS, check_names
from keyseries.config import InvariantError
from keyseries.multisets import enum_B, parse_multiset
from keyseries.mults import (
    MultView,
    N_quadratic,
    check_diff1,
    check_diff2,
    check_lketa23,
    check_lowbdr2,
    check_multsiw,
    check_quadratic_support,
    cubic_multiplicities,
    decompose_quadratic,
    multiplicity2,
    multiplicity3,
    presentation_poset,
    quadratic_multiplicities,
    scan_formpw2bound,
    scan_formpw3,
    scan_poset,
    scan_siinc,
    t_from_levels,
)
from keyseries.permutation import all_permutations, parse_permutation
from keyseries.poly import SparsePoly
from keyseries.report import body_digest, canonical_json, outcome_report
from keyseries.series import n_factor_product, numerator_P

W = parse_permutation("42531")


def test_level_codecs():
    assert t_from_levels((2, 3)) == (0, 1, 1)
    assert t_from_levels((3, 3)) == (0, 0, 2)


def test_multiplicity2_golden():
    assert multiplicity2(parse_permutation("31425"), 1, 2, (1, 2, 3)) == 1
    assert multiplicity2(parse_permutation("31425"), 2, 3, parse_multiset("11234")) == 1
    assert multiplicity2(W, 2, 3, parse_multiset("12345")) == 3
    assert multiplicity2(W, 2, 3, parse_multiset("11334")) == 0
    with pytest.raises(ValueError):
        multiplicity2(W, 3, 2, parse_multiset("12345"))


def test_multiplicity3_golden():
    w = parse_permutation("31425")
    assert multiplicity3(w, 1, 2, 3, parse_multiset("112234")) == 1
    assert multiplicity3(w, 1, 2, 3, parse_multiset("112334")) == 1
    assert multiplicity3(w, 1, 1, 2, parse_multiset("1123")) == 0


def test_quadratic_table_matches_single_lookups():
    quad = quadratic_multiplicities(W)
    for (k, l, eta), m in quad.items():
        assert m == multiplicity2(W, k, l, eta)
    keys23 = {eta for (k, l, eta) in quad if (k, l) == (2, 3)}
    assert keys23 == set(enum_B(W, 2, 3))


def test_cubic_table_matches_single_lookups():
    w = parse_permutation("4123")
    cubic = cubic_multiplicities(w)
    assert cubic
    for (p, k, l, tau), m in cubic.items():
        assert m == multiplicity3(w, p, k, l, tau)
        assert 1 <= p <= k <= l


def _decoded_slice(poly, grade, sign):
    """A T-slice decoded term by term, in term order: {(levels..., eta): sign * c}."""
    return {
        levels + (eta,): sign * c
        for (eta, levels, _), c in poly.t_slice(grade).multiset_items()
    }


def _assert_view_matches(view, expected, n):
    assert len(view) == len(expected)
    assert list(view.items()) == list(expected.items())
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
        assert view.get(key, 0) == expected.get(key, 0), key


@pytest.mark.parametrize("n", [4, 5])
def test_multiplicity_tables_match_decoded_slices(n):
    for w in all_permutations(n):
        _assert_view_matches(
            quadratic_multiplicities(w), _decoded_slice(numerator_P(w, tmax=2), 2, -1), n)
        _assert_view_matches(
            cubic_multiplicities(w), _decoded_slice(numerator_P(w, tmax=3), 3, 1), n)
        for i in range(1, n):
            if w.is_ascent(i):
                # check_multsiw's table of the cover factor product
                nfac = n_factor_product(w, i, tmax=3)
                _assert_view_matches(MultView(nfac, 2), _decoded_slice(nfac, 2, 1), n)


def test_view_lookups_outside_the_slice():
    quad = quadratic_multiplicities(W)
    assert quad.get((2, 3, parse_multiset("12345"))) == 3
    assert quad.get((2, 3, parse_multiset("12345")), None) == 3
    assert quad.get((2, 3, parse_multiset("11334")), None) is None
    # a key with the wrong number of levels or an index past x9 has no term
    assert quad.get((2, parse_multiset("12345"))) == 0
    assert quad.get((1, 2, 3, parse_multiset("12345"))) == 0
    assert quad.get((2, 3, (1, 2, 3, 4, 10))) == 0


def test_n_quadratic_is_pure_in_the_pair():
    for w in all_permutations(4):
        for i in range(1, 4):
            if w.is_ascent(i):
                got = N_quadratic(w, i)
                assert got == n_factor_product(w, i, tmax=2).t_slice(2)
                assert set(got.pair_components(i)) <= {(0, 2)}


def test_decompose_quadratic_rejects_pair_degree_three():
    x1, x2 = SparsePoly.x_var(1), SparsePoly.x_var(2)
    assert decompose_quadratic(x1 * x1 * x2 * x2, 1)[(2, 2)] == SparsePoly.one()
    with pytest.raises(InvariantError):
        decompose_quadratic(x1 ** 3, 1)


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
    poset = presentation_poset(W, 2, 3, parse_multiset("12345"))
    assert len(poset.elements) == 4
    chain = presentation_poset(W, 2, 3, parse_multiset("11234"))
    assert len(chain.elements) == 3
    assert poset.canonical() != chain.canonical()


def test_poset_canonical_invariant_under_relabeling():
    # two different 2-chains: same canonical form, same multiplicity
    a = presentation_poset(W, 2, 3, parse_multiset("11235"))
    b = presentation_poset(W, 2, 3, parse_multiset("11345"))
    assert a.elements != b.elements
    assert a.canonical() == b.canonical()


def test_scan_registry():
    assert check_names("verify") == [
        "formofkw", "pxiw1", "diff1", "diff2", "lketa23", "bounds", "multsiw", "fcoeff",
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
    # The findings follow the cubic slice's term order, so a kernel that
    # reorders terms changes this digest even when every count is unchanged.
    ces = scan_formpw3(5).counterexamples
    assert len(ces) == 3232
    digest = hashlib.sha256(canonical_json(ces).encode()).hexdigest()
    assert digest == "dca2e87691810ab5fed54a5c9c052a90ad0d19463d4e1c29ce58c72ae98f4825"


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
    "formpw3": (5, "d48ba8839abda92fa3c04207c26d48c105c22e644064ddccace60583cf1767e5"),
}


@pytest.mark.parametrize("name", sorted(PINNED_BODIES))
def test_pinned_body_digest(name):
    assert sorted(PINNED_BODIES) == sorted(PINNED_FUNCTIONS)
    n, digest = PINNED_BODIES[name]
    fn = PINNED_FUNCTIONS[name]
    assert body_digest(outcome_report(fn(n), {}, 0)) == digest


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
def test_scans_at_n5():
    assert scan_siinc(5).ok
    assert scan_poset(5).ok
    assert scan_formpw2bound(5).ok
    out = scan_formpw3(5)
    claims = {}
    for ce in out.counterexamples:
        claims[ce["claim"]] = claims.get(ce["claim"], 0) + 1
    assert claims == {"support": 1240, "positivity": 1992}


@pytest.mark.slow
def test_formpw3_n6_body_pinned():
    # The whole S6 report body: every finding in sweep order and every stat.
    out = scan_formpw3(6)
    claims = {}
    for ce in out.counterexamples:
        claims[ce["claim"]] = claims.get(ce["claim"], 0) + 1
    assert claims == {"support": 44028, "positivity": 65460}
    assert body_digest(outcome_report(out, {}, 0)) == (
        "a196e14aaa791b98b2f98c86782f99baf0b2f5e4d6e7cb6aca764b3e734b1f47"
    )
