import pytest

from keyseries.counts import (
    F_block_series,
    F_coefficient,
    F_polynomial,
    approx_coefficient,
    polytope_point_count,
    suite_fcoeff,
)
from keyseries.permutation import Permutation, all_permutations, parse_permutation
from keyseries.poly import x_exps
from keyseries.series import key_polynomial, partitions

W321 = parse_permutation("321")
MU = (1, 1, 2, 2, 3, 3)


def test_worked_example_count():
    assert F_coefficient((4, 2), W321, MU) == 6


def test_worked_example_order2():
    assert approx_coefficient((4, 2), W321, MU, order=2) == 3
    assert key_polynomial((4, 2), W321).coefficient(x=(2, 2, 2)) == 3


def test_identity_block_is_single_selection():
    ident = Permutation.identity(3)
    assert F_coefficient((2, 1), ident, (1, 1, 2)) == 1
    assert F_coefficient((2, 1), ident, (1, 2, 3)) == 0
    assert F_polynomial((2, 1), ident).to_text() == "x1^2*x2"


def test_infeasible_mu_is_zero():
    assert F_coefficient((4, 2), W321, (6, 6, 6, 6, 6, 6)) == 0
    assert F_coefficient((4, 2), W321, (1, 1, 2, 2, 3)) == 0


def test_block_enumeration_matches_series():
    for w in all_permutations(3):
        for lam in partitions(4, 4):
            assert F_polynomial(lam, w) == F_block_series(lam, w)


def test_every_coefficient_matches():
    poly = F_polynomial((4, 2), W321)
    series = F_block_series((4, 2), W321)
    assert poly == series
    for (mu, _, _), c in poly.multiset_items():
        assert F_coefficient((4, 2), W321, mu) == c


def test_polytope_count_golden():
    count, dim = polytope_point_count(W321, (2, 2), MU)
    assert count == 6
    assert dim == 4
    count1, dim1 = polytope_point_count(Permutation.identity(2), (1, 1), (1, 1, 2))
    assert (count1, dim1) == (1, 0)


def test_approx_orders_are_graded():
    lam, mu = (4, 2), MU
    assert approx_coefficient(lam, W321, mu, order=0) == 6
    assert approx_coefficient(lam, W321, mu, order=1) == 6
    assert approx_coefficient(lam, W321, mu, order=2) == 3
    with pytest.raises(ValueError):
        approx_coefficient(lam, W321, mu, order=4)


def test_order3_exact_for_short_columns():
    # the numerator has T-degree <= 3 whenever lam_1 <= 3
    for w in all_permutations(3):
        for lam in partitions(3, 3):
            key = key_polynomial(lam, w)
            poly = F_polynomial(lam, w)
            for (x, _, _), _c in poly.exponent_items():
                mu = tuple(v for v, e in enumerate(x, start=1) for _ in range(e))
                assert approx_coefficient(lam, w, mu, order=3) == key.coefficient(x=x)


def test_order3_exact_spot_s4():
    w = parse_permutation("2413")
    lam = (3, 1)
    key = key_polynomial(lam, w)
    for x in [(2, 1, 1), (1, 1, 1, 1), (3, 1), (2, 2)]:
        mu = tuple(v for v, e in enumerate(x, start=1) for _ in range(e))
        assert approx_coefficient(lam, w, mu, order=3) == key.coefficient(x=x)


def test_suite_fcoeff():
    out = suite_fcoeff(3, 5)
    assert out.ok, out.counterexamples[:3]
    assert out.stats["blocks"] > 0 and out.stats["coefficients"] > 0
