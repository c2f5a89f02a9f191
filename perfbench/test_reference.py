"""Tests of the benchmark's independent reference.  Run: python3 -m pytest perfbench"""

from fractions import Fraction
from itertools import permutations
from math import prod

import reference as ref


def test_readme_set_examples():
    assert len(ref.listing((4, 2, 5, 3, 1), "A", (3,))) == 9
    assert len(ref.listing((4, 2, 5, 3, 1), "B", (2, 3))) == 13
    assert len(ref.listing((4, 1, 2, 3), "C", (1, 2, 3))) == 3


def test_A_is_the_bounded_increasing_tuples():
    assert ref.A_set((3, 1, 2), 2) == ((1, 2), (1, 3))
    assert ref.A_set((1, 2, 3), 2) == ((1, 2),)
    # levels past the rank behave as fixed points
    assert ref.A_set((2, 1), 3) == ((1, 2, 3),)


def test_reduced_word_rebuilds_the_permutation():
    for w in permutations(range(1, 6)):
        vals = list(range(1, 6))
        word = ref.reduced_word(w)
        for i in reversed(word):  # w = s_{i_1} ... s_{i_r}: rightmost first
            vals = [i + 1 if v == i else i if v == i + 1 else v for v in vals]
        assert tuple(vals) == w
        assert len(word) == sum(1 for a in range(5) for b in range(a + 1, 5) if w[a] > w[b])


def test_key_and_lascoux_values_by_hand():
    # pi_1 x1 = x1 + x2; the Lascoux variant adds xi * x1 * x2
    assert ref.key_values([(1,)], (2, 1), (2, 5)) == [7]
    assert ref.key_values([(1,)], (2, 1), (2, 5), xi=3) == [37]
    # the identity leaves x^lam alone
    assert ref.key_values([(2, 1)], (1, 2, 3), (3, -2, 5)) == [-18]


def _weyl_dimension(lam, n):
    lam = tuple(lam) + (0,) * (n - len(lam))
    num = prod(lam[i] - lam[j] + j - i for i in range(n) for j in range(i + 1, n))
    den = prod(j - i for i in range(n) for j in range(i + 1, n))
    return num // den


def _schur_at_ones(lam, n):
    """s_lam(1, ..., 1) from values at x = 1 + t*c (distinct coordinates for
    t != 0), extrapolated to t = 0 through the degree-|lam| interpolant."""
    w0 = tuple(range(n, 0, -1))
    c = tuple(range(1, n + 1))
    ts = list(range(1, sum(lam) + 2))
    ys = [ref.key_values([lam], w0, tuple(1 + t * ci for ci in c))[0] for t in ts]
    total = Fraction(0)
    for i, (ti, yi) in enumerate(zip(ts, ys)):
        weight = Fraction(yi)
        for j, tj in enumerate(ts):
            if j != i:
                weight *= Fraction(-tj, ti - tj)
        total += weight
    return total


def test_schur_at_longest_element_matches_weyl_dimension():
    for n, lam in ((3, (2, 1)), (3, (3, 1, 1)), (4, (2, 2, 1)), (4, (3, 1))):
        assert _schur_at_ones(lam, n) == _weyl_dimension(lam, n)


def test_numerator_is_one_where_the_series_factors():
    # Keys of the identity are monomials and keys of s_1 in two variables are
    # Schur polynomials s_(a+b,b) = (x1 x2)^b h_a, so both series equal the
    # bare denominator product and P_w = 1.
    assert ref.numerator_at((1, 2, 3), (3, -1, 4), 3) == {(0, 0, 0): 1}
    assert ref.numerator_at((2, 1), (3, 5), 4) == {(0, 0): 1}
