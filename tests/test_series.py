import pytest

from keyseries.bseq import moved_levels, si_image, split_A
from keyseries.config import InvariantError, ResourceCapError
from keyseries.permutation import (
    Permutation,
    all_permutations,
    chain_value,
    descent_walk,
    parse_permutation,
    sweep,
)
from keyseries.poly import (
    T_SHIFT, SparsePoly, multiset_key, pi, pi_word, pi_xi, series_inverse_product, x_exps,
)
from keyseries import series
from keyseries.series import (
    check_piiKw,
    denominator_factors,
    key_by_composition,
    key_polynomial,
    lascoux_linear_part,
    lascoux_polynomial,
    numerator_carry,
    numerator_P,
    numerator_P_along,
    numerator_step,
    partitions,
    series_Kw_direct,
    suite_formofkw,
    suite_pxiw1,
    t_exps,
    verify_form,
)

P31425 = SparsePoly.parse(
    "1 - x1*x2*x3*T1*T2 - x1*x2*x3*x4*T1*T3 - x1^2*x2*x3*x4*T2*T3"
    " + x1^2*x2^2*x3*x4*T1*T2*T3 + x1^2*x2*x3^2*x4*T1*T2*T3"
)
P14253 = SparsePoly.parse(
    "1 - x1^2*x2*x3*x4*T2*T3 - x1^2*x2*x3*x4*x5*T2*T4 - x1^2*x2^2*x3*x4*x5*T3*T4"
    " + x1^3*x2^2*x3^2*x4*x5*T2*T3*T4 + x1^3*x2^2*x3*x4^2*x5*T2*T3*T4"
)
P4123_CUBIC = SparsePoly.parse(
    "x1*x2*x3*x4*T1^2*T2 + x1^2*x2*x3*x4*T1*T2^2 + x1^2*x2^2*x3*x4*T1*T2*T3"
    " + x1^2*x2*x3^2*x4*T1*T2*T3 + x1^2*x2*x3*x4^2*T1*T2*T3"
)


def test_partition_helpers():
    assert t_exps((4, 2)) == (2, 2)
    assert t_exps((3, 3, 1)) == (0, 2, 1)
    assert t_exps(()) == ()
    assert (2, 2) in set(partitions(4, 4))
    assert all(a >= b for lam in partitions(4, 3) for a, b in zip(lam, lam[1:]))


def test_key_polynomial_basics():
    assert key_polynomial((3,), Permutation.identity(1)).to_text() == "x1^3"
    assert key_polynomial(
        (2, 1), Permutation.identity(2)
    ) == SparsePoly.parse("x1^2*x2")
    assert key_by_composition((0, 1)).to_text() == "x1 + x2"
    assert key_by_composition((1, 0, 2)) == key_polynomial(
        (2, 1), parse_permutation("312")
    )


def test_key_polynomial_schur_at_longest():
    got = key_polynomial((2, 1), Permutation.longest(3))
    assert got == SparsePoly.parse(
        "x1^2*x2 + x1^2*x3 + x1*x2^2 + 2*x1*x2*x3 + x1*x3^2 + x2^2*x3 + x2*x3^2"
    )


def test_worked_coefficient():
    poly = key_polynomial((4, 2), parse_permutation("321"))
    assert poly.coefficient(x=(2, 2, 2)) == 3


def test_key_stable_under_embedding():
    for lam in ((2,), (2, 1), (3, 1)):
        a = key_polynomial(lam, parse_permutation("321"))
        b = key_polynomial(lam, parse_permutation("3214"))
        assert a == b


def test_numerator_trivial_cases():
    for text in ("12345", "21345", "13245", "12435", "12354",
                 "21435", "21354", "13254"):
        assert numerator_P(parse_permutation(text)) == SparsePoly.one()
    for i in range(1, 5):
        w = Permutation.identity(i + 1).left_mul_s(i)
        assert numerator_P(w) == SparsePoly.one()


def test_numerator_length_two_adjacent():
    expected = SparsePoly.parse("1 - x1*x2*x3*T1*T2")
    for text in ("23145", "23154", "31245", "31254", "32145", "32154"):
        assert numerator_P(parse_permutation(text)) == expected
    expected23 = SparsePoly.parse("1 - x1^2*x2*x3*x4*T2*T3")
    for text in ("13425", "14235", "14325"):
        assert numerator_P(parse_permutation(text)) == expected23
    expected34 = SparsePoly.parse("1 - x1^2*x2^2*x3*x4*x5*T3*T4")
    for text in ("12453", "12534", "12543"):
        assert numerator_P(parse_permutation(text)) == expected34


def test_numerator_golden_31425():
    assert numerator_P(parse_permutation("31425")) == P31425


def test_numerator_golden_14253():
    assert numerator_P(parse_permutation("14253")) == P14253


def test_numerator_4123_cubic_slice():
    assert numerator_P(parse_permutation("4123")).t_slice(3) == P4123_CUBIC


def test_graded_slices_conventions():
    for text in ("31425", "4123", "42531"):
        p = numerator_P(parse_permutation(text), tmax=3)
        assert p.t_slice(0) == SparsePoly.one()
        assert p.t_slice(1) == SparsePoly.zero()
    assert P31425.t_slice(2) == SparsePoly.parse(
        "-x1*x2*x3*T1*T2 - x1*x2*x3*x4*T1*T3 - x1^2*x2*x3*x4*T2*T3"
    )


def test_numerator_word_independence():
    for w in all_permutations(4):
        first, second = w.reduced_word(), w.reduced_word_alt()
        if first == second:
            continue
        assert numerator_P_along(first) == numerator_P_along(second)


@pytest.mark.parametrize("word", [(1, 1), (0,), (2, 0, 1)])
def test_numerator_along_rejects_bad_words(word):
    # (1, 1) is not reduced; 0 is not a letter
    with pytest.raises(ValueError):
        numerator_P_along(word)


def test_numerator_rejects_a_negative_truncation():
    with pytest.raises(ValueError, match="truncation degree must be >= 0"):
        numerator_step(SparsePoly.one(), Permutation.identity(3), 1, tmax=-1)


def staged_numerator(w, xi_mode, tmax, memo):
    """P_w by the staged step: N_{v,i} built as a chain of truncated products of
    the binomials (1 - x^{s_i alpha} T_l), P_v times N_{v,i}, then pi_i (or
    pi_xi_i), for v = s_i w and i the first left descent of w."""
    if w.core not in memo:
        descents = w.left_descents()
        if not descents:
            memo[w.core] = SparsePoly.one()
        else:
            i = descents[0]
            v = w.left_mul_s(i)
            n = SparsePoly.one()
            for l in moved_levels(v, i):
                tvec = (0,) * (l - 1) + (1,)
                for alpha in split_A(v, l, i)[1]:
                    binomial = 1 - SparsePoly.term(x=x_exps(si_image(i, alpha)), t=tvec)
                    n = n.mul_trunc(binomial, tmax)
            staged = staged_numerator(v, xi_mode, tmax, memo).mul_trunc(n, tmax)
            memo[w.core] = pi_xi(i, staged) if xi_mode else pi(i, staged)
    return memo[w.core]


@pytest.mark.parametrize("n", [4, 5])
def test_n_factors_match_split_A(n):
    # The packed-key factors against the split_A/si_image construction, at
    # every ascent of every w: the same monomials -x^{s_i alpha} T_l.
    for w in all_permutations(n):
        for i in range(1, n):
            if not w.is_ascent(i):
                with pytest.raises(ValueError, match="not an ascent"):
                    series._n_factors(w, i)
                continue
            expected = sorted(
                ((x_exps(si_image(i, alpha)), (0,) * (l - 1) + (1,), 0), -1)
                for l in moved_levels(w, i) for alpha in split_A(w, l, i)[1]
            )
            got = sorted(term for m, c, td in series._n_factors(w, i)
                         for term in SparsePoly.from_key(m, c).exponent_items())
            assert {td for _, _, td in series._n_factors(w, i)} <= {1}
            assert got == expected, (w.one_line(), i)


@pytest.mark.parametrize("n, tmax", [(5, 2), (5, 3), (5, 4), (4, None)])
@pytest.mark.parametrize("xi_mode", [False, True])
def test_numerator_matches_staged_products(n, tmax, xi_mode):
    memo = {}
    for w in all_permutations(n):
        assert numerator_P(w, xi_mode, tmax) == staged_numerator(w, xi_mode, tmax, memo), w


@pytest.mark.parametrize(
    "n, tmax", [(n, tmax) for n in range(1, 6) for tmax in (1, 2, 3, 4)] + [(4, None)]
)
@pytest.mark.parametrize("xi_mode", [False, True])
def test_descent_walk_hands_each_numerator(n, tmax, xi_mode):
    # The walk visits every w of S_n once and hands it P_w, the value of w's
    # chain alone (memoised or not) and of the induction along w's canonical
    # reduced word; a sweep over it still gives its findings in one-line order.
    carry = numerator_carry(xi_mode, tmax)
    visited = []
    for w, p in descent_walk(n, carry):
        assert p == numerator_P(w, xi_mode, tmax) == chain_value(w, carry), w
        assert p == numerator_P_along(w.reduced_word(), xi_mode, tmax), w
        visited.append(w.values)
    group = [w.values for w in all_permutations(n)]
    assert sorted(visited) == group and len(set(visited)) == len(group)
    if n >= 3:
        assert visited != group  # tree order is not one-line order
    out = sweep("walk", n, lambda w, p: ([{"w": w.one_line()}], {"visits": 1}), carry)
    assert out.counterexamples == [{"w": w.one_line()} for w in all_permutations(n)]
    assert out.stats == {"visits": len(group)}


def test_t_support_is_the_divisor_closure():
    def parts(*level_sets):
        return {multiset_key(levels=levels) >> T_SHIFT for levels in level_sets}

    assert series.t_support([]) == parts(())
    assert series.t_support([(3, 3), (4, 4)]) == parts((), (3,), (3, 3), (4,), (4, 4))
    assert series.t_support([(2, 1)]) == parts((), (1,), (2,), (1, 2))
    assert series.t_support([(1, 1, 2)]) == parts((), (1,), (2,), (1, 1), (1, 2), (1, 1, 2))


# The T-supports of the lketa23 rows, of the diff2 rows and of T_2^2 alone at S5.
SUPPORTS = {
    "lketa23": [(k, k) for k in range(3, 6)],
    "diff2": [(k, l) for k in range(1, 6) for l in range(k + 1, 6)],
    "T2^2": [(2, 2)],
}


@pytest.mark.parametrize("pairs", SUPPORTS.values(), ids=list(SUPPORTS))
@pytest.mark.parametrize("xi_mode", [False, True])
def test_projected_carry_is_the_projection(pairs, xi_mode):
    # Keeping the terms on a divisor-closed set of T-monomials commutes with
    # the induction: the projected carry, walked beside the full one, is
    # the full value with its other terms dropped at every w of S5.  The xi
    # field sits below the T-part and passes through.
    support = series.t_support(pairs)
    (p0, p_step), (q0, q_step) = (numerator_carry(xi_mode, 2),
                                  numerator_carry(xi_mode, 2, support=support))
    carry = (p0, q0), lambda pq, v, i: (p_step(pq[0], v, i), q_step(pq[1], v, i))
    visits, full, kept = 0, 0, 0
    for w, (p, q) in descent_walk(5, carry):
        assert q.terms == {k: c for k, c in p.terms.items() if k >> T_SHIFT in support}, w
        visits, full, kept = visits + 1, full + len(p.terms), kept + len(q.terms)
    assert visits == 120 and 120 < kept < full


def test_truncation_commutes_with_induction():
    for text in ("31425", "4123", "2413"):
        w = parse_permutation(text)
        assert numerator_P(w, tmax=2) == numerator_P(w).t_truncate(2)


def test_identity_series():
    got = series_Kw_direct(Permutation.identity(2), 2, 2)
    expected = SparsePoly.parse(
        "1 + x1*T1 + x1*x2*T2 + x1^2*T1^2 + x1^2*x2*T1*T2 + x1^2*x2^2*T2^2"
    )
    assert got == expected


@pytest.mark.parametrize("n, xi_mode", [(4, False), (3, True)])
def test_direct_series_is_the_key_sum(n, xi_mode):
    # pi_w of the dominant series is the sum of the key (Lascoux)
    # polynomials of w times t^lam, over the partitions in an n x 3 box.
    poly_of = lascoux_polynomial if xi_mode else key_polynomial
    for w in all_permutations(n):
        expected = SparsePoly.zero()
        for lam in partitions(3, n):
            expected = expected + poly_of(lam, w) * SparsePoly.term(t=t_exps(lam))
        assert series_Kw_direct(w, n, 3, xi_mode) == expected, w


def test_denominator_factor_count():
    w = parse_permutation("42531")
    factors = denominator_factors(w, 5)
    from keyseries.bseq import enum_A
    assert len(factors) == sum(len(enum_A(w, l)) for l in range(1, 6))


def test_series_inverse_product_is_inverse():
    monomials = [
        SparsePoly.x_var(1) * SparsePoly.term(t=(1,)),
        SparsePoly.x_var(2) * SparsePoly.term(t=(0, 1)),
    ]
    inv = series_inverse_product(monomials, 4)
    prod = SparsePoly.one()
    for m in monomials:
        prod = prod.mul_trunc(1 - m, 4)
    assert prod.mul_trunc(inv, 4) == SparsePoly.one()


def test_verify_form_small():
    for n, D in ((3, 4), (4, 3)):
        out = suite_formofkw(n, D)
        assert out.ok, out.counterexamples
        assert out.stats == {"checks": [6, 24][n - 3], "failed": 0}


def test_verify_form_single():
    w = parse_permutation("42531")
    check = verify_form(w, D=3)
    assert check.ok


def test_verify_form_xi_mode():
    for n in (3, 4):
        out = suite_formofkw(n, 3, xi_mode=True)
        assert out.ok, out.counterexamples
        assert out.stats == {"checks": [6, 24][n - 3], "failed": 0}


@pytest.mark.parametrize("xi_mode", [False, True])
def test_formofkw_reports_a_fault_off_the_greedy_words(monkeypatch, xi_mode):
    # The cover 4231 -> 4321 at i=2 is not a tree edge, and no greedy reduced
    # word of any w in S4 uses it: a wrong step there is seen only by the
    # check on every cover.
    real = series.numerator_step

    def faulty(p, v, i, *args):
        out = real(p, v, i, *args)
        if v.one_line() == "4231" and i == 2:
            out = out + SparsePoly.term(x=(1, 1), t=(0, 0, 1))
        return out

    for w in all_permutations(4):
        for word in (w.reduced_word(), w.reduced_word_alt()):
            v = Permutation.identity(4)
            for i in reversed(word):
                assert (v.one_line(), i) != ("4231", 2)
                v = v.left_mul_s(i)
    monkeypatch.setattr(series, "numerator_step", faulty)
    out = suite_formofkw(4, 3, xi_mode)
    assert [found["w"] for found in out.counterexamples] == ["4231"]
    assert out.stats == {"checks": 24, "failed": 1}


def test_pi_transport_on_series():
    out = check_piiKw(3, 3)
    assert out.ok, out.counterexamples
    assert out.stats == {"checks": 12, "failed": 0}


def test_lascoux_reduces_to_key():
    for w in all_permutations(3):
        for lam in partitions(3, 3):
            L = lascoux_polynomial(lam, w)
            assert L.xi_slice(0) == key_polynomial(lam, w)


def test_lascoux_golden_linear():
    got = lascoux_polynomial((1,), parse_permutation("21"))
    assert got.to_text() == "x1 + x2 + x1*x2*xi"


def test_lascoux_homogeneous_with_negative_xi_degree():
    for w in all_permutations(3):
        for lam in partitions(3, 3):
            weight = sum(lam)
            for (x, _, xi), _c in lascoux_polynomial(lam, w).exponent_items():
                assert sum(x) - xi == weight


def test_xi_linear_slice_closed_form():
    out = suite_pxiw1(4)
    assert out.ok, out.counterexamples
    assert out.stats == {"checks": 24, "failed": 0}


def test_xi_linear_slice_shape():
    p = lascoux_linear_part(parse_permutation("42531"))
    for (x, t, xi), c in p.exponent_items():
        assert xi == 1 and sum(t) == 1 and c >= 1


def test_numerator_term_cap():
    # P_4321 has 54 terms.  A cap below that raises, whether the induction
    # runs or the value is already held; a cap that lets the induction's
    # products through (they hold more terms than P) changes nothing.
    w = parse_permutation("4321")
    series._P_CACHE.clear()
    with pytest.raises(ResourceCapError, match="max_terms=53"):
        numerator_P(w, max_terms=53)
    exact = numerator_P(w)
    assert len(exact.terms) == 54
    with pytest.raises(ResourceCapError, match="P_4321 has more than max_terms=53"):
        numerator_P(w, max_terms=53)
    series._P_CACHE.clear()
    assert numerator_P(w, max_terms=1000) == exact


@pytest.mark.parametrize("xi_mode", [False, True])
@pytest.mark.parametrize("tmax", [2, 3, None])
def test_numerator_step_refuses_a_wrong_low_term(xi_mode, tmax):
    # The step reads its invariant from the staged product's low levels: P_{s_i v}
    # has constant term 1 and no other T-free term, and outside xi mode no
    # T-linear term.  A P_v with a term that breaks it, and that pi_i keeps,
    # is refused; a stray T-linear term is allowed in xi mode.
    v, i = parse_permutation("1324"), 1
    p = numerator_P(v, xi_mode, tmax)
    assert numerator_step(p, v, i, xi_mode, tmax) == numerator_P(v.left_mul_s(i), xi_mode, tmax)
    x1, t1 = SparsePoly.x_var(1), SparsePoly.term(t=(1,))
    for stray in (SparsePoly.one(), -2 * SparsePoly.one(), x1, x1 * t1):
        if xi_mode and stray == x1 * t1:
            numerator_step(p + stray, v, i, xi_mode, tmax)
            continue
        with pytest.raises(InvariantError, match="P_2314 has a wrong term"):
            numerator_step(p + stray, v, i, xi_mode, tmax)


@pytest.mark.parametrize("n, tmax", [(4, 2), (4, 3), (4, None), (5, 3)])
def test_numerator_step_cap_counts_the_staged_product(n, tmax):
    # The step leaves P_v as it is and stages the product as deltas over it,
    # yet its cap counts the staged product's terms as series_product does:
    # the least cap it accepts is the least series_product accepts on P_v and
    # N_{v,i}'s factors, or the size of P_{s_i v} if that is larger.
    def least_cap(run):
        lo, hi = 1, 1
        while True:
            try:
                run(hi)
                break
            except ResourceCapError:
                lo, hi = hi + 1, 2 * hi
        while lo < hi:
            mid = (lo + hi) // 2
            try:
                run(mid)
                hi = mid
            except ResourceCapError:
                lo = mid + 1
        return lo

    for v in all_permutations(n):
        p = numerator_P(v, tmax=tmax)
        for i in range(1, n):
            if not v.is_ascent(i):
                continue
            factors = [SparsePoly.from_key(m, c) for m, c, _ in series._n_factors(v, i)]
            product = least_cap(lambda cap: series.series_product(p, factors, tmax, cap))
            size = len(numerator_P(v.left_mul_s(i), tmax=tmax).terms)
            step = least_cap(lambda cap: numerator_step(p, v, i, tmax=tmax, max_terms=cap))
            assert step == max(product, size), (v.one_line(), i)
