"""Point-evaluation oracle for the polynomial kernel.

Inputs are built through the public constructor from exponent-tuple maps and
evaluated from those maps directly, with exact Fraction arithmetic at random
integer points.  The identities below are the operators' definitions, so this
shares no code with the packed representation: only the results are read
back, through ``exponent_items``.  Evaluation is graded by total T-degree, so
truncated products can be checked degree by degree.
"""

from fractions import Fraction

from conftest import swap_x
from hypothesis import assume, given, strategies as st

from keyseries.poly import (
    SparsePoly, divided_difference, pi, pi_xi, series_product, series_quotient,
)

NX, NT = 4, 3

exponents = st.tuples(
    st.tuples(*[st.integers(0, 3)] * NX),
    st.tuples(*[st.integers(0, 2)] * NT),
    st.integers(0, 2),
)
# fixed-length exponent tuples, so distinct keys stay distinct monomials
maps = st.dictionaries(
    exponents, st.integers(-4, 4).filter(bool), min_size=1, max_size=6
)
points = st.tuples(
    st.tuples(*[st.integers(-5, 5)] * NX),
    st.tuples(*[st.integers(-3, 3)] * NT),
    st.integers(-3, 3),
)
letters = st.integers(1, NX - 1)
# monomials c*m with T-degree >= 1, the factors 1 - c*m of series_quotient
# and 1 + c*m of series_product
factors = st.lists(
    st.builds(lambda e, c: SparsePoly.term(c, *e),
              exponents.filter(lambda e: any(e[1])), st.integers(-2, 2).filter(bool)),
    min_size=1, max_size=3,
)


def graded(items, point) -> dict[int, Fraction]:
    """{T-degree: value} of ((x, t, xi), coeff) pairs at a point."""
    xs, ts, xi_value = point
    out: dict[int, Fraction] = {}
    for (x, t, e), c in items:
        v = Fraction(c) * xi_value**e
        for base, k in zip(xs, x):
            v *= base**k
        for base, k in zip(ts, t):
            v *= base**k
        out[sum(t)] = out.get(sum(t), 0) + v
    return out


def value(items, point) -> Fraction:
    return sum(graded(items, point).values(), Fraction(0))


def at(poly: SparsePoly, point) -> Fraction:
    return value(poly.exponent_items(), point)


def swapped(point, i):
    xs, ts, xi_value = point
    xs = list(xs)
    xs[i - 1], xs[i] = xs[i], xs[i - 1]
    return tuple(xs), ts, xi_value


@given(maps, points)
def test_construction_evaluates_like_its_map(m, p):
    got, want = graded(SparsePoly(m).exponent_items(), p), graded(m.items(), p)
    for d in set(got) | set(want):
        assert got.get(d, 0) == want.get(d, 0)


@given(maps, points, letters)
def test_divided_difference_at_points(m, p, i):
    f = m.items()
    lhs = (p[0][i - 1] - p[0][i]) * at(divided_difference(i, SparsePoly(m)), p)
    assert lhs == value(f, p) - value(f, swapped(p, i))


@given(maps, points, letters)
def test_pi_at_points(m, p, i):
    xa, xb = p[0][i - 1], p[0][i]
    assume(xa != xb)
    f = m.items()
    expect = (xa * value(f, p) - xb * value(f, swapped(p, i))) / (xa - xb)
    assert at(pi(i, SparsePoly(m)), p) == expect


@given(maps, points, letters)
def test_pi_xi_at_points(m, p, i):
    xa, xb = p[0][i - 1], p[0][i]
    assume(xa != xb)
    xi_value = p[2]
    f = m.items()
    g_here = (1 + xi_value * xb) * value(f, p)
    g_swapped = (1 + xi_value * xa) * value(f, swapped(p, i))
    expect = (xa * g_here - xb * g_swapped) / (xa - xb)
    assert at(pi_xi(i, SparsePoly(m)), p) == expect


@given(maps, maps, points)
def test_product_at_points(m1, m2, p):
    product = SparsePoly(m1).mul_trunc(SparsePoly(m2), None)
    assert at(product, p) == value(m1.items(), p) * value(m2.items(), p)


@given(maps, maps, points, st.integers(0, 4))
def test_truncated_product_by_degree(m1, m2, p, tmax):
    g1, g2 = graded(m1.items(), p), graded(m2.items(), p)
    expect: dict[int, Fraction] = {}
    for d1, v1 in g1.items():
        for d2, v2 in g2.items():
            if d1 + d2 <= tmax:
                expect[d1 + d2] = expect.get(d1 + d2, 0) + v1 * v2
    got = graded(SparsePoly(m1).mul_trunc(SparsePoly(m2), tmax).exponent_items(), p)
    assert set(got) <= set(range(tmax + 1))
    for d in range(tmax + 1):
        assert got.get(d, 0) == expect.get(d, 0)


@given(maps, factors, points, st.integers(0, 6))
def test_series_product_by_degree(m, facs, p, D):
    expect = graded(m.items(), p)
    for fac in facs:
        ((exps, c),) = fac.exponent_items()
        shift, v = sum(exps[1]), c * value([(exps, 1)], p)
        step = dict(expect)
        for d, val in expect.items():
            step[d + shift] = step.get(d + shift, 0) + v * val
        expect = step
    got = graded(series_product(SparsePoly(m), facs, D).exponent_items(), p)
    assert set(got) <= set(range(D + 1))
    for d in range(D + 1):
        assert got.get(d, 0) == expect.get(d, 0)


@given(maps, maps, letters, factors, st.integers(0, 4))
def test_results_store_no_zero(m1, m2, i, facs, tmax):
    # A stored zero is invisible to point evaluation but breaks ==, which
    # compares term dicts.  The second input of each operator cancels to zero
    # in whole or in part, so the deletion of zero sums is reached.
    f, g = SparsePoly(m1), SparsePoly(m2)
    symmetric = f + swap_x(f, i)
    denominator = SparsePoly.one()
    for fac in facs:
        denominator = denominator * (1 - fac)
    results = [
        divided_difference(i, f), divided_difference(i, symmetric + g),
        pi(i, f), pi(i, symmetric - SparsePoly.x_var(i + 1) * g),
        pi_xi(i, f), pi_xi(i, symmetric + g),
        f.mul_trunc(g, None), f.mul_trunc(g, tmax), (f + g).mul_trunc(f - g, tmax),
        series_quotient(f, facs, tmax), series_quotient(f * denominator, facs, tmax),
        series_product(f, facs, tmax), series_product(f, facs, None),
        series_product(series_quotient(f, facs, tmax), [-fac for fac in facs], tmax),
    ]
    for result in results:
        assert 0 not in result.terms.values()
    assert divided_difference(i, symmetric) == SparsePoly.zero()
    assert series_quotient(f * denominator, facs, tmax) == f.t_truncate(tmax)
    assert results[-1] == f.t_truncate(tmax)
