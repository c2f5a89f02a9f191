import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from conftest import swap_x
from hypothesis import example, given, settings, strategies as st

from keyseries import report
from keyseries.cli import main
from keyseries.config import ResourceCapError
from keyseries.report import canonical_json
from keyseries.permutation import Permutation, all_permutations
from keyseries.series import denominator_factors, numerator_P, numerator_step
from keyseries.poly import (
    MAX_EXP,
    NVARS,
    SparsePoly,
    Terms,
    divided_difference,
    pi,
    pi_word,
    pi_xi,
    series_inverse_product,
    series_product,
    series_quotient,
    x_exps,
)

coeffs = st.integers(min_value=-4, max_value=4).filter(bool)
monomials = st.tuples(
    st.lists(st.integers(0, 3), min_size=0, max_size=4).map(tuple),
    st.lists(st.integers(0, 2), min_size=0, max_size=3).map(tuple),
    st.integers(0, 2),
)
polys = st.dictionaries(monomials, coeffs, min_size=1, max_size=6).map(SparsePoly)
letters = st.integers(min_value=1, max_value=3)
SRC = Path(__file__).resolve().parents[1] / "src"


def test_exponent_helpers_roundtrip():
    assert x_exps((1, 1, 2, 4)) == (2, 1, 0, 1)
    assert x_exps(()) == ()


def test_constructor_drops_zeros_and_pads():
    p = SparsePoly({((1, 0), (), 0): 2, ((0, 1), (), 0): 0})
    assert p == 2 * SparsePoly.x_var(1)
    assert p.coefficient(x=(1,)) == 2
    assert list(p.exponent_items()) == [(((1,), (), 0), 2)]


def test_exponent_past_field_is_a_cap_error():
    with pytest.raises(ResourceCapError):
        SparsePoly.term(x=(0, MAX_EXP + 1))
    with pytest.raises(ResourceCapError):
        SparsePoly({((), (0, MAX_EXP + 1), 0): 1})
    with pytest.raises(ResourceCapError):
        SparsePoly.term(xi=MAX_EXP + 1)
    with pytest.raises(ResourceCapError):
        SparsePoly.x_var(NVARS + 1)
    with pytest.raises(ResourceCapError):
        SparsePoly.parse(f"1 + x1^{MAX_EXP + 1}")
    with pytest.raises(ResourceCapError):
        SparsePoly.parse(f"T{NVARS + 1}")
    with pytest.raises(ResourceCapError):
        SparsePoly.term(t=(MAX_EXP, 1))  # each field fits, the T-degree does not
    with pytest.raises(ValueError):
        SparsePoly.term(x=(-1,))
    edge = SparsePoly.term(x=(MAX_EXP,), t=(0, MAX_EXP))
    assert edge.coefficient(x=(MAX_EXP,), t=(0, MAX_EXP)) == 1
    assert edge.coefficient(x=(MAX_EXP + 1,)) == 0


def test_product_past_field_is_a_cap_error():
    x1, t1 = SparsePoly.x_var(1), SparsePoly.term(t=(1,))
    top = SparsePoly.term(x=(MAX_EXP,))
    with pytest.raises(ResourceCapError):
        top * x1
    with pytest.raises(ResourceCapError):
        (1 + x1) ** 2 * SparsePoly.term(x=(MAX_EXP - 1,))
    with pytest.raises(ResourceCapError):
        SparsePoly.term(t=(MAX_EXP,)).mul_trunc(t1, None)
    with pytest.raises(ResourceCapError):
        pi_xi(1, SparsePoly.term(x=(0, MAX_EXP)))
    with pytest.raises(ResourceCapError, match="exponent exceeds"):  # the xi field
        pi_xi(1, SparsePoly.x_var(1) + SparsePoly.term(xi=MAX_EXP))
    with pytest.raises(ResourceCapError):
        series_inverse_product([SparsePoly.term(x=(MAX_EXP // 2 + 1,), t=(1,))], 2)
    for D in (1, None):  # the overflowing term lands on the top level
        with pytest.raises(ResourceCapError):
            series_product(top, [x1 * t1], D)
    # ... or on a level the next factor reads: (1 + m)(1 - m) cancels it there,
    # and unchecked, x1^(2*MAX_EXP) * x1^MAX_EXP carries into x2 past every guard bit
    m = SparsePoly.term(x=(MAX_EXP,), t=(1,))
    with pytest.raises(ResourceCapError):
        series_product(top, [m, -m], 2)
    # N_{12,1} = 1 - x2*T1 pushes the x2 field of a source level of P_v past
    # MAX_EXP; pi_xi's shift by xi*x2 does so on the top level, never a source
    v, x2 = Permutation.identity(2), SparsePoly.term(x=(0, MAX_EXP))
    for xi_mode, tmax, p in ((False, 2, 1 + x2 * t1), (False, None, 1 + x2 * t1),
                             (True, 2, 1 + x2 * t1 * t1)):
        with pytest.raises(ResourceCapError, match="exponent exceeds"):
            numerator_step(p, v, 1, xi_mode, tmax)
    assert top * SparsePoly.x_var(2) == SparsePoly.term(x=(MAX_EXP, 1))


def test_overflow_raises_under_optimize():
    code = (
        "from keyseries.config import ResourceCapError\n"
        "from keyseries.poly import MAX_EXP, SparsePoly\n"
        "from keyseries.poly import pi_xi, series_product, series_quotient\n"
        "from keyseries.permutation import Permutation\n"
        "from keyseries.series import numerator_step\n"
        "f = SparsePoly.term(x=(MAX_EXP - 1,)) - 3 * SparsePoly.term(x=(0, 2), t=(1,))\n"
        "p = 1 + SparsePoly.term(x=(0, MAX_EXP), t=(1,))\n"
        "for make in (lambda: SparsePoly.term(x=(MAX_EXP + 1,)),\n"
        "             lambda: SparsePoly.term(x=(MAX_EXP,)) * SparsePoly.x_var(1),\n"
        "             lambda: series_quotient(f, [SparsePoly.term(x=(1,), t=(1,))], 2),\n"
        "             lambda: series_product(f, [SparsePoly.term(x=(2,), t=(1,))], 2),\n"
        "             lambda: numerator_step(p, Permutation.identity(2), 1, False, 2),\n"
        "             lambda: pi_xi(1, SparsePoly.term(x=(0, MAX_EXP)))):\n"
        "    try:\n"
        "        make()\n"
        "    except ResourceCapError:\n"
        "        print('raised')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["raised"] * 6


def test_arithmetic():
    x1, x2 = SparsePoly.x_var(1), SparsePoly.x_var(2)
    sq = (x1 + x2) ** 2
    assert sq == x1 * x1 + 2 * x1 * x2 + x2 * x2
    assert (sq - sq) == SparsePoly.zero()
    assert not SparsePoly.zero()
    assert 1 - SparsePoly.one() == SparsePoly.zero()


def test_display_order_and_text():
    assert (SparsePoly.x_var(2) + SparsePoly.x_var(1)).to_text() == "x1 + x2"
    assert SparsePoly.one().to_text() == "1"
    assert SparsePoly.zero().to_text() == "0"
    p = 1 - 2 * SparsePoly.x_var(1) * SparsePoly.term(t=(0, 1))
    assert p.to_text() == "1 - 2*x1*T2"


def test_slices_partition_the_poly():
    p = (1 + SparsePoly.x_var(1) * SparsePoly.term(t=(1,))) ** 3
    total = SparsePoly.zero()
    for d in range(p.t_degree() + 1):
        total = total + p.t_slice(d)
    assert total == p
    assert p.t_truncate(1) == p.t_slice(0) + p.t_slice(1)


def test_coefficient_accessors():
    p = 5 * SparsePoly.term(x=(2, 1), t=(0, 1), xi=1)
    assert p.coefficient(x=(2, 1), t=(0, 1), xi=1) == 5
    assert p.coefficient(x=(2, 1), t=(0, 1)) == 0
    assert p.t_coefficient((0, 1)) == 5 * SparsePoly.term(x=(2, 1), xi=1)
    assert p.xi_slice(1) == p


@given(polys)
def test_text_parse_roundtrip(p):
    assert SparsePoly.parse(p.to_text()) == p


@given(polys)
def test_json_roundtrip(p):
    assert SparsePoly.from_json_obj(p.to_json_obj()) == p


@pytest.mark.parametrize("obj", [
    {"terms": [{"coeff": 1, "x": {"0": 5}}]},
    {"terms": [{"coeff": 3, "x": {"-2": 1}, "T": {"0": 1}}]},
    {"terms": [{"coeff": 1, "T": {"0": 2}}]},
])
def test_json_rejects_a_variable_index_below_1(obj):
    with pytest.raises(ValueError, match="variable index must be >= 1"):
        SparsePoly.from_json_obj(obj)


@pytest.mark.parametrize("text", ["x0", "3*x1*T0", "x0^2 + 1"])
def test_text_rejects_a_variable_index_below_1(text):
    with pytest.raises(ValueError, match="variable index must be >= 1"):
        SparsePoly.parse(text)


@given(polys)
def test_sorted_terms_graded_order(p):
    # xi degree, then T-part, then x-part; a part by total degree, then
    # dominance-descending
    def part_key(exps):
        return sum(exps), tuple(-e for e in exps)

    want = sorted(p.exponent_items(), key=lambda mc: (
        mc[0][2], part_key(mc[0][1]), part_key(mc[0][0])))
    assert p.sorted_terms() == want


@given(polys)
def test_render_is_text_and_json_with_fresh_dicts(p):
    text, obj = p.render()
    assert (text, obj) == (p.to_text(), p.to_json_obj())
    dicts = [d for term in obj["terms"] for d in (term, term["x"], term["T"])]
    assert len({id(d) for d in dicts}) == len(dicts)


@given(polys, st.integers(0, 3))
@example(SparsePoly.zero(), 1)
@example(SparsePoly.parse("2*x1*x3^2*T1*xi - x1 + 3*T2^2"), 3)
def test_encoded_terms_are_the_json_of_the_decoded_dicts(p, depth):
    # The row table, bare or nested in the answer's shape, encodes to the
    # text of its decoded list, with a flush after every row, every third
    # piece and at the shipped size.
    text, obj = p.render()
    nest = [lambda v: v["terms"], lambda v: v,
            lambda v: {"command": "pw", "polynomial": v, "text": text},
            lambda v: {"a": [v, {"b": v}], "c": []}][depth]
    decoded = {"terms": list(obj["terms"])}
    want = json.dumps(nest(decoded), sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    for pieces in (1, 3, report.CHUNK_PIECES):
        with mock.patch.object(report, "CHUNK_PIECES", pieces):
            assert canonical_json(nest(obj)) == want


def test_encoding_terms_builds_no_term_dict(monkeypatch, capsys):
    p = SparsePoly.parse("2*x1*x3^2*T1*xi - x1 + 3*T2^2 + x2*T2^2")
    want = json.dumps({"terms": list(p.to_json_obj()["terms"])}, sort_keys=True, indent=2,
                      ensure_ascii=False) + "\n"
    decoded = []
    real_decode = Terms._decode
    monkeypatch.setattr(Terms, "_decode", staticmethod(
        lambda row: decoded.append(row) or real_decode(row)))
    assert canonical_json(p.to_json_obj()) == want
    assert main(["pw", "--w", "52341", "--tdeg", "3", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["polynomial"]["terms"]
    assert decoded == []
    assert len(p.to_json_obj()["terms"][1:3]) == 2 and len(decoded) == 2


def test_render_keeps_x_and_t_parts_apart():
    # x1 and T1 pack to the same part integer
    text, obj = (SparsePoly.x_var(1) + SparsePoly.term(t=(1,)) * SparsePoly.x_var(1)).render()
    assert text == "x1 + x1*T1"
    assert obj["terms"] == [
        {"coeff": 1, "x": {"1": 1}, "T": {}, "xi": 0},
        {"coeff": 1, "x": {"1": 1}, "T": {"1": 1}, "xi": 0},
    ]
    assert SparsePoly.term(t=(1,)).render()[0] == "T1"


@given(polys, letters)
def test_swap_is_involution(p, i):
    assert swap_x(swap_x(p, i), i) == p


@given(polys, letters)
def test_dd_square_zero(p, i):
    assert divided_difference(i, divided_difference(i, p)) == SparsePoly.zero()


@given(polys, letters)
def test_dd_output_symmetric(p, i):
    d = divided_difference(i, p)
    assert swap_x(d, i) == d


@given(polys, letters)
def test_pi_idempotent(p, i):
    q = pi(i, p)
    assert pi(i, q) == q
    assert swap_x(q, i) == q


@given(polys, letters)
def test_pi_xi_idempotent(p, i):
    q = pi_xi(i, p)
    assert pi_xi(i, q) == q


@given(polys, letters)
def test_pi_fixes_symmetric_and_extends_dd(p, i):
    sym = p + swap_x(p, i)
    assert pi(i, sym) == sym
    xi_poly = SparsePoly.x_var(i)
    assert pi(i, p) == divided_difference(i, xi_poly * p)


@pytest.mark.parametrize("i", [1, NVARS - 1])
@pytest.mark.parametrize("a, b", [(MAX_EXP, 0), (0, MAX_EXP), (MAX_EXP, MAX_EXP)])
def test_pi_at_the_top_exponent(i, a, b):
    # pi on x_i^a x_{i+1}^b is the sum of x_i^u x_{i+1}^(a+b-u) over b <= u <= a
    # if a >= b, and minus that sum over a < u < b otherwise.  At a = MAX_EXP the
    # operator reads the divided-difference row a + 1, one past every field.
    us, sign = (range(b, a + 1), 1) if a >= b else (range(a + 1, b), -1)
    pad = (0,) * (i - 1)
    closed = SparsePoly({(pad + (u, a + b - u), (), 0): sign for u in us})
    assert pi(i, SparsePoly.term(x=pad + (a, b))) == closed


@given(polys, polys, letters)
def test_dd_leibniz(p, q, i):
    lhs = divided_difference(i, p * q)
    rhs = divided_difference(i, p) * q + swap_x(p, i) * divided_difference(i, q)
    assert lhs == rhs


@pytest.mark.parametrize("op", [divided_difference, pi, pi_xi])
@given(p=polys)
@settings(max_examples=40)
def test_braid_relation(op, p):
    lhs = op(1, op(2, op(1, p)))
    rhs = op(2, op(1, op(2, p)))
    assert lhs == rhs


@pytest.mark.parametrize("op", [divided_difference, pi, pi_xi])
@given(p=polys)
@settings(max_examples=40)
def test_distant_letters_commute(op, p):
    assert op(1, op(3, p)) == op(3, op(1, p))


@given(polys)
@settings(max_examples=30)
def test_word_independence(p):
    for w in all_permutations(4):
        first, second = w.reduced_word(), w.reduced_word_alt()
        if first == second:
            continue
        assert pi_word(first, p) == pi_word(second, p)
        assert pi_word(first, p, xi_mode=True) == pi_word(second, p, xi_mode=True)


def chain_inverse(factors, D):
    """prod over factors c*m of 1/(1 - c*m) to T-degree D, as a chain of
    truncated products of geometric series: the oracle for series_quotient."""
    result = SparsePoly.one()
    for fac in factors:
        geom = power = SparsePoly.one()
        for _ in range(D // fac.t_degree()):
            power = power * fac
            geom = geom + power
        result = result.mul_trunc(geom, D)
    return result


@pytest.mark.parametrize("n", [4, pytest.param(5, marks=pytest.mark.slow)])
def test_series_quotient_matches_chain_inverse(n):
    for w in all_permutations(n):
        factors = denominator_factors(w, n)
        for D in range(5):
            inverse = chain_inverse(factors, D)
            for xi_mode in (False, True):
                p = numerator_P(w, xi_mode=xi_mode, tmax=D)
                assert series_quotient(p, factors, D) == p.mul_trunc(inverse, D), (w, D)


factor_terms = st.builds(
    lambda c, x, t: SparsePoly.term(coeff=c, x=tuple(x), t=tuple(t)),
    st.sampled_from([1, 1, -1, -2, 3]),
    st.lists(st.integers(0, 2), max_size=3),
    st.lists(st.integers(0, 2), min_size=1, max_size=3).filter(lambda t: 1 <= sum(t) <= 3),
)


@given(f=polys, ms=st.lists(factor_terms, max_size=4), D=st.integers(0, 5))
@example(f=SparsePoly.parse("1 - 2*x2*T1 + x1*xi*T2"),
         ms=[SparsePoly.parse("-2*x1*T1"), SparsePoly.parse("x2*T1*T2"),
             SparsePoly.parse("3*x1*T3^3")], D=5)
def test_series_quotient_roundtrip(f, ms, D):
    denominator = SparsePoly.one()
    for m in ms:
        denominator = denominator.mul_trunc(1 - m, D)
    assert series_quotient(f, ms, D).mul_trunc(denominator, D) == f.t_truncate(D)


def test_series_quotient_rejects():
    x1, t1 = SparsePoly.x_var(1), SparsePoly.term(t=(1,))
    with pytest.raises(ValueError, match="not a monomial"):
        series_quotient(SparsePoly.one(), [x1 * t1 + t1], 2)
    with pytest.raises(ValueError, match="no T part"):
        series_quotient(SparsePoly.one(), [x1], 2)
    with pytest.raises(ValueError, match=">= 0"):
        series_quotient(SparsePoly.one(), [x1 * t1], -1)
    assert series_quotient(x1, [x1 * t1], 2) == x1 + x1 * x1 * t1 + x1 ** 3 * t1 * t1


@given(f=polys, ms=st.lists(factor_terms, max_size=4), D=st.integers(0, 5))
@example(f=SparsePoly.parse("1 - 2*x2*T1 + x1*xi*T2"),
         ms=[SparsePoly.parse("-2*x1*T1"), SparsePoly.parse("x2*T1*T2"),
             SparsePoly.parse("3*x1*T3^3")], D=5)
def test_series_product_roundtrip(f, ms, D):
    # series_product multiplies by each 1 + c*m and series_quotient divides by
    # each 1 - c*m, so the factors change sign between the two
    negated = [-m for m in ms]
    assert series_quotient(series_product(f, negated, D), ms, D) == f.t_truncate(D)
    assert series_product(series_quotient(f, ms, D), negated, D) == f.t_truncate(D)


@given(f=polys, ms=st.lists(factor_terms, max_size=4))
def test_series_product_exact_is_mul_trunc(f, ms):
    product = f
    for m in ms:
        product = product.mul_trunc(1 + m, None)
    assert series_product(f, ms, None) == product


def test_series_product_rejects():
    x1, t1 = SparsePoly.x_var(1), SparsePoly.term(t=(1,))
    with pytest.raises(ValueError, match="not a monomial"):
        series_product(SparsePoly.one(), [x1 * t1 + t1], 2)
    with pytest.raises(ValueError, match="no T part"):
        series_product(SparsePoly.one(), [x1], 2)
    with pytest.raises(ValueError, match=">= 0"):
        series_product(SparsePoly.one(), [x1 * t1], -1)
    assert series_product(x1, [-x1 * t1, x1 * t1], 2) == x1 - x1 ** 3 * t1 * t1


def test_series_product_term_cap():
    # The cap bounds the terms held during the pass, not just the result:
    # x1 * (1 - m) * (1 + m) = x1 - x1*m^2 holds three terms on the way.
    x1, t1 = SparsePoly.x_var(1), SparsePoly.term(t=(1,))
    m = x1 * t1
    assert series_product(x1, [-m, m], 2, max_terms=3) == x1 - x1 * m * m
    with pytest.raises(ResourceCapError, match="max_terms=2"):
        series_product(x1, [-m, m], 2, max_terms=2)
    factors = [SparsePoly.x_var(j) * t1 for j in range(1, 5)]
    assert len(series_product(SparsePoly.one(), factors, None, max_terms=16).terms) == 16
    with pytest.raises(ResourceCapError):
        series_product(SparsePoly.one(), factors, None, max_terms=15)
