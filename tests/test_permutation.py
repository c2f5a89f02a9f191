import itertools

import pytest
from hypothesis import given, strategies as st

from keyseries.permutation import (
    Permutation,
    all_permutations,
    chain_value,
    cover_mismatches,
    descent_walk,
    parse_permutation,
    sweep,
)

perms = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.permutations(range(1, n + 1))
).map(Permutation)


def test_parse_digits_and_commas():
    assert parse_permutation("42531").values == (4, 2, 5, 3, 1)
    assert parse_permutation("4,2,5,3,1") == parse_permutation("42531")
    assert parse_permutation("10,2,3,4,5,6,7,8,9,1").n == 10


@pytest.mark.parametrize("bad", ["", "1224", "132 4", "0,1", "2,3"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_permutation(bad)


def test_core_ignores_fixed_tail():
    assert parse_permutation("21345") == parse_permutation("21")
    assert hash(parse_permutation("21345")) == hash(parse_permutation("21"))
    assert parse_permutation("21").one_line() == "21"


def test_values_beyond_rank_are_fixed():
    w = parse_permutation("321")
    assert w(5) == 5
    assert w.position(7) == 7


def test_length_and_longest():
    assert parse_permutation("42531").length() == 7
    for n in range(1, 6):
        assert Permutation.longest(n).length() == n * (n - 1) // 2
    assert Permutation.identity(4).length() == 0


def test_left_mul_swaps_values():
    w = parse_permutation("42531")
    assert w.left_mul_s(1).values == (4, 1, 5, 3, 2)
    assert w.left_mul_s(4).values == (5, 2, 4, 3, 1)


def test_ascent_matches_length_step():
    for w in all_permutations(4):
        for i in range(1, 4):
            grows = w.left_mul_s(i).length() == w.length() + 1
            assert w.is_ascent(i) == grows


def test_reduced_words_multiply_back():
    for w in all_permutations(4):
        for word in (w.reduced_word(), w.reduced_word_alt()):
            assert len(word) == w.length()
            # s_{i_1} ... s_{i_r} applied to the identity, rightmost letter first
            built = Permutation.identity(4)
            for i in reversed(word):
                built = built.left_mul_s(i)
            assert built == w


def test_greedy_words_differ_for_braid():
    w = parse_permutation("321")
    assert w.reduced_word() != w.reduced_word_alt()
    assert parse_permutation("21").reduced_word() == (1,)


def test_all_permutations_distinct():
    group = list(all_permutations(4))
    assert len(group) == 24
    assert len({w.values for w in group}) == 24


@given(perms)
def test_inverse_roundtrip(w):
    inverse = Permutation(w.position(v) for v in range(1, w.n + 1))
    assert w * inverse == inverse * w == Permutation.identity(w.n)
    assert all(inverse(w(j)) == j for j in range(1, w.n + 1))


@given(perms, perms)
def test_product_is_composition(u, v):
    m = max(u.n, v.n)
    prod = u * v
    for j in range(1, m + 1):
        assert prod(j) == u(v(j))


@given(perms)
def test_one_line_parse_roundtrip(w):
    assert parse_permutation(w.one_line()) == w


class _Tracked:
    """A carried value that counts the instances alive."""

    alive = 0

    def __init__(self):
        _Tracked.alive += 1

    def __del__(self):
        _Tracked.alive -= 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_descent_walk_holds_one_path(n):
    # Each child is s_i v with i its first left descent, and at every w the
    # walk holds the values on the root-to-w path only: length(w) + 1.
    carry = (_Tracked(), lambda value, v, i: _Tracked())
    count = 0
    for w, value in descent_walk(n, carry):
        count += 1
        assert _Tracked.alive == w.length() + 1
        del value
    assert count == len(list(all_permutations(n)))
    del carry


def test_descent_walk_tree():
    # Parent of w is s_i w for i the first left descent of w.
    order = [w.values for w, _ in descent_walk(3)]
    assert order == [(1, 2, 3), (2, 1, 3), (3, 1, 2), (3, 2, 1), (1, 3, 2), (2, 3, 1)]
    with pytest.raises(ValueError):
        list(descent_walk(0))


def _word_carry(steps):
    """Carries the letters stepped from the identity, counting each step."""

    def step(word, v, i):
        steps.append(i)
        return word + (i,)

    return (), step


@pytest.mark.parametrize("n", [1, 3, 5])
def test_chain_value_follows_first_left_descents(n):
    # The chain of w steps the letters of its canonical reduced word, last
    # letter first, and meets the value the walk hands w.
    steps = []
    carry = _word_carry(steps)
    for w, value in descent_walk(n, carry):
        assert chain_value(w, carry) == value == tuple(reversed(w.reduced_word()))


def test_chain_value_memo_holds_the_chain():
    steps = []
    carry = _word_carry(steps)
    for w in all_permutations(4):
        memo = {}
        chain_value(w, carry, memo, tag="t")
        assert len(memo) == w.length() + 1
        assert all(tag == "t" for tag, _ in memo)
        v = w
        for i in w.reduced_word():
            assert memo[("t", v.core)] == tuple(reversed(v.reduced_word()))
            v = v.left_mul_s(i)
    # a second call reuses the stored prefix and steps only what is missing
    w = Permutation.longest(4)
    word = w.reduced_word()
    memo = {}
    chain_value(w.left_mul_s(word[0]).left_mul_s(word[1]), carry, memo)
    assert len(memo) == 5
    steps.clear()
    assert chain_value(w, carry, memo) == tuple(reversed(word))
    assert steps == [word[1], word[0]] and len(memo) == 7
    steps.clear()
    assert chain_value(w, carry, memo) == tuple(reversed(word))
    assert steps == []


@pytest.mark.parametrize("n, off_tree", [(3, 1), (4, 13), (5, 121)])
def test_cover_mismatches_are_the_covers_off_the_tree(n, off_tree):
    # A carry whose value is its word differs on every cover that is not a
    # tree edge; the length, the same along every word, differs on none.
    word_carry = ((), lambda word, v, i: word + (i,))
    length_carry = (0, lambda length, v, i: length + 1)
    for carry, expected in ((word_carry, off_tree), (length_carry, 0)):
        path, found = [], 0
        for w, value in descent_walk(n, carry):
            path[w.length():] = [(w, value)]
            bad = cover_mismatches(path, carry)
            assert all(w.is_ascent(i) and w.left_mul_s(i).left_descents()[0] != i for i in bad)
            found += len(bad)
        assert found == expected


def test_sweep_without_carry_keeps_one_line_order():
    out = sweep("order", 4, lambda w: ([w.one_line()], {"seen": 1}))
    assert out.counterexamples == [w.one_line() for w in all_permutations(4)]
    assert out.stats == {"seen": 24}
