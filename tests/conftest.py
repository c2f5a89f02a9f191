import random

import pytest

from keyseries.permutation import Permutation
from keyseries.poly import SparsePoly
from keyseries.series import numerator_step


def swap_x(p, i):
    """The transposition of x_i and x_{i+1} applied to every term of p."""
    out = {}
    for (x, t, xi), c in p.exponent_items():
        x = list(x) + [0] * (i + 1 - len(x))
        x[i - 1], x[i] = x[i], x[i - 1]
        out[(tuple(x), t, xi)] = c
    return SparsePoly(out)


def longest(n):
    """w_0 in S_n."""
    return Permutation(range(n, 0, -1))


def _greedy_word(w, smallest):
    word = []
    while w.core:
        descents = w.left_descents()
        i = descents[0] if smallest else descents[-1]
        word.append(i)
        w = w.left_mul_s(i)
    return tuple(word)


def reduced_word(w):
    """Canonical reduced word of w: repeatedly peel the smallest left descent.

    Returns (i_1, ..., i_r) with w = s_{i_1} s_{i_2} ... s_{i_r}.
    """
    return _greedy_word(w, smallest=True)


def reduced_word_alt(w):
    """Greedy largest-descent reduced word of w.

    Differs from `reduced_word` exactly when w has more than one reduced word
    (a unique greedy choice at every step forces uniqueness).
    """
    return _greedy_word(w, smallest=False)


def numerator_P_along(word, xi_mode=False, tmax=None):
    """P_w by the induction along an explicit reduced word of w (rightmost
    letter first), memoising nothing: an oracle for the value along any word
    against `numerator_P`, which follows the chain of first left descents.
    Raises ValueError if the word is not reduced.
    """
    word = tuple(word)
    if any(i < 1 for i in word):
        raise ValueError(f"word letters must be >= 1: {word}")
    v = Permutation.identity(max(word, default=0) + 1)
    out = SparsePoly.one()
    for i in reversed(word):
        if not v.is_ascent(i):
            raise ValueError(f"word {word} is not reduced at letter {i}")
        out = numerator_step(out, v, i, xi_mode, tmax)
        v = v.left_mul_s(i)
    return out


def make_poly(rng, nx=4, nt=2, max_terms=5, max_exp=3, with_xi=True):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        x = tuple(rng.randint(0, max_exp) for _ in range(nx))
        t = tuple(rng.randint(0, 2) for _ in range(nt))
        xi = rng.randint(0, 1) if with_xi else 0
        terms[(x, t, xi)] = rng.choice([-3, -2, -1, 1, 2, 3])
    return SparsePoly(terms)


@pytest.fixture
def rng():
    return random.Random(20260814)


@pytest.fixture
def poly_factory(rng):
    return lambda **kw: make_poly(rng, **kw)
