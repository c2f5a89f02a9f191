import random

import pytest

from keyseries.poly import SparsePoly


def swap_x(p, i):
    """The transposition of x_i and x_{i+1} applied to every term of p."""
    out = {}
    for (x, t, xi), c in p.exponent_items():
        x = list(x) + [0] * (i + 1 - len(x))
        x[i - 1], x[i] = x[i], x[i - 1]
        out[(tuple(x), t, xi)] = c
    return SparsePoly(out)


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
