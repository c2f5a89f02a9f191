"""Exact combinatorics of key and Lascoux polynomial generating series.

The block generating series of a permutation is a rational function: a
numerator polynomial over a product of geometric factors indexed by bounded
ascending sequences.  This package computes everything exactly (polynomials,
numerators, the multiset sets behind the quadratic and cubic slices), verifies
the closed formulas and transfer rules, and scans the open conjectures for
counterexamples.
"""

__version__ = "0.1.0"

from . import bseq, counts, multisets, poly, series
from .bseq import enum_A, moved_levels, split_A
from .counts import F_coefficient, approx_coefficient, polytope_point_count
from .multisets import enum_B, enum_Btilde, enum_C, enum_Ctilde, presentations
from .mults import (
    cubic_multiplicities,
    multiplicity2,
    multiplicity3,
    quadratic_multiplicities,
)
from .permutation import Permutation, all_permutations, parse_permutation
from .poly import SparsePoly, divided_difference, pi, pi_word, pi_xi
from .series import (
    key_polynomial,
    lascoux_polynomial,
    numerator_P,
    series_Kw_direct,
    verify_form,
)

__all__ = [
    "__version__",
    "Permutation",
    "all_permutations",
    "parse_permutation",
    "SparsePoly",
    "pi",
    "pi_xi",
    "pi_word",
    "divided_difference",
    "enum_A",
    "split_A",
    "moved_levels",
    "enum_Btilde",
    "enum_B",
    "enum_Ctilde",
    "enum_C",
    "presentations",
    "key_polynomial",
    "lascoux_polynomial",
    "numerator_P",
    "series_Kw_direct",
    "verify_form",
    "quadratic_multiplicities",
    "cubic_multiplicities",
    "multiplicity2",
    "multiplicity3",
    "F_coefficient",
    "approx_coefficient",
    "polytope_point_count",
    "clear_caches",
]


def clear_caches() -> None:
    """Empty every memo table in the package: keys, numerators, the A, B-tilde,
    B and C sets, level selections and the pi/divided-difference pair tables."""
    series._KEY_CACHE.clear()
    series._P_CACHE.clear()
    bseq._A_CACHE.clear()
    bseq._A_SET_CACHE.clear()
    multisets._BTILDE_CACHE.clear()
    multisets._B_CACHE.clear()
    multisets._C_CACHE.clear()
    counts._level_selections.cache_clear()
    poly._pi_pair.cache_clear()
    poly._dd_pair.cache_clear()
