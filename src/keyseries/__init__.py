"""Exact combinatorics of key and Lascoux polynomial generating series.

The block generating series of a permutation is a rational function: a
numerator polynomial over a product of geometric factors indexed by bounded
ascending sequences.  This package computes everything exactly (polynomials,
numerators, the multiset sets behind the quadratic and cubic slices), verifies
the closed formulas and transfer rules, and scans the open conjectures for
counterexamples.
"""

__version__ = "0.1.0"

import re
import sys

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
    "cache_stats",
    "clear_caches",
]


def _memo_tables():
    """(label, table) for every memo table in the package, found by name, not
    listed: each module-level `_*_CACHE` dict and each lru_cache defined in a
    keyseries module, labelled `module.name`.  Only imported modules are
    read, as a module never imported holds nothing."""
    prefix = f"{__name__}."
    for modname in sorted(m for m in sys.modules if m.startswith(prefix)):
        for name, obj in vars(sys.modules[modname]).items():
            if re.fullmatch(r"_\w+_CACHE", name) and isinstance(obj, dict):
                yield f"{modname[len(prefix):]}.{name}", obj
            elif hasattr(obj, "cache_info") and obj.__module__ == modname:
                yield f"{modname[len(prefix):]}.{name}", obj


def cache_stats() -> dict[str, int]:
    """Entries held per memo table: keys, numerators, the A, B-tilde, B and C
    sets, level selections and the one pair table, which serves both
    divided_difference and pi."""
    return {
        label: table.cache_info().currsize if hasattr(table, "cache_info") else len(table)
        for label, table in _memo_tables()
    }


def clear_caches() -> None:
    """Empty every memo table that `cache_stats` reports."""
    for _, table in _memo_tables():
        if hasattr(table, "cache_clear"):
            table.cache_clear()
        else:
            table.clear()
