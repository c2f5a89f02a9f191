"""Span tracer that times the keyseries layers from outside the package.

``install()`` wraps each traced public function at every binding that holds
it: the defining module, every keyseries module that imported the name
(``from .poly import pi`` makes ``keyseries.series.pi`` a second binding),
module-level dicts of function references (``mults.SCANS``, ``mults.CHECKS``)
and class attributes (``SparsePoly.mul_trunc``).  A binding left unwrapped
would under-report silently, so ``install()`` fails if a target is missing.

Each call records one span: name, start, end and the enclosing span.  Spans
stay in memory in flat arrays; ``layer_metrics()`` turns them into calls and
self time per layer, where self time is a span's duration minus the time its
direct child spans cover (so recursion in ``numerator_P`` and ``pi_xi``
calling ``pi`` count once).  Cache sizes are read at the end, read-only.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array

# span name -> (module, attribute) of the functions it covers.  A name may
# cover several functions; "mults.sweep" is the check or scan function that
# drives a whole sweep.
TARGETS = {
    "poly.mul_trunc": [("keyseries.poly", "SparsePoly.mul_trunc")],
    "poly.pi": [("keyseries.poly", "pi")],
    "poly.pi_xi": [("keyseries.poly", "pi_xi")],
    "poly.series_inverse_product": [("keyseries.poly", "series_inverse_product")],
    "bseq.enum_A": [("keyseries.bseq", "enum_A")],
    "multisets.enum_B": [("keyseries.multisets", "enum_B")],
    "multisets.enum_Btilde": [("keyseries.multisets", "enum_Btilde")],
    "multisets.enum_C": [("keyseries.multisets", "enum_C")],
    "multisets.presentations": [("keyseries.multisets", "presentations")],
    "series.numerator_P": [("keyseries.series", "numerator_P")],
    "series.n_factor_product": [("keyseries.series", "n_factor_product")],
    "series.series_Kw_direct": [("keyseries.series", "series_Kw_direct")],
    "series.verify_form": [("keyseries.series", "verify_form")],
    "series.key": [
        ("keyseries.series", "key_polynomial"),
        ("keyseries.series", "lascoux_polynomial"),
        ("keyseries.series", "key_by_composition"),
    ],
    "mults.quadratic_multiplicities": [("keyseries.mults", "quadratic_multiplicities")],
    "mults.cubic_multiplicities": [("keyseries.mults", "cubic_multiplicities")],
    "mults.sweep": [("keyseries.series", "suite_formofkw"), ("keyseries.series", "suite_pxiw1")]
    + [("keyseries.mults", name) for name in (
        "check_quadratic_support", "check_diff1", "check_diff2", "check_lketa23",
        "check_lowbdr2", "check_multsiw", "scan_poset", "scan_siinc",
        "scan_formpw3", "scan_formpw2bound",
    )],
    "report.canonical_json": [("keyseries.report", "canonical_json")],
    "cli.main": [("keyseries.cli", "main")],
}


def _terms_in(c, args, result):
    c["poly.pi.terms_in"] += len(args[1].terms)


def _mul_counts(c, args, result):
    c["poly.mul_trunc.pairs"] += len(args[0].terms) * len(args[1].terms)
    c["poly.mul_trunc.terms_out"] += len(result.terms)


def _c_elements(c, args, result):
    c["multisets.enum_C.elements"] += len(result)


def _out_bytes(c, args, result):
    c["report.out_bytes"] += len(result.encode("utf-8"))


# Work counters computed from a call's arguments and result, outside its span.
COUNTERS = {
    "poly.pi": _terms_in,
    "poly.mul_trunc": _mul_counts,
    "multisets.enum_C": _c_elements,
    "report.canonical_json": _out_bytes,
}

# The per-layer metrics of a traced run, in the order BENCHMARK.json lists them.
CALLS = (
    "poly.mul_trunc", "poly.pi", "poly.pi_xi", "bseq.enum_A", "multisets.enum_B",
    "multisets.enum_C", "multisets.presentations", "series.numerator_P",
    "series.key", "mults.quadratic_multiplicities", "mults.cubic_multiplicities",
    "cli.main",
)
SELF = (
    "poly.mul_trunc", "poly.pi", "poly.pi_xi", "poly.series_inverse_product",
    "bseq.enum_A", "multisets.enum_B", "multisets.enum_Btilde", "multisets.enum_C",
    "multisets.presentations", "series.numerator_P", "series.n_factor_product",
    "series.series_Kw_direct", "series.verify_form", "series.key",
    "mults.quadratic_multiplicities", "mults.cubic_multiplicities", "mults.sweep",
    "report.canonical_json", "cli.main",
)
COUNTS = (
    "poly.mul_trunc.pairs", "poly.mul_trunc.terms_out", "poly.pi.terms_in",
    "multisets.enum_C.elements", "report.out_bytes",
)
CACHES = ("bseq.cache_entries", "multisets.cache_entries", "series.cache_entries",
          "series.cache_terms")


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = {f"{name}.calls": "count" for name in CALLS}
    units.update({f"{name}.self_s": "s" for name in SELF})
    units.update({name: ("bytes" if name.endswith("bytes") else "count") for name in COUNTS})
    units.update({name: "count" for name in CACHES})
    return units


class Tracer:
    """In-memory span recorder.  Span i is (name[i], start[i], end[i], parent[i])."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counters = dict.fromkeys(COUNTS, 0)

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        count = COUNTERS.get(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, counters, clock = self.stack, self.counters, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                count(counters, args, result)
            return result

        return traced

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, summed self time in seconds)."""
        n = len(self.name)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out: dict[str, list] = {}
        for i in range(n):
            row = out.setdefault(self.names[self.name[i]], [0, 0.0])
            row[0] += 1
            row[1] += self.end[i] - self.start[i] - covered[i]
        return {name: (row[0], row[1]) for name, row in out.items()}

    def dump(self, path: str) -> None:
        """Write every span as one tab-separated line (gzip): index, name,
        start and end in seconds from the first span, parent index (-1: none)."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self.name)):
                fh.write(f"{i}\t{self.names[self.name[i]]}\t{self.start[i] - t0:.9f}"
                         f"\t{self.end[i] - t0:.9f}\t{self.parent[i]}\n")


def _resolve(modname: str, attr: str):
    obj = sys.modules[modname]
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def install(tracer: Tracer) -> None:
    """Wrap every target at every binding in the imported keyseries modules."""
    import keyseries.cli  # noqa: F401  (imports every traced module)

    originals: dict[int, tuple[str, object]] = {}
    for name, places in TARGETS.items():
        for modname, attr in places:
            fn = _resolve(modname, attr)
            originals[id(fn)] = (name, fn)
    wrappers = {key: tracer.wrap(name, fn) for key, (name, fn) in originals.items()}

    modules = [m for key, m in sorted(sys.modules.items())
               if key == "keyseries" or key.startswith("keyseries.")]
    patched: set[int] = set()
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers and value is originals[id(value)][1]:
                setattr(module, attr, wrappers[id(value)])
                patched.add(id(value))
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in wrappers and item is originals[id(item)][1]:
                        value[key] = wrappers[id(item)]
            elif isinstance(value, type) and value.__module__ == module.__name__:
                for cattr, cvalue in list(vars(value).items()):
                    if id(cvalue) in wrappers and cvalue is originals[id(cvalue)][1]:
                        setattr(value, cattr, wrappers[id(cvalue)])
                        patched.add(id(cvalue))
    missing = [originals[key][0] for key in originals if key not in patched]
    if missing:
        raise RuntimeError(f"trace targets not bound anywhere: {sorted(set(missing))}")


def cache_sizes() -> dict[str, int]:
    """Entries held by the program's module-level caches, read at the end."""
    from keyseries import bseq, multisets, series

    held = list(series._P_CACHE.values()) + list(series._KEY_CACHE.values())
    return {
        "bseq.cache_entries": len(bseq._A_CACHE) + len(bseq._A_SET_CACHE),
        "multisets.cache_entries": len(multisets._BTILDE_CACHE),
        "series.cache_entries": len(series._P_CACHE) + len(series._KEY_CACHE),
        "series.cache_terms": sum(len(p.terms) for p in held),
    }


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric of a finished traced run."""
    times = tracer.self_times()
    out: dict[str, float] = {}
    for name in CALLS:
        out[f"{name}.calls"] = times.get(name, (0, 0.0))[0]
    for name in SELF:
        out[f"{name}.self_s"] = times.get(name, (0, 0.0))[1]
    out.update(tracer.counters)
    out.update(cache_sizes())
    return out
