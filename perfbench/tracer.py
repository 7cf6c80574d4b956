"""Span tracer for the benchmark, installed from outside the package.

``Tracer.install`` replaces the public functions of the layer modules
(``qseries``, ``specialfn``, ``characters``, ``modular``, ``suites``,
``cli``), a few ``QExpansion`` methods, the suite dispatch table and the
public functions of ``numpy.linalg`` with timing wrappers.  A function
imported by name into another module (``from .specialfn import eta``) is a
separate binding, so every module of the package is scanned, together with
the dispatch dicts held in module globals, and each binding of an original
is replaced.  ``uninstall`` puts every original back.

A span's self time is its duration minus the durations of the spans it
called directly.  Work counters run after the span closes and their cost is
charged to no span's self time.
"""

from __future__ import annotations

import inspect
import sys
import time
from fractions import Fraction

MARK = "__perfbench_span__"
_MISSING = object()

LAYER_MODULES = ("qseries", "specialfn", "characters", "modular", "suites", "cli")

QEXPANSION_SPANS = {
    "__mul__": "qseries.mul",
    "__rmul__": "qseries.mul",
    "__add__": "qseries.add",
    "__radd__": "qseries.add",
    "reciprocal": "qseries.reciprocal",
    "evaluate": "qseries.evaluate",
    "to_json_dict": "qseries.to_json",
}

PRODUCTS = ("specialfn.eta", "specialfn.frak_f", "specialfn.frak_f1", "specialfn.frak_f2")
THETA_SUMS = ("specialfn.theta", "specialfn.theta_deriv", "specialfn.g_series", "specialfn.g_deriv")
CLOSURE = ("modular.closure_rank", "modular.closure_under_s_t", "modular.evaluate_basis_function")

# Work counts that must repeat exactly for one seed.
EXACT_COUNTS = (
    "qseries.mul.pairs",
    "qseries.evaluate.terms",
    "qseries.max_terms",
    "qseries.max_coeff_bits",
)


class SpanStats:
    __slots__ = ("calls", "self_s", "total_s", "depth")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0  # outermost calls only, so recursion is not counted twice
        self.depth = 0


def _coeff_bits(series) -> int:
    bits = 0
    for _, c in series.terms:
        if isinstance(c, Fraction):
            bits = max(bits, abs(c.numerator).bit_length(), c.denominator.bit_length())
    return bits


def _note_series(counts, series) -> None:
    counts["qseries.max_terms"] = max(counts["qseries.max_terms"], len(series))
    counts["qseries.max_coeff_bits"] = max(counts["qseries.max_coeff_bits"], _coeff_bits(series))


def _count_mul(counts, args, result) -> None:
    a, b = args
    if hasattr(b, "terms"):
        counts["qseries.mul.pairs"] += len(a) * len(b)
    if hasattr(result, "terms"):
        _note_series(counts, result)


def _count_evaluate(counts, args, result) -> None:
    counts["qseries.evaluate.terms"] += len(args[0])


def _count_result(counts, args, result) -> None:
    if hasattr(result, "terms"):
        _note_series(counts, result)


COUNTERS = {
    "qseries.mul": _count_mul,
    "qseries.add": _count_result,
    "qseries.reciprocal": _count_result,
    "qseries.product_expansion": _count_result,
    "qseries.evaluate": _count_evaluate,
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict = {}
        self.counts = dict.fromkeys(EXACT_COUNTS, 0)
        self._open = [0.0]  # child time of each open span; index 0 is the root
        self._patches: list = []

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------

    def wrap(self, name: str, fn, count=None):
        stats = self.stats.setdefault(name, SpanStats())
        clock, open_spans, counts = self.clock, self._open, self.counts

        def span(*args, **kwargs):
            open_spans.append(0.0)
            stats.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = open_spans.pop()
                open_spans[-1] += dt
                stats.calls += 1
                stats.self_s += dt - inner
                stats.depth -= 1
                if stats.depth == 0:
                    stats.total_s += dt
            if count is not None:
                t1 = clock()
                count(counts, args, result)
                open_spans[-1] += clock() - t1
            return result

        span.__name__ = getattr(fn, "__name__", name)
        span.__doc__ = getattr(fn, "__doc__", None)
        span.__wrapped__ = fn
        if hasattr(fn, "cache_info"):
            span.cache_info = fn.cache_info
            span.cache_clear = fn.cache_clear
        setattr(span, MARK, name)
        return span

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def install(self) -> None:
        import numpy.linalg

        import supertriplet.cli  # noqa: F401  (loads every layer module)
        from supertriplet import suites
        from supertriplet.qseries import QExpansion

        names = {}  # id(original) -> span name
        originals = {}
        for short in LAYER_MODULES:
            mod = sys.modules[f"supertriplet.{short}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not _is_function(obj):
                    continue
                if getattr(obj, "__module__", None) == mod.__name__:
                    names[id(obj)] = f"{short}.{attr}"
                    originals[id(obj)] = obj
        for attr, span_name in QEXPANSION_SPANS.items():
            obj = vars(QExpansion)[attr]
            names[id(obj)] = span_name
            originals[id(obj)] = obj
        for suite, obj in suites._SUITES.items():
            names[id(obj)] = f"suites.{suite}"
            originals[id(obj)] = obj
        for attr, obj in vars(numpy.linalg).items():
            if _is_linalg_function(attr, obj):
                names[id(obj)] = f"numpy.linalg.{attr}"
                originals[id(obj)] = obj

        wrappers = {
            key: self.wrap(names[key], obj, COUNTERS.get(names[key]))
            for key, obj in originals.items()
        }
        def is_original(obj):
            return originals.get(id(obj), _MISSING) is obj

        for mod in _package_modules():
            namespace = vars(mod)
            for attr, obj in list(namespace.items()):
                if is_original(obj):
                    self._patch(namespace, attr, wrappers[id(obj)], setattr_on=mod)
                elif isinstance(obj, dict) and attr != "__builtins__":
                    for key, value in list(obj.items()):
                        if is_original(value):
                            self._patch(obj, key, wrappers[id(value)])
        for attr in QEXPANSION_SPANS:
            obj = vars(QExpansion)[attr]
            self._patch(vars(QExpansion), attr, wrappers[id(obj)], setattr_on=QExpansion)
        for attr, obj in list(vars(numpy.linalg).items()):
            if is_original(obj):
                self._patch(vars(numpy.linalg), attr, wrappers[id(obj)], setattr_on=numpy.linalg)

    def _patch(self, mapping, key, wrapper, setattr_on=None) -> None:
        original = mapping[key]
        if setattr_on is None:
            mapping[key] = wrapper
        else:
            setattr(setattr_on, key, wrapper)
        self._patches.append((mapping, key, original, setattr_on))

    def uninstall(self) -> None:
        while self._patches:
            mapping, key, original, setattr_on = self._patches.pop()
            if setattr_on is None:
                mapping[key] = original
            else:
                setattr(setattr_on, key, original)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def _select(self, names):
        return [self.stats[n] for n in names if n in self.stats]

    def _prefixed(self, prefix):
        return [s for n, s in self.stats.items() if n.startswith(prefix)]

    def layer_metrics(self) -> dict:
        """Per-layer metrics of the traced workload, as name -> (value, unit)."""
        from supertriplet import specialfn

        def calls(spans):
            return sum(s.calls for s in spans)

        def self_s(spans):
            return sum(s.self_s for s in spans)

        def total_s(spans):
            return sum(s.total_s for s in spans)

        def one(name):
            return self._select([name])

        hits = misses = 0
        for name in PRODUCTS:
            info = getattr(specialfn, name.split(".")[1]).cache_info()
            hits += info.hits
            misses += info.misses
        products = self._select(PRODUCTS)
        return {
            "qseries.mul.calls": (calls(one("qseries.mul")), "count"),
            "qseries.mul.pairs": (self.counts["qseries.mul.pairs"], "count"),
            "qseries.mul.self_s": (self_s(one("qseries.mul")), "s"),
            "qseries.reciprocal.calls": (calls(one("qseries.reciprocal")), "count"),
            "qseries.reciprocal.self_s": (self_s(one("qseries.reciprocal")), "s"),
            "qseries.add.self_s": (self_s(one("qseries.add")), "s"),
            "qseries.max_terms": (self.counts["qseries.max_terms"], "count"),
            "qseries.max_coeff_bits": (self.counts["qseries.max_coeff_bits"], "bits"),
            "qseries.evaluate.calls": (calls(one("qseries.evaluate")), "count"),
            "qseries.evaluate.terms": (self.counts["qseries.evaluate.terms"], "count"),
            "qseries.evaluate.self_s": (self_s(one("qseries.evaluate")), "s"),
            "qseries.to_json.self_s": (self_s(one("qseries.to_json")), "s"),
            "cli.self_s": (self_s(self._prefixed("cli.")), "s"),
            "cli.requests": (calls(one("cli.main")), "count"),
            "specialfn.products.calls": (calls(products), "count"),
            "specialfn.products.s": (total_s(products), "s"),
            "specialfn.products.cache_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
            "specialfn.theta.self_s": (self_s(self._select(THETA_SUMS)), "s"),
            "specialfn.eisenstein.self_s": (self_s(one("specialfn.eisenstein")), "s"),
            "characters.calls": (calls(self._prefixed("characters.")), "count"),
            "characters.self_s": (self_s(self._prefixed("characters.")), "s"),
            "suites.theta.s": (total_s(one("suites.theta")), "s"),
            "suites.characters.s": (total_s(one("suites.characters")), "s"),
            "suites.zhu.s": (total_s(one("suites.zhu")), "s"),
            "suites.fermion.s": (total_s(one("suites.fermion")), "s"),
            "modular.closure.self_s": (self_s(self._select(CLOSURE)), "s"),
            "modular.find_mde.self_s": (self_s(one("modular.find_mde")), "s"),
            "numpy.linalg.calls": (calls(self._prefixed("numpy.linalg.")), "count"),
            "numpy.linalg.s": (total_s(self._prefixed("numpy.linalg.")), "s"),
        }


def _package_modules() -> list:
    return [m for n, m in list(sys.modules.items()) if n == "supertriplet" or n.startswith("supertriplet.")]


def _is_function(obj) -> bool:
    return inspect.isfunction(obj) or hasattr(obj, "cache_info")


def _is_linalg_function(attr, obj) -> bool:
    # numpy wraps its functions in dispatcher objects, not Python functions
    return (
        not attr.startswith("_")
        and callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == "numpy.linalg"
    )


def cache_counts() -> dict:
    """``(hits, misses)`` of every ``lru_cache`` in the package, by defining module."""
    out = {}
    for mod in _package_modules():
        name = mod.__name__
        for attr, obj in vars(mod).items():
            obj = getattr(obj, "__wrapped__", obj) if hasattr(obj, MARK) else obj
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == name:
                info = obj.cache_info()
                out[f"{name}.{attr}"] = [info.hits, info.misses]
    return dict(sorted(out.items()))


def installed_spans() -> list:
    """Every binding in the package and ``numpy.linalg`` that is a tracer wrapper."""
    import numpy.linalg

    from supertriplet.qseries import QExpansion

    found = []
    scopes = [(m.__name__, vars(m)) for m in _package_modules()]
    scopes += [("QExpansion", vars(QExpansion)), ("numpy.linalg", vars(numpy.linalg))]
    for scope, namespace in scopes:
        for attr, obj in namespace.items():
            if hasattr(obj, MARK):
                found.append(f"{scope}.{attr}")
            elif isinstance(obj, dict) and attr != "__builtins__":
                found += [f"{scope}.{attr}[{k!r}]" for k, v in obj.items() if hasattr(v, MARK)]
    return found
