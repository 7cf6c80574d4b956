"""Self-test of the benchmark's span tracer: ``python3 perfbench/selftest.py``.

It checks the self-time arithmetic on synthetic nested spans driven by a
fake clock, that importing the benchmark's modules installs no wrapper,
that ``install`` replaces every binding of a layer function in every module
that imported it by name (and in the dispatch dicts), and that
``uninstall`` restores the originals.  Exit code 0 means every check held.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(1, os.path.join(ROOT, "src"))

import tracer as tracing  # noqa: E402

CHECKS = []


def check(condition, message):
    CHECKS.append(message)
    if not condition:
        raise SystemExit(f"selftest failed: {message}")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time():
    clock = FakeClock()
    t = tracing.Tracer(clock=clock)
    inner = t.wrap("inner", lambda: clock.advance(2.0))

    def outer_body():
        clock.advance(1.0)
        inner()
        clock.advance(3.0)
        inner()
        clock.advance(0.5)

    t.wrap("outer", outer_body)()
    outer, leaf = t.stats["outer"], t.stats["inner"]
    check((outer.calls, outer.total_s, outer.self_s) == (1, 8.5, 4.5), "outer span: 8.5 s total, 4.5 s self")
    check((leaf.calls, leaf.total_s, leaf.self_s) == (2, 4.0, 4.0), "leaf spans: 2 calls, 4 s self")

    def recurse(n):
        clock.advance(1.0)
        if n:
            rec(n - 1)

    rec = t.wrap("rec", recurse)
    rec(2)
    s = t.stats["rec"]
    check((s.calls, s.total_s, s.self_s) == (3, 3.0, 3.0), "recursive span counts its outermost call once")

    def fail():
        clock.advance(1.0)
        raise ValueError("boom")

    failing = t.wrap("fail", fail)

    def guarded():
        try:
            failing()
        except ValueError:
            clock.advance(2.0)

    t.wrap("guarded", guarded)()
    check(t.stats["guarded"].self_s == 2.0, "a span closed by an exception still leaves its parent's self time")
    check(len(t._open) == 1, "span stack is balanced after an exception")

    counted = t.wrap("counted", lambda: clock.advance(1.0), count=lambda counts, args, result: clock.advance(10.0))

    def parent():
        counted()
        clock.advance(1.0)

    t.wrap("parent", parent)()
    check(t.stats["parent"].self_s == 1.0, "counter cost is charged to no span's self time")
    check(t.stats["counted"].self_s == 1.0, "counter cost is outside the counted span")


def _layer_bindings():
    """(namespace, key, original) for every binding of a layer function."""
    originals = {}
    for short in tracing.LAYER_MODULES:
        mod = sys.modules[f"supertriplet.{short}"]
        for attr, obj in vars(mod).items():
            if not attr.startswith("_") and tracing._is_function(obj) and obj.__module__ == mod.__name__:
                originals[id(obj)] = obj
    bindings = []
    for mod in tracing._package_modules():
        for attr, obj in vars(mod).items():
            if originals.get(id(obj), tracing._MISSING) is obj:
                bindings.append((vars(mod), attr, obj))
            elif isinstance(obj, dict) and attr != "__builtins__":
                bindings += [(obj, k, v) for k, v in obj.items() if originals.get(id(v), tracing._MISSING) is v]
    return bindings


def test_install():
    import workloads  # noqa: F401  (the untraced worker imports this)
    import supertriplet
    from supertriplet import characters, modular, specialfn, suites
    from supertriplet.qseries import QExpansion

    check(tracing.installed_spans() == [], "importing the benchmark installs no wrapper")
    bindings = _layer_bindings()
    eta_modules = [m for m in (supertriplet, characters, modular, suites) if m.eta is specialfn.eta]
    check(len(eta_modules) == 4, "eta is bound by name in the package, characters, modular and suites")
    original_mul = QExpansion.__mul__

    t = tracing.Tracer()
    t.install()
    try:
        for namespace, key, original in bindings:
            wrapped = namespace[key]
            check(
                getattr(wrapped, tracing.MARK, None) is not None and wrapped.__wrapped__ is original,
                f"binding {key!r} of {getattr(original, '__module__', '?')} is wrapped",
            )
        check(
            characters.eta is modular.eta is suites.eta is specialfn.eta is supertriplet.eta,
            "every module shares one eta wrapper",
        )
        check(getattr(modular._PREFACTOR_BUILDERS["f"], tracing.MARK) == "specialfn.frak_f", "dispatch dicts are patched")
        check(getattr(suites._SUITES["zhu"], tracing.MARK) == "suites.zhu", "suite dispatch is patched")
        check(QExpansion.__mul__ is QExpansion.__rmul__, "__mul__ and __rmul__ share one wrapper")
        import numpy.linalg

        check(getattr(numpy.linalg.svd, tracing.MARK) == "numpy.linalg.svd", "numpy.linalg is patched")

        hits_before = specialfn.eta.cache_info().hits
        characters.twisted_char(characters.ModuleLabel("RPi", 1, 1), 6)
        specialfn.eta(7)
        specialfn.eta(7)
        check(specialfn.eta.cache_info().hits == hits_before + 1, "cache_info reads through the wrapper")
        check(t.stats["specialfn.eta"].calls >= 2, "calls through the wrappers are counted")
        check(t.stats["qseries.mul"].calls > 0 and t.counts["qseries.mul.pairs"] > 0, "series products are counted")
        metrics = t.layer_metrics()
        check(all(v >= 0 for v, _ in metrics.values()), "layer metrics are non-negative")
    finally:
        t.uninstall()
    check(tracing.installed_spans() == [], "uninstall leaves no wrapper")
    check(QExpansion.__mul__ is original_mul, "uninstall restores QExpansion methods")
    check(all(namespace[key] is original for namespace, key, original in bindings), "uninstall restores every binding")


if __name__ == "__main__":
    test_self_time()
    test_install()
    print(f"selftest: {len(CHECKS)} checks passed")
