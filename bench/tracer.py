"""Counting and timing shim for the traced benchmark run.

The shim is installed from outside the package.  It wraps every public
function of each ``qoscpoly`` module and rebinds the wrapper under every
name any ``qoscpoly`` module holds it by (``from .qarith import q_factorial``
makes a second binding), including the values of module-level dicts such as
``verify.SUITES``.  It also wraps the public methods and arithmetic dunders of
the classes each module defines (``Poly``, ``TruncSeries``, ``QContext``,
``VerificationReport``, ...), ``cli._table_rows``, and ``Fraction.__new__``,
which counts each construction against the innermost open span.

Each span adds to per-function totals: calls, inclusive seconds, self
seconds (inclusive minus the time of its child spans) and Fraction
constructions.  Spans are aggregated in memory, never stored one by one.
"""

from __future__ import annotations

import importlib
import inspect
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

MODULES = ("context", "qarith", "poly", "series", "families", "operators",
           "matel", "hahn", "verify", "report", "cli")
PRIVATE_SPANS = {"cli": ("_table_rows",)}
DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
           "__rmul__", "__pow__", "__truediv__", "__call__")
# kernel functions whose argument tuples are collected for the waste counter
KERNEL = ("q_int", "q_factorial", "q_binomial", "q_pochhammer")
SERIALIZERS = ("to_json", "to_csv", "to_text")
# the verify suites, each with its own time and record metrics
SUITES = ("qkernel", "qseries", "polyfamilies", "operators", "matrixelements",
          "hahncalc")

CALLS, INCL, SELF, FRACS = range(4)


class Tracer:
    """Installs the shim into an imported ``qoscpoly`` and collects totals."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.amounts = defaultdict(int)  # records, rows and bytes seen
        self.kernel_args = set()
        self.kernel_calls = 0
        self.originals = {}  # span name -> the function it wraps
        self._stack = [[0.0, 0]]  # per open span: child seconds, fractions
        self._contexts = {}  # id -> (context, index by value)
        self._by_value = {}
        self._undo = []

    # -- installation -------------------------------------------------
    def install(self):
        modules = [importlib.import_module("qoscpoly")] + [
            importlib.import_module(f"qoscpoly.{name}") for name in MODULES]
        for module in modules[1:]:
            layer = module.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    if not name.startswith("_") or name in PRIVATE_SPANS.get(layer, ()):
                        self._rebind(modules, obj, self._wrap(f"{layer}.{name}", obj))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_methods(layer, obj)
        orig_new = Fraction.__dict__["__new__"]
        new = orig_new.__func__
        stack = self._stack

        def counting_new(cls, *args, **kwargs):
            stack[-1][1] += 1
            return new(cls, *args, **kwargs)

        Fraction.__new__ = staticmethod(counting_new)
        self._undo.append((Fraction, "__new__", orig_new))
        return self

    def uninstall(self):
        for owner, name, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)
        self._undo.clear()

    def _rebind(self, modules, original, wrapper):
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, name, original))
                    setattr(module, name, wrapper)
                elif isinstance(value, dict):
                    for k, v in value.items():
                        if v is original:
                            self._undo.append((value, k, original))
                            value[k] = wrapper

    def _wrap_methods(self, layer, cls):
        for name, obj in list(vars(cls).items()):
            if inspect.isfunction(obj) and (not name.startswith("_") or name in DUNDERS):
                # an alias such as __rmul__ = __mul__ counts under __mul__
                key = f"{layer}.{cls.__name__}.{obj.__name__}"
                self._undo.append((cls, name, obj))
                setattr(cls, name, self._wrap(key, obj))

    # -- spans -------------------------------------------------------------
    def _wrap(self, key, fn):
        self.originals[key] = fn
        stats = self.stats[key]
        stack = self._stack
        measure = self._measure_for(key)

        def span(*args, **kwargs):
            frame = [0.0, 0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                parent = stack[-1]
                parent[0] += elapsed
                stats[CALLS] += 1
                stats[INCL] += elapsed
                stats[SELF] += elapsed - frame[0]
                stats[FRACS] += frame[1]
            if measure is not None:
                # bookkeeping time counts as a child, not as the caller's self
                start = perf_counter()
                measure(args, result)
                parent[0] += perf_counter() - start
            return result

        span.__wrapped__ = fn
        return span

    def _measure_for(self, key):
        layer, _, name = key.partition(".")
        if layer == "qarith" and name in KERNEL:
            def measure(args, result):
                self.kernel_calls += 1
                self.kernel_args.add((self._context_index(args[0]), name) + args[1:])
            return measure
        if layer == "verify" and name.startswith("suite_"):
            def measure(args, result):
                self.amounts[f"verify.{name[6:]}.records"] += len(result)
            return measure
        if layer == "cli" and name == "_table_rows":
            def measure(args, result):
                self.amounts["cli.rows"] += len(result)
            return measure
        if layer == "report" and name.rpartition(".")[2] in SERIALIZERS:
            def measure(args, result):
                self.amounts["report.records"] += len(args[0].records)
                self.amounts["report.bytes"] += len(result.encode("utf-8"))
            return measure
        return None

    def _context_index(self, ctx) -> int:
        """Index of ctx by value; holds ctx so its id is not reused."""
        seen = self._contexts.get(id(ctx))
        if seen is None:
            index = self._by_value.setdefault(ctx, len(self._by_value))
            seen = self._contexts[id(ctx)] = (ctx, index)
        return seen[1]

    # -- results ---------------------------------------------------------
    def layer_metrics(self) -> dict:
        """The per-layer metrics named in BENCHMARK.json, from the totals."""
        def total(field, prefix):
            return sum(v[field] for k, v in self.stats.items()
                       if k.startswith(prefix))

        def calls(*keys):
            return sum(self.stats[k][CALLS] for k in keys if k in self.stats)

        out = {}
        for layer in ("qarith", "operators", "poly", "families", "hahn"):
            out[f"{layer}.calls"] = total(CALLS, layer + ".")
        for layer in ("qarith", "context", "operators", "poly", "series",
                      "families", "hahn"):
            out[f"{layer}.self_s"] = total(SELF, layer + ".")
        for layer in ("qarith", "operators", "matel", "poly", "series",
                      "families", "hahn"):
            out[f"{layer}.fractions"] = total(FRACS, layer + ".")
        for name in KERNEL:
            out[f"qarith.{name}.calls"] = calls(f"qarith.{name}")
        out["qarith.distinct_ratio"] = (len(self.kernel_args) / self.kernel_calls
                                        if self.kernel_calls else 0.0)
        out["context.calls"] = calls("context.QContext.q_pow",
                                     "context.QContext.pow_half")
        out["operators.ladder_coeff.calls"] = calls("operators.lowering_coeff",
                                                    "operators.raising_coeff")
        out["matel.closed.calls"] = calls("matel.matel_closed")
        out["matel.oracle.calls"] = calls("matel.matel_oracle")
        out["matel.u_polynomial.calls"] = calls("matel.u_polynomial")
        out["matel.closed.self_s"] = total(SELF, "matel.matel_closed")
        out["matel.oracle.self_s"] = total(SELF, "matel.matel_oracle")
        out["poly.mul.calls"] = calls("poly.Poly.__mul__")
        out["series.mul.calls"] = calls("series.TruncSeries.__mul__")
        for suite in SUITES:
            out[f"verify.{suite}.s"] = total(INCL, f"verify.suite_{suite}")
            out[f"verify.{suite}.records"] = self.amounts[f"verify.{suite}.records"]
        out["report.serialize_s"] = sum(
            total(INCL, f"report.VerificationReport.{name}") for name in SERIALIZERS)
        for name in ("report.bytes", "report.records", "cli.rows"):
            out[name] = self.amounts[name]
        out["cli.table_rows_s"] = total(INCL, "cli._table_rows")
        out["fractions.total"] = total(FRACS, "") + self._stack[0][1]
        return out
