"""Per-layer spans recorded from outside the library.

The tracer wraps public functions of the whittaker modules and records, for
each span name, the number of calls, the wall time of outermost calls and
the self time (wall time minus the part covered by child spans).  A few
spans also record counts measured where the work happens: operand and
result term counts for the Laurent multiply, printed bytes for series,
distinct Schur arguments and zero Whittaker values.

A function is replaced at every place it is looked up, not only where it is
defined: ``rseng`` imports ``spherical_value`` by name, ``cli`` imports
``verify_essential`` by name, and so on.  ``uninstall`` puts every original
object back.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

from whittaker import cli, repdata, ringcore, rseng, suite, symfunc, whitfun

# span name -> (namespace that defines it, attribute name)
SPANS = {
    "ringcore.mul": (ringcore.LaurentPoly, "__mul__"),
    "ringcore.add": (ringcore.LaurentPoly, "__add__"),
    "ringcore.euler_expand": (ringcore, "euler_expand"),
    "ringcore.series_equal": (ringcore, "series_equal"),
    "ringcore.substitute": (ringcore.Scalar, "substitute"),
    "ringcore.format": (ringcore.TruncatedSeries, "__str__"),
    "symfunc.schur": (symfunc, "schur"),
    "whitfun.spherical_value": (whitfun, "spherical_value"),
    "whitfun.essential_value": (whitfun, "essential_value"),
    "repdata.compute_piu": (repdata, "compute_piu"),
    "repdata.parse_rep": (repdata, "parse_rep"),
    "rseng.rs_series": (rseng, "rs_series"),
    "rseng.verify_essential": (rseng, "verify_essential"),
    "rseng.cauchy_check": (rseng, "cauchy_check"),
    "cli.main": (cli, "main"),
    "suite.generate_suite": (suite, "generate_suite"),
}

# (metric name, unit, better); the order in which results are printed
PER_LAYER = [
    ("ringcore.mul.calls", "count", "lower"),
    ("ringcore.mul.s", "s", "lower"),
    ("ringcore.mul.term_pairs", "count", "lower"),
    ("ringcore.mul.terms_out", "count", "lower"),
    ("ringcore.add.calls", "count", "lower"),
    ("ringcore.add.s", "s", "lower"),
    ("ringcore.euler_expand.s", "s", "lower"),
    ("ringcore.series_equal.s", "s", "lower"),
    ("ringcore.substitute.calls", "count", "lower"),
    ("ringcore.substitute.s", "s", "lower"),
    ("ringcore.format.s", "s", "lower"),
    ("ringcore.format.bytes", "bytes", "lower"),
    ("symfunc.schur.calls", "count", "lower"),
    ("symfunc.schur.s", "s", "lower"),
    ("symfunc.schur.distinct_frac", "ratio", "higher"),
    ("whitfun.spherical_value.calls", "count", "lower"),
    ("whitfun.spherical_value.s", "s", "lower"),
    ("whitfun.essential_value.calls", "count", "lower"),
    ("whitfun.essential_value.s", "s", "lower"),
    ("whitfun.zero_frac", "ratio", "lower"),
    ("repdata.compute_piu.calls", "count", "lower"),
    ("repdata.compute_piu.s", "s", "lower"),
    ("repdata.parse_rep.s", "s", "lower"),
    ("rseng.rs_series.s", "s", "lower"),
    ("rseng.rs_series.self_s", "s", "lower"),
    ("rseng.verify_essential.s", "s", "lower"),
    ("rseng.cauchy_check.s", "s", "lower"),
    ("cli.main.s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("suite.generate_suite.s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


class Record:
    __slots__ = ("calls", "s", "self_s", "depth")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    """Spans around the public functions of every whittaker module.

    Spans are recorded only while ``active`` is true, so the caller can
    leave out work such as hashing printed output.
    """

    def __init__(self):
        self.active = False
        self.records = defaultdict(Record)
        self.counts = defaultdict(int)
        self.schur_args = set()
        self._stack = []        # child time accumulated by each open span
        self._whitfun_depth = 0
        self._patched = []      # (namespace, attribute, original)

    # -- installation -----------------------------------------------------

    def install(self):
        if self._patched:
            raise RuntimeError("tracer is already installed")
        hooks = {
            "ringcore.mul": self._after_mul,
            "ringcore.format": self._after_format,
            "symfunc.schur": self._after_schur,
        }
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "whittaker" or name.startswith("whittaker."))]
        for name, (owner, attr) in SPANS.items():
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original, hooks.get(name),
                                 name.startswith("whitfun."))
            self._replace(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original and module is not owner:
                        self._replace(module, key, wrapper)

    def _replace(self, namespace, attr, value):
        self._patched.append((namespace, attr, vars(namespace)[attr]))
        setattr(namespace, attr, value)

    def uninstall(self):
        while self._patched:
            namespace, attr, original = self._patched.pop()
            setattr(namespace, attr, original)

    # -- spans --------------------------------------------------------------

    def _wrap(self, name, fn, hook, whitfun_span):
        record = self.records[name]
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def span(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            outer_whitfun = whitfun_span and tracer._whitfun_depth == 0
            if whitfun_span:
                tracer._whitfun_depth += 1
            record.depth += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                record.depth -= 1
                if whitfun_span:
                    tracer._whitfun_depth -= 1
                record.calls += 1
                record.self_s += elapsed - child
                if record.depth == 0:
                    record.s += elapsed
            if hook is not None:
                hook(args, result)
            if outer_whitfun:
                tracer.counts["whitfun.outer_calls"] += 1
                if result.is_zero():
                    tracer.counts["whitfun.outer_zeros"] += 1
            return result

        span.__name__ = getattr(fn, "__name__", name)
        span.__qualname__ = getattr(fn, "__qualname__", name)
        span.__doc__ = getattr(fn, "__doc__", None)
        span.__wrapped__ = fn
        return span

    def _after_mul(self, args, result):
        a, b = args
        self.counts["ringcore.mul.term_pairs"] += len(a.terms) * len(b.terms)
        self.counts["ringcore.mul.terms_out"] += len(result.terms)

    def _after_format(self, args, result):
        self.counts["ringcore.format.bytes"] += len(result.encode())

    def _after_schur(self, args, result):
        shape, variables = args[0], args[1]
        self.schur_args.add((tuple(shape), tuple(variables)))

    # -- results ------------------------------------------------------------

    def metrics(self, overhead_frac):
        """Every per-layer metric, in PER_LAYER order, as {name: value}."""
        rec = self.records
        schur_calls = rec["symfunc.schur"].calls
        outer = self.counts["whitfun.outer_calls"]
        derived = {
            "symfunc.schur.distinct_frac": len(self.schur_args) / schur_calls if schur_calls else 0.0,
            "whitfun.zero_frac": self.counts["whitfun.outer_zeros"] / outer if outer else 0.0,
            "trace.overhead_frac": overhead_frac,
        }
        values = {}
        for metric, _unit, _better in PER_LAYER:
            span, _, field = metric.rpartition(".")
            if metric in derived:
                values[metric] = derived[metric]
            elif field in Record.__slots__:
                values[metric] = getattr(rec[span], field)
            else:
                values[metric] = self.counts[metric]
        return values
