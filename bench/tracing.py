"""Per-layer tracing from outside the program.

``Tracer.install()`` replaces selected public functions of ``meanlab`` with
timing wrappers in the namespace of every module that imported them, so a
call is recorded wherever it is made and no source file changes. Each call
becomes a span (name, start, end, parent span, request id) kept in memory;
``write_spans`` stores them when the run ends. Self time is a span's
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from time import perf_counter

# (layer, function) pairs timed as spans; the span is named layer.function.
SPANS = (
    ("exactset", "normalize"), ("exactset", "set_union"),
    ("exactset", "set_diff"), ("exactset", "set_intersect"),
    ("exactset", "closure"), ("exactset", "derived"),
    ("setexpr", "parse"), ("setexpr", "evaluate"), ("setexpr", "set_to_expr"),
    ("cli", "main"),
    ("means", "eds_n"), ("means", "iso_n"), ("means", "avg_fat"),
    ("means", "avg1"), ("means", "m_acc"),
    ("limits", "limit_estimate"),
    ("measure", "fatten"), ("measure", "lebesgue"), ("measure", "moment"),
    ("analysis", "liminf_by_mean"), ("analysis", "limsup_by_mean"),
    ("axioms", "check"),
)
# Spans that report under another name: both bounds under analysis.bounds,
# moment with lebesgue.
ALIASES = {"analysis.liminf_by_mean": "analysis.bounds",
           "analysis.limsup_by_mean": "analysis.bounds",
           "measure.moment": "measure.lebesgue"}
# Timed metric names, each reported as .calls and .self_s.
TIMED = ("exactset.normalize", "exactset.set_union", "exactset.set_diff",
         "exactset.set_intersect", "exactset.closure", "exactset.derived",
         "setexpr.parse", "setexpr.evaluate", "setexpr.set_to_expr",
         "cli.main", "means.eds_n", "means.iso_n", "means.avg_fat",
         "means.avg1", "means.m_acc", "means.evaluate",
         "limits.limit_estimate", "measure.fatten", "measure.lebesgue",
         "analysis.bounds", "analysis.cuts", "axioms.check",
         "funcs.apply_bounds")
# Recursive functions are wrapped only where other modules call them, so
# tracing adds no stack frames per level of recursion.
NOT_IN_OWN_MODULE = {"setexpr.evaluate"}

# name -> (unit, better) for every per-layer metric, in report order.
METRICS: dict[str, tuple[str, str]] = {}
for _name in TIMED:
    METRICS[_name + ".calls"] = ("count", "lower")
    METRICS[_name + ".self_s"] = ("s", "lower")
METRICS.update({
    "exactset.components_out": ("count", "lower"),
    "exactset.max_components": ("count", "lower"),
    "limits.samples": ("count", "lower"),
    "limits.settled_share": ("ratio", "higher"),
    "axioms.trials": ("count", "higher"),
    "axioms.evals_per_check": ("count", "lower"),
    "axioms.witness_components": ("count", "lower"),
    "values.max_bits": ("bits", "lower"),
    "trace.overhead": ("ratio", "higher"),
})


def _bits(v) -> int:
    if isinstance(v, Fraction):
        return max(v.numerator.bit_length(), v.denominator.bit_length())
    for attr in ("value", "radicand"):
        x = getattr(v, attr, None)
        if isinstance(x, Fraction):
            return _bits(x)
    return 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_index: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_request = array("l")
        self.request = -1
        self._stack: list[int] = []
        self._child: list[float] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts = {"exactset.components_out": 0,
                       "exactset.max_components": 0, "limits.samples": 0,
                       "limits.settled": 0, "axioms.trials": 0,
                       "axioms.evals_in_check": 0,
                       "axioms.witness_components": 0, "values.max_bits": 0}
        self._in_check = 0
        self._replaced: dict[int, object] = {}  # id(original) -> wrapper

    # ---------------------------------------------------------------- spans

    def wrap(self, name: str, fn, after=None):
        """A function that runs ``fn`` inside a span called ``name`` and
        hands its result to ``after``."""
        idx = self.name_index.setdefault(name, len(self.names))
        if idx == len(self.names):
            self.names.append(name)
            self.calls[name] = 0
            self.self_s[name] = 0.0
        stack, child = self._stack, self._child

        def traced(*args, **kwargs):
            span = len(self.span_start)
            self.span_name.append(idx)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_request.append(self.request)
            stack.append(span)
            child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                inner = child.pop()
                if child:
                    child[-1] += t1 - t0
                self.span_start[span] = t0
                self.span_end[span] = t1
                self.calls[name] += 1
                self.self_s[name] += t1 - t0 - inner
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -------------------------------------------------------------- counters

    def _set_out(self, h) -> None:
        n = h.component_count()
        self.counts["exactset.components_out"] += n
        if n > self.counts["exactset.max_components"]:
            self.counts["exactset.max_components"] = n

    def _value_out(self, v) -> None:
        if self._in_check:
            self.counts["axioms.evals_in_check"] += 1
        b = _bits(v)
        if b > self.counts["values.max_bits"]:
            self.counts["values.max_bits"] = b

    def _report_out(self, report) -> None:
        self.counts["axioms.trials"] += report.trials
        if report.witness is not None:
            n = sum(s.component_count() for s in report.witness.sets)
            if n > self.counts["axioms.witness_components"]:
                self.counts["axioms.witness_components"] = n

    # --------------------------------------------------------------- install

    def _special(self, key: str, fn):
        if key.startswith("exactset."):
            return self.wrap(key, fn, self._set_out)
        if key == "limits.limit_estimate":
            inner = self.wrap(key, fn, self._settled)

            def limit_estimate(sampler, *args, **kwargs):
                return inner(self._counted(sampler), *args, **kwargs)
            return limit_estimate
        if key == "axioms.check":
            inner = self.wrap(key, fn, self._report_out)

            def check(*args, **kwargs):
                self._in_check += 1
                try:
                    return inner(*args, **kwargs)
                finally:
                    self._in_check -= 1
            return check
        return self.wrap(ALIASES.get(key, key), fn)

    def _settled(self, _result) -> None:
        self.counts["limits.settled"] += 1

    def _counted(self, sampler):
        def sample(n):
            self.counts["limits.samples"] += 1
            return sampler(n)
        return sample

    def install(self) -> None:
        import meanlab
        from meanlab import analysis, exactset, funcs, means

        modules = {name[len("meanlab."):]: mod
                   for name, mod in sys.modules.items()
                   if name.startswith("meanlab.") and mod is not None}
        modules["meanlab"] = meanlab
        targets = {id(getattr(modules[layer], fn)): f"{layer}.{fn}"
                   for layer, fn in SPANS}
        for modname, mod in modules.items():
            for attr, val in list(vars(mod).items()):
                key = targets.get(id(val))
                if key is None:
                    continue
                if key in NOT_IN_OWN_MODULE and key.startswith(modname + "."):
                    continue
                wrapper = self._replaced.get(id(val))
                if wrapper is None:
                    wrapper = self._replaced[id(val)] = self._special(key, val)
                setattr(mod, attr, wrapper)
        for attr in ("slice_le", "slice_ge"):
            setattr(analysis, attr,
                    self.wrap("analysis.cuts", getattr(exactset, attr)))

        # funcs: apply_bounds is a method; wrap each class's own definition
        for cls in vars(funcs).values():
            if isinstance(cls, type) and "apply_bounds" in vars(cls):
                setattr(cls, "apply_bounds",
                        self.wrap("funcs.apply_bounds", vars(cls)["apply_bounds"]))

        # means: every MeanRef.evaluate, including the domain-by-trial probes
        tracer = self
        ref_init = means.MeanRef.__init__

        def init(self_, *args, **kwargs):
            ref_init(self_, *args, **kwargs)
            tracer._wrap_ref(self_)
        means.MeanRef.__init__ = init
        for ref in (means.AMEAN, means.AVG1, means.M_ACC):
            self._wrap_ref(ref)
        by_trial = means._domain_by_trial
        means._domain_by_trial = lambda ev: by_trial(
            self.wrap("means.evaluate", ev, self._value_out))

    def _wrap_ref(self, ref) -> None:
        """Time ref.evaluate as means.evaluate; a catalogue function stored
        as the evaluate field (avg1, m_acc, ...) keeps its own span too."""
        fn = ref.evaluate
        if not hasattr(fn, "__wrapped__"):
            object.__setattr__(ref, "evaluate", self.wrap(
                "means.evaluate", self._replaced.get(id(fn), fn),
                self._value_out))

    # ---------------------------------------------------------------- output

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric but trace.overhead, which needs the
        untraced run too."""
        out: dict[str, float] = {}
        for name in TIMED:
            out[name + ".calls"] = self.calls.get(name, 0)
            out[name + ".self_s"] = self.self_s.get(name, 0.0)
        c = self.counts
        checks = self.calls.get("axioms.check", 0)
        estimates = self.calls.get("limits.limit_estimate", 0)
        out.update({
            "exactset.components_out": c["exactset.components_out"],
            "exactset.max_components": c["exactset.max_components"],
            "limits.samples": c["limits.samples"],
            "limits.settled_share":
                c["limits.settled"] / estimates if estimates else 0.0,
            "axioms.trials": c["axioms.trials"],
            "axioms.evals_per_check":
                c["axioms.evals_in_check"] / checks if checks else 0.0,
            "axioms.witness_components": c["axioms.witness_components"],
            "values.max_bits": c["values.max_bits"],
        })
        return out

    def span_count(self) -> int:
        return len(self.span_start)

    def write_spans(self, path: str) -> None:
        with open(path, "w") as f:
            f.write("name,start,end,parent,request\n")
            for i in range(len(self.span_start)):
                f.write(f"{self.names[self.span_name[i]]},"
                        f"{self.span_start[i]:.7f},{self.span_end[i]:.7f},"
                        f"{self.span_parent[i]},{self.span_request[i]}\n")
