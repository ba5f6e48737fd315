"""Spans around the package's public layer functions, installed in place.

``install()`` replaces each layer function below, in every ``gtagkz``
module that holds it, with a wrapper that records a span around the call
while a ``Recorder`` is active.  A traced op is then the same
``gtagkz.cli.main`` call as an untraced one: ``cli.main`` -> ``build_basis``
-> ``enumerate_diagrams`` -> ``canonical_shift_table`` -> ``gamma_series`` /
``agkz_solution`` (-> ``feasible_down_shifts``) -> ``CoefficientTable`` ->
``gt_function`` -> the JSON document, and for ``verify`` the
``VerifyContext`` properties and each ``CHECKS[name](ctx)``.  Spans nest as
the calls do, so a layer's self time (its span minus its child spans)
separates, for example, the shift search from the series that calls it.
run.py still compares the traced op's output with its untraced twin's.
"""

import functools
import sys
import time
from contextlib import contextmanager

# span name "<module>.<function>": the count recorded for each call, and how
# it is read from the function's result
LAYERS = {
    "combinatorics.enumerate_diagrams": ("combinatorics.diagrams", len),
    "lattice.canonical_shift_table": (None, None),
    "series.gamma_series": ("series.gamma_series.terms", lambda poly: len(poly.terms)),
    "series.feasible_down_shifts": ("series.feasible_down_shifts.found", len),
    "series.agkz_solution": ("series.agkz_solution.terms", lambda poly: len(poly.terms)),
    "gtbasis.gt_function": ("gtbasis.gt_function.terms", lambda poly: len(poly.terms)),
}
CONTEXT_PROPERTIES = ("basis", "table", "gt_polys", "matrices")

current = None  # the Recorder of the op in progress, if it is traced


class Recorder:
    """Spans [name, start, end, parent index, op id] and counters of one op."""

    def __init__(self, op_id):
        self.op_id = op_id
        self.spans = []
        self.counts = {}
        self.built = set()  # (id(ctx), property) already built in this op
        self._open = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def add(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount


def _spanned(function, name, count=None, measure=None):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        recorder = current
        if recorder is None:
            return function(*args, **kwargs)
        with recorder.span(name):
            result = function(*args, **kwargs)
        if count:
            recorder.add(count, measure(result))
        return result

    return wrapper


def _spanned_table_init(init):
    @functools.wraps(init)
    def wrapper(table, basis):
        recorder = current
        if recorder is None:
            return init(table, basis)
        with recorder.span("gtbasis.coefficient_table"):
            init(table, basis)
        recorder.add("gtbasis.coefficient_table.pairs", len(table.C))

    return wrapper


def _spanned_property(getter, attr):
    """The property's first read on a context, when it builds the value, is a span."""

    @functools.wraps(getter)
    def wrapper(ctx):
        recorder = current
        if recorder is None or (id(ctx), attr) in recorder.built:
            return getter(ctx)
        recorder.built.add((id(ctx), attr))
        with recorder.span("verify.context"):
            return getter(ctx)

    return property(wrapper)


def install():
    """Wrap the layer functions of the imported gtagkz package; idempotent."""
    from gtagkz import gtbasis, verify

    if getattr(gtbasis.CoefficientTable.__init__, "__wrapped__", None):
        return
    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "gtagkz"]
    for name, (count, measure) in LAYERS.items():
        module, attr = name.split(".")
        original = getattr(sys.modules[f"gtagkz.{module}"], attr)
        wrapper = _spanned(original, name, count, measure)
        for holder in modules:
            if getattr(holder, attr, None) is original:
                setattr(holder, attr, wrapper)
    gtbasis.CoefficientTable.__init__ = _spanned_table_init(gtbasis.CoefficientTable.__init__)
    for attr in CONTEXT_PROPERTIES:
        getter = getattr(verify.VerifyContext, attr).fget
        setattr(verify.VerifyContext, attr, _spanned_property(getter, attr))
    for check, function in list(verify.CHECKS.items()):
        verify.CHECKS[check] = _spanned(function, f"verify.{check}")


@contextmanager
def tracing(op_id, op):
    """Record the spans of one op, under a top span ``cli.document`` or ``cli.verify``."""
    global current
    install()
    current = Recorder(op_id)
    try:
        with current.span("cli.document" if op == "basis" else f"cli.{op}"):
            yield current
    finally:
        current = None
