"""Span tracing around charq's layers, installed from outside the package.

``Tracer.install`` wraps the public functions of each layer and rebinds
every module-level name (and every route-table entry) that refers to the
original function, because ``from .algebra import exact_div`` gives
``characters`` a binding of its own.  Methods are patched on their class,
including the aliases ``MultiPoly.__rmul__`` and ``__radd__``.

Each wrapped call records a span ``(name, start, end, parent)`` in memory;
``take`` turns the spans of one pass into per-layer metrics and keeps them
for ``write_spans``.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
from collections import defaultdict
from time import perf_counter
from types import ModuleType

# Spans whose inclusive time is reported as ``<name>.s``.
INCLUSIVE = ("characters.route.def", "characters.route.hdet",
             "characters.route.jt", "characters.route.tab",
             "qfunctions.q_tableaux", "qfunctions.q_determinantal",
             "qfunctions.tokuyama", "algebra.series", "verify.suite")

_END = object()


def _mul_counts(counts, args, out):
    a, b = args
    pairs = len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)
    n = len(out.terms)
    counts["algebra.mul.term_pairs"] += pairs
    counts["algebra.mul.out_terms"] += n
    if n > counts["algebra.mul.max_out_terms"]:
        counts["algebra.mul.max_out_terms"] = n


def _add_counts(counts, args, out):
    a, b = args
    counts["algebra.add.in_terms"] += len(a.terms) + (len(b.terms) if hasattr(b, "terms") else 1)


def _div_counts(counts, args, out):
    num, den = args
    counts["algebra.exact_div.num_terms"] += len(num.terms)
    counts["algebra.exact_div.den_terms"] += len(den.terms)
    counts["algebra.exact_div.quot_terms"] += len(out.terms)


def _weight_sum_counts(counts, args, out):
    counts["tableaux.weight_sum.out_terms"] += len(out.terms)


def _serialise_counts(counts, args, out):
    counts["algebra.serialise.terms"] += len(args[0].terms)


# (module, attribute, span name, counter hook)
FUNCTIONS = (
    ("algebra", "exact_div", "algebra.exact_div", _div_counts),
    ("algebra", "determinant", "algebra.determinant", None),
    ("algebra", "specialize", "algebra.specialize", None),
    ("algebra", "poly_to_obj", "algebra.serialise", _serialise_counts),
    ("algebra", "poly_to_text", "algebra.serialise", _serialise_counts),
    ("tableaux", "validate_tableau", "tableaux.validate", None),
    ("tableaux", "tableau_weight", "tableaux.weight", None),
    ("tableaux", "tableau_weight_sum", "tableaux.weight_sum", _weight_sum_counts),
    ("lattice", "tableau_to_paths", "lattice.to_paths", None),
    ("characters", "char_definitional", "characters.route.def", None),
    ("characters", "char_hdet", "characters.route.hdet", None),
    ("characters", "char_flagged_jt", "characters.route.jt", None),
    ("characters", "char_combinatorial", "characters.route.tab", None),
    ("qfunctions", "q_tableaux", "qfunctions.q_tableaux", None),
    ("qfunctions", "q_determinantal", "qfunctions.q_determinantal", None),
    ("qfunctions", "verify_tokuyama", "qfunctions.tokuyama", None),
    ("verify", "run_suite", "verify.suite", None),
    ("verify", "suite_lgv", "verify.suite", None),
    ("cli", "main", "cli.main", None),
)

# (module, attribute, counter): calls counted without a span
COUNTED = (
    ("algebra", "_det_bareiss", "algebra.determinant.bareiss_calls"),
)

GENERATORS = (
    ("tableaux", "enumerate_tableaux", "tableaux.enumerate", "tableaux.enumerate.tableaux"),
)

# (module, class, method, span name, counter hook)
METHODS = (
    ("algebra", "MultiPoly", "__mul__", "algebra.mul", _mul_counts),
    ("algebra", "MultiPoly", "__rmul__", "algebra.mul", _mul_counts),
    ("algebra", "MultiPoly", "__add__", "algebra.add", _add_counts),
    ("algebra", "MultiPoly", "__radd__", "algebra.add", _add_counts),
    ("algebra", "TruncatedSeries", "__mul__", "algebra.series", None),
    ("algebra", "TruncatedSeries", "mul_linear", "algebra.series", None),
    ("algebra", "TruncatedSeries", "mul_geometric", "algebra.series", None),
    ("lattice", "PathTuple", "weight", "lattice.path_weight", None),
    ("lattice", "PathTuple", "non_intersecting", "lattice.non_intersecting", None),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: defaultdict = defaultdict(int)
        self.active = True
        self.last_spans: list = []
        self._undo: list = []

    # -- wrappers --------------------------------------------------------

    def _span(self, name, fn, hook):
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, stack[-1] if stack else -1)
            if hook is not None:
                hook(counts, args, out)
            return out
        return wrapper

    def _counter(self, counter, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                counts[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _generator(self, name, fn, counter):
        """Each resumption of the generator is one span."""
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            if not self.active:
                return it
            return steps(it)

        def steps(it):
            while True:
                idx = len(spans)
                spans.append(None)
                stack.append(idx)
                t0 = perf_counter()
                try:
                    item = next(it, _END)
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    spans[idx] = (name, t0, t1, stack[-1] if stack else -1)
                if item is _END:
                    return
                counts[counter] += 1
                yield item
        return wrapper

    # -- installation ------------------------------------------------------

    def _rebind(self, modules, orig, new):
        for mod in modules:
            ns = vars(mod)
            for key, val in list(ns.items()):
                if val is orig:
                    self._undo.append((ns, key, orig))
                    ns[key] = new
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if v is orig:
                            self._undo.append((val, k, orig))
                            val[k] = new

    def install(self, package):
        """Wrap the layers of ``package`` (the imported ``charq``, with
        ``charq.cli`` imported too)."""
        modules = [package] + [m for m in vars(package).values()
                               if isinstance(m, ModuleType)
                               and m.__name__.startswith(package.__name__ + ".")]
        for mod, attr, name, hook in FUNCTIONS:
            orig = getattr(getattr(package, mod), attr)
            self._rebind(modules, orig, self._span(name, orig, hook))
        for mod, attr, counter in COUNTED:
            orig = getattr(getattr(package, mod), attr)
            self._rebind(modules, orig, self._counter(counter, orig))
        for mod, attr, name, counter in GENERATORS:
            orig = getattr(getattr(package, mod), attr)
            self._rebind(modules, orig, self._generator(name, orig, counter))
        for mod, cls_name, attr, name, hook in METHODS:
            cls = getattr(getattr(package, mod), cls_name)
            orig = vars(cls)[attr]
            self._undo.append((cls, attr, orig))
            setattr(cls, attr, self._span(name, orig, hook))

    def uninstall(self):
        while self._undo:
            target, key, orig = self._undo.pop()
            if isinstance(target, type):
                setattr(target, key, orig)
            else:
                target[key] = orig

    @contextlib.contextmanager
    def suspended(self):
        """Run the harness's own work (hashing, checks) without spans."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    # -- aggregation ---------------------------------------------------------

    def take(self, scale: float = 1.0) -> dict:
        """Per-layer totals of the spans and counts since the last call,
        with times multiplied by ``scale``."""
        spans = self.spans
        calls: defaultdict = defaultdict(int)
        self_s: defaultdict = defaultdict(float)
        total_s: defaultdict = defaultdict(float)
        child = [0.0] * len(spans)
        # children are appended after their parent, so a reverse sweep has
        # every child's duration in place before its parent is reached
        for i in range(len(spans) - 1, -1, -1):
            name, t0, t1, parent = spans[i]
            d = t1 - t0
            calls[name] += 1
            self_s[name] += d - child[i]
            if parent >= 0:
                child[parent] += d
        for i, (name, t0, t1, parent) in enumerate(spans):
            if name not in INCLUSIVE:
                continue
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                total_s[name] += t1 - t0
        out = {"calls": dict(calls),
               "self_s": {k: v * scale for k, v in self_s.items()},
               "total_s": {k: v * scale for k, v in total_s.items()},
               "counts": dict(self.counts), "spans": len(spans)}
        self.last_spans = list(spans)
        spans.clear()
        self.counts.clear()
        return out

    def write_spans(self, path):
        """Write the spans of the last pass as gzipped TSV: name, start,
        end (seconds on the process's perf_counter clock), parent index."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("name\tstart\tend\tparent\n")
            for name, t0, t1, parent in self.last_spans:
                f.write(f"{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\n")
