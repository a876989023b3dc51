"""Spans around whideal's public functions, installed from outside.

`Tracer.install` rebinds each traced name in every loaded `whideal` module
that holds it, including the bindings that `from .x import y` made inside
other modules, so internal calls are traced as well as calls from the
benchmark.  `uninstall` restores the originals.  Spans stay in memory as
[name, start, end, parent] with parent the index of the enclosing span
(-1 at top level).

Hot leaf helpers (`grevlex_key`, `monomial.divides`, `binomial`) are not
traced: a span per call would cost more than the call and swamp the
self times of their callers.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from math import comb
from time import perf_counter


def _polyhedron_counts(tracer, args, poly):
    m, n = len(poly.support), poly.n
    tracer.counts["newton.support_points"] += m
    tracer.counts["newton.subsets"] += comb(m, n)
    tracer.counts["newton.facets"] += len(poly.facets)
    tracer.counts[f"newton.vertices.{tracer.family}"] += len(poly.vertices)
    tracer.counts[f"newton.support.{tracer.family}"] += m
    tracer.counts[f"newton.calls.{tracer.family}"] += 1


def _membership_count(tracer, args, result):
    tracer.counts["groebner.generator_terms"] += sum(len(h.terms) for h in args[1])


def _basis_count(tracer, args, result):
    tracer.counts["groebner.generator_terms"] += sum(len(h.terms) for h in args[0])
    tracer.counts["groebner.basis_len"] += len(result)


def _verify_count(tracer, args, result):
    tracer.counts["snc.checks"] += len(result.checks)


# (module, name, span name, count hook).  A dotted name is a method.
TARGETS = (
    ("whideal.cli", "main", "cli.main", None),
    ("whideal.poly", "parse_polynomial", "poly.parse", None),
    ("whideal.poly", "jacobian_ideal", "poly.jacobian", None),
    ("whideal.newton", "compute_polyhedron", "newton.polyhedron", _polyhedron_counts),
    ("whideal.invariants", "minimal_exponent", "invariants.minimal_exponent", None),
    ("whideal.invariants", "classify", "invariants.classify", None),
    ("whideal.invariants", "jacobian_witness", "invariants.witness", None),
    ("whideal.groebner", "ideal_membership", "groebner.membership", _membership_count),
    ("whideal.groebner", "groebner_basis", "groebner.basis", _basis_count),
    ("whideal.monomial", "MonomialIdeal.__init__", "monomial.construct", None),
    ("whideal.monomial", "MonomialIdeal.is_subideal", "monomial.subideal", None),
    ("whideal.snc", "hodge_ideal_snc", "snc.ideal", None),
    ("whideal.snc", "weighted_hodge_ideal_snc", "snc.ideal", None),
    ("whideal.snc", "verify_snc_theorems", "snc.verify", _verify_count),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.family: str | None = None  # kind of input of the running operation
        self._restore: list[tuple] = []

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self.stack
        refused = sys.modules["whideal.errors"].SizeGuardError

        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except refused:
                self.counts[f"{name}.refused"] += 1
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def _wrap_constructor(self, fn):
        # Materialize the generators so their number is counted before the
        # constructor minimalizes them, whatever iterable the caller passed.
        traced = self._wrap("monomial.construct", fn, None)

        def init(obj, n, generators):
            generators = list(generators)
            self.counts["monomial.generators"] += len(generators)
            return traced(obj, n, generators)

        return init

    def install(self):
        for module_name, attr, span_name, hook in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:  # not imported by this workload
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                if meth == "__init__":
                    wrapped = self._wrap_constructor(original)
                else:
                    wrapped = self._wrap(span_name, original, hook)
                setattr(cls, meth, wrapped)
                self._restore.append((cls, meth, original))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(span_name, original, hook)
            for holder in [m for k, m in sys.modules.items() if k == "whideal" or k.startswith("whideal.")]:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)
                        self._restore.append((holder, key, original))

    def uninstall(self):
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def span_counts(self) -> Counter:
        return Counter(s[0] for s in self.spans)
