"""Outside-in layer tracing for the benchmark.

Nothing under ``src/`` knows about this module.  While a `Tracer` is
installed it replaces public ``dgalift`` functions and methods by timing
wrappers, patching every ``dgalift`` module attribute that holds the
original object, so each caller's own name lookup reaches the wrapper
(``dgalift.lift.solve_exact`` and ``dgalift.module.solve_exact`` alike).

Two kinds of wrapper:

* a *span* (stage boundary) appends ``[name, start, end, parent]`` to an
  in-memory list, ``parent`` being the index of the enclosing span or -1;
  self time is the span's duration minus the part its child spans cover;
* a *counter* (hot inner function) keeps a call count and cumulative time
  of outermost calls only, with no per-call record.

Timing is ``time.perf_counter`` in this process only: no hardware
counters, no system-wide tracing.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# (module, attribute, span name)
SPANS = (
    ("dgalift.cli", "main", "cli.main"),
    ("dgalift.io", "load_json", "io.load_json"),
    ("dgalift.io", "file_digest", "io.file_digest"),
    ("dgalift.io", "signature_from_doc", "io.signature_from_doc"),
    ("dgalift.io", "module_from_doc", "io.module_from_doc"),
    ("dgalift.io", "matrix_to_doc", "io.matrix_to_doc"),
    ("dgalift.io", "module_to_doc", "io.module_to_doc"),
    ("dgalift.io", "dump_canonical", "io.dump_canonical"),
    ("dgalift.parser", "parse_expr", "parser.parse_expr"),
    ("dgalift.lift", "obstruction", "lift.obstruction"),
    ("dgalift.lift", "solve_homotopy", "lift.solve_homotopy"),
    ("dgalift.lift", "construct_lift_even", "lift.construct_lift_even"),
    ("dgalift.lift", "construct_lift_odd", "lift.construct_lift_odd"),
    ("dgalift.lift", "verify_lift", "lift.verify_lift"),
    ("dgalift.solver", "solve_exact", "solver.solve_exact"),
    ("dgalift.module", "invert_unit", "module.invert_unit"),
    ("dgalift.tensor", "verify_splitting", "tensor.verify_splitting"),
    ("dgalift.tensor", "odd_ses", "tensor.odd_ses"),
    ("dgalift.tensor", "OddSequence.check", "tensor.OddSequence.check"),
    ("dgalift.selftest", "run_suite", "selftest.run_suite"),
)

# (module, attribute, counter name)
COUNTERS = (
    ("dgalift.algebra", "AlgElem.__mul__", "algebra.mul"),
    ("dgalift.algebra", "diff", "algebra.diff"),
    ("dgalift.module", "GradedMap.apply", "module.apply"),
    ("dgalift.module", "compose", "module.compose"),
    ("dgalift.module", "bracket_diff", "module.bracket_diff"),
    ("dgalift.jop", "JOperator.of_map", "jop.of_map"),
)

SOLVE_SPAN = "solver.solve_exact"


def self_times(spans: list) -> list:
    """Self time of each ``[name, start, end, parent]`` span.

    A child is any span whose ``parent`` is the index of the span; children
    never overlap, since the program is single-threaded.
    """
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


class Tracer:
    """Spans, counters and solver sizes for the calls made while installed."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict = {name: [0, 0.0, 0] for _, _, name in COUNTERS}
        self.solves: list = []  # (parent span name, rows, cols, nnz, consistent)
        self._stack: list = []
        self._undo: list = []

    def reset(self):
        self.spans.clear()
        self.solves.clear()
        for stat in self.counters.values():
            stat[0], stat[1] = 0, 0.0

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return wrapper

    def _solve_span(self, name, fn):
        timed = self._span(name, fn)
        spans, stack = self.spans, self._stack

        def wrapper(field, matrix, rhs):
            parent = spans[stack[-1]][0] if stack else ""
            result = timed(field, matrix, rhs)
            cols = len(matrix[0]) if matrix else 0
            nnz = sum(1 for row in matrix for x in row if x)
            self.solves.append((parent, len(matrix), cols, nnz, result is not None))
            return result

        return wrapper

    def _counter(self, name, fn):
        stat = self.counters[name]

        def wrapper(*args, **kwargs):
            stat[0] += 1
            if stat[2]:
                return fn(*args, **kwargs)
            stat[2] = 1
            t = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                stat[1] += perf_counter() - t
                stat[2] = 0

        return wrapper

    # -- patching ------------------------------------------------------------

    def _patch(self, module_name, attr, wrap):
        mod = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, wrap(orig))
            self._undo.append((cls, meth, orig))
            return
        orig = getattr(mod, attr)
        new = wrap(orig)
        for name, m in list(sys.modules.items()):
            if m is None or not (name == "dgalift" or name.startswith("dgalift.")):
                continue
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, new)
                    self._undo.append((m, key, orig))

    def install(self):
        if self._undo:
            raise RuntimeError("tracer is already installed")
        for module_name, attr, name in SPANS:
            if name == SOLVE_SPAN:
                self._patch(module_name, attr, lambda f, n=name: self._solve_span(n, f))
            else:
                self._patch(module_name, attr, lambda f, n=name: self._span(n, f))
        for module_name, attr, name in COUNTERS:
            self._patch(module_name, attr, lambda f, n=name: self._counter(n, f))

    def uninstall(self):
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- per-layer metrics ----------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer numbers for everything recorded since the last reset."""
        incl: dict = {}
        own: dict = {}
        calls: dict = {}
        for s, t in zip(self.spans, self_times(self.spans)):
            incl[s[0]] = incl.get(s[0], 0.0) + (s[2] - s[1])
            own[s[0]] = own.get(s[0], 0.0) + t
            calls[s[0]] = calls.get(s[0], 0) + 1

        def ms(table, *names):
            return 1000.0 * sum(table.get(n, 0.0) for n in names)

        rows = sum(s[1] for s in self.solves)
        cols = sum(s[2] for s in self.solves)
        nnz = sum(s[3] for s in self.solves)
        cells = sum(s[1] * s[2] for s in self.solves)
        n_solves = len(self.solves)
        c = self.counters
        return {
            "solver.calls": (n_solves, "count"),
            "solver.solve_ms": (ms(incl, SOLVE_SPAN), "ms"),
            "solver.rows": (rows, "count"),
            "solver.cols": (cols, "count"),
            "solver.nnz": (nnz, "count"),
            "solver.density": (nnz / cells if cells else 0.0, "fraction"),
            "solver.consistent_frac": (
                sum(1 for s in self.solves if s[4]) / n_solves if n_solves else 0.0,
                "fraction",
            ),
            "lift.assemble_ms": (ms(own, "lift.solve_homotopy"), "ms"),
            "lift.unknowns": (
                sum(s[2] for s in self.solves if s[0] == "lift.solve_homotopy"),
                "count",
            ),
            "lift.obstruction_ms": (ms(incl, "lift.obstruction"), "ms"),
            "lift.construct_ms": (
                ms(own, "lift.construct_lift_even", "lift.construct_lift_odd"),
                "ms",
            ),
            "lift.verify_lift_calls": (calls.get("lift.verify_lift", 0), "count"),
            "lift.verify_lift_ms": (ms(incl, "lift.verify_lift"), "ms"),
            "jop.of_map_calls": (c["jop.of_map"][0], "count"),
            "module.compose_calls": (c["module.compose"][0], "count"),
            "module.bracket_diff_calls": (c["module.bracket_diff"][0], "count"),
            "module.invert_unit_ms": (ms(incl, "module.invert_unit"), "ms"),
            "module.apply_calls": (c["module.apply"][0], "count"),
            "tensor.splitting_ms": (ms(incl, "tensor.verify_splitting"), "ms"),
            "tensor.ses_check_ms": (
                ms(incl, "tensor.odd_ses", "tensor.OddSequence.check"),
                "ms",
            ),
            "algebra.mul_calls": (c["algebra.mul"][0], "count"),
            "algebra.mul_ms": (1000.0 * c["algebra.mul"][1], "ms"),
            "algebra.diff_calls": (c["algebra.diff"][0], "count"),
            "algebra.diff_ms": (1000.0 * c["algebra.diff"][1], "ms"),
            "parser.parse_ms": (ms(incl, "parser.parse_expr"), "ms"),
            "io.load_ms": (
                ms(
                    own,
                    "io.load_json",
                    "io.file_digest",
                    "io.signature_from_doc",
                    "io.module_from_doc",
                ),
                "ms",
            ),
            "io.dump_ms": (
                ms(incl, "io.dump_canonical", "io.matrix_to_doc", "io.module_to_doc"),
                "ms",
            ),
            "cli.self_ms": (ms(own, "cli.main"), "ms"),
        }
