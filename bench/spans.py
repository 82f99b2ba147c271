"""Span tracing of fibrec's layers from outside the package.

``Tracer.installed()`` replaces each traced function with a timing wrapper
in every fibrec module namespace that holds it, and each traced method on
its class, so calls from one layer into another (seqform -> fib,
cfinite -> FibExpr.at, synth -> fib, cli -> parser) open nested spans.  A
span's self time is its duration minus the time its child spans cover.
Spans stay in memory; ``dump`` writes them out once the run is over.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

MAX_SPANS = 100_000  # spans kept for the dump; counters cover every call

# (metric prefix, module, attribute path) of each traced callable
TARGETS = (
    ("cli.main", "fibrec.cli", "main"),
    ("parser.parse", "fibrec.parser", "parse"),
    ("parser.format_expr", "fibrec.parser", "format_expr"),
    ("seqform.at", "fibrec.seqform", "FibExpr.at"),
    ("seqform.canon", "fibrec.seqform", "FibExpr.canon"),
    ("fib.fib", "fibrec.fib", "fib"),
    ("fib.shift_coeffs", "fibrec.fib", "shift_coeffs"),
    ("exact.poly_eval", "fibrec.exact", "Poly.__call__"),
    ("exact.poly_mul", "fibrec.exact", "Poly.__mul__"),
    ("exact.poly_pow", "fibrec.exact", "Poly.__pow__"),
    ("cfinite.char_poly", "fibrec.cfinite", "char_poly"),
    ("cfinite.to_recurrence", "fibrec.cfinite", "to_recurrence"),
    ("decide.is_integer_sequence", "fibrec.decide", "is_integer_sequence"),
    ("synth.build_system", "fibrec.synth", "build_system"),
    ("synth.solve_template", "fibrec.synth", "solve_template"),
    ("synth.symbolic_inverse", "fibrec.synth", "symbolic_inverse"),
    ("synth.theorem_solution", "fibrec.synth", "theorem_solution"),
)


class Tracer:
    def __init__(self) -> None:
        self.calls = {name: 0 for name, _, _ in TARGETS}
        self.self_s = {name: 0.0 for name, _, _ in TARGETS}
        self.spans: list[tuple] = []  # (span id, parent id, op id, name, start, end)
        self.dropped = 0
        self._stack: list[list] = []  # [span id, child seconds] per open span
        self._next_id = 0
        self._op = -1

    def _wrap(self, name: str, fn):
        perf = time.perf_counter
        stack = self._stack
        calls, self_s = self.calls, self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                calls[name] += 1
                self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((span_id, parent, self._op, name, start, end))
                else:
                    self.dropped += 1

        return traced

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Group the spans of one benchmark operation under op_id."""
        self._op = op_id
        try:
            yield
        finally:
            self._op = -1

    @contextlib.contextmanager
    def installed(self):
        """Trace every target while the block runs; restore them afterwards."""
        modules = [m for k, m in sys.modules.items() if k == "fibrec" or k.startswith("fibrec.")]
        undo = []
        try:
            for name, module, path in TARGETS:
                owner = sys.modules[module]
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                wrapped = self._wrap(name, original)
                if outer:  # a method: its class is the only holder
                    holders = [owner]
                else:  # a function: every module that imported it by name
                    holders = [m for m in modules if m.__dict__.get(attr) is original]
                for holder in holders:
                    setattr(holder, attr, wrapped)
                    undo.append((holder, attr, original))
            yield self
        finally:
            for holder, attr, original in reversed(undo):
                setattr(holder, attr, original)

    def dump(self, path: str) -> None:
        """Write the kept spans, one JSON array per line, and the drop count."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"fields": ["id", "parent", "op", "name", "start", "end"],
                                  "dropped": self.dropped}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
