"""Outside-in layer tracer.

Replaces named functions in the modules that call them with timing
wrappers, so a traced build records one span per call at each layer
boundary without any change to the package. Spans are aggregated as
they close, keyed by (parent span, span), which keeps memory flat on
builds with ~10^5 spans; self time is a span's duration minus the
time of the spans it encloses.

A target that no longer exists (a module or a function renamed away)
is skipped and listed in ``missing``; metrics that need it read null.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module, attribute, span name, counts items of the result)
TARGETS = (
    ("rosa_lts.cli", "parse_program", "parser.parse", False),
    ("rosa_lts.cli", "build_lts", "builder.build", False),
    ("rosa_lts.cli", "to_text", "export.text", False),
    ("rosa_lts.cli", "to_dot", "export.dot", False),
    ("rosa_lts.cli", "to_json", "export.json", False),
    ("rosa_lts.builder", "canonicalize", "canonical.canonicalize", False),
    ("rosa_lts.builder", "pretty_print", "process.key", False),
    ("rosa_lts.builder", "classify", "semantics.classify", False),
    ("rosa_lts.builder", "nd_successors", "semantics.nd", True),
    ("rosa_lts.builder", "prob_successors", "semantics.prob", True),
    ("rosa_lts.builder", "action_successors", "semantics.action", True),
    # pretty_print as called from canonical._canon: the operand-order
    # comparisons.
    ("rosa_lts.canonical", "pretty_print", "canonical.compare", False),
)


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.missing: list[str] = []
        # (parent name or "", name) -> [calls, total s, self s, items]
        self.spans: dict[tuple[str, str], list] = {}
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, count_items: bool = False):
        """``fn`` recording a span called ``name`` per call."""
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1][0] if stack else ""
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                rec = spans.get((parent, name))
                if rec is None:
                    rec = spans[(parent, name)] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
            if count_items:
                rec[3] += len(result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, count_items in self.targets:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                if name not in self.missing:
                    self.missing.append(name)
                continue
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, count_items))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def take(self) -> dict[str, list]:
        """Spans recorded since the last call, as {"parent>name": [calls,
        total, self, items]}, and reset."""
        out = {f"{parent}>{name}": rec for (parent, name), rec in self.spans.items()}
        self.spans.clear()
        return out
