"""In-memory spans around the toolkit's layer boundaries, from outside the program.

``bicover.cli`` reaches every layer through a module attribute
(``covering.verify(...)``, ``bnd.graph_report(...)``).  ``cli_targets`` reads
the CLI's source and lists exactly those (module, function) pairs;
``Tracer.installed`` swaps each for a wrapper that records a span, and puts
the originals back on exit.  Calls a layer makes through names it imported
directly (``diagnostics`` calling ``verify``, ``bounds`` calling
``alpha_per_vertex``) are not wrapped, so their time stays in the caller's
self time; README.md lists those nested attributions.
"""

from __future__ import annotations

import ast
import functools
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    op: int          # id of the root span: every span of one CLI op shares it
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


def cli_targets(cli):
    """(span name, module, attribute) for each module function the CLI calls.

    The span name uses the module's own short name, so ``bnd.graph_report``
    becomes ``bounds.graph_report``.
    """
    package = cli.__name__.rpartition(".")[0]
    found = set()
    for node in ast.walk(ast.parse(inspect.getsource(cli))):
        if not (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)):
            continue
        module = getattr(cli, node.value.id, None)
        if not (inspect.ismodule(module)
                and module.__name__.startswith(package + ".")):
            continue
        if inspect.isfunction(getattr(module, node.attr, None)):
            short = module.__name__.rpartition(".")[2]
            found.add((f"{short}.{node.attr}", module, node.attr))
    return sorted(found, key=lambda t: t[0])


class Tracer:
    """Collects spans with parent links; one stack, one thread.

    ``counters`` maps a span name to ``f(bound_arguments, result) -> dict``,
    whose counts are stored on the span, so work is counted where it happens.
    """

    def __init__(self, counters=None):
        self.spans = []
        self.counters = counters or {}
        self._stack = []

    @contextmanager
    def span(self, name):
        sid = len(self.spans)
        sp = Span(sid, self._stack[-1] if self._stack else None,
                  self._stack[0] if self._stack else sid, name, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp.id)
        try:
            yield sp
        finally:
            self._stack.pop()
            sp.end = time.perf_counter()

    def wrap(self, name, fn):
        counter = self.counters.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                sp.counts.update(counter(bound.arguments, result))
            return result
        return traced

    @contextmanager
    def installed(self, targets):
        """Wrap every target for the duration of the block."""
        originals = []
        try:
            for name, module, attr in targets:
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def self_times(self, root=None):
        """Span id -> duration minus the time its direct children cover.

        With ``root`` given, only the spans of that op are included.
        Spans on one thread nest, so the children never overlap each other.
        """
        child_time = {}
        for sp in self.spans:
            if sp.parent is not None:
                child_time[sp.parent] = child_time.get(sp.parent, 0.0) + sp.duration
        return {sp.id: sp.duration - child_time.get(sp.id, 0.0)
                for sp in self.spans if root is None or sp.op == root}

    def to_json(self):
        return [{"id": sp.id, "parent": sp.parent, "op": sp.op, "name": sp.name,
                 "start": sp.start, "end": sp.end, **sp.counts}
                for sp in self.spans]
