"""Spans around calls into the repro layers, recorded from outside the program.

A :class:`Tracer` replaces a public function with a timing wrapper at
every module-level name in the ``repro`` package that refers to it, so
callers that did ``from repro.x import f`` are traced as well as those
that call ``repro.x.f``.  Methods are wrapped on their class.  Spans are
kept in memory as ``(start, end, name, thread, depth)`` tuples and
turned into per-layer numbers by :func:`benchmath.attribute` once the
traced flow has finished.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time


def patch_everywhere(original, replacement, prefix: str = "repro") -> list:
    """Rebind every module-level name under ``prefix`` bound to ``original``.

    Returns the ``(module, name, original)`` triples needed to undo it.
    """
    undo = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == prefix
                                  or mod_name.startswith(prefix + ".")):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = replacement
                undo.append((module, key, original))
    return undo


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self):
        self.spans: list[tuple] = []
        #: Free-form counters the ``observe`` hooks add to.
        self.counters: dict[str, float] = {}
        self._local = threading.local()

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def reset(self) -> None:
        """Drop every recorded span and counter (wrappers stay installed)."""
        self.spans = []
        self.counters = {}

    def wrapper(self, name: str, fn, observe=None):
        """``fn`` timed as span ``name``.

        ``observe(tracer, result, exc)`` runs after each call, with the
        return value or the exception it raised.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = tracer._local
            depth = getattr(local, "depth", 0)
            local.depth = depth + 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if observe is not None:
                    observe(tracer, None, exc)
                raise
            finally:
                local.depth = depth
                tracer.spans.append((start, time.perf_counter(), name,
                                     threading.get_ident(), depth))
            if observe is not None:
                observe(tracer, result, None)
            return result

        return traced

    def trace_function(self, name: str, module: str, attr: str,
                       observe=None) -> None:
        """Trace ``module.attr`` wherever a repro module refers to it."""
        original = getattr(importlib.import_module(module), attr)
        patch_everywhere(original, self.wrapper(name, original, observe))

    def trace_method(self, name: str, cls, attr: str, observe=None) -> None:
        """Trace ``cls.attr`` (only where ``cls`` itself defines it)."""
        setattr(cls, attr, self.wrapper(name, vars(cls)[attr], observe))

    def hook(self, cls, attr: str, after) -> None:
        """Call ``after(tracer, self_arg, result)`` after ``cls.attr``; no span."""
        original = vars(cls)[attr]
        tracer = self

        @functools.wraps(original)
        def hooked(obj, *args, **kwargs):
            result = original(obj, *args, **kwargs)
            after(tracer, obj, result)
            return result

        setattr(cls, attr, hooked)
