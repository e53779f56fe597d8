"""Spans recorded from outside the program, by wrapping its attributes.

A :class:`Tracer` replaces module or class attributes of ``repro`` with
timing wrappers for the duration of a traced run and puts the originals
back afterwards; nothing under ``src/`` is edited.  Each call becomes one
span ``(index, name, start, end, parent, op, phase, thread)``, appended
when the call returns.  The parent is the index of the innermost traced
call still open on the same thread; ``op`` names the request the span
belongs to and is inherited from the parent.

The wrappers can be switched off and on again (:meth:`Tracer.enable`).
:meth:`Tracer.paired` uses that to run one unit of work twice, untraced
and traced (in alternating order), so the tracing overhead is a median over paired
samples of identical work rather than a difference of two separate runs.
Workloads time every unit through ``paired``; :class:`NullTracer` runs
and times it once.  Both first take a sample of the host's speed
(:class:`~measure.HostSpeed`) for the unit.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

from measure import HostSpeed, self_times

_MISSING = object()


class Tracer:
    """In-memory span recorder with attribute patching."""

    def __init__(self, host: HostSpeed) -> None:
        self.host = host
        self.spans: list[tuple] = []
        self.phase = "setup"
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object, object]] = []
        #: Unit kind -> ``(untraced, traced)`` seconds per paired sample.
        self.pairs: dict[str, list[tuple[float, float]]] = {}

    # -- request and phase labels --------------------------------------
    @contextmanager
    def operation(self, op):
        """Label spans opened on this thread, outside any span, with ``op``."""
        previous = getattr(self._local, "op", None)
        self._local.op = op
        try:
            yield
        finally:
            self._local.op = previous

    def current_op(self):
        """The request id set by :meth:`operation` on this thread."""
        return getattr(self._local, "op", None)

    # -- patching ------------------------------------------------------
    def wrap(self, owner, attr: str, name, on_call=None, on_result=None) -> None:
        """Time every call of ``owner.attr`` as a span.

        ``name`` is a string or a callable of the call's positional
        arguments.  ``on_call(args)`` runs as the call starts and may
        return a request id for the span (``None`` inherits one);
        ``on_result(args, result)`` sees each return value.
        """
        original = owner.__dict__.get(attr, _MISSING)
        target = getattr(owner, attr)
        tracer = self

        @functools.wraps(target)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent, parent_op = stack[-1]
            else:
                parent, parent_op = None, tracer.current_op()
            op_id = on_call(args) if on_call is not None else None
            if op_id is None:
                op_id = parent_op
            label = name(args) if callable(name) else name
            phase = tracer.phase
            index = next(tracer._ids)
            stack.append((index, op_id))
            start = time.perf_counter()
            try:
                result = target(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                # A finished span is one tuple of scalars, which the
                # garbage collector stops tracking: long traces stay cheap.
                tracer.spans.append((index, label, start, end, parent, op_id,
                                     phase, threading.get_ident()))
            if on_result is not None:
                on_result(args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original, traced))

    def enable(self, on: bool) -> None:
        """Install (``True``) or take out (``False``) every wrapper."""
        patches = self._patches if on else reversed(self._patches)
        for owner, attr, original, traced in patches:
            if on:
                setattr(owner, attr, traced)
            elif original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def restore(self) -> None:
        """Put every wrapped attribute back for good."""
        self.enable(False)
        self._patches.clear()

    # -- paired overhead samples --------------------------------------
    def paired(self, kind: str, fn):
        """Run ``fn()`` untraced and traced; ``(result, seconds)`` of the latter.

        ``fn`` must do the same work both times (same inputs and seeds).
        """
        self.host.sample()
        runs = {}
        for on in self._order(kind):
            self.enable(on)
            runs[on] = _timed(fn)
        return self._pair(kind, runs)

    async def apaired(self, kind: str, fn):
        """:meth:`paired` for a coroutine function."""
        self.host.sample()
        runs = {}
        for on in self._order(kind):
            self.enable(on)
            runs[on] = await _atimed(fn)
        return self._pair(kind, runs)

    def _order(self, kind: str) -> tuple[bool, bool]:
        # Every other pair runs traced first, so what the first call warms
        # up for the second (caches, plan cache) does not bias the overhead.
        if len(self.pairs.get(kind, ())) % 2:
            return True, False
        return False, True

    def _pair(self, kind: str, runs):
        self.enable(True)
        self.pairs.setdefault(kind, []).append((runs[False][1], runs[True][1]))
        return runs[True]

    def _stack(self) -> list[tuple]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- aggregation ---------------------------------------------------
    def ordered(self) -> list[tuple]:
        """Finished spans in call order (ascending index)."""
        return sorted(self.spans)

    def totals(self) -> dict[tuple[str, str], dict[str, float]]:
        """Per ``(phase, name)``: call count, total time and self time."""
        spans = self.ordered()
        position = {span[0]: i for i, span in enumerate(spans)}
        rows = [
            (span[1], span[2], span[3], position.get(span[4]))
            for span in spans
        ]
        out: dict = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
        for span, row, self_s in zip(spans, rows, self_times(rows)):
            entry = out[(span[6], span[1])]
            entry["calls"] += 1
            entry["total"] += row[2] - row[1]
            entry["self"] += self_s
        return dict(out)


class NullTracer:
    """Stand-in for untraced runs: labels are accepted and dropped."""

    phase = "setup"

    def __init__(self, host: HostSpeed) -> None:
        self.host = host

    @contextmanager
    def operation(self, op):
        yield

    def paired(self, kind, fn):
        self.host.sample()
        return _timed(fn)

    async def apaired(self, kind, fn):
        self.host.sample()
        return await _atimed(fn)


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


async def _atimed(fn):
    start = time.perf_counter()
    result = await fn()
    return result, time.perf_counter() - start
