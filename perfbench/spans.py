"""In-memory span tracing around quantrl's public functions.

The benchmark wraps module attributes and class methods from the outside;
nothing inside ``src/`` knows it is being traced. A span records (name,
start, end, parent, thread). Each thread keeps its own stack, so spans on
an A3C worker thread nest under that worker's own open spans; a worker's
outermost span takes as parent whatever span is open on the main thread
(``a3c.train`` or ``experiment.run``), which is the call that started it.

With tracing off, a wrapper costs one attribute test per call. Wrappers
marked as probes also remember their last call's duration, positional
arguments and result, traced or not; the benchmark uses them for the few per-run
readings it needs even untraced (one call per run each).
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Call:
    seconds: float
    args: tuple
    result: object


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []        # [name, start, end, parent, thread]
        self.last: dict[str, Call] = {}    # probe name -> latest call
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []       # wrap targets the program lacks
        self._local = threading.local()
        self._main_stack: list[list] = []
        self._main_ident = threading.main_thread().ident
        self._counter_lock = threading.Lock()

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, amount: float = 1) -> None:
        with self._counter_lock:
            self.counters[key] = self.counters.get(key, 0) + amount

    def reset(self) -> None:
        self.spans = []
        self.counters = {}

    def wrap(self, owner, attr: str, name: str, probe: bool = False,
             on_call=None, on_error=None) -> None:
        """Replace ``owner.attr`` (a module function or a class method) by a
        span-recording wrapper. A missing target is noted, not fatal, so the
        benchmark keeps running when the program renames a function."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                if not probe:
                    return original(*args, **kwargs)
                start = perf_counter()
                result = original(*args, **kwargs)
                tracer.last[name] = Call(perf_counter() - start, args, result)
                return result
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else None
            span = [name, perf_counter(), 0.0, parent, threading.get_ident()]
            stack.append(span)
            tracer.spans.append(span)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if on_call is not None:
                on_call(args)
            if probe:
                tracer.last[name] = Call(span[2] - span[1], args, result)
            return result

        setattr(owner, attr, wrapper)


def wrap_function(tracer: Tracer, modules, home, attr: str, name: str, **kw) -> None:
    """Wrap a module-level function everywhere it is bound: in its home
    module and in every module that imported it by name."""
    original = getattr(home, attr, None)
    tracer.wrap(home, attr, name, **kw)
    wrapped = getattr(home, attr, None)
    for module in modules:
        if module is not home and original is not None \
                and getattr(module, attr, None) is original:
            setattr(module, attr, wrapped)


# -- analysis ---------------------------------------------------------------

def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans, lo: float, hi: float) -> dict:
    """Per-name calls, inclusive and self seconds, plus the share of
    [lo, hi] under top-level spans. Self time is a span's duration minus
    the part of it that its child spans cover."""
    children: dict[int, list] = {}
    for span in spans:
        if span[3] is not None:
            children.setdefault(id(span[3]), []).append((span[1], span[2]))
    by_name: dict[str, list] = {}
    top = []
    for span in spans:
        name, start, end, parent, _ = span
        dur = end - start
        kids = children.get(id(span))
        self_time = dur - (_covered(kids, start, end) if kids else 0.0)
        entry = by_name.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += dur
        entry[2] += self_time
        if parent is None:
            top.append((start, end))
    return {
        "by_name": by_name,
        "coverage": _covered(top, lo, hi) / (hi - lo) if hi > lo else 0.0,
    }


def root_of(span):
    while span[3] is not None:
        span = span[3]
    return span


def write_spans(path, spans, origin: float) -> None:
    """One tab-separated line per span: id, name, start and end in
    microseconds from ``origin``, parent id (-1 at top level), thread."""
    ids = {id(span): i for i, span in enumerate(spans)}
    threads: dict[int, int] = {}
    with open(path, "w") as fh:
        fh.write("id\tname\tstart_us\tend_us\tparent\tthread\n")
        for i, (name, start, end, parent, thread) in enumerate(spans):
            pid = ids.get(id(parent), -1) if parent is not None else -1
            tid = threads.setdefault(thread, len(threads))
            fh.write(f"{i}\t{name}\t{(start - origin) * 1e6:.1f}\t"
                     f"{(end - origin) * 1e6:.1f}\t{pid}\t{tid}\n")
