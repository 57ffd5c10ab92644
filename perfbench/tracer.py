"""Span tracer that times calls into the package's public functions from outside.

`Tracer.install()` replaces every public function and public method of the
layer modules with a timing wrapper, under every name it is reachable by: a
function imported by name into another module (``from .dynamics import
ss_dynamics`` in ``erg``) is a separate module attribute, so the wrapper is
set on each module that holds the original.  `uninstall()` puts the
originals back.

Spans stay in memory: per wrapped callable, the per-call durations (an
`array` of doubles) and the summed self time.  Self time is a span's
duration minus the part of it that its child spans cover.  Each thread keeps
its own span stack; a span opened on a worker thread with an empty stack
(the CLI sweep's thread pool) counts as a child of the span open on the
thread that installed the tracer, and overlapping worker spans are merged
before they are subtracted.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("integrate", "events", "dynamics", "gait", "erg", "nmpc", "qp",
          "harness", "cli", "config")
PACKAGE = "thrusterbiped"


def _union_length(spans: list, lo: float, hi: float) -> float:
    total = 0.0
    end = lo
    for a, b in sorted(spans):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class _Stats:
    __slots__ = ("durations", "self_s")

    def __init__(self) -> None:
        self.durations = array("d")
        self.self_s = 0.0


class Tracer:
    """Wraps the layer modules' public callables; see module docstring."""

    def __init__(self, hooks: dict | None = None) -> None:
        # key -> fn(result, stack_keys, counters), run after each call
        self.hooks = hooks or {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[tuple[dict, Counter]] = []
        self._main_stack: list = []
        self._owner: threading.Thread | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- per-thread state -------------------------------------------------
    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            stack = self._main_stack if threading.current_thread() is self._owner \
                else []
            st = (stack, {}, Counter())  # span stack, stats by key, counters
            self._local.state = st
            with self._lock:
                self._threads.append(st[1:])
        return st

    def _wrap(self, key: str, fn):
        hook = self.hooks.get(key)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, stats, counters = tracer._state()
            cross = None
            if not stack and stack is not tracer._main_stack:
                try:  # the owner thread may close its span meanwhile
                    cross = tracer._main_stack[-1][2]
                except IndexError:
                    pass
            frame = [key, 0.0, []]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                s = stats.get(key)
                if s is None:
                    s = stats[key] = _Stats()
                s.durations.append(dur)
                s.self_s += dur - frame[1] - _union_length(frame[2], t0, t1)
                if stack:
                    stack[-1][1] += dur
                elif cross is not None:
                    cross.append((t0, t1))
            if hook is not None:
                hook(result, [f[0] for f in stack], counters)
            return result

        return wrapper

    # -- install / uninstall ---------------------------------------------
    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._owner = threading.current_thread()
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}")
                   for name in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped[id(obj)] = self._wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for mname, meth in list(vars(obj).items()):
                        if inspect.isfunction(meth) and (
                                not mname.startswith("_") or mname == "__call__"):
                            self._set(obj, mname, self._wrap(
                                f"{layer}.{name}.{mname}", meth))
        every = [importlib.import_module(PACKAGE)] + list(modules.values())
        for mod in every:
            for name, obj in list(vars(mod).items()):
                w = wrapped.get(id(obj))
                if w is not None and inspect.isfunction(obj):
                    self._set(mod, name, w)

    def _set(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ----------------------------------------------------------
    def merged(self) -> tuple[dict[str, _Stats], Counter]:
        """Stats and counters summed over every thread that made a call."""
        stats: dict[str, _Stats] = {}
        counters: Counter = Counter()
        with self._lock:
            threads = list(self._threads)
        for th_stats, th_counters in threads:
            for key, s in th_stats.items():
                m = stats.setdefault(key, _Stats())
                m.durations.extend(s.durations)
                m.self_s += s.self_s
            counters.update(th_counters)
        return stats, counters
