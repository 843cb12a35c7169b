"""Spans around the public functions of pseudospec's modules, from outside.

`Tracer.install` replaces every public function of the given modules, and
every public method of their public classes, with a thin wrapper that opens
a span.  The package calls across and within its modules through module
attributes (``gf2m.poly_mul``, ``codes.encode``, module globals), so those
calls pass through the wrappers; the program's sources are not touched.

Spans nest on a per-thread stack.  When a span closes, its duration is added
to its parent's child time; its self time is its duration minus that child
time.  Spans are aggregated per name as they close (calls, total, self), so
memory stays flat however many calls a run makes.  A generator function's
span covers each resumption, not its lifetime.

Spans closed on the main thread are kept apart from those closed on worker
threads (``PSEUDOSPEC_THREADS`` > 1), so that main-thread self times still
add up to the wall time of the traced calls.

`Tracer.uninstall` puts every original object back; `restored` checks it.
`Probe` is the minimal instrumentation of untraced runs: timestamps at one
or two boundaries, installed and removed the same way.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class SpanStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def public_callables(module):
    """(owner, attribute, raw object, span name) for each traced callable."""
    short = module.__name__.rsplit(".", 1)[-1]
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, name, obj, f"{short}.{name}"
        elif inspect.isclass(obj):
            for attr, member in sorted(vars(obj).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(member) or isinstance(member, classmethod):
                    yield obj, attr, member, f"{short}.{obj.__name__}.{attr}"


class _Patches:
    """Attribute replacements that can be undone, and checked to be undone."""

    def __init__(self):
        self._active: list[tuple[object, str, object]] = []
        self._undone: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, new) -> None:
        self._active.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def undo(self) -> None:
        for owner, attr, original in reversed(self._active):
            setattr(owner, attr, original)
        self._undone, self._active = self._active, []

    def restored(self) -> bool:
        return not self._active and all(
            vars(owner)[attr] is original for owner, attr, original in self._undone)

    @property
    def count(self) -> int:
        return len(self._active) or len(self._undone)


class Tracer:
    """Per-name span aggregates plus named counters fed by argument hooks.

    `hooks` maps a span name to ``hook(counters, bound_arguments)``, called
    on entry; it records work counts (bits packed, points evaluated) at the
    boundary where the work happens.
    """

    def __init__(self, modules, hooks=None):
        self.modules = list(modules)
        self.hooks = dict(hooks or {})
        self.main: dict[str, SpanStats] = {}
        self.workers: dict[str, SpanStats] = {}
        self.counters: Counter = Counter()
        self._main_ident = threading.get_ident()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = _Patches()

    # -- span bookkeeping -------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self) -> None:
        self._stack().append([time.perf_counter_ns(), 0])

    def _exit(self, name: str) -> None:
        end = time.perf_counter_ns()
        stack = self._stack()
        start, child = stack.pop()
        dur = end - start
        if stack:
            stack[-1][1] += dur
        if threading.get_ident() == self._main_ident:
            table = self.main
        else:
            table = self.workers
        with self._lock:
            st = table.get(name)
            if st is None:
                st = table[name] = SpanStats()
            st.calls += 1
            st.total_ns += dur
            st.self_ns += dur - child

    def stats(self) -> dict[str, SpanStats]:
        """Main-thread and worker-thread aggregates, merged per name."""
        merged: dict[str, SpanStats] = {}
        for table in (self.main, self.workers):
            for name, st in table.items():
                m = merged.setdefault(name, SpanStats())
                m.calls += st.calls
                m.total_ns += st.total_ns
                m.self_ns += st.self_ns
        return merged

    # -- wrapping ---------------------------------------------------------
    def _wrap(self, fn, name: str):
        hook = self.hooks.get(name)
        signature = inspect.signature(fn) if hook else None
        enter, exit_ = self._enter, self._exit

        def note(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            hook(self.counters, bound.arguments)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if hook is not None:
                    note(args, kwargs)
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        enter()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            exit_(name)
                        yield item
                finally:
                    inner.close()
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                note(args, kwargs)
            enter()
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(name)
        return wrapper

    def install(self) -> None:
        for module in self.modules:
            for owner, attr, obj, name in list(public_callables(module)):
                if isinstance(obj, classmethod):
                    new = classmethod(self._wrap(obj.__func__, name))
                else:
                    new = self._wrap(obj, name)
                self._patches.replace(owner, attr, new)

    def uninstall(self) -> None:
        self._patches.undo()

    def restored(self) -> bool:
        return self._patches.restored()

    @property
    def wrapped_count(self) -> int:
        return self._patches.count


class Probe:
    """Timestamps at a few boundaries of an untraced run.

    `yields(owner, attr)` records the time of every item a generator
    function yields; `entry_exit(owner, attr)` records call entry and exit.
    Each costs one clock read per event.
    """

    def __init__(self):
        self.events: list[tuple[str, float]] = []
        self._patches = _Patches()

    def yields(self, owner, attr: str) -> None:
        fn = vars(owner)[attr]
        events = self.events

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                events.append(("yield", time.perf_counter()))
                yield item

        self._patches.replace(owner, attr, gen_wrapper)

    def entry_exit(self, owner, attr: str) -> None:
        fn = vars(owner)[attr]
        events = self.events

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            events.append(("enter", time.perf_counter()))
            try:
                return fn(*args, **kwargs)
            finally:
                events.append(("exit", time.perf_counter()))

        self._patches.replace(owner, attr, wrapper)

    def uninstall(self) -> None:
        self._patches.undo()

    def restored(self) -> bool:
        return self._patches.restored()
