"""In-memory span tracer that times calls into a package from outside it.

A target names one function as ``"module.attr"`` relative to the package
(``"floquet.diagonalize_floquet"``). `Tracer.install` wraps each target once
and rebinds every reference to the original object found in the namespaces
of the package's loaded modules: module attributes and the values of
module-level dicts. Calls made through ``from .floquet import ...`` or through
a dispatch table are therefore timed too. `Tracer.restore` puts every
original back.

Each call becomes a `Span` (name, start, end, parent span, thread). Spans
opened inside a `ThreadPoolExecutor` worker take the span that submitted the
work as their parent: the executor class is rebound in the package's modules
to a subclass that carries the submitting thread's current span into the
worker.

A target that no longer exists is listed in `Tracer.absent` and skipped.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Rebinds target functions to timed wrappers; use as a context manager.

    `targets` maps a span name to a ``"module.attr"`` path. `annotate` maps a
    span name to ``fn(args, kwargs, result) -> dict`` whose items are stored
    on the span after a successful call.
    """

    def __init__(self, package: str, targets: dict, annotate: dict | None = None):
        self.package = package
        self.targets = dict(targets)
        self.annotate = dict(annotate or {})
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    # -- installation --------------------------------------------------

    def install(self) -> "Tracer":
        importlib.import_module(self.package)
        for name, path in self.targets.items():
            original = self._resolve(path)
            if original is None:
                self.absent.append(name)
                continue
            self._rebind(original, self._wrap(name, original))
        self._rebind(ThreadPoolExecutor, self._pool_class())
        return self

    def restore(self) -> None:
        for container, key, original in reversed(self._patches):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        try:
            return self.install()
        except BaseException:
            self.restore()
            raise

    def __exit__(self, *exc) -> None:
        self.restore()

    def _resolve(self, path: str):
        module_name, _, attr = path.rpartition(".")
        try:
            module = importlib.import_module(f"{self.package}.{module_name}")
        except ModuleNotFoundError:
            return None
        return getattr(module, attr, None)

    def _modules(self) -> list:
        prefix = self.package + "."
        return [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == self.package or name.startswith(prefix))
        ]

    def _rebind(self, original, replacement) -> None:
        for module in self._modules():
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, replacement)
                elif isinstance(value, dict) and not key.startswith("__"):
                    for dict_key, item in list(value.items()):
                        if item is original:
                            self._patches.append((value, dict_key, original))
                            value[dict_key] = replacement

    # -- spans -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        """Id of the innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def _wrap(self, name: str, fn):
        tracer = self
        annotate = self.annotate.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            with tracer._lock:
                span_id = tracer._next_id
                tracer._next_id += 1
            stack.append(span_id)
            start = time.perf_counter()
            attrs = {}
            try:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    attrs = annotate(args, kwargs, result)
                return result
            except BaseException as exc:
                attrs = {"error": type(exc).__name__}
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                span = Span(span_id, name, start, end, parent, threading.get_ident(), attrs)
                with tracer._lock:
                    tracer.spans.append(span)

        return traced

    def _carry(self, fn):
        """Run fn in another thread with this thread's current span as parent."""
        parent = self.current()
        tracer = self

        def carried(*args, **kwargs):
            local = tracer._local
            saved = getattr(local, "stack", None)
            local.stack = [] if parent is None else [parent]
            try:
                return fn(*args, **kwargs)
            finally:
                local.stack = saved

        return carried

    def _pool_class(self):
        tracer = self

        class TracedThreadPoolExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer._carry(fn), *args, **kwargs)

        return TracedThreadPoolExecutor


# -- span arithmetic -------------------------------------------------------


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_start = cur_end = None
    for a, b in clipped:
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration - covered_length(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }
