"""Spans around the library's public functions, recorded from outside the library.

The tracer wraps each public function of a module and then replaces every
reference to the original that the package holds at module level: module
attributes (``sharp.sample_ratios``, ``auxiliary.blend_values`` imported from
``means``) and module-level dicts (``cli._ORACLE_FNS``).  Calls the library
makes through those names -- ``sharp`` calls ``means.*`` and its own helpers
by attribute or global lookup -- then land in a wrapper.  Methods are wrapped
on their class.  Nothing in ``src/`` changes; ``uninstall`` restores every
original, so one interpreter can time the same call traced and untraced.

Spans live in memory (name, start, end, parent, phase, attrs) and are written
out once, at the end, by the caller.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    phase: str | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase: str | None = None
        self._stack: list[int] = []
        self._wrappers: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        self._patches: list[tuple] = []  # (owner, key, original, wrapper)

    def _wrap(self, name: str, fn, attrs=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                extra = attrs(args, result) if attrs is not None else {}
                spans[sid] = Span(name, t0, t1, parent, self.phase, extra)

        return wrapper

    def add_function(self, layer: str, module, name: str, attrs=None) -> None:
        fn = getattr(module, name)
        self._wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn, attrs))

    def add_module(self, layer: str, module, attrs_for=lambda name: None) -> None:
        """Wrap every function in ``module.__all__`` that the module defines."""
        for name in module.__all__:
            obj = getattr(module, name)
            if callable(obj) and not isinstance(obj, type) and getattr(obj, "__module__", None) == module.__name__:
                self.add_function(layer, module, name, attrs_for(name))

    def add_methods(self, layer: str, cls, names) -> None:
        for name in names:
            fn = cls.__dict__[name]
            self._patches.append((cls, name, fn, self._wrap(f"{layer}.{name}", fn)))

    def bind(self, modules) -> None:
        """Find every module-level reference to a wrapped function."""
        for mod in modules:
            for key, val in vars(mod).items():
                if id(val) in self._wrappers:
                    self._patches.append((mod, key, *self._wrappers[id(val)]))
                elif isinstance(val, dict):
                    for k, v in val.items():
                        if id(v) in self._wrappers:
                            self._patches.append((val, k, *self._wrappers[id(v)]))

    def _set(self, use_wrapper: bool) -> None:
        for owner, key, original, wrapper in self._patches:
            value = wrapper if use_wrapper else original
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    def install(self) -> None:
        self._set(True)

    def uninstall(self) -> None:
        self._set(False)

    def children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = {}
        for sid, span in enumerate(self.spans):
            if span.parent is not None:
                kids.setdefault(span.parent, []).append(sid)
        return kids

    def self_time(self, sid: int, kids: dict[int, list[int]]) -> float:
        """Duration minus the time its (sequential, nested) child spans cover."""
        return self.spans[sid].duration - sum(self.spans[k].duration for k in kids.get(sid, ()))
