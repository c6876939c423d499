"""Record call spans at the public-function boundaries of every truncosc module.

Several modules import public names directly (``from .fock import
hermite_normalized``), so patching only a function's home module would miss
the calls that go through those bindings.  ``Tracer.install`` therefore wraps
each public function once and rebinds the wrapper in every ``truncosc.*``
namespace that holds the original; ``Tracer.uninstall`` puts every original
back.  Spans are kept in memory as ``[name, start, end, parent, error]`` lists
(``parent`` is the index of the enclosing span, -1 at the top); the caller
writes them out once, when the run ends.
"""
from __future__ import annotations

import functools
import sys
import time
import types

LAYERS = ("numerics", "fock", "coherent", "observables", "susy", "entangle", "cli")

_CACHE_ATTRS = ("cache_info", "cache_clear", "cache_parameters")


def _is_traceable(value) -> bool:
    if not isinstance(value, (types.FunctionType, functools._lru_cache_wrapper)):
        return False
    module = value.__module__ or ""
    return (module.startswith("truncosc.")
            and module.split(".")[1] in LAYERS
            and not value.__name__.startswith("_"))


class Tracer:
    """Wraps the public functions of the truncosc layers and records spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.wrappers: dict[str, object] = {}

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()

        # read the lru_cache statistics through the wrapper
        for attr in _CACHE_ATTRS:
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def install(self) -> None:
        """Wrap every public layer function in each namespace that binds it."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        by_id: dict[int, object] = {}
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "truncosc" or n.startswith("truncosc."))]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if not _is_traceable(value):
                    continue
                wrapper = by_id.get(id(value))
                if wrapper is None:
                    name = f"{value.__module__.split('.')[1]}.{value.__name__}"
                    wrapper = by_id[id(value)] = self._wrap(name, value)
                    self.wrappers[name] = wrapper
                self._patched.append((module, attr, value))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original function back where ``install`` found it."""
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def cache_stats(self) -> dict[str, list[int]]:
        """``[hits, misses]`` of every wrapped lru_cache'd function."""
        return {name: list(w.cache_info()[:2]) for name, w in self.wrappers.items()
                if hasattr(w, "cache_info")}
