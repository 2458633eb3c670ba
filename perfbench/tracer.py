"""In-memory spans around calls into the public functions of a package.

A :class:`Tracer` replaces each public function and method of every module
of a package by a wrapper that records one span per call: name, layer (the
module), start, end, parent span and operation id, plus the grid points and
array bytes the call took in and the bytes it returned.  A function is
replaced in every module namespace that holds the same object, so call sites
that did ``from .x import f`` are traced too.  ``uninstall`` puts every
original back.  The traced package's source is never modified.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import pkgutil
import types
from enum import Enum
from time import perf_counter

import numpy as np


class Span:
    """One call.  ``start``/``end`` bound the call itself; ``covered`` is the
    wall time of the whole wrapper, bookkeeping included, which a parent
    span subtracts so that tracing cost lands in no layer's self time."""

    __slots__ = ("name", "layer", "start", "end", "covered", "parent", "op",
                 "points", "bytes_in", "bytes_out")

    def __init__(self, name, layer, parent, op):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.op = op
        self.start = self.end = self.covered = 0.0
        self.points = self.bytes_in = self.bytes_out = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


_SCALARS = (int, float, str, type(None))
_FIELDS: dict[type, tuple[str, ...]] = {}


def _fields(obj):
    """The values a container or dataclass instance carries, one level deep."""
    if isinstance(obj, (tuple, list)):
        return obj
    cls = type(obj)
    names = _FIELDS.get(cls)
    if names is None:
        names = ()
        if dataclasses.is_dataclass(cls):
            names = tuple(f.name for f in dataclasses.fields(cls))
        _FIELDS[cls] = names
    return [getattr(obj, n) for n in names]


def _array_points(a: np.ndarray) -> int:
    # su(2) matrices (..., 2, 2) and R^3 vectors (..., 3) are one grid point each
    if a.ndim >= 3 and a.shape[-2:] == (2, 2):
        return a.size // 4
    if a.ndim >= 2 and a.shape[-1] == 3:
        return a.size // 3
    return a.size


def _argv_points(argv) -> int:
    """nx * nt of a CLI argument vector that names both, else 0."""
    try:
        nx = int(argv[argv.index("--nx") + 1])
        nt = int(argv[argv.index("--nt") + 1])
    except (ValueError, IndexError):
        return 0
    return nx * nt


def points_of(args, kwargs) -> int:
    """Grid points a call was given: an explicit nx * nt keyword pair, else
    those of its largest array argument, looking into containers and
    dataclasses only when no argument is an array itself."""
    nx, nt = kwargs.get("nx"), kwargs.get("nt")
    if isinstance(nx, int) and isinstance(nt, int):
        return nx * nt
    values = (*args, *kwargs.values())
    points = max((_array_points(v) for v in values if isinstance(v, np.ndarray)), default=0)
    if points:
        return points
    for v in values:
        if isinstance(v, list) and v and isinstance(v[0], str):
            points = max(points, _argv_points(v))
        elif not isinstance(v, _SCALARS):
            points = max(points, max((_array_points(f) for f in _fields(v)
                                      if isinstance(f, np.ndarray)), default=0))
    return points


def bytes_of(values) -> int:
    """Bytes of the arrays, and of text at one byte a character, among
    ``values``, looking one container or dataclass level deep."""
    nbytes = 0
    for v in values:
        if isinstance(v, np.ndarray):
            nbytes += v.nbytes
        elif isinstance(v, str):
            nbytes += len(v)
        elif not isinstance(v, _SCALARS):
            nbytes += sum(f.nbytes for f in _fields(v) if isinstance(f, np.ndarray))
    return nbytes


def _traceable(fn) -> bool:
    # a generator's span would end before its body runs
    return isinstance(fn, types.FunctionType) and not inspect.isgeneratorfunction(fn)


class Tracer:
    """Records spans for every call into a package's public functions."""

    def __init__(self, bytes_layers=()):
        self.bytes_layers = frozenset(bytes_layers)   # layers whose bytes are counted
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, fn, name: str, layer: str):
        spans, stack = self.spans, self._stack
        count_bytes = layer in self.bytes_layers

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = perf_counter()
            span = Span(name, layer, stack[-1] if stack else -1, self.op)
            span.points = points_of(args, kwargs)
            if count_bytes:
                span.bytes_in = bytes_of((*args, *kwargs.values()))
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span.end = perf_counter()
                stack.pop()
                span.covered = perf_counter() - entered
                raise
            span.end = perf_counter()
            stack.pop()
            if count_bytes:
                span.bytes_out = bytes_of((out,))
            span.covered = perf_counter() - entered
            return out

        return traced

    def _set(self, target, key, value):
        if isinstance(target, dict):
            self._undo.append((target, key, target[key]))
            target[key] = value
        else:
            self._undo.append((target, key, getattr(target, key)))
            setattr(target, key, value)

    def install(self, package, extra=()):
        """Wrap the public functions and methods of every module of ``package``.

        ``extra`` holds (namespace, key, span name, layer) entries for private
        callables that mark a stage worth its own span; a namespace is a module
        or a dict.
        """
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{m.name}")
            for m in pkgutil.iter_modules(package.__path__)
        ]
        wrappers = {}
        for mod in modules[1:]:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if _traceable(obj):
                    wrappers[obj] = self.wrap(obj, f"{layer}.{name}", layer)
                elif isinstance(obj, type) and not issubclass(obj, (Enum, BaseException)):
                    for attr, fn in list(vars(obj).items()):
                        if not attr.startswith("_") and _traceable(fn):
                            self._set(obj, attr, self.wrap(fn, f"{layer}.{name}.{attr}", layer))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._set(mod, name, wrappers[obj])
        for target, key, name, layer in extra:
            fn = target[key] if isinstance(target, dict) else getattr(target, key)
            self._set(target, key, self.wrap(fn, name, layer))

    def uninstall(self):
        while self._undo:
            target, key, value = self._undo.pop()
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)
