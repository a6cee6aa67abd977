"""Spans around mexlab's public functions, installed from outside.

The tracer replaces every public function of each mexlab module with a
wrapper that records a span: name, start, end, the span that was open when
it began (its parent) and the index of the query it belongs to.  Modules
import functions by name (`from .graphs import is_free`), so the wrapper is
also bound under every name that held the original in any mexlab module.
Spans stay in memory until `write_jsonl`.  `uninstall` restores every
binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from time import perf_counter

LAYERS = ("cli", "graphs", "oracle", "constructions", "fields", "extraction",
          "bounds")

# Per-element helpers called millions of times inside the traced functions:
# a span each would measure the tracer, not mexlab.
UNTRACED = {"graphs.splitmix64", "graphs.bits"}

# Work counts read from a call's arguments or result.
ATTRS = {
    "graphs.load_edge_list": lambda args, res: {"edges": res.m},
    "graphs.save_edge_list": lambda args, res: {"edges": args[0].m},
    "graphs.is_free": lambda args, res: {"free": bool(res)},
    "graphs.gnp": lambda args, res: {"slots": args[0] * (args[0] - 1) // 2},
    "constructions.norm_graph": lambda args, res: {"edges": res.m},
}


class Tracer:
    def __init__(self, package: str = "mexlab"):
        self.package = package
        self.spans: list[list] = []  # [name, start, end, parent, query, attrs]
        self.query = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        extract = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.query, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if extract is not None:
                span[5] = extract(args, result)
            return result

        return traced

    def _bind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"{self.package}.{layer}")
                   for layer in LAYERS}
        namespaces = [importlib.import_module(self.package)] + list(modules.values())
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in UNTRACED
                        or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                wrapper = self._wrap(name, obj)
                for ns in namespaces:
                    for bound, value in list(vars(ns).items()):
                        if value is obj:
                            self._bind(ns, bound, wrapper)
        field_cls = modules["fields"].FiniteField
        for attr, obj in list(vars(field_cls).items()):
            if not attr.startswith("_") and inspect.isfunction(obj):
                self._bind(field_cls, attr, self._wrap(f"fields.FiniteField.{attr}", obj))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for i, (name, start, end, parent, query, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "query": query, "attrs": attrs}) + "\n")
