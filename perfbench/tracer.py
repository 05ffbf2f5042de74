"""In-memory span tracer that times sgspectra's layers from outside the package.

`Tracer.install` replaces the names through which `sgspectra.verify` and
`sgspectra.cli` call into the other modules, and the entries of
`verify.CHECKERS`, with wrappers that record one span per call:
``[name, start, end, parent]``.  A span's name is ``<layer>.<function>``, where
the layer is the module the function lives in.  Nothing inside the package is
edited; `uninstall` puts every original name back.
"""
from __future__ import annotations

import inspect
import time
import types
from collections import defaultdict

LAYERS = ("eigen", "matrices", "graphs", "surgery", "fileio", "verify", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.eigen_calls: list[tuple] = []  # (input copy, output, seconds)
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn):
        """Return fn wrapped so that each call appends a span named `name`."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span[1] = start
                span[2] = end

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span opened by the benchmark itself."""
        return self.wrap(name, fn)(*args, **kwargs)

    def _wrap_function(self, fn, np):
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{fn.__name__}"
        if layer != "eigen" or fn.__name__ != "eigenvalues":
            return self.wrap(name, fn)
        # Keep a private copy of every matrix handed to the solver, taken
        # before the call, so the ceiling and agreement checks see the input
        # even if a solver works in place.
        inner, spans, calls = self.wrap(name, fn), self.spans, self.eigen_calls

        def traced_eigen(m, *args, **kwargs):
            before = np.array(m, dtype=np.float64)
            idx = len(spans)
            out = inner(m, *args, **kwargs)
            calls.append((before, np.array(out, dtype=np.float64), spans[idx][2] - spans[idx][1]))
            return out

        return traced_eigen

    def _set(self, namespace: dict, key: str, value) -> None:
        self._undo.append((namespace, key, namespace[key]))
        namespace[key] = value

    def install(self, sg, np) -> None:
        """Wrap the call sites in sg.verify and sg.cli (sg: the package's modules)."""
        own = {f"sgspectra.{layer}" for layer in LAYERS}
        for site in (sg.verify, sg.cli):
            namespace = vars(site)
            for key, obj in list(namespace.items()):
                if (inspect.isfunction(obj) and obj.__module__ in own
                        and obj.__module__ != site.__name__):
                    self._set(namespace, key, self._wrap_function(obj, np))
        # cli calls the fileio module through its attribute (`fileio.read_sg`):
        # hand cli a stand-in whose functions are wrapped, leaving the module
        # itself (and fileio's internal calls) untouched.
        cli_ns = vars(sg.cli)
        if isinstance(cli_ns.get("fileio"), types.ModuleType):
            real = cli_ns["fileio"]
            proxy = types.SimpleNamespace(**{
                key: (self._wrap_function(obj, np)
                      if inspect.isfunction(obj) and obj.__module__ == real.__name__ else obj)
                for key, obj in vars(real).items() if not key.startswith("__")
            })
            self._set(cli_ns, "fileio", proxy)
        checkers = sg.verify.CHECKERS
        for key, fn in list(checkers.items()):
            self._set(checkers, key, self.wrap(f"verify.{fn.__name__}", fn))

    def uninstall(self) -> None:
        while self._undo:
            namespace, key, original = self._undo.pop()
            namespace[key] = original

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct child spans cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [(end - start) - covered[i] for i, (_, start, end, _) in enumerate(self.spans)]

    def by_name(self) -> dict[str, list[float]]:
        """name -> [calls, total self seconds, total duration seconds]."""
        out: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _), own in zip(self.spans, self.self_times()):
            row = out[name]
            row[0] += 1
            row[1] += own
            row[2] += end - start
        return dict(out)
