"""Span tracer that times calls into each cvbell module from outside.

Every public function of every cvbell module is replaced, at every module
binding that refers to it (so ``from .x import f`` copies are caught too), by
a wrapper that pushes a span on an in-memory stack.  Spans are folded into
per-function totals as they close, so a traced run holding millions of calls
keeps a fixed amount of memory.  ``uninstall`` puts the originals back.

A callable that another layer passes into ``optim`` (the CLI's objective
closures) runs in a span of the caller's layer, named ``<layer>.<callback>``,
so its own time counts there and not as optimizer time.
"""
from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass

LAYERS = ("cli", "optim", "bell_dp", "gaussian", "conditional", "bell_ps", "homodyne", "fock")


@dataclass
class FunctionStats:
    calls: int = 0
    incl_ns: int = 0
    self_ns: int = 0
    evaluations: int = 0    # ScanResult.evaluations of optim calls not nested in optim


class Tracer:
    def __init__(self, package) -> None:
        self.package = package
        self.modules = {name: getattr(package, name) for name in LAYERS}
        self.stats: dict[str, FunctionStats] = {}
        self._stack: list[list] = []   # [start_ns, child_ns, layer]
        self._depth = dict.fromkeys(LAYERS, 0)
        self._swaps: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, qualname: str, fn):
        stats = self.stats.setdefault(qualname, FunctionStats())
        stack, depth = self._stack, self._depth
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if layer == "optim" and stack and stack[-1][2] != "optim":
                caller = stack[-1][2]
                args = tuple(self._wrap(caller, f"{caller}.<callback>", a)
                             if callable(a) and not inspect.isclass(a) else a for a in args)
            outer = depth[layer] == 0
            depth[layer] += 1
            frame = [clock(), 0, layer]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - frame[0]
                stack.pop()
                depth[layer] -= 1
                if stack:
                    stack[-1][1] += elapsed
                stats.calls += 1
                stats.incl_ns += elapsed
                stats.self_ns += elapsed - frame[1]
            if outer and layer == "optim":
                stats.evaluations += getattr(result, "evaluations", 0)
            return result

        return wrapper

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for layer, mod in self.modules.items():
            for name, obj in vars(mod).items():
                if (name.startswith("_") or inspect.isclass(obj) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(layer, f"{layer}.{name}", obj))
        for mod in (self.package, *self.modules.values()):
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._swaps.append((mod, name, obj))
                    setattr(mod, name, wrappers[id(obj)][1])

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._swaps):
            setattr(mod, name, obj)
        self._swaps.clear()

    def layer_totals(self) -> dict[str, tuple[int, int]]:
        """Per layer: (calls into its public functions, self time in ns)."""
        out = {layer: (0, 0) for layer in LAYERS}
        for qualname, st in self.stats.items():
            layer, name = qualname.split(".", 1)
            calls, self_ns = out[layer]
            out[layer] = (calls + (0 if name == "<callback>" else st.calls), self_ns + st.self_ns)
        return out

    def group(self, *qualnames: str) -> tuple[int, int]:
        """(calls, inclusive ns) summed over the named functions."""
        sts = [self.stats.get(q, FunctionStats()) for q in qualnames]
        return sum(s.calls for s in sts), sum(s.incl_ns for s in sts)
