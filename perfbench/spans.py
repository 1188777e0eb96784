"""Outside-in tracer: wraps the package's public functions and methods.

Every wrapped call made inside a phase is one span; calls outside any phase
(the benchmark's own output checks) are not recorded.  Spans are not
stored one by one (a five-node hour makes over a million calls); they are
aggregated by ``(phase, parent, name)`` into a call count, total time and
time covered by child spans, with a stack giving each span its parent.
Only the top-level phase spans opened by the benchmark (setup, config,
steady, transient, output) are kept whole.  ``uninstall`` puts every
original object back."""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager

PACKAGE = "gasnetsim"
# layers the benchmark traces, as submodule names of the package
LAYERS = ("config", "steady", "network", "pipe", "eos", "profiles",
          "experiments", "output")


def _public_callables(module):
    """Yield ``(owner, attr, span name, function)`` for one module."""
    short = module.__name__.rsplit(".", 1)[-1]
    for attr, obj in list(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != \
                module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, attr, f"{short}.{attr}", obj
        elif inspect.isclass(obj):
            for mattr, mobj in list(vars(obj).items()):
                if inspect.isfunction(mobj) and \
                        (not mattr.startswith("_") or mattr == "__call__"):
                    yield obj, mattr, f"{short}.{attr}.{mattr}", mobj


class Tracer:
    """Aggregating span recorder; install around a run, then uninstall."""

    def __init__(self):
        self.clock = time.perf_counter
        # (phase, parent, name) -> [calls, total time, child time]
        self.stats = {}
        self.phases = []         # (name, start, end, child time), kept whole
        self._stack = []         # open spans: [name, child time]
        self._phase = [""]
        self._undo = []

    def _wrap(self, name, fn):
        stack, stats, clock, phase = (self._stack, self.stats, self.clock,
                                      self._phase)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not phase[0]:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                key = (phase[0], parent[0] if parent else "", name)
                rec = stats.get(key)
                if rec is None:
                    rec = stats[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += frame[1]
                if parent:
                    parent[1] += elapsed
        return span

    def install(self):
        """Wrap every public function and method of the traced layers, in
        every loaded module of the package that binds it."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and
                   (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for layer in LAYERS:
            for owner, attr, name, fn in _public_callables(
                    sys.modules[f"{PACKAGE}.{layer}"]):
                wrapper = self._wrap(name, fn)
                self._undo.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                if inspect.ismodule(owner):
                    for mod in modules:
                        for alias, obj in list(vars(mod).items()):
                            if obj is fn:
                                self._undo.append((mod, alias, fn))
                                setattr(mod, alias, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    @contextmanager
    def phase(self, name):
        """Top-level span opened by the benchmark around one phase."""
        if self._stack:
            raise RuntimeError("phases do not nest")
        frame = [name, 0.0]
        self._stack.append(frame)
        self._phase[0] = name
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            self._phase[0] = ""
            self.phases.append((name, start, end, frame[1]))

    def rows(self):
        """Aggregated spans as dicts, largest self time first."""
        out = [{"phase": ph, "parent": parent, "name": name, "calls": calls,
                "total_s": total, "self_s": total - child}
               for (ph, parent, name), (calls, total, child)
               in self.stats.items()]
        return sorted(out, key=lambda r: -r["self_s"])

    def phase_rows(self):
        return [{"name": name, "total_s": end - start,
                 "self_s": end - start - child}
                for name, start, end, child in self.phases]

    def layer_totals(self, phases=None):
        """Sum calls and self time per span name over parents, optionally
        over the given phases only."""
        out = {}
        for (ph, _parent, name), (calls, total, child) in self.stats.items():
            if phases is not None and ph not in phases:
                continue
            rec = out.setdefault(name, [0, 0.0])
            rec[0] += calls
            rec[1] += total - child
        return out
