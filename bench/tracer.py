"""Per-layer tracing of the gradflow package, installed from outside.

Every public function of each gradflow module is wrapped where callers
find it: at each module-level name bound to it, whether the module defined
it or imported it with ``from .x import y``, and on the class for public
methods. A wrapper counts calls and records self time (its duration minus
the time its traced callees took). Nothing is recorded while the tracer
is inactive, so checks made between ops do not show in the counts.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

MODULES = ("linalg", "network", "losses", "oracles", "flow", "spectra",
           "experiments", "cli")


def _first_dim(args, kwargs):
    a = args[0] if args else kwargs.get("a")
    shape = getattr(a, "shape", None)
    return int(shape[0]) if shape else 0


class Tracer:
    """Call counts, self seconds and a few layer-specific observations.

    ``gauges`` keep a maximum (``linalg.symmetric_eig.max_dim``);
    ``events`` count outcomes (``linalg.extended_min_norm.rank_deficient``).
    """

    def __init__(self):
        self.active = False
        self._stack = []
        self.reset()

    def reset(self):
        self.calls = defaultdict(int)
        self.self_seconds = defaultdict(float)
        self.gauges = defaultdict(int)
        self.events = defaultdict(int)

    def traced(self, fn, *args):
        """Call fn(*args) with recording on."""
        self.active = True
        try:
            return fn(*args)
        finally:
            self.active = False

    def exclude(self, seconds):
        """Leave out of self time a stretch spent outside the program (a
        kernel pass run from a timer signal inside a traced call)."""
        if self._stack:
            self._stack[-1][0] += seconds

    def wrap(self, name, fn):
        tracer = self
        stack = self._stack
        dim_gauge = name == "linalg.symmetric_eig"
        error_event = name == "linalg.extended_min_norm"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.calls[name] += 1
            if dim_gauge:
                dim = _first_dim(args, kwargs)
                if dim > tracer.gauges[name + ".max_dim"]:
                    tracer.gauges[name + ".max_dim"] = dim
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except ValueError as err:
                if error_event and "rank deficient" in str(err):
                    tracer.events[name + ".rank_deficient"] += 1
                raise
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                tracer.self_seconds[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        return traced

    def install(self, package):
        """Wrap the public functions and methods of ``package``'s modules."""
        modules = {short: getattr(package, short) for short in MODULES}
        wrapped = {}
        for short, mod in modules.items():
            for name, obj in vars(mod).items():
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped[id(obj)] = self.wrap(f"{short}.{name}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if meth.startswith("_") or not inspect.isfunction(fn):
                            continue
                        setattr(obj, meth,
                                self.wrap(f"{short}.{name}.{meth}", fn))
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, name, wrapped[id(obj)])
