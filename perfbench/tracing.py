"""In-memory spans around the public functions of the fgig layers.

:class:`Tracer` rebinds every public function of the traced modules, in
every fgig module that holds it, to a wrapper that records one span per
call: name, start, end, parent span and check id.  Nothing under ``src/``
changes; each layer is timed from outside through its public calls.
A few layers also record a count taken from their arguments or result.
"""

import functools
import inspect
import sys
import time

LAYERS = ("params", "measures", "transforms", "convolution",
          "characterization", "levy", "asymptotics", "entropy")


def _cauchy_counts(args, result):
    m, z = args[0], args[1]
    return {"pairs": int(getattr(z, "size", 1)) * int(m.nodes.size)}


def _build_fgig_counts(args, result):
    return {"nodes": int(result.nodes.size),
            "mass_err": abs(result.mass() - 1.0)}


def _log_energy_counts(args, result):
    return {"nodes": int(args[0].nodes.size)}


def _free_convolve_counts(args, result):
    return {"out_nodes": int(result.nodes.size)}


COUNTERS = {
    "transforms.cauchy_nodes": _cauchy_counts,
    "measures.build_fgig": _build_fgig_counts,
    "entropy.log_energy": _log_energy_counts,
    "convolution.free_convolve": _free_convolve_counts,
}


class Span:
    __slots__ = ("sid", "parent", "check", "name", "start", "end", "counts")

    def __init__(self, sid, parent, check, name, start):
        self.sid, self.parent, self.check = sid, parent, check
        self.name, self.start = name, start
        self.end = None
        self.counts = None

    def as_row(self):
        return tuple(getattr(self, f) for f in self.__slots__)


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` toggle it."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._check = None
        names = {}
        for layer in LAYERS:
            mod = sys.modules[f"fgig.{layer}"]
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    names[fn] = f"{layer}.{attr}"
        self._wrappers = {fn: self._wrap(fn, name)
                          for fn, name in names.items()}
        # every binding of a traced function, re-exports included
        self._bindings = [
            (mod, attr, fn)
            for name, mod in list(sys.modules.items())
            if name == "fgig" or name.startswith("fgig.")
            for attr, fn in list(vars(mod).items())
            if inspect.isfunction(fn) and fn in self._wrappers]

    def install(self):
        for mod, attr, fn in self._bindings:
            setattr(mod, attr, self._wrappers[fn])

    def uninstall(self):
        for mod, attr, fn in self._bindings:
            setattr(mod, attr, fn)

    def _call(self, name, fn, args, kwargs):
        """``(span, result)`` of ``fn`` called inside a new span."""
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), parent, self._check, name,
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        try:
            return span, fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span, result = self._call(name, fn, args, kwargs)
            if counter is not None:
                span.counts = counter(args, result)
            return result

        return traced

    def check(self, check_id, fn, *args):
        """Run one check under a root span named ``check``."""
        self._check = check_id
        try:
            return self._call("check", fn, args, {})[1]
        finally:
            self._check = None


def self_times(spans):
    """Self time of each span: its duration minus its children's."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def layer_metrics(spans, n_checks):
    """Per-check seconds and per-call counts for every traced name.

    ``<name>.s`` sums the spans of ``name`` not nested in another span of
    the same name, per check; ``<name>.self_s`` sums their self time;
    ``<name>.calls`` counts calls per check.
    Counts come back as lists of per-call values.
    """
    total, own, calls, counts = {}, {}, {}, {}
    for s, st in zip(spans, self_times(spans)):
        if s.name == "check":
            continue
        calls[s.name] = calls.get(s.name, 0) + 1
        own[s.name] = own.get(s.name, 0.0) + st
        p = s.parent
        while p is not None and spans[p].name != s.name:
            p = spans[p].parent
        if p is None:
            total[s.name] = total.get(s.name, 0.0) + (s.end - s.start)
        for key, val in (s.counts or {}).items():
            counts.setdefault(f"{s.name}.{key}", []).append(val)
    n = max(n_checks, 1)
    out = {f"{k}.s": v / n for k, v in total.items()}
    out.update({f"{k}.calls": v / n for k, v in calls.items()})
    out.update({f"{k}.self_s": v / n for k, v in own.items()})
    return out, counts
