"""Outside-in tracing of the library's layers.

Every public function of each layer module is wrapped, and the wrapper is
bound in every module namespace that holds the original, so calls between
modules (``grassmann`` calling ``plucker_form.tangent_codim``, say) are traced
as well as the benchmark's own calls.  A wrapper records a span (name, start,
end, parent) in memory; a function's self time is its span time minus the
time of its child spans.  Spans are summarised when the run ends.

The library is single-threaded and nothing in it waits on a queue or a lock,
so spans carry no wait time.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("scalars", "exterior", "plucker_form", "grassmann", "bundle_pairs_p1")
CASE = "bench.case"


def _matrix_size(args, result):
    M = args[0]
    return M.rows * M.cols, f"{M.rows}x{M.cols}"


# Work counts recorded next to the span: (size, shape label).
SIZERS = {
    "scalars.mat_rank": _matrix_size,
    "exterior.wedge": lambda args, result: (len(args[0].terms) * len(args[1].terms), None),
    "plucker_form.build_tangent_system": lambda args, result: (
        _matrix_size((result.matrix,), None)[0],
        None,
    ),
}


class Tracer:
    """Records spans while installed; ``uninstall`` restores the library."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, (size, shape) or None)
        self._stack: list[int] = []
        self._patches: list = []

    def call(self, name: str, fn, *args, **kwargs):
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            spans[idx] = (name, start, end, parent, None)
        sizer = SIZERS.get(name)
        if sizer is not None:
            spans[idx] = (name, start, end, parent, sizer(args, result))
        return result

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def install(self, namespaces) -> None:
        """Wrap the public functions of every layer, then rebind them in the
        layer modules and in each of ``namespaces`` (modules that imported them)."""
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"pluckerlab.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
        targets = [m for n, m in sys.modules.items() if n.split(".")[0] == "pluckerlab"]
        for module in targets + list(namespaces):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrapped[obj])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patches):
            setattr(module, attr, obj)
        self._patches.clear()


def summarize(spans, rounds: int) -> dict:
    """Per-round totals: self time and calls for every span name, self time
    per matrix shape, work sizes, and the classifier's tangent-route share."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = defaultdict(float)
    calls = defaultdict(int)
    sizes = defaultdict(int)
    shape_self = defaultdict(float)
    case_s = 0.0
    for i, (name, start, end, parent, extra) in enumerate(spans):
        own = end - start - child[i]
        self_s[name] += own
        calls[name] += 1
        if name == CASE:
            case_s += end - start
        if extra is not None:
            size, shape = extra
            sizes[name] += size
            if shape is not None:
                shape_self[(name, shape)] += own
    reached = set()
    for name, _, _, parent, _ in spans:
        if name == "plucker_form.build_tangent_system":
            while parent >= 0 and spans[parent][0] != "grassmann.classify_membership":
                parent = spans[parent][3]
            if parent >= 0:
                reached.add(parent)
    classify_calls = calls["grassmann.classify_membership"]
    return {
        "case_s": case_s / rounds,
        "self_s": {k: v / rounds for k, v in self_s.items()},
        "calls": {k: v / rounds for k, v in calls.items()},
        "sizes": {k: v / rounds for k, v in sizes.items()},
        "shape_self_s": {k: v / rounds for k, v in shape_self.items()},
        "tangent_route_frac": len(reached) / classify_calls if classify_calls else 0.0,
    }
