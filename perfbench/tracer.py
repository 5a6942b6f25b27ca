"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each traced public function of normplane with a
wrapper, everywhere the package holds a reference to it (module attributes,
names imported with ``from ... import``, and the gallery's builder table),
and the hot NormModel methods with counting wrappers. Spans are kept in
memory (name, start, end, parent span, operation id, gauge points) and
written out by ``dump`` when the run ends. Standard library only.
"""

from __future__ import annotations

import functools
import json
import sys
import time

#: functions recorded as spans: calls, self time and gauge points
SPANNED = {
    "models": ("validate", "dual_model"),
    "staircase": ("build_nobst",),
    "moduli": ("delta_curve", "delta_uc"),
    "classify": ("tangency_sweep", "kappa_extrema_thetas", "umst_delta_table", "find_flat"),
    "geometry": ("sphere_point", "operator_norm", "operator_norm_batch", "dual_gauge_many"),
    "tangency": (
        "disc_radii",
        "inner_disc",
        "verify_disc",
        "inner_ellipse",
        "ellipse_inside_ball",
        "outer_ellipse",
        "john_ellipse",
    ),
    "semigroup": ("certify", "orbit_map"),
}

#: NormModel methods that are counted (calls, and points or cache fills), not spanned
POINT_METHODS = ("gauge_many", "sphere_points_at")
CACHE_METHODS = ("sphere_cache", "fine_points")

#: numerics helpers whose calls are counted where each module binds them
COUNTED = ("golden_min", "bisect_batch")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent, op, gauge_points)
        self.stack: list[int] = []
        self.op = -1  # -1 while setting up
        self.counts: dict[str, int] = {}
        self.gauge_points = 0
        self._filled: dict[int, object] = {}  # id -> object, kept so ids stay unique

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn):
        spans = self.spans
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            g0 = self.gauge_points
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[index] = (name, t0, t1, parent, self.op, self.gauge_points - g0)

        return wrapper

    def _count_calls(self, name: str, fn):
        counts = self.counts
        key = name + ".calls"
        counts[key] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_points(self, name: str, fn, gauge: bool):
        """gauge_many counts the rows of its point array, sphere_points_at the
        number of angles it is given."""
        counts = self.counts
        size = _rows if gauge else _size
        calls, points = name + ".calls", name + ".points"
        counts[calls] = counts[points] = 0

        @functools.wraps(fn)
        def wrapper(model, pts, *args, **kwargs):
            n = size(pts)
            counts[calls] += 1
            counts[points] += n
            if gauge:
                self.gauge_points += n
            return fn(model, pts, *args, **kwargs)

        return wrapper

    def _count_fills(self, name: str, fn):
        """A fill is a call that returns an object this cache never returned
        before, i.e. one that found the cache empty and built it."""
        counts = self.counts
        calls, fills = name + ".calls", name + ".fills"
        counts[calls] = counts[fills] = 0
        filled = self._filled

        @functools.wraps(fn)
        def wrapper(model):
            counts[calls] += 1
            out = fn(model)
            if id(out) not in filled:
                filled[id(out)] = out
                counts[fills] += 1
            return out

        return wrapper

    # -- installation -----------------------------------------------------------

    def install(self):
        """Wrap the traced functions; normplane.cli must already be imported."""
        pkg = {name.partition(".")[2]: mod for name, mod in sys.modules.items()
               if name == "normplane" or name.startswith("normplane.")}
        models = pkg["models"]
        for method in POINT_METHODS:
            orig = getattr(models.NormModel, method)
            setattr(models.NormModel, method,
                    self._count_points(f"models.{method}", orig, method == "gauge_many"))
        for method in CACHE_METHODS:
            orig = getattr(models.NormModel, method)
            setattr(models.NormModel, method, self._count_fills(f"models.{method}", orig))
        for modname, names in SPANNED.items():
            mod = pkg[modname]
            for fname in names:
                label = f"{modname}.{fname}"
                if hasattr(mod, fname):
                    _rebind(pkg, getattr(mod, fname), self._span(label, getattr(mod, fname)))
                else:  # a NormModel method: models.validate
                    setattr(models.NormModel, fname, self._span(label, getattr(models.NormModel, fname)))
        numerics = pkg["numerics"]
        for fname in COUNTED:
            orig = getattr(numerics, fname)
            _rebind(pkg, orig, self._count_calls(f"numerics.{fname}", orig))
        return self

    # -- results ----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """calls / self_s / gauge_points per spanned function, plus the counters."""
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out: dict[str, float] = {}
        for modname, names in SPANNED.items():
            for fname in names:
                label = f"{modname}.{fname}"
                out[label + ".calls"] = 0
                out[label + ".self_s"] = 0.0
                out[label + ".gauge_points"] = 0
        for i, (name, t0, t1, _, _, points) in enumerate(self.spans):
            out[name + ".calls"] += 1
            out[name + ".self_s"] += (t1 - t0) - child_time[i]
            out[name + ".gauge_points"] += points
        out.update(self.counts)
        return out

    def dump(self, path, metrics: dict) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op", "gauge_points"],
                    "spans": self.spans,
                    "metrics": metrics,
                },
                fh,
            )


def _rows(pts) -> int:
    shape = getattr(pts, "shape", None)
    if shape is None:
        shape = (len(pts), 2) if pts and hasattr(pts[0], "__len__") else (1,)
    return shape[0] if len(shape) == 2 else 1


def _size(thetas) -> int:
    size = getattr(thetas, "size", None)
    if size is None:
        size = len(thetas) if hasattr(thetas, "__len__") else 1
    return size


def _rebind(pkg: dict, orig, wrapper) -> None:
    """Point every reference the package and its modules hold to ``orig`` at
    ``wrapper``."""
    for mod in pkg.values():
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapper)
            elif isinstance(value, dict) and not key.startswith("__"):
                for k, v in list(value.items()):
                    if v is orig:
                        value[k] = wrapper
