"""Spans recorded from outside the package, and the per-layer numbers
derived from them.

A ``Tracer`` wraps the public functions of the package's modules at their
module attributes, so every call made through a module namespace (including
names one module imports from another) opens a span.  Spans live in memory
until the run ends; ``restore`` puts every original attribute back.
"""

from __future__ import annotations

import contextlib
import json
import math
import time
import types
from dataclasses import dataclass, field

MODULES = ("cli", "core", "analytic", "estimators", "significance", "diagnostics")
# the SVG renderer lives in a private module; it is part of the CLI layer
_LAYER_OF_MODULE = {"_svg": "cli"}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    workload: str
    cpu: float = 0.0
    error: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _lag_embed_attrs(args, result) -> dict:
    rows, p = result.past.shape
    # computed, not measured: the bytes of the (past, future) arrays built
    return {"bytes": rows * (p + 1) * 8}


def _ksg_attrs(args, result) -> dict:
    x, y = args[0], args[1]
    n = len(x)
    dims = (x.shape[1] if x.ndim == 2 else 1) + (y.shape[1] if y.ndim == 2 else 1)
    return {"points": n, "class": f"n{ksg_size_class(n)}-d{dims}"}


def ksg_size_class(n: int) -> int:
    """Sample sizes are grouped to the nearest thousand (at least 1000)."""
    return max(1000, int(round(n / 1000.0)) * 1000)


_ATTRS = {
    "core.lag_embed": _lag_embed_attrs,
    "estimators.ksg_mutual_information": _ksg_attrs,
}


class Tracer:
    """Records spans around calls into the wrapped package functions."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    @contextlib.contextmanager
    def span(self, name: str):
        """Open a span, child of the innermost open one, for the block."""
        span = Span(
            id=len(self.spans), name=name, start=time.perf_counter(), end=0.0,
            parent=self._stack[-1] if self._stack else None, workload=self.workload,
            cpu=-time.process_time(),
        )
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.cpu += time.process_time()
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, func, name: str):
        attrs = _ATTRS.get(name)

        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = func(*args, **kwargs)
            if attrs is not None:
                span.attrs = attrs(args, result)
            return result

        traced.__wrapped__ = func
        return traced

    # ---------------------------------------------------- install/remove

    def install(self, modules: dict[str, types.ModuleType]):
        """Wrap every public package function bound in the given modules,
        plus ``cli.RunManifest.build``.  Spans are named after the layer that
        defines the function, whichever module the call went through."""
        for module in modules.values():
            for attr, value in sorted(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                if not value.__module__.startswith("forecastability."):
                    continue
                layer = value.__module__.rsplit(".", 1)[1]
                layer = _LAYER_OF_MODULE.get(layer, layer)
                self._replace(module, attr, self._wrap(value, f"{layer}.{attr}"))
        manifest = modules["cli"].RunManifest
        build = vars(manifest)["build"]
        self._replace(
            manifest, "build",
            classmethod(self._wrap(build.__func__, "cli.RunManifest.build")),
            original=build,
        )

    def _replace(self, owner, attr: str, new, original=None):
        self._saved.append((owner, attr, getattr(owner, attr) if original is None else original))
        setattr(owner, attr, new)

    def restore(self):
        """Put back every attribute ``install`` replaced, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "workload": s.workload, "cpu_s": s.cpu,
                    "error": s.error, **s.attrs,
                }) + "\n")


def bindings(modules: dict[str, types.ModuleType]) -> dict[str, object]:
    """Every attribute of the given modules, plus ``cli.RunManifest.build``,
    by qualified name; compare two snapshots with ``changed``."""
    out = {f"{key}.{attr}": value
           for key, module in modules.items() for attr, value in vars(module).items()}
    out["cli.RunManifest.build"] = vars(modules["cli"].RunManifest)["build"]
    return out


def changed(before: dict[str, object], modules: dict[str, types.ModuleType]) -> list[str]:
    """Names whose binding is no longer the object recorded in ``before``."""
    after = bindings(modules)
    return sorted(k for k in before.keys() | after.keys()
                  if before.get(k, _MISSING) is not after.get(k, _MISSING))


_MISSING = object()


# ---------------------------------------------------------- statistics


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are counted once)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, cur_start, cur_end = 0.0, None, None
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.id] = s.duration - covered
    return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def summarise(spans: list[Span]) -> dict[str, dict]:
    """Calls, errors, total and self time of every span name."""
    own = self_times(spans)
    table: dict[str, dict] = {}
    for s in spans:
        row = table.setdefault(s.name, {"calls": 0, "errors": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["errors"] += s.error is not None
        row["total_s"] += s.duration
        row["self_s"] += own[s.id]
    return table


LAYERS = (
    "cli.read_series_csv", "cli.read_probe_csv", "cli.emit_table",
    "cli.RunManifest.build", "cli.render_profile_svg", "core.lag_embed",
    "analytic.simulate", "analytic.seasonal_ar_acf",
    "analytic.gaussian_profile_from_acf", "estimators.estimate_profile",
    "estimators.ksg_mutual_information", "estimators.digamma",
    "estimators.kl_entropy", "estimators.finite_window_budget",
    "significance.permutation_test", "diagnostics.decompose_loss",
)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The named per-layer metrics; a layer the run never called reads 0."""
    table = summarise(spans)

    def stat(name, key):
        return table.get(name, {}).get(key, 0)

    out: dict[str, float] = {}
    for name in LAYERS:
        out[f"{name}.self_s"] = float(stat(name, "self_s"))
        out[f"{name}.calls"] = stat(name, "calls")
    out["trace.errors"] = sum(row["errors"] for row in table.values())

    out["core.lag_embed.bytes"] = sum(
        s.attrs.get("bytes", 0) for s in spans if s.name == "core.lag_embed"
    )
    ksg = [s for s in spans if s.name == "estimators.ksg_mutual_information"]
    out["estimators.ksg_mutual_information.points"] = sum(s.attrs.get("points", 0) for s in ksg)
    ksg_wall = sum(s.duration for s in ksg)
    out["estimators.ksg_mutual_information.cpu_per_wall"] = (
        sum(s.cpu for s in ksg) / ksg_wall if ksg_wall > 0 else 0.0
    )
    by_class: dict[str, list[float]] = {}
    for s in ksg:
        by_class.setdefault(s.attrs.get("class", ""), []).append(s.duration * 1e3)
    for cls, stats in (("n1000-d2", (50, 95)), ("n20000-d2", (50,)), ("n20000-d14", (50,))):
        for q in stats:
            out[f"estimators.ksg.{cls}.p{q}_ms"] = percentile(by_class.get(cls, []), q)

    by_id = {s.id: s for s in spans}
    replicates = [
        s.duration * 1e3 for s in spans
        if s.name == "estimators.estimate_profile" and s.parent is not None
        and by_id[s.parent].name == "significance.permutation_test"
    ]
    out["significance.replicate.p50_ms"] = percentile(replicates, 50)
    out["significance.replicate.p95_ms"] = percentile(replicates, 95)
    return out
