"""Spans around the public functions at each module boundary of blaschke3d.

`Tracer.install()` rebinds every module-level reference to the functions in
`BOUNDARIES` (for example `blaschke3d.inequalities.continuation_solve` and
`blaschke3d.solver.area_jacobian`) to timing wrappers, and `uninstall()`
puts the originals back.  Nothing under `src/` is edited.  Spans are kept in
memory as dicts; `layer_metrics` turns them into per-layer counts and self
times (span time minus the time its direct children cover).
"""
from __future__ import annotations

import importlib
import json
import sys
import time

# span name -> (defining module, public function)
BOUNDARIES = {
    "solver.solve": ("blaschke3d.solver", "continuation_solve"),
    "solver.jacobian": ("blaschke3d.solver", "area_jacobian"),
    "geometry.convex_hull": ("blaschke3d.geometry", "convex_hull"),
    "geometry.volume": ("blaschke3d.geometry", "volume"),
    "geometry.contains": ("blaschke3d.geometry", "contains_by_translation"),
    "sums.minkowski": ("blaschke3d.sums", "minkowski_sum"),
    "sums.blaschke": ("blaschke3d.sums", "blaschke_sum_bodies"),
    "herisson.random": ("blaschke3d.herisson", "random_herisson"),
    "herisson.add": ("blaschke3d.herisson", "blaschke_add"),
    "inequalities.campaign": ("blaschke3d.inequalities", "fuzz_campaign"),
    "spherical.residual": ("blaschke3d.spherical",
                           "spherical_identity_residual"),
    "fileio.parse_herisson": ("blaschke3d.fileio", "parse_herisson_file"),
    "fileio.format_herisson": ("blaschke3d.fileio", "format_herisson"),
    "fileio.import_off": ("blaschke3d.fileio", "import_off"),
    "fileio.export_off": ("blaschke3d.fileio", "export_off"),
    "fileio.parse_polygon": ("blaschke3d.fileio", "parse_polygon_file"),
}

# error classes the solver is known to raise; anything else counts as Other
SOLVER_ERRORS = ("StepSizeUnderflow", "NewtonDivergence", "DegenerateBody",
                 "DegenerateAngle", "UnboundedRegion", "Other")

CLI_COMMANDS = ("construct", "bsum", "msum", "report", "check_ks",
                "sphere_check")


def _vertex_count(body):
    verts = getattr(body, "vertices", body)
    shape = getattr(verts, "shape", None)
    return shape[0] if shape and len(shape) == 2 else 1


def _solve_attrs(result, args):
    trace = result[2]
    return {"steps": trace.steps_taken,
            "final_residual": float(trace.final_residual)}


def _minkowski_attrs(result, args):
    return {"points": _vertex_count(args[0]) * _vertex_count(args[1])}


_ATTRS = {"solver.solve": _solve_attrs, "sums.minkowski": _minkowski_attrs}


class Tracer:
    """In-memory span recorder.  Each span is a dict with `id`, `name`,
    `start`, `end` (perf_counter seconds, which on Linux is the system-wide
    monotonic clock, so child-process spans share the timeline), `parent`,
    `op` and optional `attrs`/`error`."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None
        self._saved = []

    def begin(self, name, op=None):
        if op is not None:
            self._op = op
        span = {"id": len(self.spans), "name": name,
                "start": time.perf_counter(), "end": None,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "op": self._op}
        self.spans.append(span)
        self._stack.append(span)
        return span

    @property
    def current(self):
        return self._stack[-1] if self._stack else None

    def end(self, span, error=None):
        span["end"] = time.perf_counter()
        if error is not None:
            span["error"] = type(error).__name__
        self._stack.pop()
        if not self._stack:
            self._op = None

    def wrap(self, name, fn):
        attrs = _ATTRS.get(name)

        def traced(*args, **kwargs):
            if not self._stack:  # outside an operation: output checks etc.
                return fn(*args, **kwargs)
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end(span, exc)
                raise
            self.end(span)
            if attrs is not None:
                span["attrs"] = attrs(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Rebind every reference to a boundary function in the loaded
        blaschke3d modules."""
        for name, (modname, attr) in BOUNDARIES.items():
            original = getattr(importlib.import_module(modname), attr)
            wrapper = self.wrap(name, original)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("blaschke3d"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._saved.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._saved):
            setattr(mod, key, original)
        self._saved.clear()

    def adopt(self, spans, parent):
        """Append spans recorded by a child process under `parent`."""
        remap = {}
        for span in spans:
            new = dict(span, id=len(self.spans), op=parent["op"])
            remap[span["id"]] = new["id"]
            new["parent"] = (parent["id"] if span["parent"] is None
                             else remap[span["parent"]])
            self.spans.append(new)

    def dump(self, path, extra=None):
        with open(path, "w") as fh:
            json.dump(dict(extra or {}, spans=self.spans), fh)


def self_times(spans):
    """Span id -> duration minus the time its direct children cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans):
    """Per-layer counts and self times over the given spans."""
    own = self_times(spans)
    calls, selfs = {}, {}
    for s in spans:
        calls[s["name"]] = calls.get(s["name"], 0) + 1
        selfs[s["name"]] = selfs.get(s["name"], 0.0) + own[s["id"]]

    def c(name):
        return calls.get(name, 0)

    def t(name):
        return selfs.get(name, 0.0)

    solves = [s for s in spans if s["name"] == "solver.solve"]
    done = [s["attrs"] for s in solves if "attrs" in s]
    steps = sum(a["steps"] for a in done)
    failures = dict.fromkeys(SOLVER_ERRORS, 0)
    for s in solves:
        if "error" in s:
            kind = s["error"] if s["error"] in failures else "Other"
            failures[kind] += 1
    points = sum(s["attrs"]["points"] for s in spans
                 if s["name"] == "sums.minkowski" and "attrs" in s)
    out = {
        "solver.solve.calls": (c("solver.solve"), "count"),
        "solver.solve.self_s": (t("solver.solve"), "s"),
        "solver.steps": (steps, "count"),
        "solver.jacobian.calls": (c("solver.jacobian"), "count"),
        "solver.jacobian.self_s": (t("solver.jacobian"), "s"),
        "solver.jacobians_per_step": (
            c("solver.jacobian") / steps if steps else 0.0, "ratio"),
        "solver.final_residual_max": (
            max((a["final_residual"] for a in done), default=0.0), "rel"),
        "geometry.convex_hull.calls": (c("geometry.convex_hull"), "count"),
        "geometry.convex_hull.self_s": (t("geometry.convex_hull"), "s"),
        "geometry.volume.self_s": (t("geometry.volume"), "s"),
        "geometry.contains.self_s": (t("geometry.contains"), "s"),
        "sums.minkowski.calls": (c("sums.minkowski"), "count"),
        "sums.minkowski.self_s": (t("sums.minkowski"), "s"),
        "sums.minkowski.points": (points, "count"),
        "sums.blaschke.calls": (c("sums.blaschke"), "count"),
        "herisson.random.self_s": (t("herisson.random"), "s"),
        "herisson.add.self_s": (t("herisson.add"), "s"),
        "inequalities.campaign.self_s": (t("inequalities.campaign"), "s"),
        "fileio.calls": (sum(n for k, n in calls.items()
                             if k.startswith("fileio.")), "count"),
        "fileio.self_s": (sum(v for k, v in selfs.items()
                              if k.startswith("fileio.")), "s"),
    }
    for kind, n in failures.items():
        out[f"solver.failures.{kind}"] = (n, "count")
    for cmd in CLI_COMMANDS:
        out[f"cli.command_s.{cmd}"] = (
            sum(s["end"] - s["start"] for s in spans
                if s["name"] == f"cli.{cmd}"), "s")
    return out


def coverage(spans):
    """Share of the operations' wall time that their direct child spans
    cover (1.0 means every instant of an operation is inside a layer)."""
    ops = {s["id"]: s for s in spans if s["name"] == "op"}
    wall = sum(s["end"] - s["start"] for s in ops.values())
    covered = sum(s["end"] - s["start"] for s in spans
                  if s["parent"] in ops)
    return covered / wall if wall else 0.0
