"""Span tracing of momentkit's public functions, installed from outside.

``Tracer.installed()`` replaces each traced function with a wrapper in every
``momentkit`` module that binds it, including bindings imported by name
(``gkm`` imports ``smoothness_report``, ``monomials`` and
``restrict_to_hyperplane`` that way), and restores the originals on exit.
A span records its name, start, end, parent span and job id.  Spans stay in
memory in flat arrays and are written out once, at the end of a run.

The tracer's clock is the process's CPU time, like every time the
benchmark reports.  Time spent in the tracer's own bookkeeping after a call
(counting matrix nonzeros, box sizes) is taken off that clock, so it does
not show up as self time of the enclosing span.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
from array import array
from math import ceil, floor, prod
from time import process_time

TRACED_MODULES = ("cli", "polytopes", "linalg", "polar", "gkm",
                  "localization", "algebra")
# algebra's vector and polynomial primitives run per coordinate and per
# point; spans around them would outnumber the work they measure
ALGEBRA_TRACED = ("generic_vector", "monomials", "restrict_to_hyperplane",
                  "divides_linear", "poly_quotient_by_linear")


def _box_points(box) -> int:
    return prod(max(0, hi - lo + 1) for lo, hi in box)


def _integer_box(P) -> list[tuple[int, int]]:
    return [(ceil(min(v[i] for v in P.vertices)),
             floor(max(v[i] for v in P.vertices))) for i in range(P.dim)]


def _after_build(args, kwargs, result):
    return {"vertices": len(result.vertices)}


def _after_rank(args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    ncols = len(rows[0]) if rows else 0
    nnz = sum(1 for row in rows for x in row if x)
    return {"rows": len(rows), "cols": ncols, "nnz": nnz}


def _after_count(args, kwargs, result):
    P, box = args[0], args[2]
    return {"points": len(P.vertices) * _box_points(box), "count": result}


def _after_lattice_oracle(args, kwargs, result):
    return {"box_points": _box_points(_integer_box(args[0]))}


POST_HOOKS = {
    "polytopes.from_halfspaces": _after_build,
    "linalg.rank": _after_rank,
    "polar.signed_lattice_count": _after_count,
    "polytopes.lattice_points_oracle": _after_lattice_oracle,
}


def traced_functions() -> dict[str, object]:
    """Span name -> function, for the loaded momentkit modules."""
    out = {}
    for short in TRACED_MODULES:
        module = sys.modules[f"momentkit.{short}"]
        for attr, obj in vars(module).items():
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__):
                continue
            if short == "algebra" and attr not in ALGEBRA_TRACED:
                continue
            out[f"{short}.{attr}"] = obj
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.attrs: dict[int, dict] = {}
        self.job_id = -1
        self._stack: list[int] = []
        self._paused = 0.0

    def __len__(self) -> int:
        return len(self.name_id)

    def clock(self) -> float:
        return process_time() - self._paused

    def _wrap(self, fn, name: str):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        post = POST_HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.name_id)
            stack = tracer._stack
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.job.append(tracer.job_id)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(tracer.clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = tracer.clock()
                stack.pop()
            if post is not None:
                t0 = process_time()
                tracer.attrs[idx] = post(args, kwargs, result)
                tracer._paused += process_time() - t0
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every momentkit binding of the traced functions."""
        targets = {id(fn): (fn, name) for name, fn in traced_functions().items()}
        wrappers = {key: self._wrap(fn, name) for key, (fn, name) in targets.items()}
        patched = []
        for modname, module in list(sys.modules.items()):
            if modname != "momentkit" and not modname.startswith("momentkit."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in targets and targets[id(obj)][0] is obj:
                    setattr(module, attr, wrappers[id(obj)])
                    patched.append((module, attr, obj))
        try:
            yield
        finally:
            for module, attr, obj in patched:
                setattr(module, attr, obj)

    # -----------------------------------------------------------------------
    # analysis

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def under(self, name: str) -> list[bool]:
        """Per span: does it or an ancestor carry ``name``?"""
        nid = self._name_ids.get(name, -1)
        flags = []
        for i, p in enumerate(self.parent):
            flags.append(self.name_id[i] == nid or (p >= 0 and flags[p]))
        return flags

    def write(self, path: str) -> None:
        """Spans as JSON lines: a header, then one array per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "columns": [
                "name", "start", "end", "parent", "job", "attrs"]}) + "\n")
            for i in range(len(self)):
                fh.write(json.dumps([
                    self.names[self.name_id[i]], self.start[i], self.end[i],
                    self.parent[i], self.job[i], self.attrs.get(i)]) + "\n")


# per-function metrics named in the benchmark; (span name, kinds)
FUNCTION_METRICS = (
    ("polytopes.from_halfspaces", ("calls", "self_s")),
    ("polytopes.smoothness_report", ("self_s",)),
    ("polytopes.volume_oracle", ("calls", "total_s")),
    ("polytopes.lattice_points_oracle", ("total_s",)),
    ("linalg.rank", ("calls", "self_s")),
    ("linalg.nullspace", ("calls", "self_s")),
    ("linalg.solve_square", ("calls", "self_s")),
    ("linalg.det", ("calls", "self_s")),
    ("linalg.adjugate_int", ("calls", "self_s")),
    ("polar.signed_lattice_count", ("calls", "self_s")),
    ("polar.signed_indicator_sum", ("self_s",)),
    ("polar.polar_decompose", ("self_s",)),
    ("polar.choose_polarizing_vector", ("self_s",)),
    ("gkm.moment_graph", ("self_s",)),
    ("gkm.betti_numbers", ("self_s",)),
    ("gkm.gkm_check", ("self_s",)),
    ("localization.volume_localization", ("self_s",)),
    ("localization.fixed_point_data", ("self_s",)),
    ("localization.pushforward", ("self_s",)),
    ("algebra.generic_vector", ("calls", "self_s")),
    ("algebra.restrict_to_hyperplane", ("calls", "self_s")),
    ("algebra.monomials", ("calls", "self_s")),
)
LAYER_METRICS = tuple(f"{m}.self_s" for m in TRACED_MODULES)
DERIVED_METRICS = (
    "polytopes.subsets_tried", "polytopes.vertex_yield",
    "polytopes.boundedness_nullspaces.calls", "polytopes.boundedness_nullspaces.s",
    "polytopes.lattice_points_oracle.box_points",
    "linalg.rank.cells", "linalg.rank.nnz",
    "polar.box_points_scanned", "polar.count_yield",
    "gkm.degree_system_s", "gkm.rank_s",
    "gkm.matrix_rows", "gkm.matrix_cols", "gkm.matrix_nnz",
)
UNITS = {"calls": "count", "self_s": "s", "total_s": "s"}


def call_counts(tr: Tracer) -> dict[str, int]:
    """Span name -> number of spans."""
    out: dict[str, int] = {}
    for nid in tr.name_id:
        name = tr.names[nid]
        out[name] = out.get(name, 0) + 1
    return out


# Probe jobs with call counts known in closed form.  A traced binding that
# was missed (say gkm's name-imported smoothness_report) reads 0 here, so
# a traced run stops instead of reporting silently short layers.
COVERAGE_PROBES = (
    (("validate", "cube:3:1"), {
        "polytopes.from_halfspaces": 1,
        "polytopes.smoothness_report": 1,
        # C(2n, n) constraint subsets for cube:n
        "polytopes.subsets_tried": 20,
        # (n-1)-subsets of cube normals with rank n-1: C(n, n-1) * 2^(n-1)
        "polytopes.boundedness_nullspaces.calls": 12,
    }),
    (("gkm-dim", "cube:2:1", "--k", "2"), {
        "polytopes.smoothness_report": 1,
        "gkm.gkm_dimension": 1,
        "algebra.monomials": 1,
        # one restriction per edge and degree-k monomial: 4 * 3
        "algebra.restrict_to_hyperplane": 12,
        "gkm.matrix_rows": 4,
        "gkm.matrix_cols": 12,
    }),
    (("count", "simplex:2:1"), {
        "algebra.generic_vector": 1,
        "polar.signed_lattice_count": 1,
        "linalg.adjugate_int": 3,
        "polytopes.lattice_points_oracle": 1,
        "polytopes.lattice_points_oracle.box_points": 4,
        "polar.box_points_scanned": 12,
    }),
    (("volume", "simplex:2:1"), {
        "localization.volume_localization": 1,
        "polytopes.smoothness_report": 1,
        "polytopes.volume_oracle": 1,
    }),
)


def coverage_failures(tr: Tracer, argv: tuple[str, ...], expected: dict) -> list[str]:
    """Mismatches between one probe's recorded counts and ``expected``."""
    seen = call_counts(tr)
    seen.update(span_totals(tr))
    return [f"{' '.join(argv)}: {key} = {seen.get(key, 0)}, expected {want}"
            for key, want in expected.items() if seen.get(key, 0) != want]


def span_totals(tr: Tracer) -> dict[str, float]:
    """Per-layer totals over every recorded span (not yet per pass)."""
    selfs = tr.self_times()
    names = [tr.names[i] for i in tr.name_id]
    calls = call_counts(tr)
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    layer: dict[str, float] = {m: 0.0 for m in TRACED_MODULES}
    for i, name in enumerate(names):
        self_s[name] = self_s.get(name, 0.0) + selfs[i]
        p = tr.parent[i]
        if p < 0 or names[p] != name:  # outermost of a direct recursion
            total_s[name] = total_s.get(name, 0.0) + tr.end[i] - tr.start[i]
        layer[name.split(".")[0]] += selfs[i]

    out: dict[str, float] = {}
    table = {"calls": calls, "self_s": self_s, "total_s": total_s}
    for name, kinds in FUNCTION_METRICS:
        for kind in kinds:
            out[f"{name}.{kind}"] = table[kind].get(name, 0)
    for module, value in layer.items():
        out[f"{module}.self_s"] = value

    in_build = tr.under("polytopes.from_halfspaces")
    in_gkm = tr.under("gkm.gkm_dimension")
    z = dict.fromkeys(DERIVED_METRICS, 0)
    vertices = 0
    counted = 0
    gkm_total = 0.0
    for i, name in enumerate(names):
        attrs = tr.attrs.get(i)
        dur = tr.end[i] - tr.start[i]
        if name == "polytopes.from_halfspaces":
            vertices += attrs["vertices"] if attrs else 0
        elif name == "linalg.solve_square" and in_build[i]:
            z["polytopes.subsets_tried"] += 1
        elif name == "linalg.nullspace" and in_build[i]:
            z["polytopes.boundedness_nullspaces.calls"] += 1
            z["polytopes.boundedness_nullspaces.s"] += dur
        elif name == "polytopes.lattice_points_oracle" and attrs:
            z["polytopes.lattice_points_oracle.box_points"] += attrs["box_points"]
        elif name == "polar.signed_lattice_count" and attrs:
            z["polar.box_points_scanned"] += attrs["points"]
            counted += attrs["count"]
        elif name == "gkm.gkm_dimension":
            gkm_total += dur
        if name == "linalg.rank" and attrs:
            z["linalg.rank.cells"] += attrs["rows"] * attrs["cols"]
            z["linalg.rank.nnz"] += attrs["nnz"]
            if in_gkm[i]:
                z["gkm.rank_s"] += dur
                z["gkm.matrix_rows"] += attrs["rows"]
                z["gkm.matrix_cols"] += attrs["cols"]
                z["gkm.matrix_nnz"] += attrs["nnz"]
    tried = z["polytopes.subsets_tried"]
    z["polytopes.vertex_yield"] = vertices / tried if tried else 0.0
    scanned = z["polar.box_points_scanned"]
    z["polar.count_yield"] = counted / scanned if scanned else 0.0
    z["gkm.degree_system_s"] = gkm_total - z["gkm.rank_s"]
    out.update(z)
    return out


RATIOS = ("polytopes.vertex_yield", "polar.count_yield")


def per_layer_units() -> dict[str, str]:
    """Unit of every per-layer metric, in the order they are reported."""
    units = {"cli.refused": "count"}
    for name, kinds in FUNCTION_METRICS:
        for kind in kinds:
            units[f"{name}.{kind}"] = UNITS[kind]
    for name in LAYER_METRICS:
        units[name] = "s"
    for name in DERIVED_METRICS:
        if name in RATIOS:
            units[name] = "ratio"
        elif name.endswith("_s") or name.endswith(".s"):
            units[name] = "s"
        else:
            units[name] = "count"
    units["trace.overhead_ratio"] = "ratio"
    return units
