"""Outside-in layer tracing for the traced benchmark run.

Each listed public function is replaced, at every module binding of the
same object, by a wrapper that records one span: name, start, end, parent
span and job id. ``mori``, ``catalog``, ``_fano3`` and ``cli`` import some
of these functions by name, so patching only the defining module would miss
their calls. Hot leaf helpers such as ``lattice.dot`` are left alone. Spans
stay in memory, in flat arrays, until the run ends; the per-layer metrics
are derived from them.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from pathlib import Path

from workloads import geometric_key

PACKAGE = "toricfan"
MODULES = ("lattice", "fan", "mori", "birational", "catalog", "_fano3", "cli")

# module -> public functions wrapped in the traced run
TRACED = {
    "lattice": ("solve_eq_nonneg", "unimodular_inverse", "determinant"),
    "fan": (
        "validate_fan",
        "cones_meet_in_common_face",
        "locate_relint",
        "contract_ray",
        "refines",
        "canonical_gl_key",
        "fan_isomorphism",
    ),
    "mori": ("primitive_collections", "primitive_relation", "mori_cone", "is_fano"),
    "birational": ("blow_down_candidates", "factor_morphism"),
    "catalog": ("enumerate_fano",),
}


# Per-span annotations, computed from the arguments and the result.
TAGS = {
    "lattice.solve_eq_nonneg": lambda a, r: (len(a[0][0]), r is None),
    "mori.primitive_relation": lambda a, r: hash((a[0], tuple(a[1]))),
    "mori.is_fano": lambda a, r: r[0],
    "birational.blow_down_candidates": lambda a, r: (
        sum(1 for c in r if c.valid),
        len(r),
        hash(geometric_key(a[0])),
    ),
}


class Tracer:
    def __init__(self):
        self.modules = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES
        ]
        self.names: list[str] = []
        self.originals: dict[str, object] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.tags: dict[int, object] = {}
        self._stack = [-1]
        self._job = [0]
        self._patched: list[tuple[object, str, object]] = []

    def begin_job(self, job_id: int) -> None:
        self._job[0] = job_id

    def install(self) -> None:
        for module, functions in TRACED.items():
            owner = sys.modules[f"{PACKAGE}.{module}"]
            for fname in functions:
                name = f"{module}.{fname}"
                original = getattr(owner, fname)
                self.originals[name] = original
                wrapper = self._wrap(len(self.names), original, TAGS.get(name))
                self.names.append(name)
                for mod in self.modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in self._patched:
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, nid, fn, tag):
        name_id, parent, job = self.name_id, self.parent, self.job
        start, end, tags = self.start, self.end, self.tags
        stack, current = self._stack, self._job
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            job.append(current[0])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if tag is not None:
                tags[idx] = tag(args, result)
            return result

        return traced

    def cache_info(self, name: str):
        return self.originals[name].cache_info()

    def write(self, prefix: Path) -> None:
        """Spans as raw arrays plus a JSON header naming their layout."""
        header = {
            "names": self.names,
            "count": len(self.start),
            "arrays": ["name_id:i", "parent:i", "job:i", "start:d", "end:d"],
        }
        prefix.with_suffix(".json").write_text(json.dumps(header))
        with open(prefix.with_suffix(".bin"), "wb") as fh:
            for arr in (self.name_id, self.parent, self.job, self.start, self.end):
                arr.tofile(fh)

    def metrics(self, cache_before: dict) -> dict:
        """Per-layer metrics: calls, self time and the named ratios."""
        n = len(self.start)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        by_name: list[list[int]] = [[] for _ in self.names]
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = name_id[i]
            by_name[k].append(i)
            self_s[k] += end[i] - start[i] - child[i]
        out = {}
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = len(by_name[k])
            out[f"{name}.self_s"] = self_s[k]

        ids = {name: k for k, name in enumerate(self.names)}

        def spans(name):
            return by_name[ids[name]]

        def ancestor(i, name):
            k = ids[name]
            p = parent[i]
            while p >= 0:
                if name_id[p] == k:
                    return p
                p = parent[p]
            return -1

        lp = self._tags(spans("lattice.solve_eq_nonneg"))
        out["lattice.solve_eq_nonneg.columns"] = _ratio(sum(c for c, _ in lp), len(lp))
        out["lattice.solve_eq_nonneg.infeasible_ratio"] = _ratio(
            sum(1 for _, none in lp if none), len(lp)
        )
        for name in ("mori.primitive_collections", "mori.mori_cone"):
            after = self.cache_info(name)
            hits = after.hits - cache_before[name].hits
            misses = after.misses - cache_before[name].misses
            out[f"{name}.hit_ratio"] = _ratio(hits, hits + misses)
        rel = self._tags(spans("mori.primitive_relation"))
        out["mori.primitive_relation.repeat_ratio"] = _ratio(len(rel), len(set(rel)))

        bdc = [i for i in spans("birational.blow_down_candidates") if i in self.tags]
        tags = self._tags(bdc)
        out["birational.blow_down_candidates.valid_ratio"] = _ratio(
            sum(t[0] for t in tags), sum(t[1] for t in tags)
        )
        nodes = [
            self.tags[i][2]
            for i in bdc
            if ancestor(i, "birational.factor_morphism") >= 0
        ]
        out["birational.factor_morphism.nodes"] = len(nodes)
        out["birational.factor_morphism.distinct_ratio"] = _ratio(
            len(set(nodes)), len(nodes)
        )

        under = "catalog.enumerate_fano"
        out[f"{under}.closed"] = sum(
            1 for i in spans("fan.validate_fan") if ancestor(i, under) >= 0
        )
        verdicts = self._tags(
            i for i in spans("mori.is_fano") if ancestor(i, under) >= 0
        )
        out[f"{under}.fano_ratio"] = _ratio(sum(verdicts), len(verdicts))
        return out

    def _tags(self, spans) -> list:
        """Annotations of the spans that returned (a timed-out call has none)."""
        return [self.tags[i] for i in spans if i in self.tags]


def _ratio(num, den) -> float:
    return num / den if den else 0.0
