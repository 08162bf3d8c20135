"""Per-layer tracing from outside the package.

Each wrapped public function is rebound in every gptrat module namespace
that holds it (modules use ``from .linalg import solve_lp``), so calls
between modules pass through the wrapper.  A span is (name, start, end,
parent, query id, info); spans stay in memory and are written out when the
run ends.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import json
import sys
from math import comb, prod
from pathlib import Path
from time import perf_counter

import numpy as np

WRAPPED = (
    "linalg.solve_lp",
    "linalg.enumerate_facets",
    "core.norm_with_argmax",
    "core.distinguishable",
    "core.operational_dimension",
    "core.dual_rays_from_vertices",
    "storability.information_storability",
    "storability.decoding_power",
    "jointness.check_compatible",
    "jointness.incompatibility_degree",
    "jointness.harmonic_joint",
    "rat.rat_success",
    "rat.certify_incompatibility",
    "rat.connection_check",
    "polygons.brute_force_rat_max",
    "polygons.verify_table",
    "polygons.sweep",
    "io.theory_from_file",
    "io.measurement_from_file",
    "cli.main",
)

# Metrics beyond calls and self time: (name, unit).
EXTRA = (
    ("linalg.solve_lp.infeasible_frac", "frac"),
    ("linalg.solve_lp.tableau_cells", "cells.computed"),
    ("linalg.enumerate_facets.subsets", "count.computed"),
    ("core.distinguishable.feasible_frac", "frac"),
    ("jointness.incompatibility_degree.lps_per_call", "count"),
    ("rat.rat_success.tuples", "count"),
    ("trace.overhead_frac", "frac"),
    ("trace.wall_s", "s"),
)


def metric_specs() -> list[tuple[str, str]]:
    specs = []
    for name in WRAPPED:
        specs += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    return specs + list(EXTRA)


def _solve_lp_info(args, result):
    A = args[0].eq_matrix
    nonneg = args[0].nonneg
    m, n = A.shape
    free = 0 if nonneg is None else int((~nonneg).sum())
    return (result.status == "infeasible", (m + 1) * (n + free + m + 1))


def _facet_subsets(args, result):
    # enumerate_facets tries every k-subset of the N vertices, k the affine dimension
    V = np.asarray(args[0], dtype=float)
    s = np.linalg.svd(V - V.mean(axis=0), compute_uv=False)
    k = int(np.sum(s > 1e-9 * max(1.0, float(s[0]))))
    return comb(V.shape[0], k)


INFO = {
    "linalg.solve_lp": _solve_lp_info,
    "linalg.enumerate_facets": _facet_subsets,
    "core.distinguishable": lambda args, result: bool(result),
    "rat.rat_success": lambda args, result: prod(result.outcome_counts),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.query_id = -1
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, info = self.spans, self._stack, INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.query_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if info is not None:
                rec[5] = info(args, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "gptrat" or n.startswith("gptrat.")]
        for name in WRAPPED:
            module, attr = name.split(".")
            original = getattr(sys.modules[f"gptrat.{module}"], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._installed.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._installed):
            setattr(mod, key, original)
        self._installed.clear()

    def metrics(self, wall_s: float, overhead_frac: float) -> dict[str, float]:
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for name in WRAPPED:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        for i, (name, start, end, _, _, _) in enumerate(spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - child[i]

        def infos(name):
            return [s[5] for s in spans if s[0] == name and s[5] is not None]

        lp = infos("linalg.solve_lp")
        out["linalg.solve_lp.infeasible_frac"] = sum(x[0] for x in lp) / len(lp) if lp else 0.0
        out["linalg.solve_lp.tableau_cells"] = sum(x[1] for x in lp)
        out["linalg.enumerate_facets.subsets"] = sum(infos("linalg.enumerate_facets"))
        dist = infos("core.distinguishable")
        out["core.distinguishable.feasible_frac"] = sum(dist) / len(dist) if dist else 0.0
        degree_lps = 0
        for name, _, _, parent, _, _ in spans:
            if name == "linalg.solve_lp":
                while parent >= 0 and spans[parent][0] != "jointness.incompatibility_degree":
                    parent = spans[parent][3]
                degree_lps += parent >= 0
        calls = out["jointness.incompatibility_degree.calls"]
        out["jointness.incompatibility_degree.lps_per_call"] = degree_lps / calls if calls else 0.0
        out["rat.rat_success.tuples"] = sum(infos("rat.rat_success"))
        out["trace.overhead_frac"] = overhead_frac
        out["trace.wall_s"] = wall_s
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, query, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "query": query}))
                fh.write("\n")
