"""The four benchmark workloads: seeded passes of queries, and their checks.

A pass is a fixed list of query shapes (theory, pair kind, table size, ...);
the seed only changes the numbers inside them, so every pass costs about the
same and passes can be pooled.  Each query calls the package through its
module attributes, so the tracer's wrappers see every call.

Checks compare results, never mechanism (bisection steps, witness entries,
argmax tie choices), so an algorithm change that keeps the answers passes.
Cheap invariants run on every query; the HiGHS oracle and in-memory
recomputation run on the audited pass (the first timed pass and the traced
pass).
"""

from __future__ import annotations

import contextlib
import io as _io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gptrat import cli, core, jointness, polygons, rat, storability, zoo

import inputs
import oracle

TOL = 1e-9


@dataclass
class Query:
    shape: tuple  # what the query asks, fixed per pass position
    data: tuple  # the seeded inputs


class Workload:
    name = ""
    code = 0  # stream id, keeps the workloads' random streams apart
    min_passes = 1

    def shapes(self) -> list[tuple]:
        raise NotImplementedError

    def make_query(self, shape: tuple, rng: np.random.Generator) -> Query:
        raise NotImplementedError

    def run(self, q: Query):
        raise NotImplementedError

    def check(self, q: Query, result, audit: bool) -> list[str]:
        raise NotImplementedError

    def make_pass(self, seed: int, stream: int, work_dir: Path) -> list[Query]:
        """The queries of one pass; work_dir takes any files they read."""
        rng = inputs.rng_for(seed, self.code, stream)
        return [self.make_query(shape, rng) for shape in self.shapes()]


# ------------------------------------------------------------- pair_audit


def _pair_checks(t, m1, m2, kind, p_bar, witness, degree, verdict, audit) -> list[str]:
    errs = []
    E = [m1.effects, m2.effects]
    V = t.backend.extreme_states
    if abs(p_bar - oracle.rat_p_bar(E, V)) > 1e-12:
        errs.append(f"p_bar {p_bar!r} differs from the numpy value")
    compatible = witness is not None
    if compatible:
        errs += oracle.witness_errors(witness[0], witness[1], E, [m1.outcomes, m2.outcomes], V)
    elif kind == "compatible":
        errs.append("compatible-by-construction pair called incompatible")
    if not 0.5 - TOL <= degree <= 1.0:
        errs.append(f"degree {degree!r} outside [1/2, 1]")
    if (degree == 1.0) != compatible:
        errs.append(f"degree {degree!r} disagrees with compatible={compatible}")
    if compatible and verdict == "certified_incompatible":
        errs.append("certificate fired on a compatible pair")
    if audit:
        lam = oracle.pair_degree(m1.effects, m2.effects, t.backend.dual_rays, t.unit)
        if abs(degree - lam) > oracle.DEGREE_TOL:
            errs.append(f"degree {degree!r} differs from HiGHS {lam!r}")
        if compatible and lam < 1.0 - 1e-6:
            errs.append("compatible, but HiGHS finds no joint")
        if not compatible and lam >= 1.0 - TOL:
            errs.append("incompatible, but HiGHS finds a joint")
    return errs


class PairAudit(Workload):
    """rat_success, check_compatible, incompatibility_degree and
    certify_incompatibility on random pairs over rotated stock polytopes."""

    name = "pair_audit"
    code = 1
    min_passes = 4
    theories = [("polygon", n) for n in range(4, 13)] + [("hypercube", 2), ("hypercube", 3), ("simplex", 4)]
    # compatible pairs are half of each pass so the median query is a compatible
    # one (one LP each) and the tail an incompatible one (a ~22-LP bisection)
    kinds = ("compatible", "compatible", "compatible", "sharp", "noisy", "mixed23")
    reps = 4

    def shapes(self):
        return [(fam, size, kind) for _ in range(self.reps) for fam, size in self.theories for kind in self.kinds]

    def make_query(self, shape, rng):
        t = inputs.rotated(inputs.stock(shape[0], shape[1]), rng)
        return Query(shape, (t, *inputs.pair(t, shape[2], rng)))

    def run(self, q):
        t, m1, m2 = q.data
        p_bar = rat.rat_success([m1, m2], t).p_bar
        w = jointness.check_compatible([m1, m2], t)
        degree = jointness.incompatibility_degree(m1, m2, t).degree
        verdict = rat.certify_incompatibility(m1, m2, t).verdict
        witness = None if w is None else (w.joint.outcomes, w.joint.effects)
        return p_bar, witness, degree, verdict

    def check(self, q, result, audit):
        t, m1, m2 = q.data
        return _pair_checks(t, m1, m2, q.shape[2], *result, audit)


# --------------------------------------------------------- dimension_scan


class DimensionScan(Workload):
    """information_storability and operational_dimension of rotated polygons,
    hypercubes and simplices: thousands of tiny subset-feasibility LPs."""

    name = "dimension_scan"
    code = 2
    min_passes = 3
    theories = (
        [("polygon", n) for n in range(3, 17)]
        + [("hypercube", k) for k in (2, 3, 4)]
        + [("simplex", d) for d in range(2, 7)]
    )
    # The theories around the median query by time come twice more, after the
    # others: a pass then has three draws where the median falls instead of
    # one, which halves its run-to-run spread.
    middle = [("polygon", 6), ("polygon", 7), ("hypercube", 3), ("polygon", 8)]

    def shapes(self):
        return list(self.theories) + 2 * self.middle

    def make_query(self, shape, rng):
        return Query(shape, (inputs.rotated(inputs.stock(*shape), rng),))

    def run(self, q):
        (t,) = q.data
        return storability.information_storability(t).value, core.operational_dimension(t)

    def check(self, q, result, audit):
        (fam, size), (t,) = q.shape, q.data
        value, dim = result
        errs = []
        if abs(value - oracle.stock_storability(fam, size)) > TOL:
            errs.append(f"storability {value!r} is not the closed form")
        if dim != oracle.stock_operational_dimension(fam, size):
            errs.append(f"operational dimension {dim!r} is not the stock value")
        if (value > dim + TOL) != (fam == "polygon" and size % 2 == 1 and size >= 5):
            errs.append("super information storability split is wrong")
        if audit and abs(value - oracle.storability(t.backend.dual_rays, t.unit)) > 1e-7:
            errs.append("storability differs from HiGHS")
        return errs


# ------------------------------------------------------------- rat_tables


class RatTables(Workload):
    """LP-free: connection_check on k = 2..4 measurements over polytopes, the
    disc and the Bloch ball; verify_table for n = 4..40; the disc brute force
    and sweep(4, 60)."""

    name = "rat_tables"
    code = 3
    min_passes = 40
    theories = [("polygon", 5), ("polygon", 8), ("hypercube", 3), ("simplex", 4), ("rebit", 0), ("qubit2", 0)]
    counts = [(2, 2), (2, 4), (3, 4), (2, 2, 2), (2, 3, 4), (4, 4, 4), (2, 2, 2, 2), (2, 3, 3, 4)]
    reps = 2

    def shapes(self):
        connection = [("connection", th, c) for _ in range(self.reps) for th in self.theories for c in self.counts]
        return connection + [("table", n) for n in range(4, 41)] + [("disc_brute_force",), ("sweep",)]

    def make_query(self, shape, rng):
        if shape[0] != "connection":
            return Query(shape, ())
        (fam, size), counts = shape[1], shape[2]
        if fam == "rebit":
            t = zoo.rebit()
            ms = [inputs.ball_measurement(3, c, rng) for c in counts]
        elif fam == "qubit2":
            t = zoo.qubit2()
            ms = [inputs.ball_measurement(4, c, rng) for c in counts]
        else:
            t = inputs.rotated(inputs.stock(fam, size), rng)
            ms = [inputs.polytope_measurement(t, c, rng) for c in counts]
        return Query(shape, (t, ms))

    def run(self, q):
        kind = q.shape[0]
        if kind == "connection":
            t, ms = q.data
            return rat.connection_check(ms, t)
        if kind == "table":
            report = polygons.verify_table(q.shape[1])
            return report.all_ok, report.expected, [v.value for v in report.variants]
        if kind == "disc_brute_force":
            return polygons.brute_force_rat_max(zoo.rebit()).value
        rows = polygons.sweep(4, 60)
        return [(r.n, r.closed_form, r.brute_force, r.compatible_max, r.lmax) for r in rows]

    def check(self, q, result, audit):
        kind = q.shape[0]
        errs = []
        if kind == "connection":
            t, ms = q.data
            p_bar, power, residual = result
            counts = [m.num_outcomes for m in ms]
            h = len(counts) / sum(1.0 / c for c in counts)
            vertices = t.backend.extreme_states if isinstance(t.backend, core.Polytope) else None
            if residual > 1e-12 or abs(p_bar - power / h) > 1e-12:
                errs.append(f"connection identity off by {residual!r}")
            if abs(p_bar - oracle.rat_p_bar([m.effects for m in ms], vertices)) > 1e-12:
                errs.append(f"p_bar {p_bar!r} differs from the numpy value")
        elif kind == "table":
            ok, expected, values = result
            target = oracle.polygon_rat_max(q.shape[1])
            if not ok or not values:
                errs.append("table not verified")
            if abs(expected - target) > 1e-12 or any(abs(v - target) > TOL for v in values):
                errs.append("table values differ from the closed form")
        elif kind == "disc_brute_force":
            if abs(result - oracle.DISC_RAT_MAX) > 1e-6:
                errs.append(f"disc optimum {result!r}")
        else:
            if [row[0] for row in result] != list(range(4, 61)):
                errs.append("sweep rows are not n = 4..60")
            for n, closed, brute, comp, lmax in result:
                if (abs(closed - oracle.polygon_rat_max(n)) > 1e-12 or abs(brute - closed) > TOL
                        or abs(comp - oracle.polygon_compatible_max(n)) > 1e-12
                        or abs(lmax - oracle.polygon_storability(n)) > TOL):
                    errs.append(f"sweep row n={n} is wrong")
        return errs


# ----------------------------------------------------------- file_queries


class FileQueries(Workload):
    """In-process CLI runs of rat / compat / degree on JSON files; half the
    theory files omit dual_rays, so loading them enumerates facets."""

    name = "file_queries"
    code = 4
    min_passes = 5
    theories = [("polygon", n) for n in (5, 8, 13, 24, 40)] + [("hypercube", k) for k in (2, 3, 4)]
    kinds = ("compatible", "sharp")
    commands = ("rat", "compat", "degree")

    def shapes(self):
        return [
            (fam, size, with_rays, kind, cmd)
            for fam, size in self.theories
            for with_rays in (True, False)
            for kind in self.kinds
            for cmd in self.commands
        ]

    def make_pass(self, seed, stream, work_dir):
        # one theory and one pair per (theory, kind), shared by the files that use it
        rng = inputs.rng_for(seed, self.code, stream)
        pass_dir = work_dir / f"pass-{stream}"
        pass_dir.mkdir(parents=True, exist_ok=True)
        made = {}
        for fam, size in self.theories:
            t = inputs.rotated(inputs.stock(fam, size), rng)
            for with_rays in (True, False):
                path = pass_dir / f"{fam}{size}-{'rays' if with_rays else 'norays'}.json"
                inputs.write_theory_file(path, t, with_rays)
                made[fam, size, with_rays] = (t, path)
            for kind in self.kinds:
                pair = inputs.pair(t, kind, rng)
                paths = []
                for i, m in enumerate(pair):
                    path = pass_dir / f"{fam}{size}-{kind}-m{i + 1}.json"
                    inputs.write_measurement_file(path, m)
                    paths.append(path)
                made[fam, size, kind] = (pair, paths)
        queries = []
        for shape in self.shapes():
            fam, size, with_rays, kind, cmd = shape
            t, tpath = made[fam, size, with_rays]
            pair, mpaths = made[fam, size, kind]
            argv = [cmd, "--theory", str(tpath)] + [a for p in mpaths for a in ("--measurement", str(p))]
            queries.append(Query(shape, (t, pair, argv)))
        return queries

    def run(self, q):
        out, err = _io.StringIO(), _io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(q.data[2])
        return code, out.getvalue(), err.getvalue()

    def check(self, q, result, audit):
        kind, cmd = q.shape[3:]
        t, (m1, m2), _ = q.data
        code, out, err = result
        if code != 0:
            return [f"exit code {code}: {err.strip()}"]
        payload = json.loads(out)
        errs = []
        if cmd == "rat":
            if abs(payload["p_bar"] - oracle.rat_p_bar([m1.effects, m2.effects], t.backend.extreme_states)) > 1e-12:
                errs.append("p_bar differs from the numpy value")
            if kind == "compatible" and payload["certificate"]["verdict"] != "inconclusive":
                errs.append("certificate fired on a compatible pair")
        elif cmd == "compat":
            if kind == "compatible" and not payload["compatible"]:
                errs.append("compatible-by-construction pair called incompatible")
        else:
            d = payload["degree"]
            if not 0.5 - TOL <= d <= 1.0 or (kind == "compatible" and d != 1.0):
                errs.append(f"degree {d!r} out of range")
        if audit:
            errs += self._audit(cmd, payload, t, m1, m2)
        return errs

    @staticmethod
    def _audit(cmd, payload, t, m1, m2) -> list[str]:
        """Compare the printed JSON with the in-memory answer and with HiGHS."""
        errs = []
        if cmd == "rat":
            report = rat.rat_success([m1, m2], t)
            cert = rat.certify_incompatibility(m1, m2, t)
            printed = {tuple(row["outcomes"]): row["norm"] for row in payload["per_tuple"]}
            if abs(payload["p_bar"] - report.p_bar) > 1e-12 or any(
                abs(printed[labels] - norm) > 1e-12 for labels, (norm, _) in report.per_tuple.items()
            ):
                errs.append("printed RAT differs from the in-memory answer")
            pc = payload["certificate"]
            if (pc["verdict"], pc["useful"]) != (cert.verdict, cert.useful) or max(
                abs(pc["lhs"] - cert.lhs), abs(pc["threshold"] - cert.threshold)
            ) > TOL:
                errs.append("printed certificate differs from the in-memory answer")
            return errs
        lam = oracle.pair_degree(m1.effects, m2.effects, t.backend.dual_rays, t.unit)
        if cmd == "compat":
            compatible = jointness.check_compatible([m1, m2], t) is not None
            if payload["compatible"] != compatible:
                errs.append("printed verdict differs from the in-memory answer")
            if (compatible and lam < 1.0 - 1e-6) or (not compatible and lam >= 1.0 - TOL):
                errs.append("verdict differs from HiGHS")
        else:
            degree = jointness.incompatibility_degree(m1, m2, t).degree
            if abs(payload["degree"] - degree) > oracle.DEGREE_TOL:
                errs.append("printed degree differs from the in-memory answer")
            if abs(payload["degree"] - lam) > oracle.DEGREE_TOL:
                errs.append("degree differs from HiGHS")
        return errs


WORKLOADS = {w.name: w for w in (PairAudit(), DimensionScan(), RatTables(), FileQueries())}
