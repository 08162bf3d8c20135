"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import sys

import numpy as np
import pytest

import run

workloads, tracer, _ = run.import_package()

import gptrat  # noqa: E402  (run.import_package puts this checkout's src/ first)
from gptrat import core  # noqa: E402


def _fingerprint(queries, pass_dir) -> bytes:
    parts = []

    def add(x):
        if isinstance(x, core.Theory):
            b = x.backend
            parts.append(x.name.encode())
            if isinstance(b, core.Polytope):
                for arr in (b.extreme_states, b.dual_rays, b.extreme_effects):
                    if arr is not None:
                        add(arr)
        elif isinstance(x, core.Measurement):
            parts.append(repr(x.outcomes).encode())
            add(x.effects)
        elif isinstance(x, np.ndarray):
            parts.append(x.tobytes())
        elif isinstance(x, (list, tuple)):
            for y in x:
                add(y)
        elif not isinstance(x, str):  # argv strings hold per-directory paths
            parts.append(repr(x).encode())

    for q in queries:
        add(q.shape)
        add(q.data)
    for path in sorted(pass_dir.rglob("*.json")):
        parts += [path.name.encode(), path.read_bytes()]
    return b"\0".join(parts)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    a = _fingerprint(wl.make_pass(7, 0, tmp_path / "a"), tmp_path / "a" / "pass-0")
    b = _fingerprint(wl.make_pass(7, 0, tmp_path / "b"), tmp_path / "b" / "pass-0")
    c = _fingerprint(wl.make_pass(8, 0, tmp_path / "c"), tmp_path / "c" / "pass-0")
    assert a == b
    assert a != c


def _snapshot():
    return {
        (name, key): value
        for name, mod in sys.modules.items()
        if name == "gptrat" or name.startswith("gptrat.")
        for key, value in vars(mod).items()
        if callable(value)
    }


def test_traced_pass_restores_every_original(tmp_path):
    before = _snapshot()
    wl = workloads.WORKLOADS["file_queries"]
    ledger = run.Ledger(wl)
    tr, wall, _ = run.traced_pass(wl, 5, tmp_path, ledger, tracer)
    assert _snapshot() == before
    names = {s[0] for s in tr.spans}
    # cross-module calls were seen: cli -> io -> core -> linalg
    assert {"cli.main", "io.theory_from_file", "core.dual_rays_from_vertices", "linalg.enumerate_facets"} <= names
    metrics = tr.metrics(wall, 0.0)
    top_level = sum(end - start for _, start, end, parent, _, _ in tr.spans if parent < 0)
    self_s = sum(metrics[f"{name}.self_s"] for name in tracer.WRAPPED)
    assert self_s == pytest.approx(top_level)  # self times partition the top-level spans
    assert 0.0 < self_s <= wall
    assert metrics["linalg.enumerate_facets.subsets"] > 0
    ledger.finish()
    assert ledger.attempted == len(wl.shapes()) and not ledger.failures


def test_tracer_uninstalls_when_a_query_raises():
    before = _snapshot()
    tr = tracer.Tracer()
    tr.install()
    try:
        with pytest.raises(gptrat.InputError):
            gptrat.core.dual_rays_from_vertices(np.zeros((1, 3)), np.array([0.0, 0.0, 1.0]))
    finally:
        tr.uninstall()
    assert _snapshot() == before
    # the raising call still closed its span
    assert [(s[0], s[3]) for s in tr.spans] == [("core.dual_rays_from_vertices", -1)]
    assert tr.spans[0][2] >= tr.spans[0][1] > 0.0


def _run_main(capsys, argv):
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1])


def test_corrupted_answer_raises_failed_frac(capsys, monkeypatch):
    wl = workloads.WORKLOADS["rat_tables"]
    monkeypatch.setattr(wl, "min_passes", 1)
    argv = ["--workload", "rat_tables", "--seed", "3", "--seconds", "0.1", "--trace", "0"]
    clean = _run_main(capsys, argv)
    assert clean["correct"] and clean["failed"] == 0
    assert clean["metrics"]["passed_frac"]["value"] == 1.0

    honest = wl.run

    def corrupted(q):
        result = honest(q)
        if q.shape[0] == "table":
            ok, expected, values = result
            return ok, expected + 1e-7, values
        return result

    monkeypatch.setattr(wl, "run", corrupted)
    bad = _run_main(capsys, argv)
    assert not bad["correct"]
    assert bad["failed"] >= 37  # every table query of the complete pass
    assert bad["metrics"]["passed_frac"]["value"] == pytest.approx(1.0 - bad["failed"] / bad["attempted"])
    assert bad["metrics"]["passed_frac"]["value"] < 1.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_checks_catch_a_wrong_answer(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    q = wl.make_pass(11, 0, tmp_path)[-1]
    result = wl.run(q)
    assert wl.check(q, result, audit=True) == []
    if name == "pair_audit":
        p_bar, witness, degree, verdict = result
        wrong = (p_bar, witness, 0.75 if degree == 1.0 else 1.0, verdict)
    elif name == "dimension_scan":
        wrong = (result[0], result[1] + 1)
    elif name == "rat_tables":
        wrong = [(n, c, b + 1e-6, m, l) for n, c, b, m, l in result]
    else:
        code, out, err = result
        payload = json.loads(out)
        payload["degree"] = payload["degree"] - 1e-3
        wrong = (code, json.dumps(payload), err)
    assert wl.check(q, wrong, audit=True)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(66) == 80
    assert run.tail_percentile(1152) == 99
    assert run.tail_percentile(40 * 135) == 99.8
    for n in (20, 100, 1000, 10_000):
        assert n * (1 - run.tail_percentile(n) / 100) >= 10
