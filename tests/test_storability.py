import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linprog

from gptrat import (
    InputError,
    Measurement,
    Polytope,
    SolverError,
    Theory,
    certify_incompatibility,
    decoding_power,
    dichotomic_measurement,
    dual_rays_from_vertices,
    has_super_information_storability,
    information_storability,
    is_valid_measurement,
    ntomic_bound,
    operational_dimension,
    restricted_storability,
    trivial_measurement,
    write_measurement,
)
from gptrat import cli, core
from gptrat.linalg import LpProblem, solve_lp
from gptrat.zoo import hypercube, polygon, polygon_ray, qubit2, rebit, simplex

import util


def _kite() -> Theory:
    """An irregular quadrilateral: its rays take different values at the
    centroid, so its storability needs the LP."""
    verts = np.array(
        [[2.0, 0.0, 1.0], [0.0, 1.0, 1.0], [-1.0, 0.0, 1.0], [0.0, -1.0, 1.0]]
    )
    unit = np.array([0.0, 0.0, 1.0])
    return Theory("kite", 3, unit, Polytope(verts, dual_rays_from_vertices(verts, unit)))


def _nudged_heptagon() -> Theory:
    """polygon(7) with one vertex moved by 1e-6, rays recomputed."""
    verts = np.array(polygon(7).vertices)
    verts[0, 0] += 1e-6
    unit = np.array([0.0, 0.0, 1.0])
    return Theory("nudged-7", 3, unit, Polytope(verts, dual_rays_from_vertices(verts, unit)))


def _highs_storability(t: Theory) -> float:
    """The storability LP solved independently by HiGHS."""
    rays = t.backend.dual_rays
    res = linprog(-np.ones(rays.shape[0]), A_eq=rays.T, b_eq=t.unit, bounds=(0, None), method="highs")
    assert res.status == 0
    return -res.fun


def test_decoding_power_known_values():
    t = polygon(4)
    np.testing.assert_allclose(
        decoding_power(trivial_measurement(t, [0.3, 0.7]), t), 1.0, atol=1e-12
    )
    sharp = dichotomic_measurement(t, polygon_ray(t, 1))
    np.testing.assert_allclose(decoding_power(sharp, t), 2.0, atol=1e-12)


def test_decoding_power_rejects_invalid_measurement():
    t = polygon(4)
    bad = Measurement(("a", "b"), np.vstack([polygon_ray(t, 1), polygon_ray(t, 1)]))
    with pytest.raises(InputError):
        decoding_power(bad, t)


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
def test_storability_even_polygons(n):
    report = information_storability(polygon(n))
    np.testing.assert_allclose(report.value, 2.0, atol=1e-9)
    assert report.method == "balanced"


@pytest.mark.parametrize("n", [5, 7, 9, 11, 13])
def test_storability_odd_polygons(n):
    report = information_storability(polygon(n))
    np.testing.assert_allclose(report.value, 1.0 + 1.0 / math.cos(math.pi / n), atol=1e-9)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_storability_simplex(d):
    np.testing.assert_allclose(information_storability(simplex(d)).value, float(d), atol=1e-9)


@pytest.mark.parametrize("k", [2, 3])
def test_storability_hypercube(k):
    np.testing.assert_allclose(information_storability(hypercube(k)).value, 2.0, atol=1e-9)


def test_storability_ball_backends():
    for t in (rebit(), qubit2()):
        report = information_storability(t)
        assert report.value == 2.0
        assert report.method == "closed_form"
        assert is_valid_measurement(report.witness_measurement, t)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 9])
def test_storability_witness_attains_the_value(n):
    t = polygon(n)
    report = information_storability(t)
    assert is_valid_measurement(report.witness_measurement, t)
    np.testing.assert_allclose(
        decoding_power(report.witness_measurement, t), report.value, atol=1e-9
    )


_BALANCED = (
    [("polygon", n) for n in range(3, 61)]
    + [("hypercube", k) for k in (2, 3, 4)]
    + [("simplex", d) for d in range(2, 7)]
)
_ZOO = {"polygon": polygon, "hypercube": hypercube, "simplex": simplex}


@pytest.mark.parametrize(
    "family, size, how, seed",
    [
        pytest.param(family, size, how, seed, id=f"{family}{size}-{how}")
        for seed, (family, size) in enumerate(_BALANCED)
        for how in ("plain", "rotated", "mapped")
        # unit_fixing_map fixes only u = e_last, not a simplex's (1, ..., 1)
        if not (family == "simplex" and how == "mapped")
    ],
)
def test_balanced_storability_agrees_with_both_lp_solvers(family, size, how, seed):
    t = _ZOO[family](size)
    rng = np.random.default_rng(seed)
    if how == "rotated":
        t = util.rotated(t, rng)
    elif how == "mapped":
        t = util.mapped(t, util.unit_fixing_map(rng, t.ambient_dim, 1e3, 1e3))
    report = information_storability(t)
    assert report.method == "balanced"
    rays = t.backend.dual_rays
    lp = solve_lp(LpProblem(np.ones(rays.shape[0]), rays.T, t.unit))
    assert lp.status == "optimal"
    np.testing.assert_allclose(report.value, lp.value, atol=1e-9)
    np.testing.assert_allclose(report.value, _highs_storability(t), atol=1e-9)
    assert is_valid_measurement(report.witness_measurement, t)
    np.testing.assert_allclose(
        decoding_power(report.witness_measurement, t), report.value, atol=1e-9
    )


def _check_lp_path(t: Theory) -> None:
    report = information_storability(t)
    assert report.method == "lp"
    assert is_valid_measurement(report.witness_measurement, t)
    # independent check of the same optimization
    np.testing.assert_allclose(report.value, _highs_storability(t), atol=1e-9)


def test_storability_lp_path_on_irregular_polytope():
    _check_lp_path(_kite())


def _pair_sum_rays() -> Theory:
    """simplex(3) with e_i + e_j added to its rays: the rays sum to 3 u, so
    alpha = 1/t is feasible, but they take 1/3 and 2/3 at the centroid, so
    its value 2 falls short of the optimum 3."""
    t = simplex(3)
    rays = np.vstack([np.eye(3), 1.0 - np.eye(3)])
    return Theory("pair-sums", 3, t.unit, Polytope(t.vertices, rays))


def _square_missing_a_ray() -> Theory:
    """polygon(4) without its last ray: the rest take one value at the
    centroid, but their sum is no multiple of u, so alpha = 1/t is no
    measurement although its value 2 is the optimum."""
    t = polygon(4)
    return Theory("square-3-rays", 3, t.unit, Polytope(t.vertices, t.backend.dual_rays[:3]))


@pytest.mark.parametrize(
    "make",
    [_nudged_heptagon, _pair_sum_rays, _square_missing_a_ray],
    ids=["nudged-heptagon", "pair-sums", "square-missing-a-ray"],
)
def test_storability_lp_path_where_the_certificate_fails(make):
    # a vertex moved by 1e-6 leaves a gap and a residual far above EPS; the
    # other two fail one half of the certificate each
    _check_lp_path(make())


def test_malformed_polytopes_keep_their_typed_errors():
    # the balanced certificate leaves arrays it cannot read to the LP, which
    # rejects them as before, with no numpy error or warning on the way
    sq = polygon(4)
    rays = sq.backend.dual_rays

    def storability_of(states, rays):
        return information_storability(Theory("malformed", 3, sq.unit, Polytope(states, rays)))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="eq_rhs has length"):
            storability_of(sq.vertices, rays[:, :2])
        with pytest.raises(SolverError, match="LP ended infeasible"):
            storability_of(sq.vertices, np.zeros((0, 3)))
        assert storability_of(np.zeros((0, 3)), rays).method == "lp"


@pytest.mark.parametrize("value_scale, dual_scale", [(0.99, 0.99), (0.99, 1.0)])
def test_storability_rejects_a_suboptimal_lp_result(monkeypatch, value_scale, dual_scale):
    # scaled duals fall short of R y >= 1; a scaled value alone leaves a
    # duality gap; either way the value is not certified optimal
    solve = core.solve_lp

    def suboptimal(problem):
        res = solve(problem)
        return replace(res, value=value_scale * res.value, duals=dual_scale * res.duals)

    monkeypatch.setattr(core, "solve_lp", suboptimal)
    with pytest.raises(SolverError, match="dual fails"):
        information_storability(_kite())


def test_storability_rejects_a_non_optimal_lp_status(monkeypatch):
    solve = core.solve_lp
    monkeypatch.setattr(core, "solve_lp", lambda problem: replace(solve(problem), status="infeasible"))
    with pytest.raises(SolverError, match="storability LP ended infeasible"):
        information_storability(_kite())


def test_one_storability_lp_per_theory(tmp_path, monkeypatch, capsys):
    # gptrat rat needs the storability twice (its bounds and the certificate),
    # and the certificate and the super-storability test need it again: one
    # Theory object solves its storability LP once for all of them.  core's
    # distinguishability LPs (zero objective) go through the same solve_lp,
    # so only the LPs with an all-ones objective are counted
    t = _kite()
    m1, m2 = (dichotomic_measurement(t, t.backend.dual_rays[k]) for k in (0, 1))
    paths = [str(tmp_path / "m1.json"), str(tmp_path / "m2.json")]
    write_measurement(m1, paths[0])
    write_measurement(m2, paths[1])
    solve, problems = core.solve_lp, []

    def counting(problem):
        if problem.objective.size and (problem.objective == 1.0).all():
            problems.append(problem)
        return solve(problem)

    monkeypatch.setattr(core, "solve_lp", counting)
    monkeypatch.setattr(cli, "theory_from_file", lambda path: t)
    argv = ["rat", "--theory", "kite.json", "--measurement", paths[0], "--measurement", paths[1]]
    assert cli.main(argv) == 0
    assert "certificate" in json.loads(capsys.readouterr().out)
    certify_incompatibility(m1, m2, t)
    assert has_super_information_storability(t)
    assert information_storability(t) is t.storability
    assert len(problems) == 1

    information_storability(_kite())  # another Theory object solves its own
    assert len(problems) == 2


def test_restricted_storability():
    t = polygon(5)
    ms = [
        trivial_measurement(t, [0.5, 0.5]),
        dichotomic_measurement(t, polygon_ray(t, 1)),
    ]
    np.testing.assert_allclose(restricted_storability(ms, t), 2.0, atol=1e-12)
    assert restricted_storability(ms, t) < information_storability(t).value
    with pytest.raises(InputError):
        restricted_storability([], t)


def test_ntomic_bound_values():
    np.testing.assert_allclose(ntomic_bound(2, (2, 2)), 1.0, atol=1e-15)
    np.testing.assert_allclose(ntomic_bound(3, (2, 2, 2)), 1.5, atol=1e-15)
    np.testing.assert_allclose(ntomic_bound(2, (2, 4)), 0.75, atol=1e-15)
    with pytest.raises(InputError):
        ntomic_bound(0, (2, 2))
    with pytest.raises(InputError):
        ntomic_bound(2, (2, 1))
    with pytest.raises(InputError, match="positive integers"):
        ntomic_bound(2, (2.5, 2))
    with pytest.raises(InputError, match="positive integers"):
        ntomic_bound(2, ())


@pytest.mark.parametrize(
    "theory, expected",
    [
        (polygon(5), True),
        (polygon(7), True),
        (polygon(9), True),
        (polygon(4), False),
        (polygon(6), False),
        (polygon(8), False),
        (simplex(2), False),
        (simplex(4), False),
        (hypercube(2), False),
        (hypercube(3), False),
        (rebit(), False),
        (qubit2(), False),
    ],
)
def test_super_information_storability(theory, expected):
    assert has_super_information_storability(theory) is expected


def test_ball_operational_dimension():
    assert operational_dimension(rebit()) == 2
    assert operational_dimension(qubit2()) == 2
