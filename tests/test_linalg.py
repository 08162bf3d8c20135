import tracemalloc
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import util
from gptrat import InputError, LpProblem, SolverError, enumerate_facets, linalg, solve_lp
from gptrat.io import theory_from_file
from gptrat.linalg import EPS, Facet
from gptrat.zoo import hypercube, polygon, simplex

FIXTURES = Path(__file__).parent / "fixtures"


def _scipy_solve(problem: LpProblem):
    """Independent reference: scipy HiGHS on the same maximization problem."""
    n = problem.objective.shape[0]
    nonneg = problem.nonneg if problem.nonneg is not None else np.ones(n, dtype=bool)
    bounds = [(0, None) if nonneg[j] else (None, None) for j in range(n)]
    res = linprog(
        -problem.objective,
        A_eq=problem.eq_matrix,
        b_eq=problem.eq_rhs,
        bounds=bounds,
        method="highs",
    )
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(res.status, "other")
    value = -res.fun if res.status == 0 else None
    return status, value


def test_two_variable_budget():
    problem = LpProblem(
        objective=np.array([1.0, 1.0]),
        eq_matrix=np.array([[1.0, 1.0]]),
        eq_rhs=np.array([1.0]),
    )
    res = solve_lp(problem)
    assert res.status == "optimal"
    np.testing.assert_allclose(res.value, 1.0, atol=1e-12)
    np.testing.assert_allclose(res.solution.sum(), 1.0, atol=1e-12)


def test_infeasible_detected():
    problem = LpProblem(
        objective=np.array([1.0]),
        eq_matrix=np.array([[1.0], [1.0]]),
        eq_rhs=np.array([1.0, 2.0]),
    )
    assert solve_lp(problem).status == "infeasible"


@pytest.mark.parametrize("gap, status", [(5e-10, "optimal"), (5e-9, "infeasible")])
def test_phase_one_decides_at_the_residual_tolerance(gap, status):
    # x = 1 and x = 1 + gap leave an artificial at gap after phase one; past
    # EPS no point could pass the residual check, so the LP is infeasible
    problem = LpProblem(np.array([1.0]), np.array([[1.0], [1.0]]), np.array([1.0, 1.0 + gap]))
    assert solve_lp(problem).status == status


def test_unbounded_detected():
    problem = LpProblem(
        objective=np.array([1.0, 0.0]),
        eq_matrix=np.array([[1.0, -1.0]]),
        eq_rhs=np.array([0.0]),
        nonneg=np.array([True, True]),
    )
    assert solve_lp(problem).status == "unbounded"


def test_redundant_rows_are_tolerated():
    problem = LpProblem(
        objective=np.array([2.0, 1.0]),
        eq_matrix=np.array([[1.0, 1.0], [2.0, 2.0]]),
        eq_rhs=np.array([1.0, 2.0]),
    )
    res = solve_lp(problem)
    assert res.status == "optimal"
    np.testing.assert_allclose(res.value, 2.0, atol=1e-12)


def test_lp_without_columns():
    # no column can enter in either phase; b = 0 is met by the empty point,
    # and every row is redundant
    res = solve_lp(LpProblem(np.zeros(0), np.zeros((2, 0)), np.zeros(2)))
    assert (res.status, res.value, res.pivots, res.residual) == ("optimal", 0.0, 0, 0.0)
    assert res.solution.shape == (0,)
    assert res.duals.tolist() == [0.0, 0.0]
    res = solve_lp(LpProblem(np.zeros(0), np.zeros((2, 0)), np.array([0.0, -1.0])))
    assert res.status == "infeasible"
    assert res.solution is None and np.isnan(res.value) and np.isnan(res.residual)


@pytest.mark.parametrize(
    "objective, nonneg, status",
    [
        ([-1.0, 0.0], None, "optimal"),
        ([1.0, -1.0], None, "unbounded"),
        ([-1.0, 0.0], [True, False], "optimal"),
        ([-1.0, 2.0], [True, False], "unbounded"),
        ([-1.0, -2.0], [True, False], "unbounded"),
    ],
)
def test_lp_without_rows(objective, nonneg, status):
    # x = 0 is feasible; a positive cost on a sign-constrained variable, or
    # any nonzero cost on a free one, is unbounded
    nonneg = None if nonneg is None else np.array(nonneg)
    res = solve_lp(LpProblem(np.array(objective), np.zeros((0, 2)), np.zeros(0), nonneg))
    assert (res.status, res.pivots) == (status, 0)
    if status == "optimal":
        assert res.value == 0.0 and res.solution.tolist() == [0.0, 0.0]
        assert res.duals.shape == (0,) and res.residual == 0.0
    else:
        assert res.solution is None and np.isnan(res.residual)


def test_overflowed_tableau_ends_the_phase():
    # entries near 1e300 overflow the tableau and leave NaN reduced costs;
    # a NaN must end the phase rather than enter, or it enters again and
    # again until the pivot cap; the final check then rejects the point
    A = np.array(
        [
            [6.064299986412706e299, 3.266989109928565e299, 2.9859059142878042e-301],
            [1.2831120280166595, -2.306387403361318e299, 3.7926029068332995e299],
        ]
    )
    b = np.array([1.6154701864518372e300, 0.6156939117729879])
    c = np.array([-1.7990588162315395, -1.497675535872544, -1.094469330379872e299])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SolverError, match="infeasible point"):
        solve_lp(LpProblem(c, A, b))


def test_nan_residual_fails_the_final_check():
    # the tableau overflows to an infinite solution whose residual is NaN;
    # "residual > EPS" is false for NaN, so the check must ask for
    # "residual <= EPS" instead
    A = np.array(
        [
            [-5.367168183773762e-301, 1.258053861909884],
            [-1.3174147951772277e149, 1.3163817268191644e300],
        ]
    )
    b = np.array([1.0178816586520204e300, -6.958069429980753e299])
    c = np.array([3.556216218340067e299, -3.715273840614815e299])
    with np.errstate(all="ignore"), pytest.raises(SolverError, match="relative residual nan"):
        solve_lp(LpProblem(c, A, b))


def _overflowing_draw(rng: np.random.Generator):
    """One random LP with entries up to 1e300, some zero, some free variables."""
    m, n = int(rng.integers(0, 5)), int(rng.integers(0, 6))
    A = rng.normal(size=(m, n)) * 10.0 ** rng.choice([0, 150, 300, -300], (m, n))
    A[rng.random((m, n)) < 0.3] = 0
    b = rng.normal(size=m) * 10.0 ** rng.choice([0, 300], m)
    c = rng.normal(size=n) * 10.0 ** rng.choice([0, 300], n)
    return LpProblem(c, A, b, rng.random(n) >= 0.2)


def test_nan_ratio_raises_solver_error():
    # draw 2865 of default_rng(0) overflows its tableau into a NaN ratio,
    # which no row of Harris's test matches; that is a SolverError, not
    # an IndexError from an empty tie set
    rng = np.random.default_rng(0)
    for _ in range(2865):
        _overflowing_draw(rng)
    problem = _overflowing_draw(rng)
    with np.errstate(all="ignore"), pytest.raises(SolverError, match="no leaving row"):
        solve_lp(problem)


# Beale's cycling LP (1955): minimize -3/4 x4 + 150 x5 - 1/50 x6 + 6 x7
# with slacks x1, x2, x3; the optimum is -1/20 at x = (3/100, 0, 0, 1/25,
# 0, 1, 0)
BEALE_A = np.array(
    [
        [1.0, 0.0, 0.0, 1 / 4, -60.0, -1 / 25, 9.0],
        [0.0, 1.0, 0.0, 1 / 2, -90.0, -1 / 50, 3.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0],
    ]
)
BEALE_B = np.array([0.0, 0.0, 1.0])
BEALE_C = np.array([0.0, 0.0, 0.0, 3 / 4, -150.0, 1 / 50, -6.0])
BEALE_X = np.array([3 / 100, 0.0, 0.0, 1 / 25, 0.0, 1.0, 0.0])
# x = BEALE_UNITS * y: in these units phase one ends at the slack basis,
# from which the largest reduced cost and Harris's leaving rule repeat
# Beale's six degenerate pivots forever
BEALE_UNITS = np.array([1.0, 4.0, 2.0, 1 / 4, 1.0, 1.0, 1.0])


@pytest.mark.parametrize("units", [np.ones(7), BEALE_UNITS], ids=["textbook", "rescaled"])
def test_beale_cycling_lp_reaches_its_optimum(units):
    res = solve_lp(LpProblem(BEALE_C * units, BEALE_A * units, BEALE_B))
    assert res.status == "optimal"
    assert abs(res.value - 1 / 20) <= 1e-12
    np.testing.assert_allclose(res.solution * units, BEALE_X, atol=1e-12)


def test_degenerate_run_switches_to_smallest_index(monkeypatch):
    problem = LpProblem(BEALE_C * BEALE_UNITS, BEALE_A * BEALE_UNITS, BEALE_B)
    assert solve_lp(problem).pivots > linalg._DEGENERATE_RUN
    # without the switch the largest reduced cost cycles until the cap
    monkeypatch.setattr(linalg, "_MAX_PIVOTS", 1000)
    monkeypatch.setattr(linalg, "_DEGENERATE_RUN", linalg._MAX_PIVOTS)
    with pytest.raises(SolverError, match="terminate"):
        solve_lp(problem)


def test_drive_out_pivots_on_the_largest_entry():
    # after phase one: an artificial (column 3) basic at 1e-10 in row 0,
    # whose first entry above 1e-8 is tiny and of the wrong sign, x2 basic
    # in row 1, and a redundant row 2 whose artificial cannot leave
    T = np.array(
        [
            [-2e-8, 0.5, 0.0, 1.0, 0.0, 0.0, 1e-10],
            [1.0, 0.3, 1.0, 0.0, 1.0, 0.0, 0.7],
            [0.0, 1e-9, 0.0, 0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        ]
    )
    basis = np.array([3, 2, 5])
    assert linalg._drive_out(T, basis, 3) == [2]
    assert basis.tolist() == [1, 2, 5]
    # the first entry would have set x0 = -0.005 and x2 = 0.705
    np.testing.assert_allclose(T[:2, -1], [2e-10, 0.7 - 0.3 * 2e-10], rtol=0, atol=1e-15)


def test_square_ray_weights():
    # max sum(alpha) with alpha-weighted dual rays summing to the unit.
    t = polygon(4)
    rays = t.backend.dual_rays
    problem = LpProblem(
        objective=np.ones(rays.shape[0]),
        eq_matrix=rays.T.copy(),
        eq_rhs=t.unit.copy(),
    )
    res = solve_lp(problem)
    assert res.status == "optimal"
    np.testing.assert_allclose(res.value, 2.0, atol=1e-12)
    np.testing.assert_allclose(rays.T @ res.solution, t.unit, atol=1e-9)


def test_random_problems_match_scipy():
    rng = np.random.default_rng(20240817)
    n_checked = 0
    for trial in range(60):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 8))
        A = rng.normal(size=(m, n))
        nonneg = rng.random(n) < 0.75
        if trial % 3 == 0:
            # guaranteed-feasible right-hand side
            x0 = rng.uniform(0.5, 1.5, size=n)
            x0[~nonneg] -= 2.0 * (rng.random((~nonneg).sum()) < 0.5)
            b = A @ x0
        else:
            b = rng.normal(size=m)
        c = rng.normal(size=n)
        problem = LpProblem(objective=c, eq_matrix=A, eq_rhs=b, nonneg=nonneg)
        res = solve_lp(problem)
        ref_status, ref_value = _scipy_solve(problem)
        if ref_status == "other":
            continue
        assert res.status == ref_status, f"trial {trial}: {res.status} vs {ref_status}"
        if ref_status == "optimal":
            np.testing.assert_allclose(res.value, ref_value, rtol=1e-7, atol=1e-7)
            np.testing.assert_allclose(A @ res.solution, b, atol=1e-7)
            n_checked += 1
    assert n_checked >= 10


def test_duals_predict_rhs_perturbation():
    # For a nondegenerate optimum, value(b + d) - value(b) == duals @ d
    # for small d (the optimal basis stays optimal).
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(60):
        m, n = 3, 7
        A = rng.normal(size=(m, n))
        x0 = rng.uniform(0.5, 1.5, size=n)
        b = A @ x0
        c = rng.normal(size=n)
        problem = LpProblem(objective=c, eq_matrix=A, eq_rhs=b)
        res = solve_lp(problem)
        if res.status != "optimal":
            continue
        delta = 1e-6 * rng.normal(size=m)
        shifted = solve_lp(LpProblem(objective=c, eq_matrix=A, eq_rhs=b + delta))
        if shifted.status != "optimal":
            continue
        predicted = res.duals @ delta
        assert abs((shifted.value - res.value) - predicted) < 1e-9
        checked += 1
    assert checked >= 20


def test_problem_shape_validation():
    with pytest.raises(InputError):
        LpProblem(
            objective=np.array([1.0, 2.0]),
            eq_matrix=np.array([[1.0]]),
            eq_rhs=np.array([1.0]),
        )
    with pytest.raises(InputError):
        LpProblem(
            objective=np.array([1.0]),
            eq_matrix=np.array([[1.0]]),
            eq_rhs=np.array([1.0, 2.0]),
        )
    with pytest.raises(InputError):
        LpProblem(
            objective=np.array([np.nan]),
            eq_matrix=np.array([[1.0]]),
            eq_rhs=np.array([1.0]),
        )


@pytest.mark.parametrize(
    "vertices, expected",
    [
        (polygon(3).vertices, 3),
        (polygon(4).vertices, 4),
        (polygon(5).vertices, 5),
        (simplex(3).vertices, 3),
        (simplex(4).vertices, 4),
        (hypercube(2).vertices, 4),
        (hypercube(3).vertices, 6),
    ],
)
def test_facet_counts(vertices, expected):
    assert len(enumerate_facets(vertices)) == expected


def test_facets_support_their_polytope():
    rng = np.random.default_rng(3)
    verts = rng.normal(size=(9, 3))
    facets = enumerate_facets(verts)
    assert facets, "expected at least one facet"
    for facet in facets:
        vals = verts @ facet.normal
        assert vals.max() <= facet.offset + 1e-9
        on = np.flatnonzero(facet.offset - vals <= 1e-9)
        assert tuple(on) == facet.incident_vertices
        assert len(facet.incident_vertices) >= 3  # 2-dim facets of a 3-dim hull


def test_facet_incidence_on_square():
    facets = enumerate_facets(polygon(4).vertices)
    incident = sorted(f.incident_vertices for f in facets)
    # Each edge of the square joins cyclically adjacent vertices.
    assert incident == [(0, 1), (0, 3), (1, 2), (2, 3)]


def test_segment_facets():
    verts = np.array([[0.0, 0.0], [2.0, 0.0]])
    facets = enumerate_facets(verts)
    assert len(facets) == 2
    ends = sorted(f.incident_vertices for f in facets)
    assert ends == [(0,), (1,)]


def test_degenerate_vertex_set_rejected():
    with pytest.raises(InputError):
        enumerate_facets(np.array([[1.0, 2.0]]))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: LpProblem(np.ones(2), np.ones(2), np.ones(1)), "eq_matrix must be two-dimensional"),
        (lambda: LpProblem(np.ones(2), np.ones((1, 2)), np.ones(1), nonneg=[True]), "nonneg mask has shape"),
        (lambda: enumerate_facets([[0.0, 0.0], [np.nan, 1.0]]), "vertices must be finite"),
        (lambda: enumerate_facets([[1.0, 2.0], [1.0, 2.0]]), "degenerate vertex set"),
    ],
    ids=["matrix-1d", "mask-length", "vertex-nan", "coincident-vertices"],
)
def test_malformed_lp_and_vertex_inputs(call, message):
    with pytest.raises(InputError, match=f"^{message}"):
        call()


def _enumerate_facets_loop(vertices: np.ndarray) -> list[Facet]:
    """Reference: the facet search one vertex subset at a time, one SVD and
    one support test per subset, as enumerate_facets did before batching."""
    V = np.asarray(vertices, dtype=float)
    N = V.shape[0]
    centroid = V.mean(axis=0)
    M = V - centroid
    _, svals, Vt = np.linalg.svd(M, full_matrices=False)
    scale = max(1.0, float(svals[0]) if svals.size else 0.0)
    k = int(np.sum(svals > EPS * scale))
    B = Vt[:k].T
    L = M @ B

    found: dict[tuple[int, ...], tuple[np.ndarray, float]] = {}
    for subset in combinations(range(N), k):
        P = L[list(subset)]
        if k == 1:
            w = np.array([1.0])
            beta = float(P[0, 0])
        else:
            D = P[1:] - P[0]
            _, s2, vt2 = np.linalg.svd(D)
            if s2[-1] <= EPS * max(1.0, s2[0]):
                continue  # affinely dependent subset
            w = vt2[-1]
            beta = float(P[0] @ w)
        vals = L @ w - beta
        if np.all(vals <= EPS):
            pass
        elif np.all(vals >= -EPS):
            w, beta, vals = -w, -beta, -vals
        else:
            continue  # not a supporting hyperplane
        incident = tuple(np.nonzero(np.abs(vals) <= EPS)[0])
        if len(incident) == N:
            continue  # not a proper face
        if incident not in found:
            found[incident] = (w, beta)

    facets = []
    for incident in sorted(found):
        w, beta = found[incident]
        normal = B @ w
        offset = float(beta + normal @ centroid)
        facets.append(Facet(normal=normal, offset=offset, incident_vertices=incident))
    return facets


def _assert_same_facets(got: list[Facet], want: list[Facet]) -> None:
    assert [f.incident_vertices for f in got] == [f.incident_vertices for f in want]
    for g, w in zip(got, want):
        assert np.array_equal(g.normal, w.normal)
        assert g.offset == w.offset


def _turned(vertices: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The vertices under a random orthogonal map."""
    d = vertices.shape[1]
    return vertices @ np.linalg.qr(rng.normal(size=(d, d)))[0]


def _prism(n: int) -> np.ndarray:
    base = polygon(n).vertices[:, :2]
    return np.vstack([np.column_stack([base, np.zeros(n)]), np.column_stack([base, np.ones(n)])])


def _cross_polytope(d: int) -> np.ndarray:
    return np.vstack([np.eye(d), -np.eye(d)])


def _oracle_corpus() -> list[np.ndarray]:
    rng = np.random.default_rng(18)
    theories = [polygon(n) for n in range(3, 41)]
    theories += [hypercube(d) for d in (2, 3, 4)] + [simplex(d) for d in range(2, 7)]
    corpus = [util.rotated(t, rng).vertices for t in theories]
    corpus.append(np.array([[0.0, 0.0], [2.0, 0.0]]))  # a segment: k = 1
    square = np.zeros((4, 5))
    square[:, :2] = polygon(4).vertices[:, :2]  # a square embedded in 5-D
    corpus.append(square)
    for _ in range(5):  # hull points plus interior points
        hull = rng.normal(size=(8, 3))
        corpus.append(np.vstack([hull, 0.1 * rng.normal(size=(4, 3)) + hull.mean(axis=0)]))
    # a rotated hypercube(4) read from a file: the first 4-subset of each
    # facet's vertices is a square, so no facet's normal comes from it
    corpus.append(theory_from_file(FIXTURES / "hypercube4-norays.json").vertices)
    # a pentagonal prism, whose rectangles are non-simplicial facets, and
    # the cross-polytopes, whose k-subsets either hold an antipodal pair,
    # spanning a hyperplane through the centre, or span a facet
    corpus += [_turned(v, rng) for v in (_prism(5), _cross_polytope(3), _cross_polytope(4))]
    # a point on a facet moved off it, in and out, by less and by more than
    # EPS: the incidence is decided at EPS
    hull = rng.normal(size=(8, 3))
    facet = _enumerate_facets_loop(hull)[0]
    unit = facet.normal / np.linalg.norm(facet.normal)
    point = hull[list(facet.incident_vertices)].mean(axis=0)
    corpus += [np.vstack([hull, point + t * EPS * unit]) for t in (-2.0, -0.5, 0.5, 2.0)]
    return corpus


def test_enumerate_facets_bit_identical_to_per_subset_search():
    for vertices in _oracle_corpus():
        _assert_same_facets(enumerate_facets(vertices), _enumerate_facets_loop(vertices))


def test_facets_flat_only_to_eps_keep_the_search_bits():
    # A vertex of a non-simplicial facet moved off it by 0.5 or 2 EPS leaves
    # the facet's vertices coplanar only to within about EPS.  The search of
    # every subset then also returns near-duplicate vertex sets that other
    # subsets of the facet span, a subset or superset of a facet's vertices.
    # The screen proposes fewer of them; every facet returned is still the
    # search's, bit for bit.  Some of these inputs need a set that only the
    # exact test finds: the screen and it round a vertex at EPS apart.
    differ = 0
    for base in (_prism(3), _prism(4), hypercube(3).vertices[:, :3]):
        base = base - base.mean(axis=0)
        for facet in _enumerate_facets_loop(base):
            unit = facet.normal / np.linalg.norm(facet.normal)
            for moved, t in product(facet.incident_vertices, (-2.0, -0.5, 0.5, 2.0)):
                vertices = base.copy()
                vertices[moved] += t * EPS * unit
                got = {f.incident_vertices: f for f in enumerate_facets(vertices)}
                want = {f.incident_vertices: f for f in _enumerate_facets_loop(vertices)}
                assert got.keys() <= want.keys()
                _assert_same_facets(list(got.values()), [want[key] for key in got])
                for key in want.keys() - got.keys():
                    assert any(set(key) < set(g) or set(key) > set(g) for g in got)
                differ += got.keys() != want.keys()
    assert differ > 0


def test_hypercube4_facets_dedupe_across_batches():
    # C(16, 4) = 1,820 subsets, several batches; each facet is a 3-cube whose
    # 8 vertices are spanned by many subsets
    facets = enumerate_facets(hypercube(4).vertices)
    assert len(facets) == 8
    assert all(len(f.incident_vertices) == 8 for f in facets)


@pytest.mark.parametrize("batch", [1, 7])
def test_facets_do_not_depend_on_the_batch_size(batch, monkeypatch):
    vertices = hypercube(4).vertices
    want = enumerate_facets(vertices)
    monkeypatch.setattr(linalg, "_BATCH", batch)
    _assert_same_facets(enumerate_facets(vertices), want)


def test_facet_search_memory_is_bounded_by_the_batch():
    vertices = hypercube(4).vertices
    tracemalloc.start()
    try:
        enumerate_facets(vertices)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024
