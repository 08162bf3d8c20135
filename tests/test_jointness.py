import itertools
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.optimize import linprog

import util

from gptrat import (
    InputError,
    Measurement,
    SolverError,
    Theory,
    check_compatible,
    dichotomic_measurement,
    harmonic_joint,
    harmonic_smearing_weights,
    incompatibility_degree,
    is_valid_measurement,
    maximally_incompatible_dichotomic,
    mix,
    post_process,
    trivial_measurement,
)
from gptrat import jointness, linalg
from gptrat.jointness import _joint_lp
from gptrat.linalg import EPS, LpProblem, kron, solve_lp
from gptrat.polygons import odd_polygon_compatible_pair
from gptrat.zoo import hypercube, polygon, polygon_ray, simplex


def _ray_pair(theory, k1, k2):
    return (
        dichotomic_measurement(theory, polygon_ray(theory, k1)),
        dichotomic_measurement(theory, polygon_ray(theory, k2)),
    )


# ------------------------------------------------------------ harmonic joint


def test_harmonic_joint_two_dichotomics():
    t = polygon(4)
    m, n = _ray_pair(t, 1, 2)
    h = harmonic_joint([m, n])
    assert h.num_outcomes == 4
    assert h.outcomes[0] == ("+", "+")
    np.testing.assert_allclose(
        h.effects[0], (m.effects[0] + n.effects[0]) / 4.0, atol=1e-15
    )
    assert is_valid_measurement(h, t)


def test_harmonic_joint_marginals_are_smearings():
    rng = np.random.default_rng(5)
    t = polygon(5)
    m1 = util.random_measurement(t, rng, 2)
    m2 = util.random_measurement(t, rng, 3)
    h = harmonic_joint([m1, m2])
    lam1, lam2 = harmonic_smearing_weights([2, 3])
    np.testing.assert_allclose([lam1, lam2], [0.6, 0.4], atol=1e-15)

    marg1 = np.stack([
        sum(h.effects[i] for i, o in enumerate(h.outcomes) if o[0] == m1.outcomes[x])
        for x in range(2)
    ])
    expected1 = lam1 * m1.effects + (1 - lam1) * t.unit / 2.0
    np.testing.assert_allclose(marg1, expected1, atol=1e-12)

    marg2 = np.stack([
        sum(h.effects[i] for i, o in enumerate(h.outcomes) if o[1] == m2.outcomes[y])
        for y in range(3)
    ])
    expected2 = lam2 * m2.effects + (1 - lam2) * t.unit / 3.0
    np.testing.assert_allclose(marg2, expected2, atol=1e-12)


def test_harmonic_joint_three_measurements():
    rng = np.random.default_rng(6)
    t = hypercube(3)
    ms = [util.random_measurement(t, rng, 2) for _ in range(3)]
    h = harmonic_joint(ms)
    assert h.num_outcomes == 8
    assert is_valid_measurement(h, t)
    lam = harmonic_smearing_weights([2, 2, 2])[0]
    np.testing.assert_allclose(lam, 1.0 / 3.0, atol=1e-15)


def test_harmonic_joint_validation():
    t = polygon(4)
    m = dichotomic_measurement(t, polygon_ray(t, 1))
    with pytest.raises(InputError):
        harmonic_joint([m])
    other = Measurement(("a", "b"), np.eye(2))
    with pytest.raises(InputError, match="different ambient spaces"):
        harmonic_joint([m, other])


def test_harmonic_smearing_weights_values():
    assert harmonic_smearing_weights([2, 2]) == [0.5, 0.5]
    lam1, lam2 = harmonic_smearing_weights([2, 3])
    h = 2 / (1.0 / 2 + 1.0 / 3)
    assert (lam1, lam2) == (h / 4, h / 6)


@pytest.mark.parametrize("counts", [[], [2, 0], [2.5, 2]])
def test_harmonic_smearing_weights_reject_anything_but_positive_integers(counts):
    # [] and [2, 0] used to divide by zero, and [2.5, 2] was accepted
    with pytest.raises(InputError, match="positive integers"):
        harmonic_smearing_weights(counts)


# -------------------------------------------------------------- check joint


def test_square_ray_pair_is_incompatible():
    t = polygon(4)
    m, n = _ray_pair(t, 1, 2)
    assert check_compatible([m, n], t) is None


def test_anything_with_trivial_is_compatible():
    t = polygon(4)
    m = dichotomic_measurement(t, polygon_ray(t, 1))
    witness = check_compatible([m, trivial_measurement(t, [0.4, 0.6])], t)
    assert witness is not None
    assert is_valid_measurement(witness.joint, t)
    assert max(witness.marginal_residuals) <= 1e-9


def test_odd_polygon_construction_is_compatible():
    for n in (5, 7, 9):
        t = polygon(n)
        parent, m1, m2 = odd_polygon_compatible_pair(t)
        assert is_valid_measurement(parent, t)
        witness = check_compatible([m1, m2], t)
        assert witness is not None
        assert max(witness.marginal_residuals) <= 1e-9


def test_post_processings_of_common_parent_are_compatible():
    rng = np.random.default_rng(7)
    t = polygon(6)
    parent = util.uniform_ray_measurement(t)
    children = [util.random_post_processing(parent, rng, 2) for _ in range(3)]
    witness = check_compatible(children, t)
    assert witness is not None
    assert max(witness.marginal_residuals) <= 1e-7


def _grouping(parent, groups, outcomes):
    """Deterministic post-processing sending parent outcome j to its group."""
    nu = np.zeros((parent.num_outcomes, len(groups)))
    for y, group in enumerate(groups):
        nu[list(group), y] = 1.0
    return post_process(parent, nu, outcomes)


def test_three_measurements_compatibility_and_witness():
    t = polygon(6)
    parent = util.uniform_ray_measurement(t)
    m1 = _grouping(parent, [(0, 1, 2), (3, 4, 5)], ("+", "-"))
    m2 = _grouping(parent, [(1, 2, 3), (4, 5, 0)], ("+", "-"))
    m3 = _grouping(parent, [(0, 1), (2, 3), (4, 5)], ("a", "b", "c"))
    ms = [m1, m2, m3]
    witness = check_compatible(ms, t)
    assert witness is not None
    assert witness.joint.num_outcomes == 12
    assert is_valid_measurement(witness.joint, t)
    assert len(witness.marginal_residuals) == 3
    for axis, m in enumerate(ms):
        marginal = np.stack([
            sum(g for g, labels in zip(witness.joint.effects, witness.joint.outcomes) if labels[axis] == x)
            for x in m.outcomes
        ])
        np.testing.assert_allclose(marginal, m.effects, atol=1e-9)

    # the sharp ray pair (e_2, u - e_2) fits with m1 but not with m2, so
    # swapping it in for m3 makes the triple incompatible
    sharp = dichotomic_measurement(t, polygon_ray(t, 2))
    assert check_compatible([m1, sharp], t) is not None
    assert check_compatible([m2, sharp], t) is None
    assert check_compatible([m1, m2, sharp], t) is None


def test_harmonic_smearings_are_compatible():
    t = polygon(4)
    m, n = _ray_pair(t, 1, 2)
    lam1, lam2 = harmonic_smearing_weights([2, 2])
    sm = mix([m, trivial_measurement(t, [0.5, 0.5], ("+", "-"))], [lam1, 1 - lam1])
    sn = mix([n, trivial_measurement(t, [0.5, 0.5], ("+", "-"))], [lam2, 1 - lam2])
    assert check_compatible([sm, sn], t) is not None


def test_check_compatible_validation():
    t = polygon(4)
    m = dichotomic_measurement(t, polygon_ray(t, 1))
    with pytest.raises(InputError):
        check_compatible([m], t)
    bad = Measurement(("+", "-"), np.vstack([2.0 * t.unit, -t.unit]))
    with pytest.raises(InputError):
        check_compatible([m, bad], t)


def test_triples_and_quadruples_match_a_highs_feasibility_lp():
    # the joint LP of k measurements has the feasible point s = k - 1 and
    # decides compatibility at s* <= EPS; HiGHS decides the pure
    # compatibility LP (cone coefficients reproducing every marginal)
    rng = np.random.default_rng(311)
    bases = [polygon(n) for n in range(4, 11)] + [hypercube(2), hypercube(3), simplex(3)]
    verdicts = {3: set(), 4: set()}
    for base in bases:
        t = util.rotated(base, rng)
        for k in (3, 3, 3, 4, 4, 4):
            ms = [util.random_noisy_dichotomic(t, rng, float(rng.uniform(0.4, 1.0))) for _ in range(k)]
            witness = check_compatible(ms, t)
            _, _, cone = _joint_lp(ms, t.backend.dual_rays)
            b = np.concatenate([m.effects.ravel() for m in ms])
            ref = linprog(np.zeros(cone.shape[1]), A_eq=cone, b_eq=b, method="highs")
            assert ref.status in (0, 2), (t.name, ref.message)
            assert (witness is not None) == (ref.status == 0), (t.name, k)
            if witness is not None:
                assert max(witness.marginal_residuals) <= 1e-9, (t.name, witness.marginal_residuals)
                assert is_valid_measurement(witness.joint, t)
            verdicts[k].add(witness is not None)
    assert verdicts == {3: {False, True}, 4: {False, True}}


def test_three_cube_axes_need_the_largest_noise():
    # the cube's three axis measurements reach the joint LP's bound
    # s* = k - 1 = 2 (their smearings at 1/3 are the harmonic joint's
    # marginals), and smeared just above 1/3 they stay incompatible
    t = hypercube(3)
    rays = t.backend.dual_rays
    axes = [dichotomic_measurement(t, rays[i]) for i in (0, 2, 4)]
    assert check_compatible(axes, t) is None
    s, _, noise = jointness._solve_joint(axes, t, "the test")
    assert abs(s - 2.0) <= 1e-9
    assert all(abs(w.sum() - s) <= 1e-9 for w in noise)
    half = trivial_measurement(t, [0.5, 0.5], ("+", "-"))
    for lam, compatible in ((1 / 3, True), (1 / 3 + 1e-7, False)):
        smeared = [mix([m, half], [lam, 1 - lam]) for m in axes]
        assert (check_compatible(smeared, t) is not None) == compatible, lam


def test_an_incomplete_ray_list_is_a_solver_error_not_a_verdict():
    # the square with its fourth dual ray dropped: every measurement is
    # compatible with a trivial one, but u - r, an effect of M = (r, u - r)
    # for r = rays[1], is the dropped ray and lies outside the cone of the
    # three left, so the joint LP has no feasible point at all.  "None"
    # would be a wrong verdict; only an error is right.
    t = polygon(4)
    rays = t.backend.dual_rays
    short = replace(t, backend=replace(t.backend, dual_rays=rays[:3]))
    pair = (dichotomic_measurement(short, rays[1]), trivial_measurement(short, [0.5, 0.5]))
    with pytest.raises(SolverError, match="status infeasible"):
        check_compatible(pair, short)
    with pytest.raises(SolverError, match="status infeasible"):
        incompatibility_degree(*pair, short)


@pytest.mark.parametrize("counts", [(2, 2), (2, 3), (3, 4), (2, 2, 2), (2, 3, 4)])
def test_joint_lp_marginal_operator_matches_the_label_comprehension(counts):
    # labels that are not indices, so P is checked against label equality
    ms = [
        Measurement(tuple(f"{i}{chr(ord('z') - x)}" for x in range(c)), np.full((c, 3), 1.0 / c))
        for i, c in enumerate(counts)
    ]
    labels, P, cone = _joint_lp(ms, np.eye(3))
    # itertools, not outcome_tuples: _joint_lp reads the latter's table
    reference = list(itertools.product(*(m.outcomes for m in ms)))
    assert labels == reference
    expected = np.array([[t[i] == x for t in reference] for i, m in enumerate(ms) for x in m.outcomes], dtype=float)
    np.testing.assert_array_equal(P, expected)
    np.testing.assert_array_equal(cone, kron(expected, np.eye(3)))


# ------------------------------------------------------ compatibility memo


def _counting_solves(monkeypatch):
    """Patch jointness.solve_lp to record every problem it is given."""
    solve, problems = jointness.solve_lp, []

    def counting(problem):
        problems.append(problem)
        return solve(problem)

    monkeypatch.setattr(jointness, "solve_lp", counting)
    return problems


def test_repeated_pair_solves_one_compatibility_lp(monkeypatch):
    t = polygon(4)
    compatible = (dichotomic_measurement(t, polygon_ray(t, 1)), trivial_measurement(t, [0.2, 0.8]))
    incompatible = _ray_pair(t, 1, 2)
    problems = _counting_solves(monkeypatch)
    for pair in (compatible, incompatible):
        problems.clear()
        first = check_compatible(pair, t)
        assert check_compatible(pair, t) is first
        # the degree reads the same joint LP: one LP per pair either way
        incompatibility_degree(*pair, t)
        assert len(problems) == 1
        # and in the other order, on a fresh Theory
        problems.clear()
        fresh = replace(t)
        incompatibility_degree(*pair, fresh)
        assert (check_compatible(pair, fresh) is None) == (first is None)
        assert len(problems) == 1
    # equal copies hit too: the key is the bytes, not the objects
    copies = [Measurement(m.outcomes, m.effects.copy()) for m in incompatible]
    problems.clear()
    assert check_compatible(copies, t) is None
    assert problems == []


def test_mutated_effects_force_a_fresh_solve(monkeypatch):
    t = polygon(4)
    m = dichotomic_measurement(t, polygon_ray(t, 1))
    n = trivial_measurement(t, [0.5, 0.5])
    problems = _counting_solves(monkeypatch)
    assert check_compatible([m, n], t) is not None
    n.effects[:] = dichotomic_measurement(t, polygon_ray(t, 2)).effects
    assert check_compatible([m, n], t) is None
    assert len(problems) == 2
    assert incompatibility_degree(m, n, t).degree < 1.0


def test_alternated_pairs_answer_as_a_fresh_theory_does():
    rng = np.random.default_rng(27)
    t = util.rotated(polygon(6), rng)
    pairs = [
        util.random_compatible_pair(t, rng),
        (util.random_extreme_dichotomic(t, rng), util.random_noisy_dichotomic(t, rng)),
        (util.random_extreme_dichotomic(t, rng), _three_outcome(t, rng)),
    ]
    for pair in pairs * 2:
        fresh = replace(t)
        witness, expected = check_compatible(pair, t), check_compatible(pair, fresh)
        assert (witness is None) == (expected is None)
        if witness is not None:
            assert witness.joint.outcomes == expected.joint.outcomes
            np.testing.assert_array_equal(witness.joint.effects, expected.joint.effects)
            assert witness.marginal_residuals == expected.marginal_residuals
        assert incompatibility_degree(*pair, t).degree == incompatibility_degree(*pair, replace(t)).degree
    # both verdicts are exercised
    assert {check_compatible(pair, t) is None for pair in pairs} == {False, True}


def test_a_solver_error_is_not_memoized(monkeypatch):
    t = polygon(4)
    pair = _ray_pair(t, 1, 2)
    solve, problems = jointness.solve_lp, []

    def fails_once(problem):
        problems.append(problem)
        if len(problems) == 1:
            raise SolverError("simplex failed to terminate")
        return solve(problem)

    monkeypatch.setattr(jointness, "solve_lp", fails_once)
    with pytest.raises(SolverError):
        check_compatible(pair, t)
    assert check_compatible(pair, t) is None
    assert len(problems) == 2


def test_a_replaced_theory_starts_with_an_empty_memo(monkeypatch):
    t = polygon(4)
    pair = _ray_pair(t, 1, 2)
    check_compatible(pair, t)
    problems = _counting_solves(monkeypatch)
    assert check_compatible(pair, replace(t, name="square copy")) is None
    assert len(problems) == 1


def test_a_memoized_witness_is_read_only():
    t = polygon(4)
    pair = (dichotomic_measurement(t, polygon_ray(t, 1)), trivial_measurement(t, [0.2, 0.8]))
    witness = check_compatible(pair, t)
    assert check_compatible(pair, t) is witness
    with pytest.raises(ValueError):
        witness.joint.effects[0, 0] = 1.0


def test_the_memo_is_not_a_dataclass_field():
    bases = [polygon(n) for n in range(4, 11)] + [hypercube(2), hypercube(3), simplex(3), simplex(4)]
    assert [f.name for f in fields(Theory)] == ["name", "ambient_dim", "unit", "backend"]
    maximal = 0
    for t in bases:
        before = repr(t)
        for m, n in util.ray_pairs(t):
            # warm: the verdict comes from the memo; cold: from a fresh Theory
            check_compatible([m, n], t)
            flagged = maximally_incompatible_dichotomic(m, n, t)
            assert flagged == maximally_incompatible_dichotomic(m, n, replace(t))
            maximal += flagged
        assert repr(t) == before
    assert maximal == 20


# -------------------------------------------------------------------- degree


def test_degree_rejects_noise_on_one_side_only(monkeypatch):
    # the degree LP's last two columns are the second measurement's noise w'
    solve = jointness.solve_lp

    def one_sided(problem):
        res = solve(problem)
        if res.solution is None:
            return res
        x = res.solution.copy()
        x[-2:] = 0.0
        return replace(res, solution=x)

    monkeypatch.setattr(jointness, "solve_lp", one_sided)
    t = polygon(4)
    m, n = _ray_pair(t, 1, 2)
    with pytest.raises(SolverError, match="no positive noise weight on one side"):
        incompatibility_degree(m, n, t)


def test_square_ray_pair_degree_is_one_half():
    t = polygon(4)
    m, n = _ray_pair(t, 1, 2)
    report = incompatibility_degree(m, n, t)
    # 1/(1 + s*) for the least noise s* = 1, within the oracle's 1e-6
    assert 0.5 - 1e-6 <= report.degree <= 0.5
    p, q = report.optimal_trivials
    np.testing.assert_allclose(p.sum(), 1.0, atol=1e-9)
    np.testing.assert_allclose(q.sum(), 1.0, atol=1e-9)
    assert p.min() >= -1e-9 and q.min() >= -1e-9


def test_compatible_pair_degree_is_exactly_one():
    t = polygon(4)
    m = dichotomic_measurement(t, polygon_ray(t, 1))
    trivial = trivial_measurement(t, [0.2, 0.8])
    report = incompatibility_degree(m, trivial, t)
    assert report.degree == 1.0
    assert check_compatible([m, trivial], t) is not None
    # the noise has weight 0 at degree 1, so any trivial parts do
    for p in report.optimal_trivials:
        np.testing.assert_array_equal(p, [0.5, 0.5])


def test_noisy_pair_degree_scales_inversely():
    # pre-smearing by mu rescales the critical noise to 1/(2 mu)
    t = polygon(4)
    m, n = _ray_pair(t, 1, 2)
    mu = 0.8
    noisy_m = mix([m, trivial_measurement(t, [0.5, 0.5], ("+", "-"))], [mu, 1 - mu])
    noisy_n = mix([n, trivial_measurement(t, [0.5, 0.5], ("+", "-"))], [mu, 1 - mu])
    report = incompatibility_degree(noisy_m, noisy_n, t)
    np.testing.assert_allclose(report.degree, 0.5 / mu, atol=1e-6)


def test_degree_never_below_one_half():
    rng = np.random.default_rng(8)
    for t in (polygon(4), polygon(5), hypercube(2)):
        for _ in range(2):
            m = util.random_noisy_dichotomic(t, rng)
            n = util.random_noisy_dichotomic(t, rng)
            report = incompatibility_degree(m, n, t)
            assert report.degree >= 0.5 - 1e-6
            assert report.degree <= 1.0


def _bisection_degree(m1, m2, theory):
    """Oracle: the largest lam in [1/2, 1] at which lam M + (1 - lam) p u and
    lam N + (1 - lam) q u have a joint for some distributions p, q, bisected
    to a bracket below 1e-6 with one feasibility LP per step; returns the
    bracket's lower end.  The noise variables are (1 - lam) p and
    (1 - lam) q, so no column shrinks as lam nears 1."""
    c1, c2 = m1.num_outcomes, m2.num_outcomes
    _, _, cone = _joint_lp([m1, m2], theory.backend.dual_rays)
    nbeta = cone.shape[1]
    sums = np.zeros((2, nbeta + c1 + c2))
    sums[0, nbeta : nbeta + c1] = 1.0
    sums[1, nbeta + c1 :] = 1.0
    A = np.vstack([np.hstack([cone, -kron(np.eye(c1 + c2), theory.unit[:, None])]), sums])
    effects = np.concatenate([m1.effects.ravel(), m2.effects.ravel()])

    def feasible(lam):
        b = np.concatenate([lam * effects, [1.0 - lam, 1.0 - lam]])
        return solve_lp(LpProblem(np.zeros(A.shape[1]), A, b)).status == "optimal"

    lo, hi = 0.5, 1.0
    assert feasible(lo)
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if feasible(mid) else (lo, mid)
    return lo


def _three_outcome(theory, rng):
    """(a r1, b r2, u - a r1 - b r2) for random dual rays r1, r2 and a, b in
    [0.3, 0.5], valid because every ray lies below the unit."""
    rays = theory.backend.dual_rays
    r1, r2 = rays[rng.choice(rays.shape[0], 2, replace=False)]
    a, b = rng.uniform(0.3, 0.5, 2)
    return Measurement(("a", "b", "c"), np.vstack([a * r1, b * r2, theory.unit - a * r1 - b * r2]))


def test_degree_agrees_with_bisection_oracle():
    rng = np.random.default_rng(20)
    bases = [polygon(n) for n in range(4, 13)] + [hypercube(2), hypercube(3), simplex(4)]
    below_one = 0
    for base in bases:
        t = util.rotated(base, rng)
        pairs = [
            (util.random_extreme_dichotomic(t, rng), util.random_extreme_dichotomic(t, rng)),
            (util.random_noisy_dichotomic(t, rng), util.random_noisy_dichotomic(t, rng)),
            (util.random_extreme_dichotomic(t, rng), _three_outcome(t, rng)),
        ]
        for m, n in pairs:
            report = incompatibility_degree(m, n, t)
            oracle = _bisection_degree(m, n, t)
            assert oracle - 1e-9 <= report.degree <= oracle + 1e-6 + 1e-9, (t.name, report.degree, oracle)
            for p in report.optimal_trivials:
                assert p.min() >= 0.0 and abs(p.sum() - 1.0) <= 1e-12, (t.name, p)
            if report.degree == 1.0:
                continue
            below_one += 1
            lam = report.degree - 1e-9
            smeared = [
                Measurement(x.outcomes, lam * x.effects + (1.0 - lam) * np.outer(p, t.unit))
                for x, p in zip((m, n), report.optimal_trivials)
            ]
            assert check_compatible(smeared, t) is not None, (t.name, report.degree)
    assert below_one >= 15


def test_degree_raises_when_the_solver_ends_at_an_infeasible_point(monkeypatch):
    pivot = linalg._pivot

    def perturbed(T, basis, row, col):
        pivot(T, basis, row, col)
        T[row, -1] += 1e-3

    monkeypatch.setattr(linalg, "_pivot", perturbed)
    t = polygon(4)
    m, n = _ray_pair(t, 1, 2)
    with pytest.raises(SolverError, match="infeasible point"):
        incompatibility_degree(m, n, t)


# ------------------------------------------------------ maximal incompatibility


def test_square_ray_pair_is_maximally_incompatible():
    t = polygon(4)
    m, n = _ray_pair(t, 1, 2)
    assert maximally_incompatible_dichotomic(m, n, t)


def test_noisy_pair_is_not_maximally_incompatible():
    t = polygon(4)
    m, n = _ray_pair(t, 1, 2)
    noisy = mix([n, trivial_measurement(t, [0.5, 0.5], ("+", "-"))], [0.9, 0.1])
    assert not maximally_incompatible_dichotomic(m, noisy, t)


def test_hypercube_face_pair_is_maximally_incompatible():
    t = hypercube(3)
    rays = t.backend.dual_rays
    m = dichotomic_measurement(t, rays[0])  # depends on coordinate 1 only
    n = dichotomic_measurement(t, rays[2])  # depends on coordinate 2 only
    assert maximally_incompatible_dichotomic(m, n, t)


def test_tetrahedron_pair_is_not_maximally_incompatible():
    t = simplex(4)
    m = dichotomic_measurement(t, np.array([1.0, 1.0, 0.0, 0.0]))
    n = dichotomic_measurement(t, np.array([1.0, 0.0, 1.0, 0.0]))
    assert not maximally_incompatible_dichotomic(m, n, t)
    assert incompatibility_degree(m, n, t).degree == 1.0


def _parallelogram_oracle(m1, m2, theory):
    """Oracle: four states t1..t4 with M(+) certain on t1, t2 and impossible
    on t3, t4, N(+) certain on t1, t4 and impossible on t2, t3, and
    t1 + t3 = t2 + t4, each searched as a convex combination of the vertices
    on its face, by one feasibility LP."""
    V = theory.backend.extreme_states
    d = theory.ambient_dim
    e_vals = V @ m1.effects[0]
    f_vals = V @ m2.effects[0]
    e_on, e_off = np.abs(e_vals - 1.0) <= EPS, np.abs(e_vals) <= EPS
    f_on, f_off = np.abs(f_vals - 1.0) <= EPS, np.abs(f_vals) <= EPS
    faces = [
        np.nonzero(e_on & f_on)[0],  # t1
        np.nonzero(e_off & f_on)[0],  # t2
        np.nonzero(e_off & f_off)[0],  # t3
        np.nonzero(e_on & f_off)[0],  # t4
    ]
    if any(idx.size == 0 for idx in faces):
        return False
    offsets = np.concatenate([[0], np.cumsum([idx.size for idx in faces])])
    nvar = int(offsets[-1])
    # rows: parallelogram t1 - t2 + t3 - t4 = 0, plus one normalization per state
    A = np.zeros((d + 4, nvar))
    b = np.zeros(d + 4)
    for i, (idx, sign) in enumerate(zip(faces, [1.0, -1.0, 1.0, -1.0])):
        cols = slice(offsets[i], offsets[i + 1])
        A[:d, cols] = sign * V[idx].T
        A[d + i, cols] = 1.0
        b[d + i] = 1.0
    return solve_lp(LpProblem(np.zeros(nvar), A, b)).status == "optimal"


def test_maximal_incompatibility_agrees_with_parallelogram_oracle():
    bases = [polygon(n) for n in range(4, 11)] + [hypercube(2), hypercube(3), simplex(3), simplex(4)]
    # every pair of dual-ray measurements on the stock theories
    maximal, other_degrees = 0, []
    for t in bases:
        for k, (m, n) in enumerate(util.ray_pairs(t)):
            flagged = maximally_incompatible_dichotomic(m, n, t)
            assert flagged == _parallelogram_oracle(m, n, t), (t.name, k)
            if flagged:
                maximal += 1
            else:
                other_degrees.append(incompatibility_degree(m, n, t).degree)
    assert len(other_degrees) + maximal == 191
    assert maximal == 20
    # the verdict sits far from the EPS cutoff
    assert min(other_degrees) >= 2.0 / 3.0 - 1e-9

    # sharp and noisy pairs on rotated theories, where exact zeros are round-off
    rng = np.random.default_rng(21)
    rotated_maximal = 0
    for base in bases:
        t = util.rotated(base, rng)
        for _ in range(3):
            for draw in (util.random_extreme_dichotomic, util.random_noisy_dichotomic):
                m, n = draw(t, rng), draw(t, rng)
                flagged = maximally_incompatible_dichotomic(m, n, t)
                assert flagged == _parallelogram_oracle(m, n, t), (t.name, draw.__name__)
                rotated_maximal += flagged
    assert rotated_maximal >= 3


def test_maximal_incompatibility_requires_dichotomic():
    t = polygon(4)
    m = dichotomic_measurement(t, polygon_ray(t, 1))
    three = trivial_measurement(t, [0.2, 0.3, 0.5])
    with pytest.raises(InputError):
        maximally_incompatible_dichotomic(m, three, t)
