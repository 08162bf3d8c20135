import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import util
from gptrat import (
    Ball,
    InputError,
    Measurement,
    Polytope,
    Theory,
    UnsupportedBackendError,
    classical_rac_value,
    compatible_bound,
    dichotomic_measurement,
    distinguishable,
    dual_rays_from_vertices,
    evaluate,
    harmonic_joint,
    is_valid_effect,
    is_valid_measurement,
    mix,
    norm_with_argmax,
    ntomic_bound,
    operational_dimension,
    order_unit_norm,
    post_process,
    rat_success_given_states,
    trivial_measurement,
    validate_theory,
)
from gptrat import core
from gptrat.core import harmonic_mean, outcome_tuples
from gptrat.io import theory_from_file
from gptrat.linalg import EPS, LpProblem, enumerate_facets, kron, solve_lp
from gptrat.zoo import (
    hypercube,
    polygon,
    polygon_ray,
    polygon_state,
    qubit2,
    qubit2_effect,
    qubit2_state,
    rebit,
    rebit_effect,
    rebit_state,
    simplex,
)

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0
FIXTURES = Path(__file__).parent / "fixtures"


# ---------------------------------------------------------------- evaluation


def test_evaluate_square_extremes():
    t = polygon(4)
    e1 = polygon_ray(t, 1)
    np.testing.assert_allclose(evaluate(e1, polygon_state(t, 1), t), 1.0, atol=1e-12)
    np.testing.assert_allclose(evaluate(e1, polygon_state(t, 4), t), 1.0, atol=1e-12)
    np.testing.assert_allclose(evaluate(e1, polygon_state(t, 2), t), 0.0, atol=1e-12)
    np.testing.assert_allclose(evaluate(e1, polygon_state(t, 3), t), 0.0, atol=1e-12)


def test_evaluate_pentagon_center():
    t = polygon(5)
    g1 = polygon_ray(t, 1)
    center = t.vertices.mean(axis=0)
    r2 = 1.0 / math.cos(math.pi / 5)
    np.testing.assert_allclose(evaluate(g1, center, t), 1.0 / (1.0 + r2), atol=1e-12)


def test_evaluate_rejects_unnormalized_state():
    t = polygon(4)
    with pytest.raises(InputError):
        evaluate(t.unit, 2.0 * polygon_state(t, 1), t)
    with pytest.raises(InputError):
        evaluate(np.zeros(2), polygon_state(t, 1), t)


# ---------------------------------------------------------------------- norm


def test_norm_known_values_square():
    t = polygon(4)
    assert order_unit_norm(t.unit, t) == 1.0
    e1, e2 = polygon_ray(t, 1), polygon_ray(t, 2)
    np.testing.assert_allclose(order_unit_norm(e1 + e2, t), 2.0, atol=1e-12)
    np.testing.assert_allclose(order_unit_norm(-3.0 * t.unit, t), 3.0, atol=1e-12)


def test_norm_known_value_pentagon():
    t = polygon(5)
    g1, g2 = polygon_ray(t, 1), polygon_ray(t, 2)
    np.testing.assert_allclose(order_unit_norm(g1 + g2, t), GOLDEN_RATIO, atol=1e-12)


def test_norm_argmax_prefers_lowest_index():
    t = polygon(4)
    e1 = polygon_ray(t, 1)  # attains 1 at vertices 1 and 4 (indices 0 and 3)
    value, idx = norm_with_argmax(e1, t)
    np.testing.assert_allclose(value, 1.0, atol=1e-12)
    assert idx == 0


def test_rebit_norm_matches_grid_scan():
    t = rebit()
    rng = np.random.default_rng(11)
    thetas = np.linspace(0.0, 2.0 * math.pi, 200_001)
    states = np.column_stack([np.cos(thetas), np.sin(thetas), np.ones_like(thetas)])
    for _ in range(25):
        f = rng.normal(size=3)
        value, v = norm_with_argmax(f, t)
        scan = np.max(np.abs(states @ f))
        np.testing.assert_allclose(value, scan, atol=1e-8)
        np.testing.assert_allclose(abs(f @ np.append(v, 1.0)), value, atol=1e-12)


def test_qubit_norm_matches_sampled_states():
    t = qubit2()
    rng = np.random.default_rng(12)
    for _ in range(25):
        f = rng.normal(size=4)
        value, bloch = norm_with_argmax(f, t)
        # closed form beats any sampled pure state and is attained at bloch
        np.testing.assert_allclose(abs(f @ qubit2_state(bloch)), value, atol=1e-12)
        for _ in range(50):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            assert abs(f @ qubit2_state(v)) <= value + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=3, max_value=9),
    st.lists(st.floats(-100.0, 100.0), min_size=6, max_size=6),
    st.floats(-10.0, 10.0),
)
def test_norm_is_a_seminorm_on_polygons(n, coords, alpha):
    t = polygon(n)
    f = np.array(coords[:3])
    g = np.array(coords[3:])
    nf, ng = order_unit_norm(f, t), order_unit_norm(g, t)
    assert order_unit_norm(f + g, t) <= nf + ng + 1e-9
    np.testing.assert_allclose(order_unit_norm(alpha * f, t), abs(alpha) * nf, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-100.0, 100.0), min_size=3, max_size=3),
    st.floats(0.0, 2.0 * math.pi),
)
def test_rebit_norm_dominates_every_state(coords, theta):
    f = np.array(coords)
    disc = order_unit_norm(f, rebit())
    assert abs(f @ rebit_state(theta)) <= disc + 1e-9
    # on the disc the norm reduces to |constant part| + radial part
    np.testing.assert_allclose(disc, abs(f[2]) + math.hypot(f[0], f[1]), atol=1e-9)


# ------------------------------------------------------------------- effects


def test_effect_validity_polytope():
    t = polygon(4)
    assert is_valid_effect(t.unit, t)
    assert is_valid_effect(polygon_ray(t, 2), t)
    assert not is_valid_effect(2.0 * t.unit, t)
    assert not is_valid_effect(-0.1 * polygon_ray(t, 1), t)


def test_effect_validity_rebit():
    t = rebit()
    assert is_valid_effect(np.array([0.25, 0.0, 0.5]), t)
    assert is_valid_effect(0.5 * rebit_effect(1.0), t)
    assert not is_valid_effect(np.array([0.6, 0.0, 0.5]), t)


def test_disc_effects_behave_the_same_in_the_bloch_ball():
    disc, ball = rebit(), qubit2()
    rng = np.random.default_rng(13)
    valid = 0
    for _ in range(200):
        a, b = rng.uniform(-0.6, 0.6, size=2)
        c = rng.uniform(-0.2, 1.2)
        f_disc = np.array([a, b, c])
        f_ball = np.array([a, b, 0.0, c])
        assert order_unit_norm(f_disc, disc) == order_unit_norm(f_ball, ball)
        assert is_valid_effect(f_disc, disc) == is_valid_effect(f_ball, ball)
        valid += is_valid_effect(f_disc, disc)
    assert 0 < valid < 200  # both verdicts occur


def test_effect_validity_qubit():
    t = qubit2()
    assert is_valid_effect(qubit2_effect([0.0, 0.0, 1.0], 0.5), t)
    assert not is_valid_effect(np.array([0.7, 0.0, 0.0, 0.5]), t)


# -------------------------------------------------------------- measurements


def test_trivial_and_dichotomic_measurements():
    t = polygon(4)
    m = trivial_measurement(t, [0.3, 0.7])
    assert is_valid_measurement(m, t)
    s = polygon_state(t, 2)
    np.testing.assert_allclose(evaluate(m.effects[0], s, t), 0.3, atol=1e-12)

    d = dichotomic_measurement(t, polygon_ray(t, 1))
    assert d.outcomes == ("+", "-")
    assert is_valid_measurement(d, t)


def test_trivial_measurement_rejects_bad_probs():
    t = polygon(4)
    with pytest.raises(InputError):
        trivial_measurement(t, [0.5, 0.6])
    with pytest.raises(InputError):
        trivial_measurement(t, [-0.1, 1.1])


def test_post_process_identity_and_merge():
    t = polygon(6)
    m = dichotomic_measurement(t, polygon_ray(t, 1))
    same = post_process(m, np.eye(2))
    np.testing.assert_allclose(same.effects, m.effects, atol=0)

    merged = post_process(m, np.ones((2, 1)))
    np.testing.assert_allclose(merged.effects[0], t.unit, atol=1e-12)


def test_post_process_rejects_nonstochastic():
    t = polygon(4)
    m = dichotomic_measurement(t, polygon_ray(t, 1))
    with pytest.raises(InputError):
        post_process(m, np.array([[0.5, 0.6], [0.5, 0.5]]))
    with pytest.raises(InputError):
        post_process(m, np.array([[1.2, -0.2], [0.5, 0.5]]))
    with pytest.raises(InputError):
        post_process(m, np.eye(3))


def test_mix_weights_and_outcomes():
    t = polygon(4)
    m = dichotomic_measurement(t, polygon_ray(t, 1))
    n = dichotomic_measurement(t, polygon_ray(t, 2))
    mixed = mix([m, n], [0.25, 0.75])
    np.testing.assert_allclose(mixed.effects, 0.25 * m.effects + 0.75 * n.effects)
    with pytest.raises(InputError):
        mix([m, n], [0.5, 0.6])
    with pytest.raises(InputError):
        mix([m, trivial_measurement(t, [0.5, 0.5])], [0.5, 0.5])  # labels differ
    wide = Measurement(m.outcomes, np.hstack([m.effects, np.zeros((2, 1))]))
    with pytest.raises(InputError, match="different ambient spaces"):
        mix([m, wide], [0.5, 0.5])  # same labels, effects of width 3 and 4


@pytest.mark.parametrize(
    "call",
    [lambda m, empty: harmonic_joint([m, empty]), lambda m, empty: rat_success_given_states([m, empty], {})],
    ids=["harmonic_joint", "rat_success_given_states"],
)
def test_zero_outcome_measurement_is_rejected(call):
    # a measurement with no outcomes used to reach the joint and the RAT sum,
    # which divided by its outcome count
    t = polygon(4)
    with pytest.raises(InputError, match="a measurement needs at least one outcome"):
        call(dichotomic_measurement(t, polygon_ray(t, 1)), Measurement((), np.zeros((0, 3))))


@pytest.mark.parametrize(
    "call",
    [
        lambda: Theory("x", 3.0, [0.0, 0.0, 1.0], Ball(2)),
        lambda: Ball(2.0),
        lambda: compatible_bound(2.5, 2, 2.0),
        lambda: classical_rac_value(True, 2),
        lambda: ntomic_bound(1.5, [2, 2]),
    ],
    ids=["theory-dim", "ball-dim", "compatible_bound", "classical_rac_value", "ntomic_bound"],
)
def test_integer_arguments_must_be_integers(call):
    # each was once accepted, or failed later with a bare numpy TypeError
    with pytest.raises(InputError, match="must be an integer"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda t, m: trivial_measurement(t, [np.nan, 1.0]),
        lambda t, m: post_process(m, [[np.nan, 1.0], [0.0, 1.0]]),
        lambda t, m: mix([m, m], [np.nan, 1.0]),
        lambda t, m: compatible_bound(2, 2, np.nan),
    ],
    ids=["trivial_measurement", "post_process", "mix", "compatible_bound"],
)
def test_nan_fails_the_probability_checks(call):
    t = polygon(4)
    with pytest.raises(InputError):
        call(t, dichotomic_measurement(t, polygon_ray(t, 1)))


def test_post_processing_contracts_norm_sum():
    rng = np.random.default_rng(2024)
    for t in (polygon(5), polygon(8), hypercube(3)):
        rays = t.backend.dual_rays
        scale = 1.0 / float(rays.sum(axis=0) @ t.vertices.mean(axis=0))
        parent = Measurement(tuple(range(rays.shape[0])), scale * rays)
        for _ in range(10):
            nu = rng.dirichlet(np.ones(3), size=parent.num_outcomes)
            child = post_process(parent, nu)
            before = sum(order_unit_norm(f, t) for f in parent.effects)
            after = sum(order_unit_norm(f, t) for f in child.effects)
            assert after <= before + 1e-9


# ------------------------------------------------------- distinguishability


def test_distinguishable_square_pairs():
    t = polygon(4)
    s = [polygon_state(t, j) for j in (1, 2, 3, 4)]
    assert distinguishable([s[0], s[2]], t)
    assert distinguishable([s[0], s[1]], t)
    assert not distinguishable([s[0], s[1], s[2]], t)


def test_distinguishable_simplex_full_set():
    t = simplex(3)
    assert distinguishable(list(t.vertices), t)


def _distinguishable_full_lp(states, theory) -> bool:
    """Reference for the zero-pattern test: the full feasibility LP over the
    dual-ray cone, e_i = sum_r beta_ir ray_r with sum_i e_i = u and
    e_i(s_j) = delta_ij (d + k^2 rows, k R columns)."""
    rays = theory.backend.dual_rays
    S = np.asarray(states, dtype=float)
    n = S.shape[0]
    A = np.vstack([kron(np.ones((1, n)), rays.T), kron(np.eye(n), (rays @ S.T).T)])
    b = np.concatenate([theory.unit, np.eye(n).ravel()])
    return solve_lp(LpProblem(np.zeros(A.shape[1]), A, b)).status == "optimal"


def test_distinguishable_agrees_with_full_lp():
    rng = np.random.default_rng(2021)
    stock = (
        [polygon(n) for n in range(3, 17)]
        + [hypercube(k) for k in (2, 3, 4)]
        + [simplex(d) for d in range(2, 7)]
    )
    verdicts = []
    for _ in range(14):
        for base in stock:
            t = util.rotated(base, rng)
            V = t.vertices
            k = int(rng.integers(2, min(5, V.shape[0]) + 1))
            S = V[rng.choice(V.shape[0], k, replace=False)]
            if rng.random() < 0.3:
                i = int(rng.integers(k))
                S[i] += rng.uniform(0.05, 0.5) * (V.mean(axis=0) - S[i])
            verdict = distinguishable(S, t)
            assert verdict == _distinguishable_full_lp(S, t), (t.name, S)
            verdicts.append(verdict)
    assert len(verdicts) >= 300
    assert 50 <= sum(verdicts) <= len(verdicts) - 50


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_distinguishable_rejects_non_finite_numbers(bad):
    t = polygon(4)
    S = t.vertices[:2].copy()
    S[1, 0] = bad
    with pytest.raises(InputError):
        distinguishable(S, t)
    rays = t.backend.dual_rays.copy()
    rays[2, 0] = bad
    broken = Theory("broken", 3, t.unit, Polytope(t.vertices, rays))
    with pytest.raises(InputError):
        distinguishable(t.vertices[:2], broken)


def test_distinguishable_rejects_targets_outside_the_state_space():
    t = polygon(4)
    with pytest.raises(InputError):
        distinguishable([t.vertices[0], 2.0 * t.vertices[2]], t)
    with pytest.raises(InputError):
        distinguishable([t.vertices[0], 2.0 * t.vertices[2] - t.vertices[0]], t)


def _reference_dimension(theory) -> int:
    """The operational dimension by one distinguishable call per subset."""
    V = theory.vertices
    n = V.shape[0]
    best = 1
    for k in range(2, n + 1):
        if not any(distinguishable(V[list(s)], theory) for s in itertools.combinations(range(n), k)):
            break
        best = k
    return best


@pytest.mark.parametrize(
    "theory, expected",
    [
        (polygon(4), 2),
        (polygon(7), 2),
        (simplex(3), 3),
        (simplex(5), 5),
        (hypercube(3), 2),
        (polygon(15), 2),
        (polygon(16), 2),
        (hypercube(4), 2),
        (simplex(6), 6),
        (util.rotated(polygon(15), np.random.default_rng(15)), 2),
        (util.rotated(polygon(16), np.random.default_rng(16)), 2),
        (util.rotated(hypercube(4), np.random.default_rng(4)), 2),
        (util.rotated(simplex(6), np.random.default_rng(6)), 6),
    ]
    # irregular theories: the expected value comes from the reference walk
    + [pytest.param(util.irregular(seed), None, id=f"irregular-seed{seed}") for seed in range(20)],
)
def test_operational_dimension(theory, expected):
    if expected is None:
        expected = _reference_dimension(theory)
    assert operational_dimension(theory) == expected


@pytest.mark.irregular_corpus
@pytest.mark.parametrize("seed", range(20, 220))
def test_operational_dimension_irregular_corpus(seed):
    t = util.irregular(seed)
    validate_theory(t)
    assert operational_dimension(t) == _reference_dimension(t)


@pytest.mark.parametrize("theory", [hypercube(4), polygon(16)], ids=["hypercube4", "polygon16"])
def test_operational_dimension_solves_one_lp_per_ray_union(theory, monkeypatch):
    """The LP reads only the subset's ray union, so no union is solved
    twice: hypercube(4)'s whole walk touches 17 unions."""
    columns = []

    def counted(problem):
        A = np.asarray(problem.eq_matrix)
        columns.append((A.shape, A.tobytes()))
        return solve_lp(problem)

    monkeypatch.setattr(core, "solve_lp", counted)
    assert operational_dimension(theory) == 2
    assert 1 <= len(columns) == len(set(columns)) <= 17


def _broken_pentagon(defect: str) -> Theory:
    t = polygon(5)
    V, rays = t.vertices.copy(), t.backend.dual_rays.copy()
    if defect == "doubled_vertex":
        V[1] *= 2.0
    elif defect == "non_finite_vertex":
        V[3, 0] = np.nan
    elif defect == "non_finite_ray":
        rays[2, 0] = np.inf
    else:  # a ray below -EPS on the vertices where it vanished
        rays[0] -= 0.01 * t.unit
    return Theory("broken", 3, t.unit, Polytope(V, rays))


@pytest.mark.parametrize(
    "defect, message",
    [
        ("doubled_vertex", "every target must be a normalized state"),
        ("non_finite_vertex", "states and dual rays must be finite"),
        ("non_finite_ray", "states and dual rays must be finite"),
        ("negative_ray", "every target must be a normalized state"),
    ],
)
def test_operational_dimension_raises_distinguishables_errors(defect, message):
    t = _broken_pentagon(defect)
    with pytest.raises(InputError, match=message):
        operational_dimension(t)
    with pytest.raises(InputError, match=message):
        distinguishable(t.vertices, t)


def test_operational_dimension_rotated_polygon15_seed102():
    """A rotated polygon(15) on which the full distinguishability LP made
    the simplex report optimal at infeasible points and then cycle
    (SolverError).  Recipe: with perfbench/ on the path, take the query q
    with q.shape == ("polygon", 15) in
    workloads.DimensionScan().make_pass(102, 3, work_dir) and run
    io.write_theory(q.data[0], "tests/fixtures/polygon15-seed102-pass3.json")."""
    t = theory_from_file(FIXTURES / "polygon15-seed102-pass3.json")
    assert operational_dimension(t) == 2


# 0-based vertex subsets of the same polygon(15) on which the full LP gave a
# wrong verdict or raised SolverError while the ratio test broke near-ties
# by basis index alone, pivoting on round-off noise
SEED102_SUBSETS = [
    (5, 13),
    (6, 14),
    (0, 1, 5),
    (0, 4, 7),
    (0, 1, 5, 10),
    (0, 1, 5, 12),
    (0, 1, 5, 13),
    (0, 4, 5, 7),
    (0, 4, 7, 10),
    (0, 4, 7, 11),
    (0, 4, 8, 12),
]


@pytest.mark.parametrize("subset", SEED102_SUBSETS, ids=lambda s: "-".join(map(str, s)))
def test_full_lp_agrees_on_rotated_polygon15_seed102(subset):
    t = theory_from_file(FIXTURES / "polygon15-seed102-pass3.json")
    S = t.vertices[list(subset)]
    assert _distinguishable_full_lp(S, t) == distinguishable(S, t)


def test_operational_dimension_guard():
    with pytest.raises(InputError):
        operational_dimension(polygon(17))


# ----------------------------------------------------------------- validity


def test_validate_theory_accepts_stock_theories():
    for t in (polygon(4), polygon(5), simplex(3), hypercube(3), rebit(), qubit2()):
        validate_theory(t)


def test_validate_theory_rejects_unnormalized_vertex():
    good = polygon(4)
    bad_states = good.vertices.copy()
    bad_states[0, 2] = 2.0
    bad = Theory("broken", 3, good.unit, Polytope(bad_states, good.backend.dual_rays))
    with pytest.raises(InputError):
        validate_theory(bad)


def test_validate_theory_rejects_negative_ray():
    good = polygon(4)
    bad_rays = good.backend.dual_rays.copy()
    bad_rays[0] = -bad_rays[0]
    bad = Theory("broken", 3, good.unit, Polytope(good.vertices, bad_rays))
    with pytest.raises(InputError):
        validate_theory(bad)


def test_theory_arrays_are_read_only_copies():
    stock = polygon(5)
    unit, states = stock.unit.copy(), stock.vertices.copy()
    rays, effects = stock.backend.dual_rays.copy(), stock.backend.extreme_effects.copy()
    t = Theory("pentagon", 3, unit, Polytope(states, rays, effects))
    for a in (t.unit, t.vertices, t.backend.dual_rays, t.backend.extreme_effects):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0
    for a in (unit, states, rays, effects):
        assert a.flags.writeable
        a[0] = 0.0
    np.testing.assert_array_equal(t.vertices, stock.vertices)
    np.testing.assert_array_equal(t.backend.dual_rays, stock.backend.dual_rays)


@pytest.mark.parametrize("part", ["vertex", "ray", "unit"])
def test_validate_theory_rejects_non_finite_numbers(part):
    good = polygon(4)
    V, R, u = good.vertices.copy(), good.backend.dual_rays.copy(), good.unit.copy()
    {"vertex": V, "ray": R, "unit": u}[part].flat[0] = np.nan
    with pytest.raises(InputError):
        validate_theory(Theory("broken", 3, u, Polytope(V, R)))


@pytest.mark.parametrize("unit", [[0.0, 0.0, 2.0], [0.0, 0.0, np.nan], [1.0, 0.0, 1.0]])
def test_validate_theory_rejects_a_ball_unit_other_than_the_last_coordinate(unit):
    with pytest.raises(InputError):
        validate_theory(Theory("broken", 3, np.array(unit), Ball(2)))


def _polytope_theory(states=None, rays=None):
    good = polygon(4)
    V = good.vertices if states is None else states
    R = good.backend.dual_rays if rays is None else rays
    return Theory("broken", 3, good.unit, Polytope(V, R))


_SQUARE = polygon(4)
_SQUARE_M = dichotomic_measurement(_SQUARE, _SQUARE.backend.dual_rays[0])
_PENTAGON = polygon(5)

# one call per shape or count check, with the start of the message it raises
MALFORMED_INPUTS = [
    (lambda: validate_theory(_polytope_theory(states=_SQUARE.vertices[:, :2])), "extreme states have the wrong shape"),
    (lambda: validate_theory(_polytope_theory(rays=_SQUARE.backend.dual_rays[:, :2])), "dual rays have the wrong shape"),
    (lambda: validate_theory(_polytope_theory(rays=2.0 * _SQUARE.backend.dual_rays)), "dual rays must be normalized"),
    (lambda: Ball(4), "ball backends are"),
    (lambda: validate_theory(Theory("broken", 4, np.eye(4)[3], Ball(2))), "a 2-ball lives in"),
    (lambda: Theory("broken", 3, np.ones(2), Ball(2)), "unit functional has the wrong dimension"),
    (lambda: Measurement(("a",), np.ones(3)), "effects must be a 2-D array"),
    (lambda: Measurement(("a", "b"), np.ones((3, 3))), "number of outcome labels"),
    (lambda: norm_with_argmax(np.ones(2), _SQUARE), "effect dimension mismatch"),
    (lambda: is_valid_effect(np.ones(2), _SQUARE), "effect dimension mismatch"),
    (lambda: dichotomic_measurement(_SQUARE, np.ones(2)), "effect dimension mismatch"),
    (lambda: is_valid_measurement(Measurement(("a",), np.ones((1, 2))), _SQUARE), "measurement dimension mismatch"),
    (lambda: post_process(_SQUARE_M, np.eye(2), outcomes=("a",)), "outcome labels do not match"),
    (lambda: mix([], []), "need one weight per measurement"),
    (lambda: distinguishable(np.ones((2, 2)), _SQUARE), "states must be rows"),
    (lambda: distinguishable(_SQUARE.vertices[:1], _SQUARE), "need at least two states"),
    (lambda: dual_rays_from_vertices(_PENTAGON.vertices, [np.nan, 0.0, 1.0]), "vertices and unit must be finite"),
    (lambda: dual_rays_from_vertices(_PENTAGON.vertices, [0.0, np.inf, 1.0]), "vertices and unit must be finite"),
    (lambda: dual_rays_from_vertices(np.vstack([_PENTAGON.vertices, [np.nan, 0.0, 1.0]]), _PENTAGON.unit), "vertices and unit must be finite"),
    (lambda: dual_rays_from_vertices(_PENTAGON.vertices, [0.0, 1.0]), "unit must have one entry per vertex coordinate"),
    (lambda: dual_rays_from_vertices(_PENTAGON.vertices, [0.0, 0.0, 1.0, 0.0]), "unit must have one entry per vertex coordinate"),
    (lambda: dual_rays_from_vertices(_PENTAGON.vertices, [[0.0, 0.0, 1.0]]), "unit must have one entry per vertex coordinate"),
    (lambda: dual_rays_from_vertices(_PENTAGON.vertices[0], _PENTAGON.unit), "unit must have one entry per vertex coordinate"),
    (lambda: dual_rays_from_vertices(_PENTAGON.vertices, [0.0, 0.0, 2.0]), "unit must evaluate to 1 on every vertex"),
    (lambda: dual_rays_from_vertices(np.zeros((0, 3)), _PENTAGON.unit), "need at least two vertices"),
]


@pytest.mark.parametrize("call, message", MALFORMED_INPUTS, ids=[m for _, m in MALFORMED_INPUTS])
def test_malformed_inputs_raise_input_error(call, message):
    with pytest.raises(InputError, match=f"^{message}"):
        call()


def test_vertices_unavailable_for_rebit():
    with pytest.raises(UnsupportedBackendError):
        _ = rebit().vertices


# --------------------------------------------------------- facet-based rays


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_dual_rays_recovered_from_vertices(n):
    t = polygon(n)
    recovered = dual_rays_from_vertices(t.vertices, t.unit)
    stored = t.backend.dual_rays
    assert recovered.shape == stored.shape
    # match rows regardless of order
    used = set()
    for row in recovered:
        dists = np.max(np.abs(stored - row), axis=1)
        j = int(np.argmin(dists))
        assert dists[j] < 1e-9
        assert j not in used
        used.add(j)


def _dual_rays_loop(vertices: np.ndarray, unit: np.ndarray) -> np.ndarray:
    """Reference: dual_rays_from_vertices one facet at a time, one V @ r per
    ray, as it was before the stacked product."""
    V = np.asarray(vertices, dtype=float)
    u = np.asarray(unit, dtype=float)
    rays = []
    for facet in enumerate_facets(V):
        r = facet.offset * u - facet.normal
        top = float((V @ r).max())
        if top <= EPS:
            continue  # functional vanishes on the whole polytope
        rays.append(r / top)
    return np.array(rays)


def _rays_corpus() -> list[Theory]:
    rng = np.random.default_rng(33)
    stock = [polygon(n) for n in range(3, 61)] + [hypercube(d) for d in (2, 3, 4)]
    stock += [simplex(d) for d in range(2, 7)]
    return [util.rotated(t, rng) for t in stock] + [util.irregular(seed) for seed in range(20)]


def test_dual_rays_match_the_per_facet_loop_byte_for_byte():
    for t in _rays_corpus():
        got = dual_rays_from_vertices(t.vertices, t.unit)
        want = _dual_rays_loop(t.vertices, t.unit)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), t.name


# ------------------------------------------- outcome tuples, harmonic mean


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_outcome_tuple_sums_match_python_sum_bit_for_bit(k):
    rng = np.random.default_rng(k)
    ms = [Measurement(tuple(f"{i}{x}" for x in range(c)), rng.normal(size=(c, 3))) for i, c in enumerate([2, 3, 2, 4][:k])]
    # -0.0 + -0.0 is -0.0 but 0 + -0.0 is 0.0: the sum must start from a
    # zero, as Python's does
    for m in ms:
        m.effects[:, 1] = -0.0
    labels, sums = outcome_tuples(ms)
    rows = list(itertools.product(*(zip(m.outcomes, m.effects) for m in ms)))
    assert labels == [tuple(x for x, _ in row) for row in rows]
    reference = np.array([sum(f for _, f in row) for row in rows])
    assert sums.shape == reference.shape
    assert sums.tobytes() == reference.tobytes()
    assert not np.signbit(sums[:, 1]).any()


def test_outcome_tuples_rejects_no_measurements_and_mixed_widths():
    with pytest.raises(InputError, match="need at least one measurement"):
        outcome_tuples([])
    with pytest.raises(InputError, match="different ambient spaces"):
        outcome_tuples([_SQUARE_M, Measurement(("a",), np.ones((1, 1)))])


def test_harmonic_mean_values():
    assert harmonic_mean([2, 2]) == 2.0
    assert harmonic_mean((2, np.int64(3))) == 2 / (1.0 / 2 + 1.0 / 3)
    assert harmonic_mean(c for c in [3]) == 3.0


@pytest.mark.parametrize("counts", [[], [2, 0], [2, -1], [2.5, 2], [2.0, 2], [True, 2], ["2"]])
def test_harmonic_mean_rejects_anything_but_positive_integers(counts):
    with pytest.raises(InputError, match="positive integers"):
        harmonic_mean(counts)
