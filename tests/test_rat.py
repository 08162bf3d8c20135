import math

import numpy as np
import pytest

import util

from gptrat import (
    InputError,
    Measurement,
    certify_incompatibility,
    classical_rac_value,
    compatible_bound,
    connection_check,
    dichotomic_measurement,
    mix,
    post_process,
    rat_success,
    rat_success_given_states,
    trivial_measurement,
)
from gptrat.zoo import hypercube, polygon, polygon_ray, polygon_state, simplex


def _square_pair():
    t = polygon(4)
    return (
        t,
        dichotomic_measurement(t, polygon_ray(t, 1)),
        dichotomic_measurement(t, polygon_ray(t, 2)),
    )


# ----------------------------------------------------------------- rat value


def test_rat_of_measurement_with_itself():
    t, m, _ = _square_pair()
    report = rat_success([m, m], t)
    np.testing.assert_allclose(report.p_bar, 0.75, atol=1e-12)
    assert report.k == 2
    assert report.outcome_counts == (2, 2)


def test_rat_of_orthogonal_square_pair_is_perfect():
    t, m, n = _square_pair()
    report = rat_success([m, n], t)
    np.testing.assert_allclose(report.p_bar, 1.0, atol=1e-12)
    assert set(report.per_tuple) == {("+", "+"), ("+", "-"), ("-", "+"), ("-", "-")}
    for norm, arg in report.per_tuple.values():
        np.testing.assert_allclose(norm, 2.0, atol=1e-12)
        assert arg in range(4)


def test_rat_is_symmetric_and_relabel_invariant():
    rng = np.random.default_rng(9)
    t = polygon(5)
    m = util.random_measurement(t, rng, 2)
    n = util.random_measurement(t, rng, 3)
    a = rat_success([m, n], t).p_bar
    b = rat_success([n, m], t).p_bar
    np.testing.assert_allclose(a, b, atol=1e-12)
    flipped = post_process(m, np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(rat_success([flipped, n], t).p_bar, a, atol=1e-12)


def test_rat_is_convex_in_each_argument():
    rng = np.random.default_rng(10)
    t = polygon(6)
    n = util.random_measurement(t, rng, 2)
    for _ in range(5):
        m1 = util.random_measurement(t, rng, 2)
        m2 = util.random_measurement(t, rng, 2)
        w = float(rng.uniform())
        mixed = mix([m1, m2], [w, 1.0 - w])
        lhs = rat_success([mixed, n], t).p_bar
        rhs = w * rat_success([m1, n], t).p_bar + (1 - w) * rat_success([m2, n], t).p_bar
        assert lhs <= rhs + 1e-9


def test_rat_requires_valid_input():
    t, m, _ = _square_pair()
    with pytest.raises(InputError):
        rat_success([], t)
    bad = Measurement(("+", "-"), np.vstack([t.unit, t.unit]))
    with pytest.raises(InputError):
        rat_success([m, bad], t)


# ------------------------------------------------------------ fixed encoding


def test_given_states_reaches_the_optimum_on_the_square():
    t, m, n = _square_pair()
    encoding = {
        ("+", "+"): polygon_state(t, 1),
        ("-", "+"): polygon_state(t, 2),
        ("-", "-"): polygon_state(t, 3),
        ("+", "-"): polygon_state(t, 4),
    }
    np.testing.assert_allclose(
        rat_success_given_states([m, n], encoding), 1.0, atol=1e-12
    )


def test_given_states_never_beats_the_optimum():
    rng = np.random.default_rng(11)
    for t in (polygon(4), polygon(5)):
        m = util.random_measurement(t, rng, 2)
        n = util.random_measurement(t, rng, 2)
        best = rat_success([m, n], t).p_bar
        verts = t.vertices
        encoding = {
            labels: verts[rng.integers(len(verts))]
            for labels in rat_success([m, n], t).per_tuple
        }
        assert rat_success_given_states([m, n], encoding) <= best + 1e-12


def test_given_states_rejects_missing_tuple():
    t, m, n = _square_pair()
    with pytest.raises(InputError):
        rat_success_given_states([m, n], {("+", "+"): polygon_state(t, 1)})
    with pytest.raises(InputError, match="need at least one measurement"):
        rat_success_given_states([], {})


def test_given_states_rejects_effects_of_different_widths():
    # widths 3 and 1 used to broadcast to 0.5
    m = Measurement(("a", "b"), np.full((2, 3), 0.5))
    n = Measurement(("c",), np.ones((1, 1)))
    encoding = {("a", "c"): np.ones(3), ("b", "c"): np.ones(3)}
    with pytest.raises(InputError, match="different ambient spaces"):
        rat_success_given_states([m, n], encoding)
    with pytest.raises(InputError, match="different ambient spaces"):
        rat_success_given_states([m, Measurement(("c",), np.ones((1, 2)))], encoding)


@pytest.mark.parametrize("bad", [np.ones(2), np.ones(4), np.ones((1, 3)), 1.0])
def test_given_states_rejects_an_encoded_vector_of_the_wrong_shape(bad):
    t, m, n = _square_pair()
    encoding = {labels: polygon_state(t, 1) for labels in rat_success([m, n], t).per_tuple}
    encoding["-", "+"] = bad
    with pytest.raises(InputError, match=r"outcome tuple \('-', '\+'\) is encoded by a vector of shape"):
        rat_success_given_states([m, n], encoding)


# ------------------------------------------------------------------ identity


def test_connection_identity_small_cases():
    rng = np.random.default_rng(12)
    t = polygon(5)
    pair = [util.random_measurement(t, rng, 2), util.random_measurement(t, rng, 3)]
    _, _, residual = connection_check(pair, t)
    assert residual <= 1e-12
    triple = [util.random_measurement(t, rng, 2) for _ in range(3)]
    _, _, residual = connection_check(triple, t)
    assert residual <= 1e-12


# -------------------------------------------------------------------- bounds


def test_compatible_bound_values():
    np.testing.assert_allclose(compatible_bound(2, 2, 2.0), 0.75, atol=1e-15)
    np.testing.assert_allclose(
        compatible_bound(2, 2, 1.0 + 1.0 / math.cos(math.pi / 5)),
        0.5 * (1.0 + (1.0 + 1.0 / math.cos(math.pi / 5)) / 4.0),
        atol=1e-15,
    )
    np.testing.assert_allclose(compatible_bound(2, 2, 1.0), 0.625, atol=1e-15)
    with pytest.raises(InputError):
        compatible_bound(1, 2, 2.0)
    with pytest.raises(InputError):
        compatible_bound(2, 2, 0.5)


def test_classical_rac_values():
    np.testing.assert_allclose(classical_rac_value(2, 2), (0.75, 0.75), atol=1e-15)
    np.testing.assert_allclose(classical_rac_value(2, 4), (0.625, 0.625), atol=1e-15)
    value, optimal = classical_rac_value(3, 2)
    np.testing.assert_allclose(value, 2.0 / 3.0, atol=1e-15)
    assert optimal is None
    with pytest.raises(InputError):
        classical_rac_value(0, 2)
    with pytest.raises(InputError):
        classical_rac_value(2, 1)


# --------------------------------------------------------------- certificate


def test_certificate_fires_on_the_square_pair():
    t, m, n = _square_pair()
    verdict = certify_incompatibility(m, n, t)
    np.testing.assert_allclose(verdict.lhs, 2.0, atol=1e-12)
    np.testing.assert_allclose(verdict.threshold, 1.5, atol=1e-12)
    assert verdict.useful
    assert verdict.verdict == "certified_incompatible"


def test_certificate_sharp_at_the_compatible_boundary():
    # measurement with a trivial partner lands exactly on the threshold
    t, m, _ = _square_pair()
    verdict = certify_incompatibility(m, trivial_measurement(t, [0.5, 0.5]), t)
    np.testing.assert_allclose(verdict.lhs, verdict.threshold, atol=1e-12)
    assert verdict.verdict == "inconclusive"


def test_certificate_on_hypercube_faces():
    t = hypercube(3)
    rays = t.backend.dual_rays
    m = dichotomic_measurement(t, rays[0])
    n = dichotomic_measurement(t, rays[2])
    assert certify_incompatibility(m, n, t).verdict == "certified_incompatible"


def test_certificate_never_fires_on_a_classical_theory():
    rng = np.random.default_rng(13)
    t = simplex(3)
    for _ in range(10):
        m = util.random_measurement(t, rng, 2)
        n = util.random_measurement(t, rng, 2)
        assert certify_incompatibility(m, n, t).verdict == "inconclusive"
