import math

import numpy as np
import pytest

from gptrat import (
    InputError,
    dichotomic_measurement,
    enumerate_facets,
    evaluate,
    is_valid_effect,
    is_valid_measurement,
    validate_theory,
)
from gptrat.zoo import (
    PolygonSpec,
    hypercube,
    polygon,
    polygon_effect_label,
    polygon_order,
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


def _radius_sq(n: int) -> float:
    return 1.0 / math.cos(math.pi / n)


# ------------------------------------------------------------------ polygons


@pytest.mark.parametrize("n", range(3, 13))
def test_polygon_states_lie_on_the_stated_circle(n):
    t = polygon(n)
    r = math.sqrt(_radius_sq(n))
    for j in range(1, n + 1):
        s = polygon_state(t, j)
        expected = np.array(
            [r * math.cos(2 * j * math.pi / n), r * math.sin(2 * j * math.pi / n), 1.0]
        )
        np.testing.assert_allclose(s, expected, atol=1e-12)


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_even_polygon_evaluations_match_trig_formula(n):
    t = polygon(n)
    r2 = _radius_sq(n)
    for k in range(1, n + 1):
        e = polygon_ray(t, k)
        for j in range(1, n + 1):
            expected = 0.5 * (r2 * math.cos((2 * k - 1 - 2 * j) * math.pi / n) + 1.0)
            np.testing.assert_allclose(
                evaluate(e, polygon_state(t, j), t), expected, atol=1e-12
            )


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_odd_polygon_evaluations_match_trig_formula(n):
    t = polygon(n)
    r2 = _radius_sq(n)
    for k in range(1, n + 1):
        g = polygon_ray(t, k)
        for j in range(1, n + 1):
            expected = (r2 * math.cos(2 * (k - j) * math.pi / n) + 1.0) / (1.0 + r2)
            np.testing.assert_allclose(
                evaluate(g, polygon_state(t, j), t), expected, atol=1e-12
            )


@pytest.mark.parametrize("n", [4, 6, 8])
def test_even_polygon_antipodal_rays_sum_to_unit(n):
    t = polygon(n)
    for k in range(1, n // 2 + 1):
        np.testing.assert_allclose(
            polygon_ray(t, k) + polygon_ray(t, k + n // 2), t.unit, atol=1e-12
        )


@pytest.mark.parametrize("n", [5, 7, 9, 11])
def test_odd_polygon_complement_decomposes_into_rays(n):
    # u - g_1 is a positive combination of two extreme rays, hence not
    # itself extreme in the dual cone.
    t = polygon(n)
    r2 = _radius_sq(n)
    lhs = t.unit - polygon_ray(t, 1)
    rhs = 0.5 * r2 * (polygon_ray(t, (n + 1) // 2) + polygon_ray(t, (n + 3) // 2))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_polygon_extreme_effects_are_valid_and_dichotomic(n):
    t = polygon(n)
    for f in t.backend.extreme_effects:
        assert is_valid_effect(f, t)
        assert is_valid_measurement(dichotomic_measurement(t, f), t)


def test_even_polygon_effect_set_is_the_ray_set():
    t = polygon(6)
    np.testing.assert_allclose(t.backend.extreme_effects, t.backend.dual_rays)


def test_odd_polygon_effect_set_contains_complements():
    t = polygon(5)
    effs = t.backend.extreme_effects
    assert effs.shape == (10, 3)
    np.testing.assert_allclose(effs[:5], t.backend.dual_rays)
    np.testing.assert_allclose(effs[5:], t.unit - t.backend.dual_rays)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 9])
def test_polygon_facets_reproduce_dual_rays(n):
    t = polygon(n)
    facets = enumerate_facets(t.vertices)
    assert len(facets) == n
    recovered = []
    for facet in facets:
        ray = facet.offset * t.unit - np.asarray(facet.normal)
        vals = t.vertices @ ray
        recovered.append(ray / vals.max())
    stored = t.backend.dual_rays
    used = set()
    for row in recovered:
        dists = np.max(np.abs(stored - row), axis=1)
        j = int(np.argmin(dists))
        assert dists[j] < 1e-9 and j not in used
        used.add(j)


def test_polygon_indexing_wraps_and_validates():
    t = polygon(5)
    assert polygon_order(t) == 5
    np.testing.assert_allclose(polygon_state(t, 6), polygon_state(t, 1))
    np.testing.assert_allclose(polygon_ray(t, 7), polygon_ray(t, 2))
    with pytest.raises(InputError):
        polygon_state(t, 0)
    with pytest.raises(InputError):
        polygon_ray(t, -1)


def test_polygon_effect_labels():
    even = polygon(4)
    assert polygon_effect_label(even, 0) == "e_1"
    assert polygon_effect_label(even, 3) == "e_4"
    odd = polygon(5)
    assert polygon_effect_label(odd, 0) == "g_1"
    assert polygon_effect_label(odd, 5) == "f_1"


def test_polygon_spec_and_errors():
    spec = PolygonSpec.of(6)
    assert spec.n == 6
    np.testing.assert_allclose(spec.radius, math.sqrt(_radius_sq(6)), atol=1e-15)
    with pytest.raises(InputError):
        polygon(2)


# ------------------------------------------------------- other stock spaces


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_simplex_structure(d):
    t = simplex(d)
    validate_theory(t)
    np.testing.assert_allclose(t.vertices, np.eye(d))
    np.testing.assert_allclose(t.unit, np.ones(d))
    np.testing.assert_allclose(t.backend.dual_rays, np.eye(d))


def test_simplex_rejects_degenerate_dimension():
    with pytest.raises(InputError):
        simplex(1)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_hypercube_structure(k):
    t = hypercube(k)
    validate_theory(t)
    assert t.vertices.shape == (2**k, k + 1)
    assert t.backend.dual_rays.shape == (2 * k, k + 1)
    # each ray evaluates to 0 or 1 on every corner
    vals = t.vertices @ t.backend.dual_rays.T
    assert np.all((np.abs(vals) < 1e-12) | (np.abs(vals - 1.0) < 1e-12))


def test_hypercube_rejects_bad_sizes():
    with pytest.raises(InputError):
        hypercube(1)
    with pytest.raises(InputError):
        hypercube(5)


def test_rebit_states_and_effects():
    t = rebit()
    validate_theory(t)
    s = rebit_state(0.7)
    np.testing.assert_allclose(t.unit @ s, 1.0, atol=1e-15)
    e = rebit_effect(0.7)
    np.testing.assert_allclose(e @ s, 1.0, atol=1e-12)  # sharp effect fires on its state
    np.testing.assert_allclose(e @ rebit_state(0.7 + math.pi), 0.0, atol=1e-12)
    assert is_valid_effect(e, t)


def test_qubit_states_and_effects():
    t = qubit2()
    validate_theory(t)
    v = np.array([0.6, 0.0, 0.8])
    s = qubit2_state(v)
    np.testing.assert_allclose(t.unit @ s, 1.0, atol=1e-15)
    e = qubit2_effect(v, 0.5)
    np.testing.assert_allclose(e @ s, 1.0, atol=1e-12)
    np.testing.assert_allclose(e @ qubit2_state(-v), 0.0, atol=1e-12)
    with pytest.raises(InputError):
        qubit2_state([2.0, 0.0, 0.0])  # outside the Bloch ball
    with pytest.raises(InputError, match="Bloch vector must have 3 components"):
        qubit2_effect([1.0, 0.0], 0.5)
