import math

import numpy as np
import pytest

from gptrat import InputError, dichotomic_measurement, rat_success, rat_success_given_states
from gptrat.polygons import (
    DISC_GRID,
    _disc_pair_value,
    _optimal_labels,
    brute_force_rat_max,
    odd_polygon_compatible_pair,
    parity_class,
    polygon_compatible_max,
    polygon_rat_closed_form,
    polygon_rat_upper_bound,
    sweep,
    verify_table,
)
from gptrat.zoo import hypercube, polygon, polygon_ray, rebit, simplex

SQRT2 = math.sqrt(2.0)


# ------------------------------------------------------------------- parity


@pytest.mark.parametrize(
    "n, expected",
    [
        (4, "4m-odd"),
        (8, "4m-even"),
        (12, "4m-odd"),
        (16, "4m-even"),
        (6, "4m+2-odd"),
        (10, "4m+2-even"),
        (5, "4m+1"),
        (9, "4m+1"),
        (7, "4m+3"),
        (11, "4m+3"),
    ],
)
def test_parity_class(n, expected):
    assert parity_class(n) == expected


def test_parity_class_rejects_small_n():
    with pytest.raises(InputError):
        parity_class(3)


# ------------------------------------------------------------- closed forms


def test_closed_form_spot_values():
    np.testing.assert_allclose(polygon_rat_closed_form(4), 1.0, atol=1e-15)
    np.testing.assert_allclose(polygon_rat_closed_form(6), 0.875, atol=1e-15)
    np.testing.assert_allclose(
        polygon_rat_closed_form(5), 0.8567627457812106, atol=1e-12
    )
    np.testing.assert_allclose(
        polygon_rat_closed_form(8), 0.5 * (1.0 + 1.0 / SQRT2), atol=1e-15
    )
    np.testing.assert_allclose(
        polygon_rat_closed_form(12), math.sqrt(3.0) / 2.0, atol=1e-12
    )


def test_pentagon_and_decagon_coincide():
    assert abs(polygon_rat_closed_form(5) - polygon_rat_closed_form(10)) < 1e-15


@pytest.mark.parametrize("n", range(4, 25))
def test_closed_form_matches_brute_force(n):
    t = polygon(n)
    brute = brute_force_rat_max(t)
    np.testing.assert_allclose(brute.value, polygon_rat_closed_form(n), atol=1e-9)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_pinned_scan_equals_full_scan(n):
    # reference: rat_success over every ordered pair of stored extreme effects
    t = polygon(n)
    ms = [dichotomic_measurement(t, e) for e in t.backend.extreme_effects]
    full = max(rat_success([a, b], t).p_bar for a in ms for b in ms)
    np.testing.assert_allclose(brute_force_rat_max(t).value, full, atol=1e-12)


@pytest.mark.parametrize("n", [5, 6, 7, 9])
def test_brute_force_states_achieve_the_value(n):
    t = polygon(n)
    res = brute_force_rat_max(t)
    # rebuild the optimal pair from the reported labels
    effs = t.backend.extreme_effects
    labels = {f"e_{k + 1}" if n % 2 == 0 else (f"g_{k + 1}" if k < n else f"f_{k - n + 1}"): k
              for k in range(effs.shape[0])}
    from gptrat import dichotomic_measurement

    m = dichotomic_measurement(t, effs[labels[res.e_label]])
    f = dichotomic_measurement(t, effs[labels[res.f_label]])
    V = t.vertices
    keys = [("+", "+"), ("-", "+"), ("-", "-"), ("+", "-")]
    encoding = {key: V[idx] for key, idx in zip(keys, res.states)}
    achieved = rat_success_given_states([m, f], encoding)
    np.testing.assert_allclose(achieved, res.value, atol=1e-12)
    np.testing.assert_allclose(rat_success([m, f], t).p_bar, res.value, atol=1e-12)


def test_closed_form_bounds():
    for n in range(4, 41):
        value = polygon_rat_closed_form(n)
        assert value <= polygon_rat_upper_bound(n) + 1e-12
        assert value <= 1.0 + 1e-12
        assert value > 0.75  # beats the best classical pair strategy


def test_upper_bound_formulas():
    np.testing.assert_allclose(
        polygon_rat_upper_bound(8),
        0.5 * (1.0 + 1.0 / (SQRT2 * math.cos(math.pi / 8))),
        atol=1e-15,
    )
    np.testing.assert_allclose(
        polygon_rat_upper_bound(5),
        0.5 * (1.0 + SQRT2 / (1.0 + math.cos(math.pi / 5))),
        atol=1e-15,
    )


def test_values_approach_the_disc_limit():
    limit = 0.5 * (1.0 + 1.0 / SQRT2)
    odd = [polygon_rat_closed_form(n) for n in range(5, 41, 2)]
    assert all(a >= b - 1e-15 for a, b in zip(odd, odd[1:]))  # nonincreasing
    assert odd[-1] - limit < 2e-4
    for n in range(4, 41):
        value = polygon_rat_closed_form(n)
        assert value >= limit - 1e-12
        if n % 4 == 0 and (n // 4) % 2 == 0:  # these sit exactly at the limit
            np.testing.assert_allclose(value, limit, atol=1e-15)


# ------------------------------------------------------------------- rebit


def test_rebit_brute_force_matches_closed_limit():
    res = brute_force_rat_max(rebit())
    np.testing.assert_allclose(res.value, 0.5 * (1.0 + 1.0 / SQRT2), atol=1e-6)
    theta = float(res.f_label[2:-1])
    np.testing.assert_allclose(theta, math.pi / 2.0, atol=1e-6)
    np.testing.assert_allclose(
        res.states,
        [math.pi / 4, 3 * math.pi / 4, 5 * math.pi / 4, 7 * math.pi / 4],
        atol=1e-6,
    )


def test_disc_grid_matches_a_scalar_loop():
    e = 0.5 * np.array([1.0, 0.0, 1.0])
    u = np.array([0.0, 0.0, 1.0])

    def loop_value(theta):  # sup of each effect sum (a, b, c) is c + hypot(a, b)
        f = 0.5 * np.array([math.cos(theta), math.sin(theta), 1.0])
        sums = (e + f, u - e + f, 2.0 * u - e - f, e + u - f)
        return sum(g[2] + math.hypot(g[0], g[1]) for g in sums) / 8.0

    thetas = np.linspace(0.0, 2.0 * math.pi, DISC_GRID, endpoint=False)
    loop = np.array([loop_value(t) for t in thetas])
    grid = _disc_pair_value(thetas)
    assert int(np.argmax(grid)) == int(np.argmax(loop))
    np.testing.assert_allclose(grid, loop, rtol=0.0, atol=4 * np.finfo(float).eps)


# --------------------------------------------------------- compatible pairs


def test_compatible_max_values():
    assert polygon_compatible_max(4) == 0.75
    assert polygon_compatible_max(8) == 0.75
    np.testing.assert_allclose(polygon_compatible_max(5), 0.7795084971874737, atol=1e-12)
    assert polygon_compatible_max(5) > polygon_compatible_max(7) > 0.75
    # the advantage of odd polygons dies off as the polygon rounds out
    assert abs(polygon_compatible_max(101) - 0.75) < 1e-3


@pytest.mark.parametrize("n", [5, 7, 9, 11])
def test_odd_construction_achieves_the_compatible_max(n):
    t = polygon(n)
    _, m1, m2 = odd_polygon_compatible_pair(t)
    achieved = rat_success([m1, m2], t).p_bar
    np.testing.assert_allclose(achieved, polygon_compatible_max(n), atol=1e-9)
    assert achieved > 0.75 + 1e-6


def test_odd_construction_rejects_even_polygons():
    with pytest.raises(InputError):
        odd_polygon_compatible_pair(polygon(6))


def test_odd_construction_rejects_a_parent_that_is_not_a_measurement():
    # simplex(5) has five vertices, but its "parent" sums to (1, 0, r2/2, r2/2, 0)
    with pytest.raises(InputError, match="^not a valid measurement on this theory"):
        odd_polygon_compatible_pair(simplex(5))


# ------------------------------------------------------------------- tables


@pytest.mark.parametrize("n", range(4, 201))
def test_verify_table_all_variants(n):
    report = verify_table(n)
    assert report.all_ok
    assert report.variants
    for variant in report.variants:
        np.testing.assert_allclose(variant.value, report.expected, atol=1e-9)


def test_verify_table_expected_is_the_closed_form():
    for n in (4, 5, 6, 7):
        assert verify_table(n).expected == polygon_rat_closed_form(n)


@pytest.mark.parametrize("n", range(4, 201))
def test_optimal_labels_are_the_argmax_vertices(n):
    # oracle: each effect sum evaluated on every vertex, ties kept within 1e-9
    t = polygon(n)
    e, u = polygon_ray(t, 1), t.unit
    m, specs = _optimal_labels(n)
    assert m == n // 4
    for f_index, columns in specs:
        f = polygon_ray(t, f_index)
        sums = (e + f, u - e + f, 2.0 * u - e - f, u + e - f)  # the (+,+), (-,+), (-,-), (+,-) sums
        for g, labels in zip(sums, columns):
            values = t.vertices @ g
            argmax = set(np.flatnonzero(values >= values.max() - 1e-9).tolist())
            assert len(labels) == len(argmax)
            assert {(j - 1) % n for j in labels} == argmax


@pytest.mark.parametrize("n", range(4, 121))
def test_optimal_partners_are_the_best_second_rays(n):
    # oracle: rat_success of (ray 1, ray k) for every k up to the half turn
    t = polygon(n)
    first = dichotomic_measurement(t, polygon_ray(t, 1))
    best = polygon_rat_closed_form(n)
    optimal = [
        k
        for k in range(2, n // 2 + 2)
        if abs(rat_success([first, dichotomic_measurement(t, polygon_ray(t, k))], t).p_bar - best) <= 1e-9
    ]
    assert [f for f, _ in _optimal_labels(n)[1]] == optimal


# -------------------------------------------------------------------- sweep


def test_sweep_rows():
    rows = sweep(4, 12)
    assert [row.n for row in rows] == list(range(4, 13))
    six = rows[2]
    assert six.parity == "4m+2-odd"
    np.testing.assert_allclose(six.closed_form, 0.875, atol=1e-9)
    np.testing.assert_allclose(six.brute_force, 0.875, atol=1e-9)
    np.testing.assert_allclose(six.compatible_max, 0.75, atol=1e-9)
    np.testing.assert_allclose(six.lmax, 2.0, atol=1e-9)
    for row in rows:
        np.testing.assert_allclose(row.closed_form, row.brute_force, atol=1e-9)


def test_sweep_range_validation():
    with pytest.raises(InputError):
        sweep(3, 10)
    with pytest.raises(InputError):
        sweep(10, 4)
    with pytest.raises(InputError):
        sweep(4, 61)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: polygon_rat_upper_bound(3), "bounds start at n = 4"),
        (lambda: polygon_compatible_max(3), "compatible maxima start at n = 4"),
        (lambda: brute_force_rat_max(hypercube(2)), "theory does not carry a finite extreme effect list"),
        (lambda: verify_table(3), "tables start at n = 4"),
        (lambda: parity_class(4.5), "polygon order must be an integer"),
        (lambda: polygon_rat_closed_form(4.5), "polygon order must be an integer"),
        (lambda: polygon_rat_upper_bound(8.0), "polygon order must be an integer"),
        (lambda: polygon_compatible_max(True), "polygon order must be an integer"),
        (lambda: verify_table(8.0), "polygon order must be an integer"),
        (lambda: sweep(4, 5.5), "n_max must be an integer"),
        (lambda: sweep("4", 5), "n_min must be an integer"),
    ],
    ids=[
        "upper-bound",
        "compatible-max",
        "no-effect-list",
        "verify-table",
        "parity-float",
        "closed-form-float",
        "upper-bound-float",
        "compatible-max-bool",
        "verify-table-float",
        "sweep-max-float",
        "sweep-min-str",
    ],
)
def test_polygon_functions_reject_out_of_range_input(call, message):
    with pytest.raises(InputError, match=f"^{message}"):
        call()


def test_polygon_functions_accept_numpy_integers():
    assert parity_class(np.int32(9)) == "4m+1"
    assert polygon_rat_closed_form(np.int64(7)) == polygon_rat_closed_form(7)
    assert verify_table(np.int64(8)) == verify_table(8)
    assert sweep(np.int64(4), np.uint8(5)) == sweep(4, 5)
