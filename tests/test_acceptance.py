"""End-to-end acceptance checks.

Each test prints one line, ACCEPTANCE <k> PASS/FAIL, directly to the
terminal (bypassing capture) so a full run shows the scorecard inline.
"""

import math
import time

import numpy as np
import pytest

import util

from gptrat import (
    certify_incompatibility,
    check_compatible,
    dichotomic_measurement,
    has_super_information_storability,
    incompatibility_degree,
    information_storability,
    maximally_incompatible_dichotomic,
    rat_success,
)
from gptrat.polygons import (
    brute_force_rat_max,
    odd_polygon_compatible_pair,
    polygon_compatible_max,
    polygon_rat_closed_form,
    verify_table,
)
from gptrat.zoo import hypercube, polygon, rebit, simplex

SQRT2 = math.sqrt(2.0)


@pytest.fixture
def announce(capsys):
    start = time.perf_counter()

    def _announce(index, ok, description):
        elapsed = time.perf_counter() - start
        status = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"ACCEPTANCE {index} {status} - {description} ({elapsed:.2f}s)")

    return _announce


def test_acceptance_1_storability_closed_forms(announce):
    ok = False
    try:
        start = time.perf_counter()
        for n in range(4, 41):
            value = information_storability(polygon(n)).value
            expected = 2.0 if n % 2 == 0 else 1.0 + 1.0 / math.cos(math.pi / n)
            assert abs(value - expected) <= 1e-9, (n, value, expected)
        for d in range(2, 6):
            assert information_storability(simplex(d)).value == float(d), d
        assert time.perf_counter() - start < 5.0
        ok = True
    finally:
        announce(1, ok, "information storability matches closed forms")


def test_acceptance_2_super_storability_classification(announce):
    ok = False
    try:
        start = time.perf_counter()
        for n in range(5, 16, 2):
            assert has_super_information_storability(polygon(n)), n
        for n in range(4, 17, 2):
            assert not has_super_information_storability(polygon(n)), n
        for d in range(2, 6):
            assert not has_super_information_storability(simplex(d)), d
        for k in (2, 3):
            assert not has_super_information_storability(hypercube(k)), k
        assert time.perf_counter() - start < 30.0
        ok = True
    finally:
        announce(2, ok, "super information storability exactly for odd polygons")


def test_acceptance_3_closed_forms_match_brute_force(announce):
    ok = False
    try:
        start = time.perf_counter()
        for n in range(4, 41):
            closed = polygon_rat_closed_form(n)
            brute = brute_force_rat_max(polygon(n)).value
            assert abs(closed - brute) <= 1e-9, (n, closed, brute)
        assert abs(polygon_rat_closed_form(4) - 1.0) <= 1e-12
        assert abs(polygon_rat_closed_form(5) - 0.856762746) <= 1e-9
        assert abs(polygon_rat_closed_form(6) - 0.875) <= 1e-12
        assert abs(polygon_rat_closed_form(7) - 0.856356884) <= 1e-9
        assert abs(polygon_rat_closed_form(8) - 0.5 * (1 + 1 / SQRT2)) <= 1e-12
        assert abs(polygon_rat_closed_form(10) - polygon_rat_closed_form(5)) <= 1e-12
        assert time.perf_counter() - start < 60.0
        ok = True
    finally:
        announce(3, ok, "polygon pair maxima: brute force equals closed form, 4..40")


def test_acceptance_4_rebit_optimum(announce):
    ok = False
    try:
        start = time.perf_counter()
        res = brute_force_rat_max(rebit())
        assert abs(res.value - 0.5 * (1 + 1 / SQRT2)) <= 1e-6
        theta = float(res.f_label[2:-1])
        assert min(abs(theta - math.pi / 2), abs(theta - 3 * math.pi / 2)) <= 1e-6
        expected = np.array([1, 3, 5, 7]) * math.pi / 4
        np.testing.assert_allclose(sorted(res.states), expected, atol=1e-6)
        assert time.perf_counter() - start < 10.0
        ok = True
    finally:
        announce(4, ok, "disc optimum at orthogonal sharp pair with diagonal encodings")


def test_acceptance_5_compatible_pair_ceilings(announce):
    ok = False
    try:
        start = time.perf_counter()
        rng = np.random.default_rng(42)
        for n in (4, 6, 8, 10, 12):
            t = polygon(n)
            for _ in range(20):
                m1, m2 = util.random_compatible_pair(t, rng)
                assert rat_success([m1, m2], t).p_bar <= 0.75 + 1e-9, n
        for n in (5, 7, 9, 11, 13):
            t = polygon(n)
            _, m1, m2 = odd_polygon_compatible_pair(t)
            assert check_compatible([m1, m2], t) is not None, n
            achieved = rat_success([m1, m2], t).p_bar
            target = polygon_compatible_max(n)
            assert abs(achieved - target) <= 1e-9, (n, achieved, target)
            assert achieved > 0.75 + 1e-9, n
        assert abs(polygon_compatible_max(5) - 0.779508497) <= 1e-9
        assert time.perf_counter() - start < 30.0
        ok = True
    finally:
        announce(5, ok, "compatible pairs: 3/4 ceiling (even), beaten as stated (odd)")


def test_acceptance_6_connection_identity(announce):
    ok = False
    try:
        start = time.perf_counter()
        from gptrat import connection_check

        rng = np.random.default_rng(43)
        theories = [polygon(4), polygon(5), polygon(6), simplex(4)]
        for i in range(200):
            t = theories[i % 4]
            counts = (2, 3) if i % 3 == 0 else (2, 2)
            ms = [util.random_measurement(t, rng, c) for c in counts]
            _, _, residual = connection_check(ms, t)
            assert residual <= 1e-12, (t.name, i, residual)
        assert time.perf_counter() - start < 20.0
        ok = True
    finally:
        announce(6, ok, "success probability equals scaled joint decoding power")


def test_acceptance_7_incompatibility_degree(announce):
    ok = False
    try:
        start = time.perf_counter()
        t = polygon(4)
        m1 = dichotomic_measurement(t, t.backend.dual_rays[0])
        m2 = dichotomic_measurement(t, t.backend.dual_rays[1])
        report = incompatibility_degree(m1, m2, t)
        assert abs(report.degree - 0.5) <= 1e-6

        rng = np.random.default_rng(44)
        for theory in (polygon(4), polygon(5), hypercube(2)):
            for _ in range(3):
                a = util.random_noisy_dichotomic(theory, rng)
                b = util.random_noisy_dichotomic(theory, rng)
                degree = incompatibility_degree(a, b, theory).degree
                assert degree >= 0.5 - 1e-6, theory.name
        for theory in (polygon(4), polygon(6)):
            for _ in range(2):
                a, b = util.random_compatible_pair(theory, rng)
                assert incompatibility_degree(a, b, theory).degree == 1.0, theory.name
        assert time.perf_counter() - start < 60.0
        ok = True
    finally:
        announce(7, ok, "degree: 1/2 at the floor, above 1/2 always, 1 iff compatible")


def test_acceptance_8_maximal_incompatibility_equivalences(announce):
    ok = False
    try:
        start = time.perf_counter()
        cases = []
        t = polygon(4)
        cases.append((t, t.backend.dual_rays[0], t.backend.dual_rays[1]))
        h = hypercube(3)
        cases.append((h, h.backend.dual_rays[0], h.backend.dual_rays[2]))
        for theory, e, f in cases:
            m1 = dichotomic_measurement(theory, e)
            m2 = dichotomic_measurement(theory, f)
            flagged = maximally_incompatible_dichotomic(m1, m2, theory)
            at_floor = abs(incompatibility_degree(m1, m2, theory).degree - 0.5) <= 1e-6
            perfect = abs(rat_success([m1, m2], theory).p_bar - 1.0) <= 1e-12
            assert flagged and at_floor and perfect, theory.name

        tetra = simplex(4)
        m1 = dichotomic_measurement(tetra, np.array([1.0, 1.0, 0.0, 0.0]))
        m2 = dichotomic_measurement(tetra, np.array([1.0, 0.0, 1.0, 0.0]))
        assert abs(rat_success([m1, m2], tetra).p_bar - 1.0) <= 1e-12
        assert incompatibility_degree(m1, m2, tetra).degree == 1.0
        assert not maximally_incompatible_dichotomic(m1, m2, tetra)
        assert time.perf_counter() - start < 60.0
        ok = True
    finally:
        announce(8, ok, "perfect success vs degree floor: equivalent in rank 2, not higher")


def test_acceptance_9_certificate_soundness(announce):
    ok = False
    try:
        start = time.perf_counter()
        rng = np.random.default_rng(45)
        certified_count = 0
        compatible_count = 0
        for i in range(500):
            n = 4 + i % 9
            t = polygon(n)
            kind = i % 10
            if kind < 4:
                m1, m2 = util.random_compatible_pair(t, rng)
            elif kind < 7:
                m1 = util.random_extreme_dichotomic(t, rng)
                m2 = util.random_extreme_dichotomic(t, rng)
            else:
                m1 = util.random_noisy_dichotomic(t, rng)
                m2 = util.random_noisy_dichotomic(t, rng)
            verdict = certify_incompatibility(m1, m2, t)
            witness = check_compatible([m1, m2], t)
            if witness is not None:
                compatible_count += 1
                assert verdict.verdict == "inconclusive", (n, i)
            elif verdict.verdict == "certified_incompatible":
                certified_count += 1
        assert certified_count > 0  # the sweep exercises both verdicts
        assert compatible_count > 0
        assert time.perf_counter() - start < 120.0
        ok = True
    finally:
        announce(9, ok, "certificate never fires on an LP-compatible pair (500 samples)")


def test_acceptance_10_optimizer_tables(announce):
    ok = False
    try:
        start = time.perf_counter()
        for n in (4, 8, 12, 16, 6, 10, 14, 5, 7, 9, 11, 13):
            report = verify_table(n)
            assert report.all_ok, n
            assert report.variants, n
            for variant in report.variants:
                assert abs(variant.value - report.expected) <= 1e-9, (n, variant)
        assert time.perf_counter() - start < 30.0
        ok = True
    finally:
        announce(10, ok, "tabulated optimal effects and encodings all verified")


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
