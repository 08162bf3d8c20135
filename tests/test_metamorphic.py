"""Headline answers do not move under a unit-fixing linear map.

States go through A = D [[B, c], [0, 1]] and rays through A^-1, so every
pairing r . s, and with it every answer, is unchanged; only the LPs'
coefficients are rescaled.  The first two cases push the condition number
of B and the coordinate scaling D one at a time; the combined case pushes
both.
"""

import numpy as np
import pytest

import util

from gptrat import (
    SolverError,
    incompatibility_degree,
    information_storability,
    maximally_incompatible_dichotomic,
    validate_theory,
)
from gptrat.zoo import hypercube, polygon

BASES = [polygon(n) for n in range(4, 11)] + [hypercube(2), hypercube(3)]
TOL = 1e-9


@pytest.mark.parametrize(
    "condition, scale",
    [(1e3, 1.0), (10.0, 1e3)],
    ids=["condition-1e3", "scaling-1e3"],
)
def test_answers_invariant_under_unit_fixing_map(condition, scale):
    rng = np.random.default_rng(61)
    for base in BASES:
        A = util.unit_fixing_map(rng, base.ambient_dim, condition, scale)
        assert np.linalg.cond(A[:-1, :-1]) >= 0.5 * max(condition, scale)
        t = util.mapped(base, A)
        validate_theory(t)
        assert abs(information_storability(t).value - information_storability(base).value) <= TOL
        for (m, n), (mm, nm) in zip(util.ray_pairs(base), util.ray_pairs(t)):
            degree = incompatibility_degree(mm, nm, t).degree
            assert abs(degree - incompatibility_degree(m, n, base).degree) <= TOL, base.name
            assert maximally_incompatible_dichotomic(mm, nm, t) == maximally_incompatible_dichotomic(m, n, base)


def test_ill_scaled_degrees_are_right_or_raise():
    # condition 1e3 and scaling 1e3 together, three maps per theory: LP
    # entries reach about 4e5, and the solver may give up (SolverError) but
    # must never return a wrong degree
    rng = np.random.default_rng(61)
    answered = errors = 0
    for base in BASES:
        want = [incompatibility_degree(m, n, base).degree for m, n in util.ray_pairs(base)]
        for _ in range(3):
            t = util.mapped(base, util.unit_fixing_map(rng, base.ambient_dim, 1e3, 1e3))
            for (m, n), degree in zip(util.ray_pairs(t), want):
                try:
                    got = incompatibility_degree(m, n, t).degree
                except SolverError:
                    errors += 1
                    continue
                assert abs(got - degree) <= TOL, base.name
                answered += 1
    assert answered + errors == 546
    assert answered >= 540


def test_sign_check_failure_names_the_negative_entry():
    # the combined maps drawn round by round (every theory's first map, then
    # every second one): on polygon-7's second map, phase one leaves
    # artificials near 1.6e-4 whose drive-out puts a basic value near -0.2,
    # while the equality residual stays at round-off, so the error must name
    # the entry that failed.  Row equilibration in solve_lp may make this
    # LP solvable; the test then needs another failing LP.
    rng = np.random.default_rng(61)
    maps = [[util.unit_fixing_map(rng, b.ambient_dim, 1e3, 1e3) for b in BASES] for _ in range(2)]
    base = BASES[3]
    assert base.name == "polygon-7"
    t = util.mapped(base, maps[1][3])
    m, n = util.ray_pairs(t)[3]
    with pytest.raises(SolverError, match="sign-constrained entry") as err:
        incompatibility_degree(m, n, t)
    lowest = float(str(err.value).rsplit(" ", 1)[1].rstrip(")"))
    assert lowest < -1e-3
