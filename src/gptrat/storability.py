"""Decoding power of measurements and information storability of theories.

The decoding power of a measurement M is sum_x ||M_x|| in the order-unit
norm; it is 1 exactly for trivial measurements and bounded by the number of
outcomes.  Information storability is its supremum over all measurements of
the theory, always attained at a measurement whose effects are scaled
extreme rays of the dual cone, which reduces the supremum to one LP:

    maximize sum_i alpha_i   subject to   sum_i alpha_i ray_i = u,  alpha >= 0.

Its dual is minimize u . y subject to ray_i . y >= 1 for every i.  Weak
duality bounds the primal by the dual: for a feasible alpha and y,
sum_i alpha_i <= sum_i alpha_i (ray_i . y) = u . y.  So a feasible alpha
and a feasible y with equal values are both optimal.

Balanced theories need no LP.  Let c be the mean of the extreme states,
v_i = ray_i . c, lo = min_i v_i and t = sum_i v_i.  When the rays sum to
t u, alpha = 1/t on every ray is feasible with value R/t (R rays), and
u . c = 1 (t = sum_i v_i = t u . c); then y = c / lo is dual feasible
(ray_i . y = v_i / lo >= 1) with value 1/lo.  The two values agree
exactly when every ray takes the same value at c.  Regular polygons,
hypercubes and simplices and their unit-fixing linear images are
balanced; solve_storability checks both points in numpy, to the same EPS
as solve_lp's final check, and returns R/t with method "balanced".

Any other theory takes the LP.  The solver's dual vector y is then checked
in numpy: if every ray_i . y >= 1 - EPS and u . y matches the LP value,
weak duality makes that value optimal on every polytope theory, so a
faulty LP solution cannot be reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Ball,
    Measurement,
    Theory,
    harmonic_mean,
    operational_dimension,
    order_unit_norm,
    require_polytope,
    require_valid_measurements,
)
from .errors import InputError, SolverError
from .linalg import EPS, LpProblem, solve_lp


@dataclass(frozen=True)
class StorabilityReport:
    value: float
    witness_measurement: Measurement
    method: str  # "balanced", "lp" or "closed_form"


def decoding_power(m: Measurement, theory: Theory) -> float:
    """sum_x ||M_x||; monotone under post-processing and mixing."""
    require_valid_measurements([m], theory, 1)
    return float(sum(order_unit_norm(f, theory) for f in m.effects))


def information_storability(theory: Theory) -> StorabilityReport:
    """Supremum of decoding power over all measurements of the theory,
    computed once per Theory object (Theory.storability)."""
    return theory.storability


def _balanced(rays: np.ndarray, states: np.ndarray, unit: np.ndarray) -> StorabilityReport | None:
    """The balanced certificate of the module docstring, or None where it
    does not close: alpha = 1/t on every ray and y = c / lo, c the mean of
    the extreme states.  Malformed or empty arrays are left to the LP."""
    if not (len(rays) and len(states) and rays.shape[1:] == states.shape[1:] == unit.shape):
        return None
    c = states.mean(axis=0)
    v = rays @ c
    lo, t = float(v.min()), float(v.sum())
    if not lo > EPS:
        return None
    value = len(rays) / t
    residual = float(np.abs(rays.sum(axis=0) / t - unit).max())
    gap = abs(value - 1.0 / lo)
    # written so that a NaN residual or gap fails it
    if not (residual <= EPS * max(1.0, float(np.abs(unit).max())) and gap <= EPS * max(1.0, value)):
        return None
    return StorabilityReport(value, Measurement(tuple(range(len(rays))), rays / t), "balanced")


def solve_storability(theory: Theory) -> StorabilityReport:
    if isinstance(theory.backend, Ball):
        # the sharp measurement along the last axis has two effects of norm 1
        half_axis = np.zeros(theory.ambient_dim)
        half_axis[-2] = 0.5
        effect = half_axis + 0.5 * theory.unit
        witness = Measurement(("+", "-"), np.vstack([effect, theory.unit - effect]))
        return StorabilityReport(2.0, witness, "closed_form")

    polytope = require_polytope(theory, "the storability LP")
    rays = polytope.dual_rays
    balanced = _balanced(rays, polytope.extreme_states, theory.unit)
    if balanced is not None:
        return balanced

    R = rays.shape[0]
    res = solve_lp(LpProblem(np.ones(R), rays.T, theory.unit))
    if res.status != "optimal":
        raise SolverError(f"storability LP ended {res.status} on {theory.name}")
    alpha = res.solution
    keep = alpha > 1e-12
    witness = Measurement(
        tuple(int(i) for i in np.nonzero(keep)[0]),
        alpha[keep, None] * rays[keep],
    )
    y = res.duals
    slack = 1.0 - float((rays @ y).min())
    gap = abs(float(theory.unit @ y) - res.value)
    if slack > EPS or gap > EPS * max(1.0, res.value):
        raise SolverError(
            f"storability LP dual fails on {theory.name}: constraint shortfall {slack:.3g}, duality gap {gap:.3g}"
        )
    return StorabilityReport(float(res.value), witness, "lp")


def restricted_storability(measurements, theory: Theory) -> float:
    """Largest decoding power among the given measurements."""
    ms = list(measurements)
    if not ms:
        raise InputError("need at least one measurement")
    return max(decoding_power(m, theory) for m in ms)


def ntomic_bound(n: int, outcome_counts) -> float:
    """n over the harmonic mean of the outcome counts."""
    counts = list(outcome_counts)
    if n < 1:
        raise InputError("need n >= 1 decoding targets")
    harmonic = harmonic_mean(counts)
    if min(counts) < 2:
        raise InputError("every outcome count must be at least 2")
    return n / harmonic


def has_super_information_storability(theory: Theory) -> bool:
    """True when information storability exceeds the operational dimension."""
    return information_storability(theory).value > operational_dimension(theory) + EPS
