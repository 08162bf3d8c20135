"""Decoding power of measurements and information storability of theories.

The decoding power of a measurement M is sum_x ||M_x|| in the order-unit
norm; it is 1 exactly for trivial measurements and bounded by the number of
outcomes.  Information storability is its supremum over all measurements of
the theory, always attained at a measurement whose effects are scaled
extreme rays of the dual cone, which reduces the supremum to one LP:

    maximize sum_i alpha_i   subject to   sum_i alpha_i ray_i = u,  alpha >= 0.

Its dual is minimize u . y subject to ray_i . y >= 1 for every i.  The
solver's dual vector y is checked in numpy: if every ray_i . y >= 1 - EPS
and u . y matches the LP value, weak duality makes that value optimal on
every polytope theory, so a faulty LP solution cannot be reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Ball,
    Measurement,
    Theory,
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
    method: str  # "lp" or "closed_form"


def decoding_power(m: Measurement, theory: Theory) -> float:
    """sum_x ||M_x||; monotone under post-processing and mixing."""
    require_valid_measurements([m], theory, 1)
    return float(sum(order_unit_norm(f, theory) for f in m.effects))


def information_storability(theory: Theory) -> StorabilityReport:
    """Supremum of decoding power over all measurements of the theory,
    computed once per Theory object (Theory.storability)."""
    return theory.storability


def solve_storability(theory: Theory) -> StorabilityReport:
    if isinstance(theory.backend, Ball):
        # the sharp measurement along the last axis has two effects of norm 1
        half_axis = np.zeros(theory.ambient_dim)
        half_axis[-2] = 0.5
        effect = half_axis + 0.5 * theory.unit
        witness = Measurement(("+", "-"), np.vstack([effect, theory.unit - effect]))
        return StorabilityReport(2.0, witness, "closed_form")

    rays = require_polytope(theory, "the storability LP").dual_rays
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
    counts = [int(c) for c in outcome_counts]
    if n < 1:
        raise InputError("need n >= 1 decoding targets")
    if len(counts) < 1 or any(c < 2 for c in counts):
        raise InputError("every outcome count must be at least 2")
    harmonic = len(counts) / sum(1.0 / c for c in counts)
    return n / harmonic


def has_super_information_storability(theory: Theory) -> bool:
    """True when information storability exceeds the operational dimension."""
    return information_storability(theory).value > operational_dimension(theory) + EPS
