"""Decoding power of measurements and information storability of theories.

The decoding power of a measurement M is sum_x ||M_x|| in the order-unit
norm; it is 1 exactly for trivial measurements and bounded by the number of
outcomes.  Information storability is its supremum over all measurements of
the theory, always attained at a measurement whose effects are scaled
extreme rays of the dual cone, which reduces the supremum to one LP:

    maximize sum_i alpha_i   subject to   sum_i alpha_i ray_i = u,  alpha >= 0.

The LP is always solved.  When every dual ray takes one common value lam0
at some interior state (detected at the vertex centroid), every feasible
point of that LP has objective 1 / lam0; that value is reported and the LP
optimum is cross-checked against it, which exposes a faulty LP solution.
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
    method: str  # "lp", "constant_lambda0", or "closed_form"


def decoding_power(m: Measurement, theory: Theory) -> float:
    """sum_x ||M_x||; monotone under post-processing and mixing."""
    require_valid_measurements([m], theory, 1)
    return float(sum(order_unit_norm(f, theory) for f in m.effects))


def information_storability(theory: Theory) -> StorabilityReport:
    """Supremum of decoding power over all measurements of the theory."""
    if isinstance(theory.backend, Ball):
        # the sharp measurement along the last axis has two effects of norm 1
        half_axis = np.zeros(theory.ambient_dim)
        half_axis[-2] = 0.5
        effect = half_axis + 0.5 * theory.unit
        witness = Measurement(("+", "-"), np.vstack([effect, theory.unit - effect]))
        return StorabilityReport(2.0, witness, "closed_form")

    backend = require_polytope(theory, "the storability LP")
    rays = backend.dual_rays
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

    centroid = backend.extreme_states.mean(axis=0)
    vals = rays @ centroid
    if vals.max() - vals.min() <= EPS:
        lam0 = float(vals.mean())
        value = 1.0 / lam0
        if abs(value - res.value) > EPS:
            raise SolverError(
                f"constant-value shortcut ({value}) disagrees with LP ({res.value})"
            )
        return StorabilityReport(value, witness, "constant_lambda0")
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
