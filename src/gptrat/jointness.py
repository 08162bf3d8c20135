"""Approximate and exact joint measurements, compatibility, and its degree.

The harmonic approximation to a joint measurement of M^(1), ..., M^(k) with
m_1, ..., m_k outcomes is

    H_x = (M^(1)_{x_1} + ... + M^(k)_{x_k}) / kappa,
    kappa = (prod_i m_i) * (sum_i 1 / m_i),

always a valid measurement; its i-th marginal is the noisy version
lam_i M^(i) + (1 - lam_i) (u / m_i) with lam_i = h / (k m_i), h the harmonic
mean of the outcome counts.

Joint outcomes are core.outcome_tuples, in its order.  Exact compatibility
on a polytope theory is one feasibility LP over the dual-ray cone; a pair's
degree of incompatibility is 1 when it is feasible, and otherwise the
largest lam for which lam M + (1 - lam) p u and lam N + (1 - lam) q u stay
compatible for some distributions p, q (the worst trivial noise), read off
one LP as 1 / (1 + s) (Busch, Heinosaari, Schultz and Stevens, EPL 2013).
A dichotomic pair is maximally incompatible when its degree is <= 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod

import numpy as np

from .core import (
    Measurement,
    Theory,
    outcome_tuples,
    require_polytope,
    require_valid_measurements,
)
from .errors import InputError, SolverError
from .linalg import EPS, LpProblem, kron, solve_lp


@dataclass(frozen=True)
class JointWitness:
    joint: Measurement
    marginal_residuals: tuple[float, ...]


@dataclass(frozen=True)
class DegreeReport:
    degree: float
    optimal_trivials: tuple[np.ndarray, np.ndarray]


def harmonic_joint(measurements) -> Measurement:
    """Harmonic approximate joint measurement on the product outcome set."""
    ms = list(measurements)
    if len(ms) < 2:
        raise InputError("need at least two measurements")
    counts = [m.num_outcomes for m in ms]
    dim = ms[0].effects.shape[1]
    if any(m.effects.shape[1] != dim for m in ms):
        raise InputError("measurements live in different ambient spaces")
    kappa = prod(counts) * sum(1.0 / c for c in counts)
    labels, sums = zip(*outcome_tuples(ms))
    return Measurement(labels, np.array(sums) / kappa)


def harmonic_smearing_weights(outcome_counts) -> list[float]:
    """Noise weights lam_i = h / (k m_i) of the harmonic joint's marginals."""
    counts = list(outcome_counts)
    k = len(counts)
    h = k / sum(1.0 / c for c in counts)
    return [h / (k * c) for c in counts]


def _joint_lp(ms, rays: np.ndarray):
    """Joint outcome labels, marginal operator P and cone block of the joint LP.

    The joint outcomes are the label tuples of outcome_tuples, in its order
    (lexicographic in the outcome indices).  Row (axis i, outcome x) of the
    0/1 matrix P selects the tuples whose i-th index is x (labels are
    distinct, so index and label agree), so P @ joint_effects stacks every
    marginal.  The LP variables are the joint effects' cone coefficients, R
    per tuple, and the cone block kron(P, rays.T) maps them to the marginals.
    """
    counts = [m.num_outcomes for m in ms]
    labels = list(product(*(m.outcomes for m in ms)))
    index = np.indices(counts).reshape(len(ms), -1)
    P = np.vstack([np.arange(c)[:, None] == axis for c, axis in zip(counts, index)]).astype(float)
    return labels, P, kron(P, rays.T)


def check_compatible(measurements, theory: Theory) -> JointWitness | None:
    """Exact joint measurement via LP, or None when provably incompatible.

    Variables are cone coefficients of the joint effects over the dual rays;
    constraints force every marginal to reproduce its measurement.  The joint
    then sums to the unit automatically because each marginal does.

    The measurements are validated on every call, but no LP is solved when
    they match the previous call's on the same Theory object (equal labels,
    bit-identical effects): that call's answer, witness or None, is returned
    again, as the deterministic LP would give it.  The witness's joint
    effects are read-only.  A call that raises stores nothing.
    """
    rays = require_polytope(theory, "the compatibility LP").dual_rays
    ms = require_valid_measurements(measurements, theory, 2)
    key = tuple((m.outcomes, m.effects.shape, m.effects.tobytes()) for m in ms)
    memo = theory._compatibility_memo
    try:
        return memo[key]  # one lookup: a concurrent clear cannot split it
    except KeyError:
        pass
    labels, P, A = _joint_lp(ms, rays)
    stacked = np.vstack([m.effects for m in ms])
    res = solve_lp(LpProblem(np.zeros(A.shape[1]), A, stacked.ravel()))
    witness = None
    if res.status == "optimal":
        joint_effects = res.solution.reshape(P.shape[1], -1) @ rays
        errors = np.abs(P @ joint_effects - stacked).max(axis=1)
        bounds = np.cumsum([0] + [m.num_outcomes for m in ms])
        residuals = tuple(float(errors[lo:hi].max()) for lo, hi in zip(bounds, bounds[1:]))
        joint_effects.setflags(write=False)
        witness = JointWitness(Measurement(tuple(labels), joint_effects), residuals)
    memo.clear()
    memo[key] = witness
    return witness


def incompatibility_degree(m1: Measurement, m2: Measurement, theory: Theory) -> DegreeReport:
    """Largest lam in [1/2, 1] keeping the smeared pair compatible.

    lam = 1 is decided by the compatibility LP (check_compatible), so
    compatible pairs report exactly 1.0; the noise then has weight 0, and
    the reported trivial parts are the uniform distributions.  Otherwise one
    LP finds the least total noise s = sum w = sum w' with w, w' >= 0 for
    which M_x + w_x u and N_y + w'_y u have a joint; then lam = 1 / (1 + s)
    and the trivial parts are w / s and w' / s, each clipped at zero and
    normalized by its own sum.  The tests pin the result
    within 1e-6 of a bisection oracle and check that the pair smeared at
    lam - 1e-9 with the returned trivials is compatible.

    When check_compatible last ran on the same pair and Theory object, its
    verdict is reused and no compatibility LP is solved here: a compatible
    pair then costs no LP, an incompatible one the degree LP alone.
    """
    require_polytope(theory, "the incompatibility degree")
    if check_compatible([m1, m2], theory) is not None:
        uniform = tuple(np.full(m.num_outcomes, 1.0 / m.num_outcomes) for m in (m1, m2))
        return DegreeReport(1.0, uniform)
    c1, c2 = m1.num_outcomes, m2.num_outcomes
    _, _, cone = _joint_lp([m1, m2], theory.backend.dual_rays)
    nbeta = cone.shape[1]
    # columns: cone coefficients, then w (c1) and w' (c2); sum w = sum w'
    # needs no row: summing either marginal's rows gives (1 + sum) u = sum J
    A = np.hstack([cone, -kron(np.eye(c1 + c2), theory.unit[:, None])])
    b = np.concatenate([m1.effects.ravel(), m2.effects.ravel()])
    objective = np.concatenate([np.zeros(nbeta), -np.ones(c1), np.zeros(c2)])
    res = solve_lp(LpProblem(objective, A, b))
    s = -res.value
    if res.status != "optimal" or not 0.0 < s <= 1.0 + EPS:
        raise SolverError(f"degree LP ended with status {res.status} and noise {s}, outside (0, 1]")
    # w and w' may dip just below zero; clipped and normalized each on its
    # own, they stay distributions however small s is
    noise = np.clip(res.solution[nbeta:], 0.0, None)
    trivials = (noise[:c1], noise[c1:])
    if min(w.sum() for w in trivials) <= 0.0:
        raise SolverError(f"degree LP ended with no positive noise weight on one side at noise {s}")
    return DegreeReport(1.0 / (1.0 + s), tuple(w / w.sum() for w in trivials))


def maximally_incompatible_dichotomic(m1: Measurement, m2: Measurement, theory: Theory) -> bool:
    """Does the pair reach the universal degree floor of one half?

    Happens exactly when four states t1..t4 exist with M(+) certain on t1, t2
    and impossible on t3, t4, N(+) certain on t1, t4 and impossible on t2, t3,
    and t1 + t3 = t2 + t4 (an affine parallelogram).  It is decided as
    degree <= 1/2 (noise s = 1 in the degree LP), within EPS.
    """
    require_polytope(theory, "the maximal-incompatibility test")
    if m1.num_outcomes != 2 or m2.num_outcomes != 2:
        raise InputError("both measurements must be dichotomic")
    return incompatibility_degree(m1, m2, theory).degree <= 0.5 + EPS
