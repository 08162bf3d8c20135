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
largest lam found by bisection for which lam M + (1 - lam) p(x) u stay
compatible (p, q are free LP variables: the worst trivial noise).
"""

from __future__ import annotations

from dataclasses import dataclass
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

    The joint outcomes are the label tuples of outcome_tuples, in its order.
    Row (axis i, outcome x) of the 0/1 matrix P selects the tuples whose
    i-th label is x (labels are distinct), so P @ joint_effects stacks every
    marginal.  The LP variables are the joint effects' cone coefficients, R
    per tuple, and the cone block kron(P, rays.T) maps them to the marginals.
    """
    labels = [t for t, _ in outcome_tuples(ms)]
    P = np.array([[t[i] == x for t in labels] for i, m in enumerate(ms) for x in m.outcomes], dtype=float)
    return labels, P, kron(P, rays.T)


def check_compatible(measurements, theory: Theory) -> JointWitness | None:
    """Exact joint measurement via LP, or None when provably incompatible.

    Variables are cone coefficients of the joint effects over the dual rays;
    constraints force every marginal to reproduce its measurement.  The joint
    then sums to the unit automatically because each marginal does.
    """
    rays = require_polytope(theory, "the compatibility LP").dual_rays
    ms = require_valid_measurements(measurements, theory, 2)
    labels, P, A = _joint_lp(ms, rays)
    stacked = np.vstack([m.effects for m in ms])
    res = solve_lp(LpProblem(np.zeros(A.shape[1]), A, stacked.ravel()))
    if res.status != "optimal":
        return None

    joint_effects = res.solution.reshape(P.shape[1], -1) @ rays
    errors = np.abs(P @ joint_effects - stacked).max(axis=1)
    bounds = np.cumsum([0] + [m.num_outcomes for m in ms])
    residuals = tuple(float(errors[lo:hi].max()) for lo, hi in zip(bounds, bounds[1:]))
    return JointWitness(Measurement(tuple(labels), joint_effects), residuals)


def _degree_lp(m1, m2, theory):
    """Feasibility test in lam: is (lam M + (1-lam) p u, lam N + (1-lam) q u)
    compatible for some distributions p, q?  Returns lam -> (p, q) or None.

    The joint LP's cone block gains noise columns -(1 - lam) kron(I, u) for
    p and q and the rows sum p = sum q = 1; everything but lam is assembled
    once.
    """
    c1, c2 = m1.num_outcomes, m2.num_outcomes
    _, _, cone = _joint_lp([m1, m2], theory.backend.dual_rays)
    nbeta = cone.shape[1]
    unit_noise = kron(np.eye(c1 + c2), theory.unit[:, None])
    sums = np.zeros((2, nbeta + c1 + c2))
    sums[0, nbeta : nbeta + c1] = 1.0
    sums[1, nbeta + c1 :] = 1.0
    effects = np.concatenate([m1.effects.ravel(), m2.effects.ravel()])

    def feasible(lam):
        A = np.vstack([np.hstack([cone, -(1.0 - lam) * unit_noise]), sums])
        b = np.concatenate([lam * effects, [1.0, 1.0]])
        res = solve_lp(LpProblem(np.zeros(A.shape[1]), A, b))
        if res.status != "optimal":
            return None
        return res.solution[nbeta : nbeta + c1], res.solution[nbeta + c1 :]

    return feasible


def incompatibility_degree(m1: Measurement, m2: Measurement, theory: Theory) -> DegreeReport:
    """Largest lam in [1/2, 1] keeping the smeared pair compatible.

    lam = 1 is decided by the compatibility LP (check_compatible), so
    compatible pairs report exactly 1.0; the noise then has weight 0, and
    the reported trivial parts are the uniform distributions.  Otherwise the
    feasible set is bisected to a bracket below 1e-6 and the lower end is
    returned, so the result never overstates the degree.
    """
    require_polytope(theory, "the incompatibility degree")
    if check_compatible([m1, m2], theory) is not None:
        uniform = tuple(np.full(m.num_outcomes, 1.0 / m.num_outcomes) for m in (m1, m2))
        return DegreeReport(1.0, uniform)
    feasible = _degree_lp(m1, m2, theory)
    lo, hi = 0.5, 1.0
    trivials = feasible(lo)
    if trivials is None:
        raise SolverError("uniform-noise mixture at lam = 1/2 must be compatible")
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        sol = feasible(mid)
        if sol is None:
            hi = mid
        else:
            lo = mid
            trivials = sol
    return DegreeReport(lo, trivials)


def maximally_incompatible_dichotomic(m1: Measurement, m2: Measurement, theory: Theory) -> bool:
    """Does the pair reach the universal degree floor of one half?

    Happens exactly when four states t1..t4 exist with M(+) certain on t1, t2
    and impossible on t3, t4, N(+) certain on t1, t4 and impossible on t2, t3,
    and t1 + t3 = t2 + t4 (an affine parallelogram).  Each t_i is searched as
    a convex combination of the vertices lying on the corresponding faces.
    """
    V = require_polytope(theory, "the maximal-incompatibility test").extreme_states
    if m1.num_outcomes != 2 or m2.num_outcomes != 2:
        raise InputError("both measurements must be dichotomic")
    require_valid_measurements([m1, m2], theory, 2)
    d = theory.ambient_dim
    e_vals = V @ m1.effects[0]
    f_vals = V @ m2.effects[0]
    e_on, e_off = np.abs(e_vals - 1.0) <= EPS, np.abs(e_vals) <= EPS
    f_on, f_off = np.abs(f_vals - 1.0) <= EPS, np.abs(f_vals) <= EPS
    faces = [
        np.nonzero(e_on & f_on)[0],  # t1
        np.nonzero(e_off & f_on)[0],  # t2
        np.nonzero(e_off & f_off)[0],  # t3
        np.nonzero(e_on & f_off)[0],  # t4
    ]
    if any(idx.size == 0 for idx in faces):
        return False
    sizes = [idx.size for idx in faces]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    nvar = int(offsets[-1])
    # rows: parallelogram t1 - t2 + t3 - t4 = 0, plus one normalization per state
    A = np.zeros((d + 4, nvar))
    b = np.zeros(d + 4)
    signs = [1.0, -1.0, 1.0, -1.0]
    for i, idx in enumerate(faces):
        cols = slice(offsets[i], offsets[i + 1])
        A[:d, cols] = signs[i] * V[idx].T
        A[d + i, cols] = 1.0
        b[d + i] = 1.0
    res = solve_lp(LpProblem(np.zeros(nvar), A, b))
    return res.status == "optimal"
