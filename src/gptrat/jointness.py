"""Approximate and exact joint measurements, compatibility, and its degree.

The harmonic approximation to a joint measurement of M^(1), ..., M^(k) with
m_1, ..., m_k outcomes is

    H_x = (M^(1)_{x_1} + ... + M^(k)_{x_k}) / kappa,
    kappa = (prod_i m_i) * (sum_i 1 / m_i),

always a valid measurement; its i-th marginal is the noisy version
lam_i M^(i) + (1 - lam_i) (u / m_i) with lam_i = h / (k m_i), h the harmonic
mean of the outcome counts.

Exact compatibility of finitely many measurements on a polytope theory is a
feasibility LP over the dual-ray cone; the degree of incompatibility is found
by bisecting the largest noise parameter lam for which the uniformly smeared
versions lam M + (1 - lam) p(x) u stay compatible (the trivial parts p, q are
free LP variables, so the degree is with respect to the worst trivial noise).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod

import numpy as np

from .core import (
    Measurement,
    Theory,
    require_polytope,
    require_valid_measurement,
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
    bisection_iters: int


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
    outcomes = []
    effects = np.empty((prod(counts), dim))
    for row, combo in enumerate(product(*(range(c) for c in counts))):
        outcomes.append(tuple(ms[i].outcomes[x] for i, x in enumerate(combo)))
        effects[row] = sum(ms[i].effects[x] for i, x in enumerate(combo)) / kappa
    return Measurement(tuple(outcomes), effects)


def harmonic_smearing_weights(outcome_counts) -> list[float]:
    """Noise weights lam_i = h / (k m_i) of the harmonic joint's marginals."""
    counts = list(outcome_counts)
    k = len(counts)
    h = k / sum(1.0 / c for c in counts)
    return [h / (k * c) for c in counts]


def _joint_lp(counts, rays: np.ndarray):
    """Marginal operator P and cone block kron(P, rays.T) of the joint LP.

    Joint outcomes are the product tuples in lexicographic order; row
    (axis i, outcome x) of the 0/1 matrix P selects the tuples with
    x_i = x, so P @ joint_effects stacks every marginal.  The LP variables
    are the joint effects' cone coefficients, R per tuple, and the cone
    block maps them to the stacked marginals.
    """
    axes = np.unravel_index(np.arange(prod(counts)), counts)
    P = np.vstack([x == np.arange(c)[:, None] for x, c in zip(axes, counts)]).astype(float)
    return P, kron(P, rays.T)


def check_compatible(measurements, theory: Theory) -> JointWitness | None:
    """Exact joint measurement via LP, or None when provably incompatible.

    Variables are cone coefficients of the joint effects over the dual rays;
    constraints force every marginal to reproduce its measurement.  The joint
    then sums to the unit automatically because each marginal does.
    """
    rays = require_polytope(theory, "the compatibility LP").dual_rays
    ms = list(measurements)
    if len(ms) < 2:
        raise InputError("need at least two measurements")
    for m in ms:
        require_valid_measurement(m, theory)
    counts = [m.num_outcomes for m in ms]
    P, A = _joint_lp(counts, rays)
    stacked = np.vstack([m.effects for m in ms])
    res = solve_lp(LpProblem(np.zeros(A.shape[1]), A, stacked.ravel()))
    if res.status != "optimal":
        return None

    joint_effects = res.solution.reshape(P.shape[1], -1) @ rays
    outcomes = tuple(product(*(m.outcomes for m in ms)))
    errors = np.abs(P @ joint_effects - stacked).max(axis=1)
    bounds = np.cumsum([0] + counts)
    residuals = tuple(float(errors[lo:hi].max()) for lo, hi in zip(bounds, bounds[1:]))
    return JointWitness(Measurement(outcomes, joint_effects), residuals)


def _degree_lp(m1, m2, theory):
    """Feasibility test in lam: is (lam M + (1-lam) p u, lam N + (1-lam) q u)
    compatible for some distributions p, q?  Returns lam -> (p, q) or None.

    The joint LP's cone block gains noise columns -(1 - lam) kron(I, u) for
    p and q and the rows sum p = sum q = 1; everything but lam is assembled
    once.
    """
    c1, c2 = m1.num_outcomes, m2.num_outcomes
    _, cone = _joint_lp([c1, c2], theory.backend.dual_rays)
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

    lam = 1 is tested first so compatible pairs report exactly 1.0; otherwise
    the feasible set is bisected to a bracket below 1e-6 and the lower end is
    returned, so the result never overstates the degree.
    """
    require_polytope(theory, "the incompatibility degree")
    require_valid_measurement(m1, theory)
    require_valid_measurement(m2, theory)
    feasible = _degree_lp(m1, m2, theory)
    exact = feasible(1.0)
    if exact is not None:
        return DegreeReport(1.0, exact, 1)
    lo, hi = 0.5, 1.0
    trivials = feasible(lo)
    iters = 2
    if trivials is None:
        raise SolverError("uniform-noise mixture at lam = 1/2 must be compatible")
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        sol = feasible(mid)
        iters += 1
        if sol is None:
            hi = mid
        else:
            lo = mid
            trivials = sol
    return DegreeReport(lo, trivials, iters)


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
    require_valid_measurement(m1, theory)
    require_valid_measurement(m2, theory)
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
