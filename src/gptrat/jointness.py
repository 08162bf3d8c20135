"""Approximate and exact joint measurements, compatibility, and its degree.

The harmonic approximation to a joint measurement of M^(1), ..., M^(k) with
m_1, ..., m_k outcomes is

    H_x = (M^(1)_{x_1} + ... + M^(k)_{x_k}) / kappa,
    kappa = (prod_i m_i) * (sum_i 1 / m_i),

always a valid measurement; its i-th marginal is the noisy version
lam_i M^(i) + (1 - lam_i) (u / m_i) with lam_i = h / (k m_i), h the harmonic
mean of the outcome counts.

Joint outcomes are core.outcome_tuples, in its order.  On a polytope
theory one LP over the dual-ray cone, solved once per set of measurements
on a Theory object, answers compatibility and the degree: its optimum s*
is the least total trivial noise that leaves the k measurements with a
joint.  They are compatible exactly when s* <= EPS; a pair's degree of
incompatibility is then 1, and otherwise 1 / (1 + s*), the largest lam for
which lam M + (1 - lam) p u and lam N + (1 - lam) q u stay compatible for
some distributions p, q (Busch, Heinosaari, Schultz and Stevens, EPL 2013).
A dichotomic pair is maximally incompatible when its degree is <= 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import prod

import numpy as np

from .core import (
    Measurement,
    Theory,
    _tuple_table,
    harmonic_mean,
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
    labels, sums = outcome_tuples(ms)
    counts = [m.num_outcomes for m in ms]
    kappa = prod(counts) * sum(1.0 / c for c in counts)
    return Measurement(labels, sums / kappa)


def harmonic_smearing_weights(outcome_counts) -> list[float]:
    """Noise weights lam_i = h / (k m_i) of the harmonic joint's marginals."""
    counts = list(outcome_counts)
    h = harmonic_mean(counts)
    return [h / (len(counts) * c) for c in counts]


def _joint_lp(ms, rays: np.ndarray):
    """Joint outcome labels, marginal operator P and cone block of the joint LP.

    Labels and P come from the table behind core.outcome_tuples, so they
    share its order.  Measurement i contributes the one-hot rows
    e_(offset_i + x) of the identity on the stacked marginal outcomes, so
    tuple t sums to the t-th column of the 0/1 matrix P: row (i, x) of P
    selects the tuples with x_i = x.  P @ joint_effects then stacks every
    marginal, and the cone block kron(P, rays.T) maps the joint's cone
    coefficients, R per tuple, to the marginals.
    """
    bounds = list(accumulate((m.num_outcomes for m in ms), initial=0))
    eye = np.eye(bounds[-1])
    one_hot = [eye[a:b] for a, b in zip(bounds, bounds[1:])]
    labels, columns = _tuple_table([m.outcomes for m in ms], one_hot)
    P = np.ascontiguousarray(columns.T)
    return labels, P, kron(P, rays.T)


def _solve_joint(measurements, theory: Theory, operation: str):
    """(s*, witness, noise) of the measurements' joint LP, memoized.

    Beside the cone coefficients of a joint J, the LP has one noise weight
    w_x >= 0 per marginal outcome, with marginals M^(i)_x + w_x u, and it
    minimizes the first marginal's noise sum s; every marginal's sums to s,
    as each sums to sum J = (1 + s) u.  s = k - 1 is always feasible:
    (1/k) sum_i M^(i)_{x_i} prod_{j != i} p_j(x_j) has marginals
    (M^(i) + (k - 1) p_i u) / k.  No optimum (the dual rays miss part of
    the effect cone) or s* outside [0, k - 1] within EPS is a SolverError.
    The witness is J when s* <= EPS, else None; noise is w clipped at zero,
    per marginal.  The memo keeps one entry, keyed by labels and effects.
    """
    rays = require_polytope(theory, operation).dual_rays
    ms = require_valid_measurements(measurements, theory, 2)
    key = tuple((m.outcomes, m.effects.shape, m.effects.tobytes()) for m in ms)
    memo = theory._compatibility_memo
    entry = memo.get(key)  # one lookup: a concurrent clear cannot split it
    if entry is not None:
        return entry
    labels, P, cone = _joint_lp(ms, rays)
    nbeta, k = cone.shape[1], len(ms)
    bounds = np.cumsum([0] + [m.num_outcomes for m in ms])
    A = np.hstack([cone, -kron(np.eye(len(P)), theory.unit[:, None])])
    objective = np.concatenate([np.zeros(nbeta), -np.ones(bounds[1]), np.zeros(bounds[-1] - bounds[1])])
    stacked = np.vstack([m.effects for m in ms])
    res = solve_lp(LpProblem(objective, A, stacked.ravel()))
    s = -res.value
    if res.status != "optimal" or not -EPS <= s <= k - 1 + EPS:
        raise SolverError(f"joint LP ended with status {res.status} and noise {s}, outside [0, {k - 1}]")
    witness = None
    if s <= EPS:
        joint_effects = res.solution[:nbeta].reshape(P.shape[1], -1) @ rays
        errors = np.abs(P @ joint_effects - stacked).max(axis=1)
        residuals = tuple(float(e.max()) for e in np.split(errors, bounds[1:-1]))
        joint_effects.setflags(write=False)
        witness = JointWitness(Measurement(tuple(labels), joint_effects), residuals)
    noise = np.split(np.clip(res.solution[nbeta:], 0.0, None), bounds[1:-1])
    memo.clear()
    memo[key] = entry = (s, witness, tuple(noise))
    return entry


def check_compatible(measurements, theory: Theory) -> JointWitness | None:
    """Exact joint measurement, or None when provably incompatible.

    Compatible exactly when the joint LP's least noise s* is at most EPS;
    the witness is then its joint, with each marginal's largest deviation.
    The measurements are validated on every call, but no LP is solved when
    the last joint LP on this Theory object, from either this function or
    incompatibility_degree, had equal labels and bit-identical effects.
    The witness's joint effects are read-only.
    """
    return _solve_joint(measurements, theory, "the compatibility LP")[1]


def incompatibility_degree(m1: Measurement, m2: Measurement, theory: Theory) -> DegreeReport:
    """Largest lam in [1/2, 1] keeping the smeared pair compatible.

    Read off the pair's joint LP and memo entry, as check_compatible's: s*
    is the least noise s = sum w = sum w' (w, w' >= 0) for which M_x + w_x u
    and N_y + w'_y u have a joint.  At s* <= EPS the degree is exactly 1.0,
    with uniform trivial parts; otherwise it is 1 / (1 + s*), with trivial
    parts w and w' each clipped at zero and normalized by its own sum.  The
    tests pin it within 1e-6 of a bisection oracle and check that the pair
    smeared at lam - 1e-9 with the returned trivials is compatible.
    """
    s, _, noise = _solve_joint([m1, m2], theory, "the incompatibility degree")
    if s <= EPS:
        uniform = tuple(np.full(m.num_outcomes, 1.0 / m.num_outcomes) for m in (m1, m2))
        return DegreeReport(1.0, uniform)
    if min(w.sum() for w in noise) <= 0.0:
        raise SolverError(f"joint LP ended with no positive noise weight on one side at noise {s}")
    return DegreeReport(1.0 / (1.0 + s), tuple(w / w.sum() for w in noise))


def maximally_incompatible_dichotomic(m1: Measurement, m2: Measurement, theory: Theory) -> bool:
    """Does the pair reach the universal degree floor of one half?

    Happens exactly when four states t1..t4 exist with M(+) certain on t1, t2
    and impossible on t3, t4, N(+) certain on t1, t4 and impossible on t2, t3,
    and t1 + t3 = t2 + t4 (an affine parallelogram).  It is decided as
    degree <= 1/2 (noise s* = 1 in the joint LP), within EPS.
    """
    require_polytope(theory, "the maximal-incompatibility test")
    if m1.num_outcomes != 2 or m2.num_outcomes != 2:
        raise InputError("both measurements must be dichotomic")
    return incompatibility_degree(m1, m2, theory).degree <= 0.5 + EPS
