"""Independent reference answers for the benchmark's output checks.

Nothing here calls into gptrat: norms and success probabilities are
recomputed in plain numpy, polygon closed forms are re-derived from their
formulas, and LP verdicts come from scipy's HiGHS.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import product

import numpy as np

DEGREE_TOL = 2e-6  # the package bisects to a bracket of 1e-6 and returns its lower end


def polygon_storability(n: int) -> float:
    return 2.0 if n % 2 == 0 else 1.0 + 1.0 / math.cos(math.pi / n)


def stock_storability(family: str, size: int) -> float:
    if family == "polygon":
        return polygon_storability(size)
    return 2.0 if family == "hypercube" else float(size)


def stock_operational_dimension(family: str, size: int) -> int:
    if family == "simplex" or (family == "polygon" and size == 3):
        return size
    return 2


def polygon_rat_max(n: int) -> float:
    """Pair random access test optimum on the regular n-gon, per parity class."""
    sec = 1.0 / math.cos(math.pi / n)
    if n % 4 == 0:
        return 0.5 * (1.0 + (sec if (n // 4) % 2 else 1.0) / math.sqrt(2.0))
    if n % 2 == 0:
        m = (n - 2) // 4
        c, s = math.cos(m * math.pi / n), math.sin(m * math.pi / n)
        return 0.25 * (2.0 + (sec * c + s if m % 2 else c + sec * s))
    m = (n - 1) // 4 if n % 4 == 1 else (n - 3) // 4 + 1
    ang = m * math.pi / n
    return 0.25 * (2.0 + math.cos(ang) + math.sin(ang) / math.cos(math.pi / (2 * n)))


def polygon_compatible_max(n: int) -> float:
    return 0.75 if n % 2 == 0 else 0.5 * (1.0 + (1.0 + 1.0 / math.cos(math.pi / n)) / 4.0)


DISC_RAT_MAX = 0.5 * (1.0 + 1.0 / math.sqrt(2.0))


def norms(F: np.ndarray, vertices: np.ndarray | None) -> np.ndarray:
    """Order-unit norms of the rows of F: max |f(s)| over polytope vertices,
    or |f_unit| + |f_rest| on a Euclidean ball with the unit coordinate last."""
    if vertices is not None:
        return np.abs(F @ vertices.T).max(axis=-1)
    return np.abs(F[..., -1]) + np.linalg.norm(F[..., :-1], axis=-1)


def tuple_sums(effect_lists) -> np.ndarray:
    """S[x_1, ..., x_k] = sum_i M^(i)_{x_i}, shape (m_1, ..., m_k, d)."""
    k = len(effect_lists)
    parts = []
    for i, E in enumerate(effect_lists):
        shape = [1] * k + [E.shape[1]]
        shape[i] = E.shape[0]
        parts.append(E.reshape(shape))
    return reduce(np.add, parts)


def rat_p_bar(effect_lists, vertices: np.ndarray | None) -> float:
    S = tuple_sums(effect_lists)
    return float(norms(S, vertices).sum() / (len(effect_lists) * S[..., 0].size))


def witness_errors(joint_outcomes, joint_effects, effect_lists, labels, vertices, tol=1e-8) -> list[str]:
    """Re-verify an exact joint measurement: nonnegative on every vertex and
    reproducing every marginal."""
    errors = []
    J = np.asarray(joint_effects)
    if (J @ vertices.T).min() < -tol:
        errors.append("joint effect negative on a state")
    for axis, (E, outs) in enumerate(zip(effect_lists, labels)):
        for x, label in enumerate(outs):
            rows = [t for t, o in enumerate(joint_outcomes) if o[axis] == label]
            if np.abs(J[rows].sum(axis=0) - E[x]).max() > tol:
                errors.append(f"marginal {axis} outcome {label!r} not reproduced")
    return errors


def _marginal_operator(counts, axis: int) -> np.ndarray:
    P = np.zeros((counts[axis], math.prod(counts)))
    for t, combo in enumerate(product(*(range(c) for c in counts))):
        P[combo[axis], t] = 1.0
    return P


def pair_degree(E1: np.ndarray, E2: np.ndarray, rays: np.ndarray, unit: np.ndarray) -> float:
    """Degree of incompatibility as one HiGHS LP.

    minimize s = sum w subject to sum_y J_xy = M_x + w_x u,
    sum_x J_xy = N_y + w'_y u, sum w = sum w', w, w' >= 0 and every J_xy in the
    dual-ray cone; the degree is 1 / (1 + s*).
    """
    from scipy.optimize import linprog

    counts = (E1.shape[0], E2.shape[0])
    R, d = rays.shape
    nbeta = math.prod(counts) * R
    c1, c2 = counts
    blocks = []
    for axis, E in enumerate((E1, E2)):
        A = np.zeros((counts[axis] * d, nbeta + c1 + c2))
        A[:, :nbeta] = np.kron(_marginal_operator(counts, axis), rays.T)
        off = nbeta + (0 if axis == 0 else c1)
        for x in range(counts[axis]):
            A[x * d:(x + 1) * d, off + x] = -unit
        blocks.append(A)
    balance = np.zeros((1, nbeta + c1 + c2))
    balance[0, nbeta:nbeta + c1] = 1.0
    balance[0, nbeta + c1:] = -1.0
    A_eq = np.vstack(blocks + [balance])
    b_eq = np.concatenate([E1.ravel(), E2.ravel(), [0.0]])
    cost = np.zeros(nbeta + c1 + c2)
    cost[nbeta:nbeta + c1] = 1.0
    res = linprog(cost, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"degree LP ended with status {res.status}: {res.message}")
    return 1.0 / (1.0 + max(res.fun, 0.0))


def storability(rays: np.ndarray, unit: np.ndarray) -> float:
    """max sum alpha subject to sum_i alpha_i ray_i = u, alpha >= 0, by HiGHS."""
    from scipy.optimize import linprog

    res = linprog(-np.ones(rays.shape[0]), A_eq=rays.T, b_eq=unit, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"storability LP ended with status {res.status}: {res.message}")
    return float(-res.fun)
