"""State spaces, effects, measurements, and the order-unit norm.

A theory couples an ambient vector space with a unit functional u and a
backend describing the state space.  States and effects are plain float64
vectors; an effect f is evaluated on a state s by the dot product f . s, and
validity means 0 <= f(s) <= 1 over the whole state space.

Two backends are supported, each owning its geometry (the order-unit norm
with a maximizing state, effect validity, structural validation), its
information storability and its operational dimension:

* Polytope: finitely many extreme states plus the extreme rays of the dual
  cone (each normalized so its maximum over the state space is 1), optionally
  a finite list of nontrivial extreme effects.
* Ball(dim): states (w, 1) with |w| <= 1, unit coordinate last; Ball(2) is
  the disc (rebit) and Ball(3) the Bloch ball (qubit in Pauli coordinates).
  All have closed forms; storability and operational dimension are 2.

Polytope storability.  The supremum of decoding power is always attained
at a measurement whose effects are scaled extreme rays of the dual cone,
which reduces it to one LP:

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
balanced; Polytope.storability checks both points in numpy, to the same
EPS as solve_lp's final check, and returns R/t with method "balanced".

Any other theory takes the LP.  The solver's dual vector y is then checked
in numpy: if every ray_i . y >= 1 - EPS and u . y matches the LP value,
weak duality makes that value optimal on every polytope theory, so a
faulty LP solution cannot be reported.

Operations that need vertices or dual rays go through require_polytope.
Theory and Polytope keep read-only float copies of their arrays, so a
Theory can cache what it derives from them: its storability report
(Theory.storability), and the last joint LP that jointness solved on it
(compatibility and the degree read the same one), reused only for
measurements with equal labels and bit-identical effects.
Validity checks are explicit operations rather than construction-time gates,
so intentionally invalid objects can be built for negative tests.  Every
validity decision uses linalg.EPS, except that Polytope.validate requires
the unit to evaluate to 1 on every extreme state within 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from typing import Union

import numpy as np

from .errors import InputError, SolverError, UnsupportedBackendError
from .linalg import EPS, LpProblem, enumerate_facets, numerical_rank, solve_lp

Vec = np.ndarray
EffectVec = np.ndarray
StochasticMatrix = np.ndarray


def _frozen(a) -> np.ndarray:
    """A read-only float copy: the caller's array stays writable."""
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Polytope:
    extreme_states: np.ndarray  # (N, d), one state per row
    dual_rays: np.ndarray  # (R, d), extreme rays of the dual cone, max over states = 1
    extreme_effects: np.ndarray | None = None  # nontrivial extreme effects when known

    def __post_init__(self) -> None:
        object.__setattr__(self, "extreme_states", _frozen(self.extreme_states))
        object.__setattr__(self, "dual_rays", _frozen(self.dual_rays))
        if self.extreme_effects is not None:
            object.__setattr__(self, "extreme_effects", _frozen(self.extreme_effects))

    def norm_with_argmax(self, f: EffectVec) -> tuple[float, int]:
        vals = self.extreme_states @ f
        idx = int(np.argmax(np.abs(vals)))
        return float(abs(vals[idx])), idx

    def effects_valid(self, F: np.ndarray) -> bool:
        vals = self.extreme_states @ F.T
        return bool(vals.min() >= -EPS and vals.max() <= 1.0 + EPS)

    def validate(self, theory: "Theory") -> None:
        V = self.extreme_states
        # NaN fails every comparison below, so it would pass them all
        if not (np.isfinite(V).all() and np.isfinite(self.dual_rays).all() and np.isfinite(theory.unit).all()):
            raise InputError("extreme states, dual rays and unit must be finite")
        if V.ndim != 2 or V.shape[1] != theory.ambient_dim:
            raise InputError("extreme states have the wrong shape")
        # effects are only known on the states' span: off it, two effects that
        # agree on every state would still count as different
        if numerical_rank(np.linalg.svd(V, compute_uv=False)) != theory.ambient_dim:
            raise InputError("extreme states do not span the ambient space")
        unit_vals = V @ theory.unit
        if np.max(np.abs(unit_vals - 1.0)) > 1e-12:
            raise InputError("unit must evaluate to 1 on every extreme state")
        R = self.dual_rays
        if R.ndim != 2 or R.shape[1] != theory.ambient_dim:
            raise InputError("dual rays have the wrong shape")
        vals = V @ R.T  # (N, R)
        if vals.min() < -EPS:
            raise InputError("a dual ray is negative on an extreme state")
        if np.max(np.abs(vals.max(axis=0) - 1.0)) > EPS:
            raise InputError("dual rays must be normalized to maximum value 1")

    def storability(self, theory: "Theory") -> "StorabilityReport":
        """The balanced certificate, else the LP with its dual checked."""
        rays = self.dual_rays
        balanced = _balanced(rays, self.extreme_states, theory.unit)
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

    def operational_dimension(self, theory: "Theory") -> int:
        """Grows k from 2 and stops at the first k with no distinguishable
        k-subset of the vertices (dropping a state from a distinguishable set
        and merging its effect into another leaves a distinguishable set).

        The vertices and rays are checked, and their zero pattern computed,
        once per call.  Each k-subset is screened from its rows of that
        pattern, as in distinguishable, and the walk stops at the first
        distinguishable k-subset.  The LP depends only on the subset's ray
        union, so it is solved once per distinct union and its verdict kept
        for the rest of the call."""
        V = self.extreme_states
        n = V.shape[0]
        if n > 16:
            raise InputError("vertex count too large for exhaustive subset search")
        if n < 2:
            return 1
        zero = _zero_pattern(V, self.dual_rays, theory)
        verdicts: dict[bytes, bool] = {}

        def subset_distinguishable(subset) -> bool:
            union = _ray_union(zero[list(subset)])
            if union is None:
                return False
            key = union.tobytes()
            if key not in verdicts:
                verdicts[key] = _unit_in_cone(self.dual_rays[union], theory.unit)
            return verdicts[key]

        best = 1
        for k in range(2, n + 1):
            if not any(subset_distinguishable(s) for s in combinations(range(n), k)):
                break
            best = k
        return best


@dataclass(frozen=True)
class Ball:
    """States (w, 1) with |w| <= 1: the disc (dim 2) or the Bloch ball (dim 3).

    An effect (w, a) has values a + w . v on pure states (v, 1), so its norm
    is |a| + |w| and it is valid when a - |w| >= 0 and a + |w| <= 1.
    """

    dim: int

    def __post_init__(self) -> None:
        if require_int(self.dim, "ball dimension") not in (2, 3):
            raise InputError("ball backends are the disc (dim 2) and the Bloch ball (dim 3)")

    def norm_with_argmax(self, f: EffectVec) -> tuple[float, np.ndarray]:
        a = float(f[-1])
        rho = math.hypot(*f[:-1])
        if rho == 0.0:
            return abs(a), np.zeros(self.dim)
        bloch = f[:-1] / rho if a >= 0 else -f[:-1] / rho
        return abs(a) + rho, bloch

    def effects_valid(self, F: np.ndarray) -> bool:
        a = F[:, -1]
        rho = np.linalg.norm(F[:, :-1], axis=1)
        return bool(np.all(a - rho >= -EPS) and np.all(a + rho <= 1.0 + EPS))

    def validate(self, theory: "Theory") -> None:
        if theory.ambient_dim != self.dim + 1:
            raise InputError(f"a {self.dim}-ball lives in a {self.dim + 1}-dimensional ambient space")
        # NaN fails every comparison, so finiteness is tested first
        unit = theory.unit
        if not np.isfinite(unit).all() or np.max(np.abs(unit[:-1])) > EPS or abs(unit[-1] - 1.0) > EPS:
            raise InputError("the unit of a ball must be (0, ..., 0, 1)")

    def storability(self, theory: "Theory") -> "StorabilityReport":
        # the sharp measurement along the last axis has two effects of norm 1
        half_axis = np.zeros(theory.ambient_dim)
        half_axis[-2] = 0.5
        effect = half_axis + 0.5 * theory.unit
        witness = Measurement(("+", "-"), np.vstack([effect, theory.unit - effect]))
        return StorabilityReport(2.0, witness, "closed_form")

    def operational_dimension(self, theory: "Theory") -> int:
        # antipodal pure states are distinguishable; no third state joins them
        return 2


Backend = Union[Polytope, Ball]


@dataclass(frozen=True)
class Theory:
    name: str
    ambient_dim: int
    unit: np.ndarray
    backend: Backend

    def __post_init__(self) -> None:
        object.__setattr__(self, "unit", _frozen(self.unit))
        if self.unit.shape != (require_int(self.ambient_dim, "ambient_dim"),):
            raise InputError("unit functional has the wrong dimension")

    @cached_property
    def storability(self) -> "StorabilityReport":
        """The backend's StorabilityReport, solved once per Theory object."""
        return self.backend.storability(self)

    @cached_property
    def _compatibility_memo(self) -> dict:
        """jointness's last joint LP answer on this Theory, keyed by its
        validated input: one entry at most, never a dataclass field."""
        return {}

    @property
    def vertices(self) -> np.ndarray:
        return require_polytope(self, "a vertex list").extreme_states


@dataclass(frozen=True)
class Measurement:
    """Finite-outcome measurement: one effect row per outcome label."""

    outcomes: tuple
    effects: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        object.__setattr__(self, "effects", np.asarray(self.effects, dtype=float))
        if self.effects.ndim != 2:
            raise InputError("effects must be a 2-D array, one row per outcome")
        if len(self.outcomes) != self.effects.shape[0]:
            raise InputError("number of outcome labels does not match number of effects")
        if not self.outcomes:
            raise InputError("a measurement needs at least one outcome")
        if len(set(self.outcomes)) != len(self.outcomes):
            raise InputError("outcome labels must be distinct")

    @property
    def num_outcomes(self) -> int:
        return len(self.outcomes)


@dataclass(frozen=True)
class StorabilityReport:
    value: float
    witness_measurement: Measurement
    method: str  # "balanced", "lp" or "closed_form"


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


def outcome_tuples(measurements) -> tuple[list[tuple], np.ndarray]:
    """(labels, sums): every outcome tuple and its summed effect.

    labels[t] is the t-th tuple (x_1, ..., x_k) of outcome labels and
    sums[t] is M^(1)_{x_1} + ... + M^(k)_{x_k}, with the tuples in
    lexicographic order of the outcome indices.  This order is the joint
    outcome order everywhere: RAT sums, the harmonic joint and the
    joint-measurement LP.  InputError on no measurements or on effects of
    different widths.
    """
    ms = list(measurements)
    if not ms:
        raise InputError("need at least one measurement")
    if len({m.effects.shape[1] for m in ms}) > 1:
        raise InputError("measurements live in different ambient spaces")
    return _tuple_table([m.outcomes for m in ms], [m.effects for m in ms])


def _tuple_table(outcomes, blocks) -> tuple[list[tuple], np.ndarray]:
    """outcome_tuples' table for label lists and same-width row blocks.

    The rows are added left to right, by broadcasting, onto a zero row: the
    bits of Python's sum(rows), -0.0 + 0 = 0.0 included.  Unchecked.
    """
    d = blocks[0].shape[1]
    sums = np.zeros((1, d))
    for b in blocks:
        sums = (sums[:, None, :] + b[None, :, :]).reshape(-1, d)
    return list(product(*outcomes)), sums


def harmonic_mean(outcome_counts) -> float:
    """k / sum_i (1 / m_i); InputError unless the counts are a non-empty
    list of positive integers."""
    counts = list(outcome_counts)
    if not counts or not all(isinstance(c, (int, np.integer)) and not isinstance(c, bool) and c > 0 for c in counts):
        raise InputError("outcome counts must be a non-empty list of positive integers")
    return float(len(counts) / sum(1.0 / c for c in counts))


def require_polytope(theory: Theory, operation: str) -> Polytope:
    """The theory's Polytope backend; UnsupportedBackendError for any other."""
    if not isinstance(theory.backend, Polytope):
        raise UnsupportedBackendError(f"{theory.name}: {operation} needs a polytope state space")
    return theory.backend


def require_int(value, name: str) -> int:
    """value as an int; InputError unless it is an integer (numpy ints count, bools do not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputError(f"{name} must be an integer, got {value!r}")
    return int(value)


def validate_theory(theory: Theory) -> None:
    """Raise InputError unless the theory satisfies its structural invariants."""
    theory.backend.validate(theory)


def evaluate(effect: EffectVec, state: Vec, theory: Theory) -> float:
    """Outcome probability f(s).  The state must be normalized: unit(s) = 1."""
    f = np.asarray(effect, dtype=float)
    s = np.asarray(state, dtype=float)
    if f.shape != (theory.ambient_dim,) or s.shape != (theory.ambient_dim,):
        raise InputError("effect/state dimension mismatch")
    if abs(float(theory.unit @ s) - 1.0) > EPS:
        raise InputError("state is not normalized: unit(s) != 1")
    return float(f @ s)


def order_unit_norm(f: EffectVec, theory: Theory) -> float:
    """sup over states of |f(s)|."""
    return norm_with_argmax(f, theory)[0]


def norm_with_argmax(f: EffectVec, theory: Theory):
    """Order-unit norm together with a maximizing state descriptor.

    The descriptor is a vertex index (Polytope) or the Bloch vector of a
    maximizing pure state (Ball; the zero vector when the norm is attained
    everywhere).  Polytope ties resolve to the lowest vertex index.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (theory.ambient_dim,):
        raise InputError("effect dimension mismatch")
    return theory.backend.norm_with_argmax(f)


def is_valid_effect(f: EffectVec, theory: Theory) -> bool:
    """True when 0 <= f(s) <= 1 over the whole state space (within EPS)."""
    f = np.asarray(f, dtype=float)
    if f.shape != (theory.ambient_dim,):
        raise InputError("effect dimension mismatch")
    return theory.backend.effects_valid(f[None, :])


def is_valid_measurement(m: Measurement, theory: Theory) -> bool:
    """All effects valid and summing to the unit within EPS per coordinate."""
    if m.effects.shape[1] != theory.ambient_dim:
        raise InputError("measurement dimension mismatch")
    total = m.effects.sum(axis=0)
    if np.max(np.abs(total - theory.unit)) > EPS:
        return False
    return theory.backend.effects_valid(m.effects)


_TOO_FEW = {1: "need at least one measurement", 2: "need at least two measurements"}


def require_valid_measurements(measurements, theory: Theory, at_least: int) -> list[Measurement]:
    """The measurements as a list; InputError unless there are at least
    at_least of them (1 or 2) and each is valid on the theory."""
    ms = list(measurements)
    if len(ms) < at_least:
        raise InputError(_TOO_FEW[at_least])
    if not all(is_valid_measurement(m, theory) for m in ms):
        raise InputError("not a valid measurement on this theory")
    return ms


def trivial_measurement(theory: Theory, probs, outcomes=None) -> Measurement:
    """Measurement p_x * u that ignores the state entirely."""
    p = np.asarray(probs, dtype=float)
    if not (p.ndim == 1 and p.min() >= -1e-12 and abs(p.sum() - 1.0) <= 1e-12):  # NaN fails it
        raise InputError("probs must be a probability distribution")
    if outcomes is None:
        outcomes = tuple(range(len(p)))
    return Measurement(tuple(outcomes), np.outer(p, theory.unit))


def dichotomic_measurement(theory: Theory, effect: EffectVec, outcomes=("+", "-")) -> Measurement:
    """Two-outcome measurement (f, u - f)."""
    f = np.asarray(effect, dtype=float)
    if f.shape != (theory.ambient_dim,):
        raise InputError("effect dimension mismatch")
    return Measurement(tuple(outcomes), np.vstack([f, theory.unit - f]))


def _check_stochastic(nu: np.ndarray, n_in: int) -> np.ndarray:
    nu = np.asarray(nu, dtype=float)
    if nu.ndim != 2 or nu.shape[0] != n_in:
        raise InputError("post-processing matrix must have one row per input outcome")
    # written so that a NaN fails them
    if not nu.min() >= -1e-12:
        raise InputError("post-processing matrix has a negative entry")
    if not np.max(np.abs(nu.sum(axis=1) - 1.0)) <= 1e-12:
        raise InputError("post-processing matrix rows must sum to 1")
    return nu


def post_process(m: Measurement, nu: StochasticMatrix, outcomes=None) -> Measurement:
    """Classical relabeling: the y-th output effect is sum_x nu[x, y] * M_x."""
    nu = _check_stochastic(nu, m.num_outcomes)
    effects = nu.T @ m.effects
    if outcomes is None:
        outcomes = tuple(range(nu.shape[1]))
    if len(tuple(outcomes)) != nu.shape[1]:
        raise InputError("outcome labels do not match the post-processing width")
    return Measurement(tuple(outcomes), effects)


def mix(measurements, weights) -> Measurement:
    """Convex mixture of measurements sharing one outcome set."""
    ms = list(measurements)
    w = np.asarray(weights, dtype=float)
    if len(ms) == 0 or w.shape != (len(ms),):
        raise InputError("need one weight per measurement")
    if not (w.min() >= -1e-12 and abs(w.sum() - 1.0) <= 1e-12):  # NaN fails it
        raise InputError("weights must form a probability distribution")
    outcomes = ms[0].outcomes
    for m in ms[1:]:
        if m.outcomes != outcomes:
            raise InputError("mixture requires identical outcome sets")
        if m.effects.shape != ms[0].effects.shape:
            raise InputError("measurements live in different ambient spaces")
    effects = sum(wi * m.effects for wi, m in zip(w, ms))
    return Measurement(outcomes, effects)


def distinguishable(states, theory: Theory) -> bool:
    """Can a single measurement identify each of the given states perfectly?

    Zero-pattern test.  If effects e_1..e_k distinguish s_1..s_k, each e_i
    vanishes on every s_j with j != i.  Effects are nonnegative combinations
    of dual rays, and rays are nonnegative on states, so e_i uses only rays
    in Z_i, the rays that vanish on every other target.  Conversely, if
    u = sum_i e_i with each e_i in cone(Z_i), then e_i(s_i) = u(s_i) = 1.
    So the test is exactly "u in sum_i cone(Z_i)", the cone of the union of
    the Z_i: False with no LP when some Z_i is empty, otherwise one
    feasibility LP with d rows and one column per ray in the union.  Rays
    are max-normalized over the states, so "vanishes" is |r(s)| <= EPS.

    The argument needs every target to be a state (u(s) = 1 and every ray
    nonnegative on it, within EPS); any other target is an InputError.
    """
    rays = require_polytope(theory, "the distinguishability test").dual_rays
    union = _ray_union(_zero_pattern(np.asarray(states, dtype=float), rays, theory))
    return union is not None and _unit_in_cone(rays[union], theory.unit)


def _zero_pattern(S: np.ndarray, rays: np.ndarray, theory: Theory) -> np.ndarray:
    """zero[j, r] = |r(s_j)| <= EPS for target rows S (n, d), after the
    checks distinguishable's argument needs: InputError unless S holds at
    least two finite rows of ambient dimension, each a normalized state on
    which every finite ray is nonnegative."""
    if S.ndim != 2 or S.shape[1] != theory.ambient_dim:
        raise InputError("states must be rows of ambient dimension")
    if S.shape[0] < 2:
        raise InputError("need at least two states")
    # a NaN would fail every zero test below and drop out silently
    if not (np.isfinite(S).all() and np.isfinite(rays).all()):
        raise InputError("states and dual rays must be finite")
    vals = S @ rays.T  # (n, R): r(s_j)
    if np.max(np.abs(S @ theory.unit - 1.0)) > EPS or vals.min() < -EPS:
        raise InputError("every target must be a normalized state of the theory")
    return np.abs(vals) <= EPS


def _ray_union(zero: np.ndarray) -> np.ndarray | None:
    """The ray mask of Z_1 | ... | Z_n for targets with zero pattern `zero`
    (n, R), where Z_i holds the rays that vanish on every target other than
    s_i; None when some Z_i is empty."""
    in_Z = (zero.sum(axis=0)[None, :] - zero) == zero.shape[0] - 1
    if not in_Z.any(axis=1).all():
        return None
    return in_Z.any(axis=0)


def _unit_in_cone(rays: np.ndarray, unit: np.ndarray) -> bool:
    """Is the unit a nonnegative combination of the rows of rays?  One
    feasibility LP with one column per ray."""
    res = solve_lp(LpProblem(np.zeros(rays.shape[0]), rays.T, unit))
    return res.status == "optimal"


def operational_dimension(theory: Theory) -> int:
    """Largest number of jointly perfectly distinguishable extreme states."""
    return theory.backend.operational_dimension(theory)


def dual_rays_from_vertices(vertices: np.ndarray, unit: np.ndarray) -> np.ndarray:
    """Extreme rays of the dual cone of a polytope state space.

    Each facet of the state polytope yields the functional
    r(x) = offset * u(x) - normal . x, nonnegative on the polytope and zero
    exactly on the facet; rays are normalized to maximum value 1, the bits
    of each ray's own V @ r coming from one stacked product.
    """
    V = np.asarray(vertices, dtype=float)
    u = np.asarray(unit, dtype=float)
    if not (np.isfinite(V).all() and np.isfinite(u).all()):
        raise InputError("vertices and unit must be finite")
    if V.ndim != 2 or u.shape != V.shape[1:]:
        raise InputError("unit must have one entry per vertex coordinate")
    # written so that a NaN fails it
    if not np.abs(V @ u - 1.0).max(initial=0.0) <= EPS:
        raise InputError("unit must evaluate to 1 on every vertex")
    facets = enumerate_facets(V)
    R = np.array([f.offset for f in facets])[:, None] * u - np.array([f.normal for f in facets])
    tops = np.matmul(V[None], R[:, :, None])[:, :, 0].max(axis=1)  # one gemv per ray
    keep = tops > EPS  # the others vanish on the whole polytope
    return R[keep] / tops[keep, None]
