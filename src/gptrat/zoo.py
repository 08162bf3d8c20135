"""Stock theories: regular polygons, classical simplices, hypercubes, rebit, qubit.

Polygon conventions (n >= 3, r = sqrt(sec(pi/n))):

* extreme states   s_j = (r cos(2 j pi / n), r sin(2 j pi / n), 1), j = 1..n
* unit             u = (0, 0, 1); the maximally mixed state is s0 = (0, 0, 1)
* even n           extreme effects e_k = (r cos((2k-1) pi / n),
                   r sin((2k-1) pi / n), 1) / 2, k = 1..n; these are exactly
                   the extreme rays of the dual cone, and e_k + e_{k+n/2} = u
* odd n            dual rays g_k = (r cos(2 k pi / n), r sin(2 k pi / n), 1)
                   / (1 + r^2); the complements f_k = u - g_k are extreme
                   effects but decomposable, so the stored extreme effect
                   list is (g_1..g_n, f_1..f_n) while dual_rays holds only g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .core import Ball, Polytope, Theory, require_polytope
from .errors import InputError


@dataclass(frozen=True)
class PolygonSpec:
    """Geometry of the regular n-gon state space."""

    n: int
    radius: float

    @classmethod
    def of(cls, n: int) -> "PolygonSpec":
        if n < 3:
            raise InputError("polygon needs at least 3 vertices")
        return cls(n=n, radius=math.sqrt(1.0 / math.cos(math.pi / n)))


def polygon(n: int) -> Theory:
    """Regular polygon theory with n extreme states."""
    spec = PolygonSpec.of(n)
    r = spec.radius
    u = np.array([0.0, 0.0, 1.0])
    j = np.arange(1, n + 1)
    ang = 2.0 * np.pi * j / n
    states = np.column_stack([r * np.cos(ang), r * np.sin(ang), np.ones(n)])
    if n % 2 == 0:
        kang = (2 * j - 1) * np.pi / n
        e = 0.5 * np.column_stack([r * np.cos(kang), r * np.sin(kang), np.ones(n)])
        backend = Polytope(states, dual_rays=e, extreme_effects=e)
    else:
        g = np.column_stack([r * np.cos(ang), r * np.sin(ang), np.ones(n)]) / (1.0 + r * r)
        backend = Polytope(states, dual_rays=g, extreme_effects=np.vstack([g, u - g]))
    return Theory(f"polygon-{n}", 3, u, backend)


def polygon_order(theory: Theory) -> int:
    return require_polytope(theory, "a polygon order").extreme_states.shape[0]


def polygon_state(theory: Theory, j: int) -> np.ndarray:
    """Extreme state s_j, 1-based; labels above n wrap around."""
    n = polygon_order(theory)
    if j < 1:
        raise InputError(f"state label {j} out of range")
    return theory.backend.extreme_states[(j - 1) % n]


def polygon_ray(theory: Theory, k: int) -> np.ndarray:
    """Dual ray number k, 1-based with wrap-around: e_k (even n) or g_k (odd n)."""
    n = polygon_order(theory)
    if k < 1:
        raise InputError(f"effect label {k} out of range")
    return theory.backend.dual_rays[(k - 1) % n]


def polygon_effect_label(theory: Theory, index: int) -> str:
    """Human-readable name of extreme_effects[index]: e_k, g_k, or f_k."""
    n = polygon_order(theory)
    if n % 2 == 0:
        return f"e_{index + 1}"
    return f"g_{index + 1}" if index < n else f"f_{index - n + 1}"


def simplex(d: int) -> Theory:
    """Classical theory with d perfectly distinguishable extreme states."""
    if d < 2:
        raise InputError("simplex needs at least 2 states")
    eye = np.eye(d)
    backend = Polytope(eye, dual_rays=eye)
    return Theory(f"simplex-{d}", d, np.ones(d), backend)


def hypercube(k: int) -> Theory:
    """Hypercube state space {-1, 1}^k embedded at unit height."""
    if not 2 <= k <= 4:
        raise InputError("hypercube supported for 2 <= k <= 4")
    corners = np.array(list(product((-1.0, 1.0), repeat=k)))
    states = np.hstack([corners, np.ones((corners.shape[0], 1))])
    rays = []
    for i in range(k):
        for sign in (1.0, -1.0):
            r = np.zeros(k + 1)
            r[i] = 0.5 * sign
            r[k] = 0.5
            rays.append(r)  # r(v) = (1 + sign * v_i) / 2
    u = np.zeros(k + 1)
    u[k] = 1.0
    return Theory(f"hypercube-{k}", k + 1, u, Polytope(states, np.array(rays)))


def rebit() -> Theory:
    """Real qubit: disc state space with pure states (cos t, sin t, 1)."""
    return Theory("rebit", 3, np.array([0.0, 0.0, 1.0]), Ball(2))


def rebit_state(theta: float) -> np.ndarray:
    return np.array([math.cos(theta), math.sin(theta), 1.0])


def rebit_effect(theta: float) -> np.ndarray:
    """Extreme nontrivial effect e_t = (cos t, sin t, 1) / 2."""
    return 0.5 * np.array([math.cos(theta), math.sin(theta), 1.0])


def qubit2() -> Theory:
    """Qubit in Pauli coordinates: states (x, y, z, 1) with |(x,y,z)| <= 1."""
    return Theory("qubit2", 4, np.array([0.0, 0.0, 0.0, 1.0]), Ball(3))


def qubit2_state(bloch) -> np.ndarray:
    v = np.asarray(bloch, dtype=float)
    if v.shape != (3,) or np.linalg.norm(v) > 1.0 + 1e-12:
        raise InputError("Bloch vector must lie in the unit ball")
    return np.append(v, 1.0)


def qubit2_effect(bloch, weight: float) -> np.ndarray:
    """Effect with coordinates (weight * bloch, weight) for 0 <= weight <= 1."""
    v = np.asarray(bloch, dtype=float)
    if v.shape != (3,):
        raise InputError("Bloch vector must have 3 components")
    return np.append(weight * v, weight)
