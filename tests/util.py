"""Shared random-object generators for the test suite.

All generators take an explicit numpy Generator so every test is seeded and
reproducible.
"""

from __future__ import annotations

import numpy as np

from gptrat import (
    Measurement,
    Polytope,
    Theory,
    dichotomic_measurement,
    dual_rays_from_vertices,
    mix,
    post_process,
    trivial_measurement,
)


def random_stochastic(rng: np.random.Generator, n_in: int, n_out: int) -> np.ndarray:
    return rng.dirichlet(np.ones(n_out), size=n_in)


def uniform_ray_measurement(theory: Theory) -> Measurement:
    """Measurement proportional to the full set of dual rays.

    Valid on theories whose rays sum to a multiple of the unit (all stock
    polytopes); serves as a maximally informative common parent.
    """
    rays = theory.backend.dual_rays
    total = rays.sum(axis=0)
    s0 = theory.vertices.mean(axis=0)
    scale = 1.0 / float(total @ s0)
    return Measurement(tuple(range(rays.shape[0])), scale * rays)


def ray_pairs(theory: Theory) -> list[tuple[Measurement, Measurement]]:
    """(r_i, u - r_i) with (r_j, u - r_j) for every pair i < j of dual rays."""
    rays = theory.backend.dual_rays
    R = rays.shape[0]
    return [
        (dichotomic_measurement(theory, rays[i]), dichotomic_measurement(theory, rays[j]))
        for i in range(R)
        for j in range(i + 1, R)
    ]


def random_post_processing(parent: Measurement, rng: np.random.Generator, n_out: int) -> Measurement:
    nu = random_stochastic(rng, parent.num_outcomes, n_out)
    return post_process(parent, nu)


def random_compatible_pair(theory: Theory, rng: np.random.Generator, outs=(2, 2)):
    """Two post-processings of one parent, compatible by construction."""
    parent = uniform_ray_measurement(theory)
    return (
        random_post_processing(parent, rng, outs[0]),
        random_post_processing(parent, rng, outs[1]),
    )


def random_extreme_dichotomic(theory: Theory, rng: np.random.Generator) -> Measurement:
    """(r, u - r) for a random dual ray r; valid on all stock polytopes."""
    rays = theory.backend.dual_rays
    k = int(rng.integers(rays.shape[0]))
    return dichotomic_measurement(theory, rays[k])


def random_noisy_dichotomic(theory: Theory, rng: np.random.Generator, lam=None) -> Measurement:
    if lam is None:
        lam = float(rng.uniform(0.5, 1.0))
    sharp = random_extreme_dichotomic(theory, rng)
    noise = trivial_measurement(theory, rng.dirichlet(np.ones(2)), ("+", "-"))
    return mix([sharp, noise], [lam, 1.0 - lam])


def random_measurement(theory: Theory, rng: np.random.Generator, n_out: int) -> Measurement:
    """Generic valid measurement: post-processing of the ray parent mixed
    with a trivial measurement."""
    base = random_post_processing(uniform_ray_measurement(theory), rng, n_out)
    noise = trivial_measurement(theory, rng.dirichlet(np.ones(n_out)), tuple(range(n_out)))
    lam = float(rng.uniform(0.0, 1.0))
    return mix([base, noise], [lam, 1.0 - lam])


def rotated(theory: Theory, rng: np.random.Generator) -> Theory:
    """The polytope theory under a random orthogonal map M with M u = u.

    States and rays both go through M, so every pairing r . s is unchanged
    while exact zeros turn into round-off noise.
    """
    u = theory.unit
    d = u.size
    basis = np.linalg.qr(np.column_stack([u, rng.standard_normal((d, d - 1))]))[0]
    turn = np.eye(d)
    turn[1:, 1:] = np.linalg.qr(rng.standard_normal((d - 1, d - 1)))[0]
    M = basis @ turn @ basis.T
    b = theory.backend
    return Theory(theory.name, d, u.copy(), Polytope(b.extreme_states @ M.T, b.dual_rays @ M.T))


def unit_fixing_map(rng: np.random.Generator, d: int, condition: float, scale: float) -> np.ndarray:
    """A = D [[B, c], [0, 1]] for a unit u = (0, ..., 0, 1).

    B is (d-1) x (d-1) with singular values log-spaced from 1 down to
    1 / condition between random orthogonal factors, c is a standard normal
    shift, and D = diag(scale, 1 / scale, scale, ..., 1), so the last row
    of A stays (0, ..., 0, 1) and u A = u.
    """
    k = d - 1
    left = np.linalg.qr(rng.standard_normal((k, k)))[0]
    right = np.linalg.qr(rng.standard_normal((k, k)))[0]
    A = np.eye(d)
    A[:k, :k] = left @ np.diag(np.logspace(0.0, -np.log10(condition), k)) @ right
    A[:k, k] = rng.standard_normal(k)
    D = np.append(scale ** np.where(np.arange(k) % 2 == 0, 1.0, -1.0), 1.0)
    return D[:, None] * A


def mapped(theory: Theory, A: np.ndarray) -> Theory:
    """The polytope theory with states mapped by A and rays by A^-1 (as rows),
    so every pairing r . s is unchanged; A must fix the unit (u A = u)."""
    b = theory.backend
    rays = np.linalg.solve(A.T, b.dual_rays.T).T
    return Theory(theory.name, theory.ambient_dim, theory.unit.copy(), Polytope(b.extreme_states @ A.T, rays))


def random_polytope(rng: np.random.Generator, dim: int, n: int) -> Theory:
    """An irregular polytope theory: the convex hull of n random points.

    dim 2 draws sorted random angles with radii in [0.5, 1.5]; dim 3 draws
    standard normal points.  The hull vertices, in input order, become the
    states (x, 1) with the unit (0, ..., 0, 1), and the rays come from
    dual_rays_from_vertices.
    """
    from scipy.spatial import ConvexHull

    if dim == 2:
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        points = rng.uniform(0.5, 1.5, n)[:, None] * np.column_stack([np.cos(angles), np.sin(angles)])
    elif dim == 3:
        points = rng.standard_normal((n, 3))
    else:
        raise ValueError("random polytopes are drawn in dimension 2 or 3")
    hull = points[np.sort(ConvexHull(points).vertices)]
    V = np.column_stack([hull, np.ones(len(hull))])
    unit = np.eye(dim + 1)[-1]
    return Theory(f"random{dim}d-{len(hull)}", dim + 1, unit, Polytope(V, dual_rays_from_vertices(V, unit)))


def irregular(seed: int) -> Theory:
    """A seeded random_polytope: dimension 2 on even seeds and 3 on odd ones,
    from 5 to 16 drawn points."""
    rng = np.random.default_rng(seed)
    return random_polytope(rng, 2 + seed % 2, int(rng.integers(5, 17)))
