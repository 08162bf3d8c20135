"""Seeded inputs for the benchmark workloads.

Every stock polytope is put through a random orthogonal map that fixes the
unit functional; vertices, dual rays and extreme effects are mapped together,
so every pairing f(s) = f . s is unchanged.  Storability, operational
dimension, polygon maxima and compatibility are therefore the stock answers,
while every query sees its own numbers.  Measurements are built here from the
rays, never from the package's test helpers.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from gptrat import core, zoo


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Independent generator for one (seed, stream...) pair."""
    return np.random.default_rng([seed % 2**63, *stream])


def haar_orthogonal(k: int, rng: np.random.Generator) -> np.ndarray:
    Z = rng.standard_normal((k, k))
    Q, R = np.linalg.qr(Z)
    return Q * np.sign(np.diag(R))


def unit_fixing_map(u: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Random orthogonal M with M u = u: a rotation of the non-unit directions."""
    d = u.size
    B = np.linalg.qr(np.column_stack([u, rng.standard_normal((d, d - 1))]))[0]
    D = np.eye(d)
    D[1:, 1:] = haar_orthogonal(d - 1, rng)
    return B @ D @ B.T


def rotated(theory: core.Theory, rng: np.random.Generator) -> core.Theory:
    b = theory.backend
    M = unit_fixing_map(theory.unit, rng)
    effects = None if b.extreme_effects is None else b.extreme_effects @ M.T
    backend = core.Polytope(b.extreme_states @ M.T, b.dual_rays @ M.T, effects)
    return core.Theory(theory.name, theory.ambient_dim, theory.unit.copy(), backend)


def stock(family: str, size: int) -> core.Theory:
    return {"polygon": zoo.polygon, "hypercube": zoo.hypercube, "simplex": zoo.simplex}[family](size)


# ------------------------------------------------------------ measurements


def _labels(n: int) -> tuple:
    return ("+", "-") if n == 2 else tuple(range(n))


def ray_parent(theory: core.Theory) -> np.ndarray:
    """All dual rays scaled to one measurement (the rays of every stock
    polytope sum to a multiple of the unit)."""
    rays = theory.backend.dual_rays
    centroid = theory.backend.extreme_states.mean(axis=0)
    return rays / float(rays.sum(axis=0) @ centroid)


def post_processed(parent: np.ndarray, n_out: int, rng) -> core.Measurement:
    nu = rng.dirichlet(np.ones(n_out), size=parent.shape[0])
    return core.Measurement(_labels(n_out), nu.T @ parent)


def noisy(effects: np.ndarray, unit: np.ndarray, lam: float, rng) -> core.Measurement:
    """lam * effects + (1 - lam) * p u for a random distribution p."""
    p = rng.dirichlet(np.ones(effects.shape[0]))
    return core.Measurement(_labels(effects.shape[0]), lam * effects + (1.0 - lam) * np.outer(p, unit))


def sharp_effects(theory: core.Theory, ray: int) -> np.ndarray:
    r = theory.backend.dual_rays[ray]
    return np.vstack([r, theory.unit - r])


def three_outcome_effects(theory: core.Theory, ray: int, rng) -> np.ndarray:
    """(r, w (u - r), (1 - w)(u - r)): a sharp dichotomic with its second effect split."""
    r = theory.backend.dual_rays[ray]
    w = rng.uniform(0.2, 0.8)
    return np.vstack([r, w * (theory.unit - r), (1.0 - w) * (theory.unit - r)])


def ball_measurement(dim: int, n_out: int, rng) -> core.Measurement:
    """Noisy, post-processed sharp measurement on the disc (dim 3) or the
    Bloch ball (dim 4); the unit is the last coordinate in both."""
    direction = rng.standard_normal(dim - 1)
    direction /= np.linalg.norm(direction)
    sharp = 0.5 * np.vstack([np.append(direction, 1.0), np.append(-direction, 1.0)])
    unit = np.zeros(dim)
    unit[-1] = 1.0
    base = post_processed(sharp, n_out, rng)
    return noisy(base.effects, unit, rng.uniform(0.3, 1.0), rng)


def polytope_measurement(theory: core.Theory, n_out: int, rng) -> core.Measurement:
    base = post_processed(ray_parent(theory), n_out, rng)
    return noisy(base.effects, theory.unit, rng.uniform(0.0, 1.0), rng)


def pair(theory: core.Theory, kind: str, rng) -> tuple[core.Measurement, core.Measurement]:
    """One measurement pair of the given kind on a (rotated) stock polytope.

    compatible: two post-processings of the ray parent, compatible by
    construction.  sharp: (r_i, u - r_i) and (r_j, u - r_j) for the next ray
    j that is not the complement of i, so the verdict is fixed by the theory
    (incompatible on polygons and hypercubes, compatible on simplices).
    noisy: sharp ones mixed with trivial noise.  mixed23: a noisy dichotomic
    and a noisy three-outcome measurement.
    """
    R = theory.backend.dual_rays.shape[0]
    i = int(rng.integers(R))
    j = (i + (2 if theory.name.startswith("hypercube") else 1)) % R  # hypercube rays come in +- pairs
    u = theory.unit
    if kind == "compatible":
        parent = ray_parent(theory)
        return post_processed(parent, 2, rng), post_processed(parent, 2, rng)
    if kind == "sharp":
        return (core.Measurement(_labels(2), sharp_effects(theory, i)),
                core.Measurement(_labels(2), sharp_effects(theory, j)))
    if kind == "noisy":
        return (noisy(sharp_effects(theory, i), u, rng.uniform(0.5, 1.0), rng),
                noisy(sharp_effects(theory, j), u, rng.uniform(0.5, 1.0), rng))
    if kind == "mixed23":
        return (noisy(sharp_effects(theory, i), u, rng.uniform(0.5, 1.0), rng),
                noisy(three_outcome_effects(theory, j, rng), u, rng.uniform(0.5, 1.0), rng))
    raise ValueError(f"unknown pair kind {kind!r}")


# ------------------------------------------------------------------- files


def _num(x) -> str:
    return format(float(x), ".17g")


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_theory_file(path: Path, theory: core.Theory, with_rays: bool) -> None:
    payload = {
        "name": theory.name,
        "ambient_dim": theory.ambient_dim,
        "vertices": [[_num(x) for x in row] for row in theory.backend.extreme_states],
        "unit": [_num(x) for x in theory.unit],
    }
    if with_rays:
        payload["dual_rays"] = [[_num(x) for x in row] for row in theory.backend.dual_rays]
    write_json(path, payload)


def write_measurement_file(path: Path, m: core.Measurement) -> None:
    write_json(path, {"outcomes": list(m.outcomes), "effects": [[_num(x) for x in row] for row in m.effects]})
