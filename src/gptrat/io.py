"""JSON serialization of theories and measurements.

Coordinates are written as decimal strings with 17 significant digits, which
round-trips float64 exactly.  A theory file stores the vertex list, the unit
functional, and optionally the dual rays; when the rays are absent they are
recovered by facet enumeration.  Each loader parses and validates in one
pass, and still tells the two failures apart: a malformed file raises
ParseError before any semantic check can raise ValidationError.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .core import (
    Measurement,
    Polytope,
    Theory,
    dual_rays_from_vertices,
    is_valid_measurement,
    require_polytope,
    validate_theory,
)
from .errors import InputError, ParseError, ValidationError
from .linalg import EPS


def _num_to_str(x: float) -> str:
    return format(float(x), ".17g")


def _matrix_to_str(rows: np.ndarray) -> list[list[str]]:
    return [[_num_to_str(x) for x in row] for row in rows]


def _parse_number(value) -> float:
    """value as a finite float.  The ParseError raised otherwise says what
    is wrong but not where; _parse_numbers adds the location."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ParseError("expected a number or numeric string")
    try:
        x = float(value)
    except (ValueError, OverflowError):
        x = math.nan
    if not math.isfinite(x):
        raise ParseError(f"{value!r} is not a finite number")
    return x


def _parse_numbers(values: list, where: str, *index: int) -> list[float]:
    """Each entry as a finite float.  A bad entry's location, where followed
    by [i] for each index and then its own [j], is formatted only when the
    entry fails, not for every number read."""
    numbers: list[float] = []
    try:
        for x in values:
            numbers.append(_parse_number(x))
    except ParseError as exc:
        at = "".join(f"[{i}]" for i in (*index, len(numbers)))
        raise ParseError(f"{where}{at}: {exc}") from None
    return numbers


def _parse_matrix(value, where: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ParseError(f"{where}: expected a non-empty list of rows")
    width = None
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or not row:
            raise ParseError(f"{where}[{i}]: expected a non-empty coordinate list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(f"{where}[{i}]: expected {width} coordinates, got {len(row)}")
        rows.append(_parse_numbers(row, where, i))
    return np.array(rows, dtype=float)


def _parse_vector(value, where: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ParseError(f"{where}: expected a non-empty list of numbers")
    return np.array(_parse_numbers(value, where))


def _write_json(payload: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise ParseError(f"{path}: JSON nested too deeply") from None
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    return data


def theory_from_file(path) -> Theory:
    """Load, complete (rays via facet enumeration if needed), and validate."""
    data = _load_json(path)
    for key in ("name", "ambient_dim", "vertices", "unit"):
        if key not in data:
            raise ParseError(f"{path}: missing required field {key!r}")
    name = data["name"]
    if not isinstance(name, str) or not name:
        raise ParseError(f"{path}: 'name' must be a non-empty string")
    dim = data["ambient_dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ParseError(f"{path}: 'ambient_dim' must be a positive integer")
    vertices = _parse_matrix(data["vertices"], f"{path}: vertices")
    unit = _parse_vector(data["unit"], f"{path}: unit")
    if vertices.shape[1] != dim:
        raise ParseError(f"{path}: vertices have {vertices.shape[1]} coordinates, expected {dim}")
    if unit.shape != (dim,):
        raise ParseError(f"{path}: unit has {unit.shape[0]} coordinates, expected {dim}")
    rays = None
    if data.get("dual_rays") is not None:
        rays = _parse_matrix(data["dual_rays"], f"{path}: dual_rays")
        if rays.shape[1] != dim:
            raise ParseError(f"{path}: dual_rays have {rays.shape[1]} coordinates, expected {dim}")

    try:
        if rays is None:
            rays = dual_rays_from_vertices(vertices, unit)
        else:
            tops = (vertices @ rays.T).max(axis=0)
            if tops.min() <= EPS:
                raise InputError("a dual ray vanishes on the whole state space")
            # rescale only rays that are visibly unnormalized, so writing and
            # re-reading a normalized theory preserves the exact bits
            scale = np.where(np.abs(tops - 1.0) <= 1e-12, 1.0, tops)
            rays = rays / scale[:, None]
        theory = Theory(name, dim, unit, Polytope(vertices, rays))
        validate_theory(theory)
    except InputError as exc:
        raise ValidationError(str(exc)) from None
    return theory


def write_theory(theory: Theory, path) -> None:
    backend = require_polytope(theory, "serialization")
    payload = {
        "name": theory.name,
        "ambient_dim": theory.ambient_dim,
        "vertices": _matrix_to_str(backend.extreme_states),
        "unit": [_num_to_str(x) for x in theory.unit],
        "dual_rays": _matrix_to_str(backend.dual_rays),
    }
    _write_json(payload, path)


def measurement_from_file(path, theory: Theory) -> Measurement:
    """Load a measurement and validate it against the theory."""
    data = _load_json(path)
    for key in ("outcomes", "effects"):
        if key not in data:
            raise ParseError(f"{path}: missing required field {key!r}")
    outcomes = data["outcomes"]
    if not isinstance(outcomes, list) or not outcomes:
        raise ParseError(f"{path}: 'outcomes' must be a non-empty list")
    for i, label in enumerate(outcomes):
        if not isinstance(label, (str, int)) or isinstance(label, bool):
            raise ParseError(f"{path}: outcomes[{i}] must be a string or integer")
    if len(set(outcomes)) != len(outcomes):
        raise ParseError(f"{path}: outcome labels must be distinct")
    effects = _parse_matrix(data["effects"], f"{path}: effects")
    if effects.shape[0] != len(outcomes):
        raise ParseError(
            f"{path}: {len(outcomes)} outcomes but {effects.shape[0]} effect rows"
        )

    if effects.shape[1] != theory.ambient_dim:
        raise ValidationError(
            f"{path}: effects have {effects.shape[1]} coordinates, "
            f"theory needs {theory.ambient_dim}"
        )
    m = Measurement(tuple(outcomes), effects)
    if not is_valid_measurement(m, theory):
        raise ValidationError(f"{path}: effects are not a valid measurement on {theory.name}")
    return m


def write_measurement(m: Measurement, path) -> None:
    _write_json({"outcomes": list(m.outcomes), "effects": _matrix_to_str(m.effects)}, path)
