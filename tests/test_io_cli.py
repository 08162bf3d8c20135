import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptrat import (
    InputError,
    Measurement,
    ParseError,
    ValidationError,
    dichotomic_measurement,
    incompatibility_degree,
    measurement_from_file,
    theory_from_file,
    trivial_measurement,
    write_measurement,
    write_theory,
)
from gptrat import cli
from gptrat.cli import main
from gptrat.errors import SolverError
from gptrat.zoo import hypercube, polygon, polygon_ray, simplex

# ------------------------------------------------------------------- files


@pytest.mark.parametrize("theory", [polygon(5), polygon(6), hypercube(3)])
def test_theory_round_trip_is_bit_exact(theory, tmp_path):
    path = tmp_path / "theory.json"
    write_theory(theory, path)
    loaded = theory_from_file(path)
    assert loaded.name == theory.name
    np.testing.assert_array_equal(loaded.vertices, theory.vertices)
    np.testing.assert_array_equal(loaded.unit, theory.unit)
    np.testing.assert_array_equal(loaded.backend.dual_rays, theory.backend.dual_rays)


def test_missing_rays_recovered_from_facets(tmp_path):
    t = polygon(4)
    path = tmp_path / "square.json"
    payload = {
        "name": "square",
        "ambient_dim": 3,
        "vertices": [[float(x) for x in row] for row in t.vertices],
        "unit": [0.0, 0.0, 1.0],
    }
    path.write_text(json.dumps(payload))
    loaded = theory_from_file(path)
    stored = t.backend.dual_rays
    used = set()
    for ray in loaded.backend.dual_rays:
        dists = np.max(np.abs(stored - ray), axis=1)
        j = int(np.argmin(dists))
        assert dists[j] < 1e-9 and j not in used
        used.add(j)


def test_provided_rays_are_renormalized(tmp_path):
    t = polygon(4)
    path = tmp_path / "scaled.json"
    payload = {
        "name": "scaled",
        "ambient_dim": 3,
        "vertices": [[float(x) for x in row] for row in t.vertices],
        "unit": [0.0, 0.0, 1.0],
        "dual_rays": [[3.0 * float(x) for x in row] for row in t.backend.dual_rays],
    }
    path.write_text(json.dumps(payload))
    loaded = theory_from_file(path)
    np.testing.assert_allclose(loaded.backend.dual_rays, t.backend.dual_rays, atol=1e-12)


def test_measurement_round_trip(tmp_path):
    t = polygon(4)
    m = dichotomic_measurement(t, polygon_ray(t, 1))
    path = tmp_path / "m.json"
    write_measurement(m, path)
    loaded = measurement_from_file(path, t)
    assert loaded.outcomes == ("+", "-")
    np.testing.assert_array_equal(loaded.effects, m.effects)


@pytest.mark.parametrize(
    "text",
    [
        "not json {",
        "[1, 2, 3]",
        '{"ambient_dim": 3, "vertices": [[0, 0, 1]], "unit": [0, 0, 1]}',
        '{"name": "x", "ambient_dim": 3, "vertices": [[0, 0, "abc"]], "unit": [0, 0, 1]}',
        '{"name": "x", "ambient_dim": 3, "vertices": [[0, 1], [0, 0, 1]], "unit": [0, 0, 1]}',
        '{"name": "x", "ambient_dim": 2, "vertices": [[0, 0, 1]], "unit": [0, 1]}',
    ],
)
def test_malformed_theory_files(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ParseError):
        theory_from_file(path)


def test_semantically_invalid_theory_file(tmp_path):
    path = tmp_path / "bad.json"
    payload = {
        "name": "unnormalized",
        "ambient_dim": 3,
        "vertices": [[1.0, 0.0, 2.0], [-1.0, 0.0, 1.0], [0.0, 1.0, 1.0]],
        "unit": [0.0, 0.0, 1.0],
    }
    path.write_text(json.dumps(payload))
    with pytest.raises(ValidationError):
        theory_from_file(path)


@pytest.mark.parametrize("with_rays", [False, True])
def test_theory_whose_vertices_do_not_span_is_rejected(with_rays, tmp_path):
    # a square in the first two coordinates of a 4-D space: the third
    # coordinate is zero on every state, so no state can tell the effects
    # (0, 0, 0.3, 0.5) and (0, 0, 0, 0.5) apart
    t = polygon(4)
    square = np.insert(t.vertices, 2, 0.0, axis=1)
    payload = {
        "name": "embedded-square",
        "ambient_dim": 4,
        "vertices": square.tolist(),
        "unit": [0.0, 0.0, 0.0, 1.0],
    }
    if with_rays:
        payload["dual_rays"] = np.insert(t.backend.dual_rays, 2, 0.0, axis=1).tolist()
    theory_path = tmp_path / "embedded.json"
    theory_path.write_text(json.dumps(payload))
    with pytest.raises(ValidationError, match="span"):
        theory_from_file(theory_path)

    m_path = tmp_path / "m.json"
    m_path.write_text(json.dumps({"outcomes": ["+", "-"], "effects": [[0, 0, 0.3, 0.5], [0, 0, -0.3, 0.5]]}))
    argv = ["compat", "--theory", str(theory_path), "--measurement", str(m_path), "--measurement", str(m_path)]
    assert main(argv) == 3


def test_stock_theories_and_fixtures_load(tmp_path):
    stock = [polygon(n) for n in (3, 4, 5, 8, 13)] + [hypercube(d) for d in (2, 3, 4)]
    stock += [simplex(d) for d in (2, 3, 6)]
    for t in stock:
        path = tmp_path / "theory.json"
        write_theory(t, path)
        assert theory_from_file(path).backend.dual_rays.shape == t.backend.dual_rays.shape
        payload = json.loads(path.read_text())
        del payload["dual_rays"]
        path.write_text(json.dumps(payload))
        assert theory_from_file(path).backend.dual_rays.shape == t.backend.dual_rays.shape
    for path in sorted(FIXTURES.glob("*.json")):
        if "vertices" in json.loads(path.read_text()):
            theory_from_file(path)


def test_invalid_measurement_file(tmp_path):
    t = polygon(4)
    path = tmp_path / "m.json"
    payload = {"outcomes": ["a", "b"], "effects": [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]}
    path.write_text(json.dumps(payload))
    with pytest.raises(ValidationError):
        measurement_from_file(path, t)  # sums to 2u


def test_write_theory_rejects_ball_backends(tmp_path):
    from gptrat.zoo import rebit

    with pytest.raises(InputError):
        write_theory(rebit(), tmp_path / "disc.json")


# --------------------------------------------------------------------- CLI


def _square_files(tmp_path):
    t = polygon(4)
    theory_path = tmp_path / "square.json"
    write_theory(t, theory_path)
    m1_path = tmp_path / "m1.json"
    m2_path = tmp_path / "m2.json"
    write_measurement(dichotomic_measurement(t, polygon_ray(t, 1)), m1_path)
    write_measurement(dichotomic_measurement(t, polygon_ray(t, 2)), m2_path)
    return t, str(theory_path), str(m1_path), str(m2_path)


def test_cli_polygon_scalars(capsys):
    assert main(["polygon", "5", "lmax"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "2.236067977"
    assert out[1] == "class: 4m+1"

    assert main(["polygon", "6", "rat-max"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "0.875000000"

    assert main(["polygon", "5", "comp-max"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "0.779508497"


def test_cli_verify_table(capsys):
    assert main(["polygon", "8", "verify-table"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("n=8 class=4m-even")
    assert out[-1].startswith("summary:")
    assert all(" MISMATCH" not in line for line in out)


def test_cli_verify_table_prints_the_readme_example(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    start = readme.index("$ gptrat polygon 9 verify-table") + 1
    expected = readme[start : readme.index("", start)]
    assert len(expected) == 4
    assert main(["polygon", "9", "verify-table"]) == 0
    assert capsys.readouterr().out.splitlines() == expected


def test_cli_rat_json(tmp_path, capsys):
    _, theory_path, m1_path, m2_path = _square_files(tmp_path)
    code = main(
        ["rat", "--theory", theory_path, "--measurement", m1_path, "--measurement", m2_path]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["theory"] == "polygon-4"
    assert payload["k"] == 2
    np.testing.assert_allclose(payload["p_bar"], 1.0, atol=1e-9)
    assert len(payload["per_tuple"]) == 4
    np.testing.assert_allclose(payload["bounds"]["classical"], 0.75, atol=1e-12)
    np.testing.assert_allclose(payload["bounds"]["compatible_pair"], 0.75, atol=1e-12)
    cert = payload["certificate"]
    assert cert["verdict"] == "certified_incompatible"
    np.testing.assert_allclose(cert["lhs"], 2.0, atol=1e-9)
    np.testing.assert_allclose(cert["threshold"], 1.5, atol=1e-9)


def test_cli_compat(tmp_path, capsys):
    t, theory_path, m1_path, m2_path = _square_files(tmp_path)
    code = main(
        ["compat", "--theory", theory_path, "--measurement", m1_path, "--measurement", m2_path]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {"compatible": False}

    trivial_path = tmp_path / "trivial.json"
    write_measurement(trivial_measurement(t, [0.5, 0.5], ("+", "-")), trivial_path)
    code = main(
        [
            "compat",
            "--theory",
            theory_path,
            "--measurement",
            m1_path,
            "--measurement",
            str(trivial_path),
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["compatible"] is True
    assert max(payload["marginal_residuals"]) <= 1e-9


def test_cli_degree(tmp_path, capsys):
    _, theory_path, m1_path, m2_path = _square_files(tmp_path)
    code = main(
        ["degree", "--theory", theory_path, "--measurement", m1_path, "--measurement", m2_path]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"degree", "optimal_trivials"}
    assert 0.5 - 1e-6 <= payload["degree"] <= 0.5
    assert [sum(p) for p in payload["optimal_trivials"]] == pytest.approx([1.0, 1.0], abs=1e-9)

    code = main(["degree", "--theory", theory_path, "--measurement", m1_path])
    assert code == 1


FIXTURES = Path(__file__).parent / "fixtures"

# HiGHS's degree of the sharp pair on polygon(40), the least-noise value; a
# rotation of the theory leaves it unchanged.
POLYGON40_SHARP_DEGREE = 0.92704034273173


@pytest.mark.parametrize("seed", [108, 201, 111])
def test_degree_accuracy_on_rotated_polygon40(seed, capsys):
    # rotated polygon(40) and a sharp pair, as the file_queries benchmark
    # workload writes them (seed 108 pass 0, seed 201 pass 3, seed 111
    # pass 14).  Recipe for seed 111: with perfbench/ on the path, run
    # workloads.FileQueries().make_pass(111, 14, work_dir) and copy
    # pass-14/polygon40-{rays,sharp-m1,sharp-m2}.json to
    # tests/fixtures/polygon40-seed111-*.json.  With its rays the seed-111
    # theory made a simplex without the Harris ratio test cycle.
    theory_path = str(FIXTURES / f"polygon40-seed{seed}-rays.json")
    m_paths = [str(FIXTURES / f"polygon40-seed{seed}-sharp-m{i}.json") for i in (1, 2)]
    t = theory_from_file(theory_path)
    m1, m2 = (measurement_from_file(p, t) for p in m_paths)
    lo, hi = POLYGON40_SHARP_DEGREE - 2e-6, POLYGON40_SHARP_DEGREE + 1e-9
    assert lo <= incompatibility_degree(m1, m2, t).degree <= hi

    argv = ["degree", "--theory", theory_path] + [a for p in m_paths for a in ("--measurement", p)]
    assert main(argv) == 0
    assert lo <= json.loads(capsys.readouterr().out)["degree"] <= hi


def _seed202_degree(rays: str) -> float:
    t = theory_from_file(FIXTURES / f"hypercube2-seed202-{rays}.json")
    m1, m2 = (measurement_from_file(FIXTURES / f"hypercube2-seed202-sharp-m{i}.json", t) for i in (1, 2))
    return incompatibility_degree(m1, m2, t).degree


# The seed-202 files are a rotated hypercube(2) (the square) and a sharp pair
# on it whose true degree is 0.5.  Recipe: with perfbench/ on the path, run
# workloads.FileQueries().make_pass(202, 6, work_dir) and copy
# pass-6/hypercube2-{norays,rays,sharp-m1,sharp-m2}.json to
# tests/fixtures/hypercube2-seed202-*.json.  A simplex without the Harris
# ratio test called LPs optimal at infeasible points on the theory without
# rays (degree 0.50006103515625) and a feasible LP infeasible on the one
# with them.
SEED202_DEGREE_RANGE = (0.5 - 2e-6, 0.5 + 1e-9)


def test_degree_on_seed202_square_without_rays():
    lo, hi = SEED202_DEGREE_RANGE
    assert lo <= _seed202_degree("norays") <= hi


def test_degree_on_seed202_square_with_rays():
    lo, hi = SEED202_DEGREE_RANGE
    assert lo <= _seed202_degree("rays") <= hi


# A rotated hypercube(4) without dual_rays and a sharp pair on two of its
# axes, whose true degree is 0.5.  Recipe: t = util.rotated(hypercube(4),
# np.random.default_rng(26)); write_theory(t, ...) and delete the file's
# "dual_rays" key; write_measurement(dichotomic_measurement(t, r), ...) for
# r = t.backend.dual_rays[0] and [2].  Loading it searches 1,820 vertex
# subsets for the 8 facets.
def test_rays_less_hypercube4_file(capsys):
    theory_path = str(FIXTURES / "hypercube4-norays.json")
    m_paths = [str(FIXTURES / f"hypercube4-sharp-m{i}.json") for i in (1, 2)]
    assert theory_from_file(theory_path).backend.dual_rays.shape == (8, 5)
    argv = ["degree", "--theory", theory_path] + [a for p in m_paths for a in ("--measurement", p)]
    assert main(argv) == 0
    assert abs(json.loads(capsys.readouterr().out)["degree"] - 0.5) <= 1e-9


# The square with its fourth dual ray dropped and a pair on it.  Recipe:
# t = polygon(4); write_theory(dataclasses.replace(t, backend=
# dataclasses.replace(t.backend, dual_rays=t.backend.dual_rays[:3])), ...);
# write_measurement(dichotomic_measurement(t, t.backend.dual_rays[1]), ...)
# as m1 and trivial_measurement(t, [0.5, 0.5]) as m2.  The pair is
# compatible, but m1's u - r is the dropped ray, so the joint LP has no
# feasible point: a solver error, not a "compatible": false verdict.
@pytest.mark.parametrize("cmd", ["compat", "degree"])
def test_incomplete_rays_file_exits_with_a_solver_error(cmd, capsys):
    base = FIXTURES / "polygon4-3rays"
    argv = [cmd, "--theory", f"{base}.json", "--measurement", f"{base}-m1.json", "--measurement", f"{base}-m2.json"]
    assert main(argv) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("solver error: joint LP ended with status infeasible")


def test_cli_sweep(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    assert main(["sweep", "--min", "4", "--max", "8", "--out", str(out_path)]) == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "n,parity_class,closed_form,brute_force,compatible_max,lmax"
    assert lines[3] == "6,4m+2-odd,0.875000000,0.875000000,0.750000000,2.000000000"
    assert len(lines) == 6

    assert main(["sweep", "--min", "3", "--max", "8", "--out", str(out_path)]) == 1


def test_cli_error_exit_codes(tmp_path, capsys):
    assert main(["polygon", "3", "rat-max"]) == 1  # closed form starts at n = 4
    assert main(["polygon", "2", "lmax"]) == 1
    assert main(["no-such-command"]) == 1

    missing = str(tmp_path / "missing.json")
    assert main(["rat", "--theory", missing, "--measurement", missing]) == 4

    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text("{ not json")
    assert (
        main(["rat", "--theory", str(corrupt), "--measurement", str(corrupt)]) == 2
    )

    _, theory_path, m1_path, _ = _square_files(tmp_path)
    invalid = tmp_path / "invalid.json"
    invalid.write_text(
        json.dumps({"outcomes": ["a", "b"], "effects": [[0, 0, 1], [0, 0, 1]]})
    )
    assert (
        main(["rat", "--theory", theory_path, "--measurement", str(invalid)]) == 3
    )


def test_file_subcommands_give_one_verdict_on_one_file(tmp_path, capsys):
    t, theory_path, _, m2_path = _square_files(tmp_path)
    m = dichotomic_measurement(t, polygon_ray(t, 1))
    effects = m.effects.copy()
    effects[0, 2] += 3e-7  # the effects sum to 3e-7 off the unit
    off_path = str(tmp_path / "off.json")
    write_measurement(Measurement(m.outcomes, effects), off_path)
    for cmd in ("rat", "compat", "degree"):
        argv = [cmd, "--theory", theory_path, "--measurement", off_path, "--measurement", m2_path]
        assert main(argv) == 3
        assert main(["--tolerance", "1e-6"] + argv) == 1  # no option loosens the gate


@pytest.mark.parametrize(
    "field, index, bad",
    [
        ("dual_rays", (0, 0), "nan"),
        ("unit", (2,), "nan"),
        ("vertices", (1, 0), "nan"),
        ("vertices", (0, 1), "-inf"),
        ("vertices", (2, 2), float("nan")),  # written as the JSON literal NaN
        ("unit", (0,), float("inf")),  # written as the JSON literal Infinity
        ("vertices", (3, 0), 10**400),  # an integer too large for a float
    ],
    ids=["ray-nan", "unit-nan", "vertex-nan", "vertex-minus-inf", "vertex-NaN", "unit-Infinity", "vertex-huge"],
)
def test_non_finite_theory_numbers_are_parse_errors(field, index, bad, tmp_path):
    _, theory_path, m1_path, m2_path = _square_files(tmp_path)
    payload = json.loads(open(theory_path).read())
    target = payload[field]
    for i in index[:-1]:
        target = target[i]
    target[index[-1]] = bad
    with open(theory_path, "w") as fh:
        json.dump(payload, fh)
    with pytest.raises(ParseError):
        theory_from_file(theory_path)
    argv = ["compat", "--theory", theory_path, "--measurement", m1_path, "--measurement", m2_path]
    assert main(argv) == 2


# a bad number's message names its file, field and index, as the loaders
# have always written it
@pytest.mark.parametrize(
    "field, value, where",
    [
        ("vertices", [[1, 0, 1], [0, "abc", 1]], "vertices[1][1]: 'abc' is not a finite number"),
        ("vertices", [[1, 0, True], [0, 1, 1]], "vertices[0][2]: expected a number or numeric string"),
        ("unit", [0, 0, "inf"], "unit[2]: 'inf' is not a finite number"),
        ("dual_rays", [[0, 0, 1], [0, None, 1]], "dual_rays[1][1]: expected a number or numeric string"),
        ("effects", [[0, 0, 1], [0, "nan", 0]], "effects[1][1]: 'nan' is not a finite number"),
    ],
)
def test_parse_error_messages_name_the_bad_number(tmp_path, field, value, where):
    theory = {"name": "x", "ambient_dim": 3, "vertices": [[1, 0, 1], [0, 1, 1], [-1, 0, 1]], "unit": [0, 0, 1]}
    measurement = {"outcomes": ["a", "b"], "effects": [[0, 0, 1], [0, 0, 0]]}
    (measurement if field == "effects" else theory)[field] = value
    theory_path, m_path = tmp_path / "t.json", tmp_path / "m.json"
    theory_path.write_text(json.dumps(theory))
    m_path.write_text(json.dumps(measurement))
    with pytest.raises(ParseError) as info:
        measurement_from_file(m_path, theory_from_file(theory_path))
    assert str(info.value) == f"{m_path if field == 'effects' else theory_path}: {where}"


def test_non_finite_effect_is_a_parse_error(tmp_path):
    _, theory_path, m1_path, _ = _square_files(tmp_path)
    bad = tmp_path / "nan.json"
    bad.write_text('{"outcomes": ["a", "b"], "effects": [[0, 0, NaN], [0, 0, 1]]}')
    argv = ["compat", "--theory", theory_path, "--measurement", m1_path, "--measurement", str(bad)]
    assert main(argv) == 2


_DELETE = object()
_SQUARE_RAYS = polygon(4).backend.dual_rays.tolist()

# (file, field, new value, exit code): one malformed field per case, each a
# different loader branch; _DELETE drops the field
LOADER_CASES = [
    ("theory", "name", "", 2),
    ("theory", "ambient_dim", True, 2),
    ("theory", "vertices", [], 2),
    ("theory", "vertices", [[]], 2),
    ("theory", "vertices", [[0, 0, None]], 2),
    ("theory", "unit", [], 2),
    ("theory", "unit", [0, 1], 2),
    ("theory", "dual_rays", [[0.5, 0.5]], 2),
    ("theory", "dual_rays", [[-x for x in _SQUARE_RAYS[0]]] + _SQUARE_RAYS[1:], 3),
    ("theory", "dual_rays", [[0, 0, 0]] + _SQUARE_RAYS, 3),
    ("measurement", "effects", _DELETE, 2),
    ("measurement", "outcomes", [], 2),
    ("measurement", "outcomes", ["+", 1.5], 2),
    ("measurement", "outcomes", ["+", "+"], 2),
    ("measurement", "outcomes", ["+", "-", "0"], 2),
    ("measurement", "effects", [[0, 0.5], [0, 0.5]], 3),
]


@pytest.mark.parametrize("which, field, value, code", LOADER_CASES)
def test_malformed_file_exit_codes(which, field, value, code, tmp_path):
    _, theory_path, m1_path, m2_path = _square_files(tmp_path)
    path = theory_path if which == "theory" else m1_path
    payload = json.loads(Path(path).read_text())
    if value is _DELETE:
        del payload[field]
    else:
        payload[field] = value
    Path(path).write_text(json.dumps(payload))
    argv = ["compat", "--theory", theory_path, "--measurement", m1_path, "--measurement", m2_path]
    assert main(argv) == code


def test_duplicate_outcome_labels_are_rejected():
    t = polygon(4)
    with pytest.raises(InputError, match="distinct"):
        Measurement(("a", "a"), np.vstack([0.5 * t.unit, 0.5 * t.unit]))


@pytest.mark.parametrize("which", ["theory", "measurement"])
@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{}", b"[" * 200_000 + b"]" * 200_000],
    ids=["not-utf8", "nested-200000-deep"],
)
def test_undecodable_files_are_parse_errors(which, content, tmp_path):
    _, theory_path, m1_path, m2_path = _square_files(tmp_path)
    Path(theory_path if which == "theory" else m1_path).write_bytes(content)
    argv = ["rat", "--theory", theory_path, "--measurement", m1_path, "--measurement", m2_path]
    assert main(argv) == 2


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def _file_bytes(draw, valid: dict) -> bytes:
    """Arbitrary bytes, arbitrary JSON, or the valid payload with one field
    replaced by arbitrary JSON."""
    kind = draw(st.sampled_from(["bytes", "json", "field"]))
    if kind == "bytes":
        return draw(st.binary(max_size=64))
    if kind == "json":
        return json.dumps(draw(_JSON)).encode()
    payload = dict(valid)
    payload[draw(st.sampled_from(sorted(payload)))] = draw(_JSON)
    return json.dumps(payload).encode()


@pytest.fixture(scope="module")
def fuzz(tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz")
    _, theory_path, m1_path, m2_path = _square_files(work)
    return {
        "dir": work,
        "files": (theory_path, m1_path, m2_path),
        "theory": json.loads(Path(theory_path).read_text()),
        "measurement": json.loads(Path(m1_path).read_text()),
    }


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cli_fuzzed_files_exit_with_a_documented_code(data, fuzz):
    # whatever either file holds, main returns 0-5 and raises nothing
    theory_path, m1_path, m2_path = fuzz["files"]
    which = data.draw(st.sampled_from(["theory", "measurement"]))
    content = data.draw(_file_bytes(fuzz[which]))
    bad = fuzz["dir"] / f"fuzzed-{which}.json"
    bad.write_bytes(content)
    if which == "theory":
        theory_path = str(bad)
    else:
        m1_path = str(bad)
    cmd = data.draw(st.sampled_from(["rat", "compat", "degree"]))
    argv = [cmd, "--theory", theory_path, "--measurement", m1_path, "--measurement", m2_path]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in range(6)


def test_cli_solver_error_exit_code(tmp_path, capsys, monkeypatch):
    _, theory_path, m1_path, m2_path = _square_files(tmp_path)

    def failing(*args, **kwargs):
        raise SolverError("pivot limit reached")

    monkeypatch.setattr(cli, "incompatibility_degree", failing)
    argv = ["degree", "--theory", theory_path, "--measurement", m1_path, "--measurement", m2_path]
    assert main(argv) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("solver error: pivot limit reached")


@pytest.mark.parametrize(
    "code, prefix",
    [(1, "usage error: "), (2, "parse error: "), (3, "validation error: "), (4, "i/o error: "), (5, "solver error: ")],
)
def test_cli_errors_print_only_their_prefixed_line(code, prefix, tmp_path, capsys, monkeypatch):
    _, theory_path, m1_path, m2_path = _square_files(tmp_path)
    corrupt, invalid = tmp_path / "corrupt.json", tmp_path / "invalid.json"
    corrupt.write_text("{ not json")
    invalid.write_text(json.dumps({"outcomes": ["a", "b"], "effects": [[0, 0, 1], [0, 0, 1]]}))
    first = {2: str(corrupt), 3: str(invalid), 4: str(tmp_path / "missing.json")}.get(code, m1_path)

    def failing(*args, **kwargs):
        raise SolverError("pivot limit reached")

    monkeypatch.setattr(cli, "incompatibility_degree", failing)
    command = "no-such-command" if code == 1 else "degree"
    argv = [command, "--theory", theory_path, "--measurement", first, "--measurement", m2_path]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(prefix)


def test_degree_counts_its_measurements_before_reading_them(tmp_path, capsys):
    _, theory_path, m1_path, m2_path = _square_files(tmp_path)
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text("{ not json")
    one = ["degree", "--theory", theory_path, "--measurement", m1_path]
    # a third measurement that does not parse still gets the usage error
    for argv in (one, one + ["--measurement", m2_path, "--measurement", str(corrupt)]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: expected exactly 2 --measurement arguments\n"


def test_cli_process_level_invocation():
    proc = subprocess.run(
        [sys.executable, "-c", "from gptrat.cli import main; raise SystemExit(main())"],
        input="",
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1  # no subcommand is a usage error

    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "from gptrat.cli import main; raise SystemExit(main(['polygon', '4', 'rat-max']))",
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "1.000000000"


def test_repeated_main_calls_keep_no_state(tmp_path, capsys):
    # one parser serves every call in the process; no call may see another's
    # arguments, and each prints what a fresh process prints
    _, theory_path, m1_path, m2_path = _square_files(tmp_path)
    assert cli._build_parser() is cli._build_parser()
    two = ["rat", "--theory", theory_path, "--measurement", m1_path, "--measurement", m2_path]
    three = two + ["--measurement", m2_path]

    assert main(["rat", "--theory", theory_path, "--measurement", m1_path, "--bogus"]) == 1
    assert capsys.readouterr().out == ""
    outputs = []
    for argv in (two, three, two):
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert [json.loads(out)["k"] for out in outputs] == [2, 3, 2]
    assert outputs[2] == outputs[0]

    for argv, out in zip((two, three), outputs):
        proc = subprocess.run(
            [sys.executable, "-m", "gptrat.cli", *argv], capture_output=True, timeout=60
        )
        assert proc.returncode == 0
        assert proc.stdout == out.encode()
