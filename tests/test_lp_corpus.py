"""Every LP of a captured corpus gets the verdict scipy's HiGHS gives it.

tests/fixtures/lp_corpus.npz holds 293 LPs, each "maximize c . x subject
to A x = b, x >= 0", as solve_lp sees them.  272 come from one pass of each
benchmark workload and 21 from the fixture files of the solver defects
fixed earlier.  The arrays are concatenated: `shape` holds each LP's
(rows, columns), and `objective`, `eq_matrix` (raveled by row) and `eq_rhs`
follow in the same order.  `source` names the workload or defect, and
`kind` the LP (compatible, degree, storability, distinguishable,
full-distinguishable).

Capture recipe.  With src/, perfbench/ and tests/ on sys.path, replace
`solve_lp` in gptrat.core, gptrat.jointness, gptrat.storability and
tests/test_core.py by a wrapper that records each LpProblem, its in-house
status and phase one's artificial sum.  Then:

- run `wl.run(q)` for every query of `wl.make_pass(101, 0, work_dir)` of
  perfbench's pair_audit, dimension_scan, rat_tables and file_queries
  workloads (1,841 LPs);
- defect A: `test_core._distinguishable_full_lp` on polygon15-seed102-pass3
  for each of `test_core.SEED102_SUBSETS` (11 LPs);
- defects B and C: `incompatibility_degree` of the hypercube2-seed202 sharp
  pair on the theory with and without rays;
- defect D, and beside it seeds 108 and 201: `incompatibility_degree` of
  the polygon40-seed{111,108,201} sharp pair on the theory with rays.

Drop repeated LPs (same c, A and b), keeping the first.  Per workload, in
the order above, and per kind, in the order degree, compatible,
distinguishable, storability, draw with one `np.random.default_rng(22)`
(`rng.choice(len(group), k, replace=False)`, sorted, in capture order): up
to 64 degree and 16 storability LPs; and for compatible and
distinguishable, up to 24 feasible LPs by the same draw, and then the
infeasible LPs whose phase-one artificial sum lies nearest the cutoff
EPS * max(1, |b|_inf), to 48 in all.  (No captured LP came within 1e-6 of
the cutoff; the nearest was 0.023 above it.)  Append all 21 defect LPs.
Save with np.savez_compressed.

The `compatible` LPs come from the pure compatibility LP (joint cone
coefficients reproducing every marginal, no noise columns) that
check_compatible solved before the joint LP, with its noise columns,
answered compatibility and the degree alike.  They stay as solver
coverage; the corpus is not regenerated, so the recipe above describes
the code it was captured from.
"""

from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from gptrat import LpProblem, linalg, solve_lp

CORPUS = Path(__file__).parent / "fixtures" / "lp_corpus.npz"


def _corpus() -> list[tuple[str, LpProblem]]:
    with np.load(CORPUS) as data:
        shapes = data["shape"]
        rows, cols = shapes[:, 0], shapes[:, 1]
        ends = [np.cumsum(sizes)[:-1] for sizes in (cols, rows * cols, rows)]
        objectives, matrices, rhs = (
            np.split(data[key], cut) for key, cut in zip(("objective", "eq_matrix", "eq_rhs"), ends)
        )
        labels = [f"{s}/{k}" for s, k in zip(data["source"], data["kind"])]
    problems = [LpProblem(c, A.reshape(m, n), b) for c, A, b, (m, n) in zip(objectives, matrices, rhs, shapes)]
    return list(zip(labels, problems))


def _relative_residual(problem: LpProblem, x: np.ndarray) -> float:
    scale = max(1.0, np.abs(problem.eq_rhs).max(initial=0.0))
    equality = np.abs(problem.eq_matrix @ x - problem.eq_rhs).max(initial=0.0) / scale
    return max(equality, -x.min(initial=0.0))


@pytest.fixture(scope="module")
def corpus():
    """Each LP with HiGHS's status, value and point."""
    out = []
    for label, problem in _corpus():
        ref = linprog(-problem.objective, A_eq=problem.eq_matrix, b_eq=problem.eq_rhs, method="highs")
        out.append((label, problem, ref))
    return out


def _verdict_errors(corpus) -> tuple[list[str], int]:
    """The LPs whose in-house verdict HiGHS contradicts, and the pivot total."""
    errors, pivots = [], 0
    for label, problem, ref in corpus:
        res = solve_lp(problem)
        pivots += res.pivots
        if res.status == "optimal":
            residual = _relative_residual(problem, res.solution)
            if residual > 1e-9 or ref.status != 0 or abs(res.value + ref.fun) > 1e-7:
                errors.append(f"{label}: optimal {res.value} at residual {residual:.3g}, HiGHS {ref.status} {-ref.fun}")
        elif res.status == "infeasible":
            # wrong only when HiGHS shows a point that passes our own check
            if ref.status == 0 and _relative_residual(problem, ref.x) <= 1e-9:
                errors.append(f"{label}: infeasible, HiGHS optimal {-ref.fun}")
        else:
            errors.append(f"{label}: {res.status}, HiGHS {ref.status}")
    return errors, pivots


def test_corpus_is_what_the_recipe_describes(corpus):
    assert len(corpus) == 293
    sources = {label.split("/")[0] for label, _, _ in corpus}
    assert {"pair_audit", "dimension_scan", "rat_tables", "file_queries"} <= sources
    assert {"defect-A", "defect-B", "defect-C", "defect-D"} <= sources
    assert max(problem.eq_matrix.shape[1] for _, problem, _ in corpus) == 164


def test_corpus_verdicts_match_highs(corpus):
    errors, _ = _verdict_errors(corpus)
    assert not errors, errors


def test_optimal_results_carry_their_residual(corpus):
    optimal = 0
    for label, problem, _ in corpus:
        res = solve_lp(problem)
        if res.status != "optimal":
            assert np.isnan(res.residual), label
            continue
        optimal += 1
        scale = max(1.0, np.abs(problem.eq_rhs).max(initial=0.0))
        assert res.residual == np.abs(problem.eq_matrix @ res.solution - problem.eq_rhs).max(initial=0.0) / scale
        assert res.residual <= linalg.EPS, label
    assert optimal > 0


def test_smallest_index_fallback_gives_the_same_verdicts_in_more_pivots(corpus, monkeypatch):
    # both counts are deterministic; the largest reduced cost should need
    # fewer pivots than Bland's rule on these LPs
    _, dantzig = _verdict_errors(corpus)
    monkeypatch.setattr(linalg, "_DEGENERATE_RUN", 0)
    errors, bland = _verdict_errors(corpus)
    assert not errors, errors
    assert dantzig < bland
