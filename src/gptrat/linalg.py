"""Dense simplex LP solver and polytope facet enumeration.

Everything downstream works with small, well-scaled problems (tens of
variables, coefficients of order one), so a two-phase tableau simplex that
checks the point it returns is both sufficient and easy to audit.  All
arrays are float64 numpy arrays.

Facets are found in two stages.  A screen tries every subset of k
vertices, k the affine dimension (C(N, k) subsets for N vertices), in
fixed-size batches generated lazily, with cofactor normals from about 2^k
array operations per batch, and proposes the distinct vertex sets that
supporting hyperplanes cut out.  An exact test, one batched SVD per round,
then finds for each proposed set the first of its own subsets that spans it
exactly.  Each facet so keeps the normal of the first subset in
combinations order to span it, as in a search of every subset by SVD, and
memory stays bounded by the batch and the number of proposed sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, islice
from math import comb

import numpy as np

from .errors import InputError, SolverError

# Global tolerance for feasibility and equality decisions.
EPS = 1e-9

_PIVOT_TOL = 1e-10
_MAX_PIVOTS = 50_000
# consecutive degenerate pivots after which a phase enters by Bland's rule
_DEGENERATE_RUN = 50
# how far below zero the ratio test lets a basic value drift
_DRIFT = 1e-10

# vertex subsets per enumerate_facets batch: hypercube(4)'s C(16, 4) = 1,820
# take one batch, whose arrays stay under half a MiB
_BATCH = 2048


@dataclass(frozen=True)
class LpProblem:
    """maximize objective . x  subject to  eq_matrix @ x = eq_rhs, x >= 0.

    Every variable is sign-constrained: the package's LPs are all cones in
    nonnegative coefficients.
    """

    objective: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    # not a field: perfbench/tracer.py reads it to count tableau cells; the
    # attribute goes when that read does
    nonneg = None

    def __post_init__(self) -> None:
        c = np.asarray(self.objective, dtype=float)
        A = np.asarray(self.eq_matrix, dtype=float)
        b = np.asarray(self.eq_rhs, dtype=float)
        if A.ndim != 2:
            raise InputError("eq_matrix must be two-dimensional")
        m, n = A.shape
        if c.shape != (n,):
            raise InputError(f"objective has length {c.shape}, expected ({n},)")
        if b.shape != (m,):
            raise InputError(f"eq_rhs has length {b.shape}, expected ({m},)")
        if not (np.isfinite(c).all() and np.isfinite(A).all() and np.isfinite(b).all()):
            raise InputError("LP data must be finite")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "eq_matrix", A)
        object.__setattr__(self, "eq_rhs", b)


def numerical_rank(svals: np.ndarray) -> int:
    """How many singular values exceed EPS times max(1, the largest)."""
    scale = max(1.0, float(svals[0]) if svals.size else 0.0)
    return int(np.count_nonzero(svals > EPS * scale))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two 2-D arrays (the same products) at a fraction of its
    call overhead, which dominates on the small LP blocks built here."""
    (m, n), (p, q) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)


@dataclass(frozen=True)
class LpResult:
    """Outcome of solve_lp.

    status is one of "optimal", "infeasible", "unbounded".  For an optimal
    result, value == objective . solution and duals holds one multiplier per
    equality row (zero for rows detected as redundant).  pivots counts the
    simplex pivots of both phases.  residual is |A x - b|_inf / max(1,
    |b|_inf) at the returned solution, nan unless the status is "optimal".
    """

    status: str
    value: float
    solution: np.ndarray | None
    duals: np.ndarray | None
    pivots: int
    residual: float


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= factors[:, None] * T[row]
    # kill round-off residue in the pivot column
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _set_objective_row(T: np.ndarray, basis: np.ndarray, cost: np.ndarray) -> None:
    m = T.shape[0] - 1
    c_basic = cost[basis]
    T[-1, :-1] = cost - c_basic @ T[:m, :-1]
    T[-1, -1] = -(c_basic @ T[:m, -1])


def _simplex(T: np.ndarray, basis: np.ndarray, n: int) -> tuple[str, int]:
    """Pivot T to the end of one phase; return the status and the pivot count.
    Only the first n columns may enter: artificials never re-enter."""
    if n == 0:
        return "optimal", 0
    m = T.shape[0] - 1
    reduced, rhs = T[-1, :n], T[:m, -1]
    degenerate = 0
    for pivots in range(_MAX_PIVOTS):
        # Dantzig: the largest reduced cost enters, the smallest index on a
        # tie; after a run of degenerate pivots, Bland: the smallest index.
        # argmax stops at a NaN (an overflowed tableau), which ends the phase
        if degenerate < _DEGENERATE_RUN:
            col = reduced.argmax()
        else:
            col = (reduced > EPS).argmax()
        if not reduced[col] > EPS:
            return "optimal", pivots
        column = T[:m, col]
        rows = (column > _PIVOT_TOL).nonzero()[0]
        if rows.size == 0:
            return "unbounded", pivots
        level, elements = rhs[rows], column[rows]
        # Harris: leaving at a ratio below the bound keeps the basic values
        # of these rows above -_DRIFT; of those rows the largest pivot
        # element leaves, then the smallest basis index
        ties = rows[level / elements <= ((level + _DRIFT) / elements).min()]
        if ties.size == 1:
            row = ties[0]
        elif ties.size:
            row = ties[np.lexsort((basis[ties], -column[ties]))[0]]
        else:  # a NaN ratio (an overflowed tableau) matches no row
            raise SolverError("simplex ratio test found no leaving row (NaN in the tableau)")
        # a leaving value that drifted below zero steps by zero, not backwards
        if rhs[row] < 0.0:
            rhs[row] = 0.0
        if degenerate < _DEGENERATE_RUN:
            degenerate = degenerate + 1 if rhs[row] <= _DRIFT else 0
        _pivot(T, basis, row, col)
    raise SolverError("simplex failed to terminate")


def _drive_out(T: np.ndarray, basis: np.ndarray, n: int) -> list[int]:
    """Pivot leftover artificials (basis index >= n) out of the basis
    after phase one, each on the entry of largest magnitude in its row, so
    an artificial left at level v moves the entering variable by at most
    v over that entry.  Return the rows whose artificial cannot be
    replaced (no entry above 1e-8): they are redundant."""
    drop = []
    for i in np.flatnonzero(basis >= n):
        entries = np.abs(T[i, :n])
        if entries.max(initial=0.0) > 1e-8:
            _pivot(T, basis, i, entries.argmax())
        else:
            drop.append(int(i))
    return drop


def solve_lp(problem: LpProblem) -> LpResult:
    """Solve max c . x subject to A x = b, x >= 0 by the two-phase tableau
    simplex method.

    The tableau holds the n structural columns, then one artificial column
    per row, then the right-hand side; only the structural columns may
    enter.  The eligible column with the largest reduced cost enters
    (Dantzig's rule).  After _DEGENERATE_RUN consecutive degenerate
    pivots, whose leaving value is within _DRIFT of zero, the smallest
    eligible index enters (Bland's rule) for the rest of that phase, which
    ends the degenerate cycles the largest reduced cost can fall into.  In
    Harris's ratio test, of the rows whose step keeps the other basic
    values above -_DRIFT, the largest pivot element leaves, then the
    smallest basic index, so a sound row beats round-off noise; only rows
    that tie on the ratio are sorted.  Bland's termination proof then no
    longer holds; the _MAX_PIVOTS cap ends the search with SolverError.
    Phase one calls the LP infeasible when its artificials sum to more than
    EPS times scale = max(1, |b|_inf); each artificial left in the basis
    then leaves on the largest entry of its row, and a row with no entry
    above 1e-8 is redundant and dropped.  The result is "optimal" only if
    |A x - b|_inf <= EPS scale and x >= -EPS; otherwise SolverError, and x
    is never returned.
    """
    c = problem.objective
    A = problem.eq_matrix
    b = problem.eq_rhs
    m, n = A.shape

    # orient rows so the right-hand side is nonnegative
    row_sign = np.where(b < 0, -1.0, 1.0)
    width = n + m + 1
    T = np.zeros((m + 1, width))
    T[:m, :n] = A * row_sign[:, None]
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = b * row_sign
    basis = np.arange(n, n + m)

    # phase one: maximize minus the sum of artificials
    cost1 = np.zeros(width - 1)
    cost1[n:] = -1.0
    _set_objective_row(T, basis, cost1)
    _, pivots = _simplex(T, basis, n)
    # phase one decides at the tolerance of the residual check below
    scale = max(1.0, np.abs(b).max(initial=0.0))
    if -T[-1, -1] < -EPS * scale:
        return LpResult("infeasible", float("nan"), None, None, pivots, float("nan"))

    drop = _drive_out(T, basis, n)
    if drop:
        T = np.delete(T, drop, axis=0)
        basis = np.delete(basis, drop)

    # phase two with the real objective
    cost2 = np.zeros(width - 1)
    cost2[:n] = c
    _set_objective_row(T, basis, cost2)
    status, phase_two = _simplex(T, basis, n)
    pivots += phase_two
    if status == "unbounded":
        return LpResult("unbounded", float("nan"), None, None, pivots, float("nan"))

    x = np.zeros(n)
    structural = basis < n
    x[basis[structural]] = T[:-1, -1][structural]

    # reduced cost under artificial column i is -y_i
    duals = -T[-1, n:-1] * row_sign
    duals[drop] = 0.0

    residual = np.abs(A @ x - b).max(initial=0.0) / scale
    lowest = x.min(initial=0.0)
    # written so that a NaN residual or entry fails it
    if not (residual <= EPS and lowest >= -EPS):
        raise SolverError(
            "simplex ended at an infeasible point (relative residual "
            f"{residual:.3g}, most negative sign-constrained entry {lowest:.3g})"
        )
    value = float(c @ x)
    return LpResult("optimal", value, x, duals, pivots, float(residual))


@dataclass(frozen=True)
class Facet:
    """A facet of a polytope: normal . v <= offset for every vertex, with
    equality exactly on incident_vertices."""

    normal: np.ndarray
    offset: float
    incident_vertices: tuple[int, ...]


def _sides(vals: np.ndarray, tol):
    """Classify the vertices against hyperplanes, one row of signed vertex
    values per hyperplane, a vertex within tol counting as on it.  Returns
    the incident vertices of each hyperplane, whether some vertex lies above
    it, and whether it is a proper supporting hyperplane: every vertex on
    one side and not every vertex on it.  Overwrites vals with |vals|."""
    above = (vals > tol).any(axis=1)
    # a hyperplane with no vertex off it on either side has every vertex on it
    proper = above != (vals < -tol).any(axis=1)
    return np.abs(vals, out=vals) <= tol, above, proper


def _hyperplanes(L: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """w . x = beta through each vertex subset idx (b, k): w is the cofactor
    vector of D = P[1:] - P[0], P = L[idx[i]] (entry j is (-1)^j times the
    minor of D without column j), and beta = w . P[0].  The maximal minors
    of D's first i rows come from those of its first i - 1 by Laplace
    expansion along row i: about 2^k array operations, no LAPACK call."""
    b, k = idx.shape
    first = L[idx[:, 0]]
    minors = {(j,): c for j, c in enumerate((L[idx[:, 1]] - first).T)} if k > 1 else {(): np.ones(b)}
    for i in range(2, k):
        row, prev, minors = L[idx[:, i]] - first, minors, {}
        for S in combinations(range(k), i):
            minors[S] = row[:, S[0]] * prev[S[1:]]
            for t in range(1, i):  # term t ends with the sign (-1)^(i - 1 - t)
                minors[S] = row[:, S[t]] * prev[S[:t] + S[t + 1 :]] - minors[S]
    # the (k - 1)-subsets, in combinations order, leave out k - 1, ..., 0
    W = np.array([-m if j % 2 else m for j, m in enumerate(reversed(minors.values()))]).T
    return W, np.einsum("ij,ij->i", first, W)


def _screen(L: np.ndarray, k: int) -> np.ndarray:
    """Propose facets: the distinct incidence sets that the proper supporting
    hyperplanes through k-subsets of the vertices cut out, one boolean row
    per set.

    A subset's hyperplane comes from _hyperplanes, a cofactor normal from
    exterior products, where a batched determinant makes one LAPACK call per
    subset.  The normal is not normalized; the tolerance is scaled by its
    length instead.  A dependent subset's cofactor vector is near zero and
    points anywhere, so the set it proposes may be no facet's.
    """
    N = L.shape[0]
    seen: dict[bytes, None] = {}
    subsets = combinations(range(N), k)
    for _ in range(0, comb(N, k), _BATCH):
        batch = chain.from_iterable(islice(subsets, _BATCH))
        W, beta = _hyperplanes(L, np.fromiter(batch, dtype=np.intp).reshape(-1, k))
        vals = W @ L.T
        vals -= beta[:, None]
        on, _, proper = _sides(vals, EPS * np.sqrt(np.einsum("ij,ij->i", W, W))[:, None])
        seen.update(dict.fromkeys(on[proper].view(f"V{N}").ravel().tolist()))
    return np.frombuffer(b"".join(seen), dtype=bool).reshape(-1, N)


def _exact(L: np.ndarray, idx: np.ndarray):
    """Test the vertex subsets idx (b, k) exactly.  A batched SVD decides
    affine independence and gives each difference matrix's null vector w;
    beta = w . (first vertex).  Returns w and beta, negated where that puts
    every vertex below the hyperplane, the incident vertices, and whether
    the subset is independent and spans a proper supporting hyperplane.

    The vertex values and beta come from stacked matmuls, which take one
    gemv or dot product per subset: the same bits, and so the same
    decisions, as testing each subset on its own."""
    P = L[idx]
    if idx.shape[1] == 1:
        W = np.ones((idx.shape[0], 1))
        independent = True
    else:
        _, s, vt = np.linalg.svd(P[:, 1:] - P[:, :1])
        W = vt[:, -1]
        independent = s[:, -1] > EPS * np.maximum(1.0, s[:, 0])
    beta = (P[:, :1] @ W[:, :, None])[:, 0, 0]
    on, above, proper = _sides((L @ W[:, :, None])[:, :, 0] - beta[:, None], EPS)
    np.negative(W, out=W, where=above[:, None])
    np.negative(beta, out=beta, where=above)
    return W, beta, on, proper & independent


def enumerate_facets(vertices: np.ndarray) -> list[Facet]:
    """Enumerate the facets of conv(vertices): screen every vertex subset
    cheaply, then test the proposed facets exactly.

    Works inside the affine hull of the input, so lower-dimensional polytopes
    embedded in a larger ambient space are handled.  A subset of k vertices,
    k the affine dimension, spans a facet's hyperplane when it is affinely
    independent, every vertex lies on one side of the hyperplane and not
    every vertex lies on it.  A facet is the set of vertices on it, which
    copes with non-simplicial facets.

    The screen (_screen) takes all C(N, k) subsets lazily from
    itertools.combinations, _BATCH at a time, gives each a cofactor normal
    (_hyperplanes), and proposes the distinct vertex sets on them.
    The exact test (_exact, a batched SVD) then walks each proposed set's
    own k-subsets in combinations order, one round for all open sets at a
    time; round one takes each set's first k vertices.  A set's walk stops
    at the first subset that is independent and spans a proper supporting
    hyperplane with exactly that set on it.  No earlier subset in the whole
    search spans it, so the facet gets the normal, offset and incidence
    that a search of every subset by SVD gives it, bit for bit.  A set no
    subset reproduces is dropped, and a set that a walked subset spans but
    the screen missed joins the walk.  Memory is bounded by the batch and
    the number of proposed sets, whatever C(N, k) is, but the screen's time
    still grows with C(N, k), so the search suits tens of vertices.  Facets
    are returned sorted by incident set.

    Where a facet's vertices are coplanar only to within about EPS, the
    search of every subset can also return near-duplicates of it: the
    slightly different vertex sets that its other subsets span.  This one
    returns those its screen proposes.
    """
    V = np.asarray(vertices, dtype=float)
    if V.ndim != 2 or V.shape[0] < 2:
        raise InputError("need at least two vertices in a 2-D array")
    if not np.isfinite(V).all():
        raise InputError("vertices must be finite")

    centroid = V.sum(axis=0) / V.shape[0]  # V.mean(axis=0), bit for bit
    M = V - centroid
    _, svals, Vt = np.linalg.svd(M, full_matrices=False)
    k = numerical_rank(svals)
    if k == 0:
        raise InputError("degenerate vertex set: all points coincide")
    B = Vt[:k].T  # ambient basis of the direction space, shape (d, k)
    L = M @ B  # local coordinates, shape (N, k)

    sets = cand = _screen(L, k)
    idx = (~sets).argsort(axis=1, kind="stable")[:, :k]  # round one
    walks: list = []
    seen = None
    facets: list[Facet] = []
    while True:
        W, beta, on, ok = _exact(L, idx)
        hit = ok & (on == cand).all(axis=1)
        # stacked matmuls again: each facet gets the bits of B @ w and
        # normal . centroid on their own, which a 2-D product does not
        # always reproduce
        normals = (B @ W[hit, :, None])[:, :, 0]
        offsets = beta[hit] + (normals[:, None, :] @ centroid)[:, 0]
        incident = [tuple(row.nonzero()[0].tolist()) for row in cand[hit]]
        facets += map(Facet, normals, offsets.tolist(), incident)
        if hit.all():
            break
        if seen is None:
            seen = set(sets.view(f"V{L.shape[0]}").ravel().tolist())
        # the next round: each open set's next subset, and the first subset
        # of each set spanned here that the screen did not propose
        rows, subsets, nxt = [], [], []
        for i in (~hit).nonzero()[0].tolist():
            walk = walks[i] if walks else islice(combinations(cand[i].nonzero()[0].tolist(), k), 1, None)
            more = [(cand[i], walk)]
            if ok[i] and (key := on[i].tobytes()) not in seen:
                seen.add(key)
                more.append((on[i], combinations(on[i].nonzero()[0].tolist(), k)))
            for row, walk in more:
                if (subset := next(walk, None)) is not None:
                    rows.append(row)
                    subsets.append(subset)
                    nxt.append(walk)
        if not rows:
            break
        cand, idx, walks = np.array(rows), np.array(subsets, dtype=np.intp), nxt
    facets.sort(key=lambda f: f.incident_vertices)
    return facets
