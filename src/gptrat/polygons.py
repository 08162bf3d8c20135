"""Closed-form polygon results for the pair random access test, with checks.

For two dichotomic measurements built from extreme effects on the regular
n-gon, the optimal average success probability has a closed form that splits
into six parity classes (r = sqrt(sec(pi/n)), R = sqrt(sec(pi/2n))):

    n = 4m,   m odd     (1/2) (1 + r^2 / sqrt(2))
    n = 4m,   m even    (1/2) (1 + 1 / sqrt(2))
    n = 4m+2, m odd     (1/4) (2 + r^2 cos(m pi / n) + sin(m pi / n))
    n = 4m+2, m even    (1/4) (2 + cos(m pi / n) + r^2 sin(m pi / n))
    n = 4m+1            (1/4) (2 + cos(m pi / n) + R^2 sin(m pi / n))
    n = 4m+3            (1/4) (2 + cos((m+1) pi / n) + R^2 sin((m+1) pi / n))

An independent brute force maximizes over all pairs of stored extreme
effects and all vertex encodings; an explicit table of optimal effect and
state labels per class is replayed by verify_table.  Compatible pairs can
reach 3/4 on even polygons and (1/2)(1 + (1 + r^2)/4) on odd ones, where
the odd-polygon value is achieved by two relabelings of one three-outcome
parent measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .core import (
    Ball,
    Measurement,
    Theory,
    dichotomic_measurement,
    post_process,
    require_polytope,
)
from .errors import InputError
from .rat import rat_success_given_states
from .storability import information_storability
from .zoo import polygon, polygon_effect_label, polygon_order, polygon_ray, polygon_state

# Angles scanned by the disc brute force before golden-section refinement.
DISC_GRID = 10_000

# The outcome tuples of a dichotomic pair, in the order in which the brute
# force reports its states and the table lists its candidate states.
_PAIR_TUPLES = (("+", "+"), ("-", "+"), ("-", "-"), ("+", "-"))


def parity_class(n: int) -> str:
    """One of 4m-odd, 4m-even, 4m+2-odd, 4m+2-even, 4m+1, 4m+3."""
    if n < 4:
        raise InputError("parity classes start at n = 4")
    if n % 4 == 0:
        return "4m-odd" if (n // 4) % 2 == 1 else "4m-even"
    if n % 2 == 0:
        return "4m+2-odd" if (n // 4) % 2 == 1 else "4m+2-even"
    return "4m+1" if n % 4 == 1 else "4m+3"


def polygon_rat_closed_form(n: int) -> float:
    """Optimal pair-RAT success on the n-gon with dichotomic measurements."""
    if n < 4:
        raise InputError("closed forms start at n = 4")
    m = n // 4
    sec_n = 1.0 / math.cos(math.pi / n)
    if n % 4 == 0:
        if m % 2 == 1:
            return 0.5 * (1.0 + sec_n / math.sqrt(2.0))
        return 0.5 * (1.0 + 1.0 / math.sqrt(2.0))
    if n % 4 == 2:
        ang = m * math.pi / n
        if m % 2 == 1:
            return 0.25 * (2.0 + sec_n * math.cos(ang) + math.sin(ang))
        return 0.25 * (2.0 + math.cos(ang) + sec_n * math.sin(ang))
    sec_2n = 1.0 / math.cos(math.pi / (2 * n))
    ang = (m if n % 4 == 1 else m + 1) * math.pi / n
    return 0.25 * (2.0 + math.cos(ang) + sec_2n * math.sin(ang))


def polygon_rat_upper_bound(n: int) -> float:
    """Algebraic bound the closed form never exceeds."""
    if n < 4:
        raise InputError("bounds start at n = 4")
    if n % 2 == 0:
        return 0.5 * (1.0 + 1.0 / (math.sqrt(2.0) * math.cos(math.pi / n)))
    return 0.5 * (1.0 + math.sqrt(2.0) / (1.0 + math.cos(math.pi / n)))


def polygon_compatible_max(n: int) -> float:
    """Best pair-RAT success reachable with compatible dichotomic pairs."""
    if n < 4:
        raise InputError("compatible maxima start at n = 4")
    if n % 2 == 0:
        return 0.75
    return 0.5 * (1.0 + (1.0 + 1.0 / math.cos(math.pi / n)) / 4.0)


def odd_polygon_compatible_pair(theory: Theory):
    """Compatible dichotomic pair beating 3/4 on an odd polygon.

    Returns (parent, m1, m2): a three-outcome parent C with effects
    (g_1, (r^2/2) g_{(n+1)/2}, (r^2/2) g_{(n+3)/2}) and the two dichotomic
    relabelings m1 = (C_1, C_2 + C_3), m2 = (C_1 + C_2, C_3).
    """
    n = polygon_order(theory)
    if n % 2 == 0 or n < 5:
        raise InputError("construction needs an odd polygon with n >= 5")
    r2 = 1.0 / math.cos(math.pi / n)
    effects = np.vstack(
        [
            polygon_ray(theory, 1),
            0.5 * r2 * polygon_ray(theory, (n + 1) // 2),
            0.5 * r2 * polygon_ray(theory, (n + 3) // 2),
        ]
    )
    parent = Measurement((1, 2, 3), effects)
    m1 = post_process(parent, np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]), ("+", "-"))
    m2 = post_process(parent, np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), ("+", "-"))
    return parent, m1, m2


@dataclass(frozen=True)
class BruteForceResult:
    value: float
    e_label: str
    f_label: str
    states: tuple  # argmax descriptors, one per tuple of _PAIR_TUPLES


def brute_force_rat_max(theory: Theory) -> BruteForceResult:
    """Independent maximization of the pair RAT over extreme effect pairs.

    On polytope theories the first effect is pinned to the stored extreme
    effect with index 0 and the second runs over every stored extreme
    effect.  The pin is exact whenever the symmetry group acts transitively
    on the extreme effects modulo complement (true for all stock polygons).
    States report the per-sum argmax vertex, ties resolved to the lowest
    index.  On the disc the angle of the second effect is scanned on a grid
    of DISC_GRID angles and refined by golden-section search; states are
    reported as angles.
    """
    if theory.backend == Ball(2):
        return _disc_brute_force()
    backend = require_polytope(theory, "brute force beyond the disc")
    E = backend.extreme_effects
    if E is None:
        raise InputError("theory does not carry a finite extreme effect list")
    V = backend.extreme_states
    u = theory.unit
    VE = V @ E.T  # (N, K): effect values on vertices
    Vu = V @ u
    ve = VE[:, 0]
    sup1 = (ve[:, None] + VE).max(axis=0)
    sup2 = ((Vu - ve)[:, None] + VE).max(axis=0)
    sup3 = ((2.0 * Vu - ve)[:, None] - VE).max(axis=0)
    sup4 = ((Vu + ve)[:, None] - VE).max(axis=0)
    vals = (sup1 + sup2 + sup3 + sup4) / 8.0
    fi = int(np.argmax(vals))
    vf = VE[:, fi]
    states = (
        int(np.argmax(ve + vf)),
        int(np.argmax(Vu - ve + vf)),
        int(np.argmax(2.0 * Vu - ve - vf)),
        int(np.argmax(Vu + ve - vf)),
    )
    return BruteForceResult(
        float(vals[fi]), polygon_effect_label(theory, 0), polygon_effect_label(theory, fi), states
    )


def _disc_pair_sums(theta):
    """First two coordinates (a, b) of the four effect sums of the pair
    (e_0, u - e_0), (e_theta, u - e_theta) on the disc, in the order of
    _PAIR_TUPLES; theta may be an array of angles.

    Every sum has unit coordinate 1, so its supremum over pure states is
    1 + hypot(a, b), attained at the angle of (a, b).
    """
    fx = 0.5 * np.cos(theta)
    fy = 0.5 * np.sin(theta)
    return np.array([0.5 + fx, fx - 0.5, -0.5 - fx, 0.5 - fx]), np.array([fy, fy, -fy, -fy])


def _disc_pair_value(theta):
    a, b = _disc_pair_sums(theta)
    return (1.0 + np.hypot(a, b)).sum(axis=0) / 8.0


def _disc_brute_force() -> BruteForceResult:
    thetas = np.linspace(0.0, 2.0 * np.pi, DISC_GRID, endpoint=False)
    # ten chunks keep the temporaries near 100 KiB; peak memory is benchmarked
    i = int(np.argmax(np.concatenate([_disc_pair_value(t) for t in np.split(thetas, 10)])))
    lo = thetas[i] - 2.0 * np.pi / DISC_GRID
    hi = thetas[i] + 2.0 * np.pi / DISC_GRID
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc = _disc_pair_value(c)
    fd = _disc_pair_value(d)
    for _ in range(80):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = _disc_pair_value(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = _disc_pair_value(d)
    theta = 0.5 * (a + b)
    sa, sb = _disc_pair_sums(theta)
    angles = tuple(float(x) for x in np.arctan2(sb, sa) % (2.0 * np.pi))
    return BruteForceResult(float(_disc_pair_value(theta)), "e(0)", f"e({theta:.12f})", angles)


# Optimal effect and state labels for e = first extreme effect, one entry per
# admissible second effect: (f index, per-sum lists of candidate state labels).
# Each branch fixes the parity of m, so every halved numerator is even.
def _table_entries(n: int):
    m = n // 4
    odd = m % 2 == 1
    if n % 4 == 0 and odd:
        specs = [
            (m + 1, [[(m + 1) // 2], [(3 * m + 1) // 2], [(5 * m + 1) // 2], [(7 * m + 1) // 2]]),
        ]
    elif n % 4 == 0:
        specs = [
            (m, [[m // 2], [3 * m // 2], [5 * m // 2], [7 * m // 2]]),
            (
                m + 1,
                [
                    [(m + 2) // 2, m // 2],
                    [(3 * m + 2) // 2, 3 * m // 2],
                    [(5 * m + 2) // 2, 5 * m // 2],
                    [(7 * m + 2) // 2, 7 * m // 2],
                ],
            ),
            (m + 2, [[m // 2 + 1], [3 * m // 2 + 1], [5 * m // 2 + 1], [7 * m // 2 + 1]]),
        ]
    elif n % 4 == 2 and odd:
        specs = [
            (
                m + 1,
                [
                    [(m + 1) // 2],
                    [(3 * m + 1) // 2 + 1, (3 * m - 1) // 2 + 1],
                    [(5 * m + 1) // 2 + 1],
                    [(7 * m + 1) // 2 + 2, (7 * m - 1) // 2 + 2],
                ],
            ),
            (
                m + 2,
                [
                    [(m + 1) // 2 + 1, (m - 1) // 2 + 1],
                    [(3 * m + 1) // 2 + 1],
                    [(5 * m + 1) // 2 + 2, (5 * m - 1) // 2 + 2],
                    [(7 * m + 1) // 2 + 2],
                ],
            ),
        ]
    elif n % 4 == 2:
        specs = [
            (
                m + 1,
                [
                    [(m + 2) // 2, m // 2],
                    [3 * m // 2 + 1],
                    [(5 * m + 2) // 2 + 1, 5 * m // 2 + 1],
                    [7 * m // 2 + 2],
                ],
            ),
            (
                m + 2,
                [
                    [m // 2 + 1],
                    [(3 * m + 2) // 2 + 1, 3 * m // 2 + 1],
                    [5 * m // 2 + 2],
                    [(7 * m + 2) // 2 + 2, 7 * m // 2 + 2],
                ],
            ),
        ]
    elif n % 4 == 1 and odd:
        specs = [
            (
                m + 1,
                [
                    [(m + 1) // 2 + 1, (m - 1) // 2 + 1],
                    [(3 * m + 1) // 2 + 1],
                    [(5 * m + 1) // 2 + 1],
                    [(7 * m + 1) // 2 + 1],
                ],
            ),
        ]
    elif n % 4 == 1:
        specs = [
            (
                m + 1,
                [
                    [m // 2 + 1],
                    [3 * m // 2 + 1],
                    [(5 * m + 2) // 2 + 1, 5 * m // 2 + 1],
                    [7 * m // 2 + 2],
                ],
            ),
        ]
    elif odd:
        specs = [
            (
                m + 2,
                [
                    [(m + 1) // 2 + 1],
                    [(3 * m + 1) // 2 + 2],
                    [(5 * m + 1) // 2 + 3, (5 * m - 1) // 2 + 3],
                    [(7 * m + 1) // 2 + 3],
                ],
            ),
        ]
    else:
        specs = [
            (
                m + 2,
                [
                    [(m + 2) // 2 + 1, m // 2 + 1],
                    [3 * m // 2 + 2],
                    [5 * m // 2 + 3],
                    [7 * m // 2 + 4],
                ],
            ),
        ]
    return m, specs


@dataclass(frozen=True)
class TableVariant:
    f_label: str
    state_labels: tuple[int, ...]
    value: float
    ok: bool


@dataclass(frozen=True)
class TableReport:
    n: int
    m: int
    parity: str
    expected: float
    variants: tuple[TableVariant, ...]

    @property
    def all_ok(self) -> bool:
        return bool(self.variants) and all(v.ok for v in self.variants)


def verify_table(n: int) -> TableReport:
    """Replay the tabulated optimal effects and states against the closed form.

    Every combination of the listed candidate states is evaluated with a
    fixed-encoding RAT; labels above n wrap around.  Every label is an
    integer: each branch of the table fixes the parity of m = n // 4, so each
    halved numerator is even.  Every label is at least 1 once n >= 4, and
    polygon_state raises on one that is not.
    """
    if n < 4:
        raise InputError("tables start at n = 4")
    theory = polygon(n)
    expected = polygon_rat_closed_form(n)
    m, specs = _table_entries(n)
    family = "e" if n % 2 == 0 else "g"
    m_first = dichotomic_measurement(theory, polygon_ray(theory, 1))
    variants: list[TableVariant] = []
    for f_index, columns in specs:
        f_label = f"{family}_{f_index}"
        m_second = dichotomic_measurement(theory, polygon_ray(theory, f_index))
        for combo in product(*columns):
            encoding = {labels: polygon_state(theory, j) for labels, j in zip(_PAIR_TUPLES, combo)}
            value = rat_success_given_states([m_first, m_second], encoding)
            ok = abs(value - expected) <= 1e-9
            variants.append(TableVariant(f_label, tuple(combo), value, ok))
    return TableReport(
        n=n, m=m, parity=parity_class(n), expected=expected, variants=tuple(variants)
    )


@dataclass(frozen=True)
class SweepRow:
    n: int
    parity: str
    closed_form: float
    brute_force: float
    compatible_max: float
    lmax: float


def sweep(n_min: int, n_max: int) -> list[SweepRow]:
    """Closed form, brute force, compatible maximum, and storability per n."""
    if not 4 <= n_min <= n_max <= 60:
        raise InputError("sweep range must satisfy 4 <= n_min <= n_max <= 60")
    rows = []
    for n in range(n_min, n_max + 1):
        theory = polygon(n)
        rows.append(
            SweepRow(
                n=n,
                parity=parity_class(n),
                closed_form=polygon_rat_closed_form(n),
                brute_force=brute_force_rat_max(theory).value,
                compatible_max=polygon_compatible_max(n),
                lmax=information_storability(theory).value,
            )
        )
    return rows
