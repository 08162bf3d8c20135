"""Random access tests: average success probabilities, bounds, certificates.

A random access test of measurements M^(1), ..., M^(k) asks a sender to
encode a uniformly random outcome tuple (x_1, ..., x_k) into one state so
that a receiver, told a uniformly random index i and measuring M^(i),
recovers x_i.  With the best encoding for each tuple the average success is

    P = (1 / (k prod_i m_i)) * sum_tuples || M^(1)_{x_1} + ... + M^(k)_{x_k} ||,

which equals the decoding power of the harmonic approximate joint divided by
the harmonic mean of the outcome counts.  That identity powers a simple
incompatibility certificate: a compatible pair can never beat
(1/2) (1 + storability / (m_1 m_2)).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .core import Measurement, Theory, harmonic_mean, norm_with_argmax, outcome_tuples, require_valid_measurements
from .errors import InputError
from .jointness import harmonic_joint
from .storability import decoding_power, information_storability
from .linalg import EPS


@dataclass(frozen=True)
class RatReport:
    p_bar: float
    per_tuple: dict  # outcome tuple -> (norm of summed effect, argmax descriptor)
    k: int
    outcome_counts: tuple[int, ...]


@dataclass(frozen=True)
class CertificateVerdict:
    lhs: float
    threshold: float
    useful: bool
    verdict: str  # "certified_incompatible" or "inconclusive"


def rat_success(measurements, theory: Theory) -> RatReport:
    """Optimal average success probability of the random access test."""
    ms = require_valid_measurements(measurements, theory, 1)
    per_tuple = {labels: norm_with_argmax(summed, theory) for labels, summed in zip(*outcome_tuples(ms))}
    counts = tuple(m.num_outcomes for m in ms)
    p_bar = sum(norm for norm, _ in per_tuple.values()) / (len(ms) * prod(counts))
    return RatReport(p_bar, per_tuple, len(ms), counts)


def rat_success_given_states(measurements, encoding) -> float:
    """Average success with a fixed encoding of outcome tuples into states.

    encoding maps each outcome-label tuple to a vector of the effects'
    width.  The result is a lower bound on rat_success only when every
    encoded vector is a state; nothing here checks that, and a vector
    outside the state space can exceed the optimum (3 s_1 for every tuple on
    polygon(5) gives 1.5 against 0.857).
    """
    ms = list(measurements)
    tuples, sums = outcome_tuples(ms)
    total = 0.0
    for labels, summed in zip(tuples, sums):
        if labels not in encoding:
            raise InputError(f"encoding is missing outcome tuple {labels}")
        state = np.asarray(encoding[labels], dtype=float)
        if state.shape != summed.shape:
            raise InputError(f"outcome tuple {labels} is encoded by a vector of shape {state.shape}, not {summed.shape}")
        total += float(summed @ state)
    return total / (len(ms) * len(tuples))


def connection_check(measurements, theory: Theory) -> tuple[float, float, float]:
    """(p_bar, decoding power of the harmonic joint, identity residual).

    The residual |p_bar - power / h| with h the harmonic mean of the outcome
    counts is zero up to rounding; it is returned for auditability.
    """
    ms = require_valid_measurements(measurements, theory, 2)
    h = harmonic_mean([m.num_outcomes for m in ms])
    p_bar = rat_success(ms, theory).p_bar
    power = decoding_power(harmonic_joint(ms), theory)
    return p_bar, power, abs(p_bar - power / h)


def compatible_bound(m1_outcomes: int, m2_outcomes: int, storability: float) -> float:
    """Upper bound on the pair RAT success of any compatible pair."""
    if m1_outcomes < 2 or m2_outcomes < 2:
        raise InputError("outcome counts must be at least 2")
    if not storability >= 1.0 - EPS:  # NaN fails it
        raise InputError("information storability is at least 1")
    return 0.5 * (1.0 + storability / (m1_outcomes * m2_outcomes))


def certify_incompatibility(m1: Measurement, m2: Measurement, theory: Theory) -> CertificateVerdict:
    """Decoding-power certificate of incompatibility for a pair.

    Certifies when the harmonic joint's decoding power exceeds
    (storability + m1 m2) / (m1 + m2); the certificate can only ever fire
    when storability > m1 m2 / (m1 + m2 - 1) (the "useful" flag).
    """
    require_valid_measurements([m1, m2], theory, 2)
    c1, c2 = m1.num_outcomes, m2.num_outcomes
    lhs = decoding_power(harmonic_joint([m1, m2]), theory)
    storability = information_storability(theory).value
    threshold = (storability + c1 * c2) / (c1 + c2)
    useful = storability > c1 * c2 / (c1 + c2 - 1)
    certified = useful and lhs > threshold + EPS
    return CertificateVerdict(
        lhs=lhs,
        threshold=threshold,
        useful=useful,
        verdict="certified_incompatible" if certified else "inconclusive",
    )


def classical_rac_value(n: int, d: int) -> tuple[float, float | None]:
    """Best classical random access code value for n digits of size d.

    Returns (value of the best classical strategy, known optimum).  The
    optimum is known for n = 2, where the classical strategy is optimal;
    for n >= 3 it is open and None is returned.
    """
    if n < 1 or d < 2:
        raise InputError("need n >= 1 digits of alphabet size d >= 2")
    value = (d + n - 1) / (n * d)
    optimal = 0.5 * (1.0 + 1.0 / d) if n == 2 else None
    return value, optimal
