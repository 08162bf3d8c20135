"""Decoding power of measurements and information storability of theories.

The decoding power of a measurement M is sum_x ||M_x|| in the order-unit
norm; it is 1 exactly for trivial measurements and bounded by the number of
outcomes.  Information storability is its supremum over all measurements of
the theory, which each core backend computes (core's docstring derives it).
"""

from __future__ import annotations

from .core import (
    Measurement,
    StorabilityReport,
    Theory,
    harmonic_mean,
    operational_dimension,
    order_unit_norm,
    require_valid_measurements,
)
from .errors import InputError
from .linalg import EPS


def decoding_power(m: Measurement, theory: Theory) -> float:
    """sum_x ||M_x||; monotone under post-processing and mixing."""
    require_valid_measurements([m], theory, 1)
    return float(sum(order_unit_norm(f, theory) for f in m.effects))


def information_storability(theory: Theory) -> StorabilityReport:
    """Supremum of decoding power over all measurements of the theory,
    computed once per Theory object (Theory.storability)."""
    return theory.storability


def restricted_storability(measurements, theory: Theory) -> float:
    """Largest decoding power among the given measurements."""
    ms = list(measurements)
    if not ms:
        raise InputError("need at least one measurement")
    return max(decoding_power(m, theory) for m in ms)


def ntomic_bound(n: int, outcome_counts) -> float:
    """n over the harmonic mean of the outcome counts."""
    counts = list(outcome_counts)
    if n < 1:
        raise InputError("need n >= 1 decoding targets")
    harmonic = harmonic_mean(counts)
    if min(counts) < 2:
        raise InputError("every outcome count must be at least 2")
    return n / harmonic


def has_super_information_storability(theory: Theory) -> bool:
    """True when information storability exceeds the operational dimension."""
    return information_storability(theory).value > operational_dimension(theory) + EPS
