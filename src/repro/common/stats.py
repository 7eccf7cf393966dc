"""Summary statistics used by trajectory measures and the MARAS scores.

Pure-Python implementations (no numpy dependency at this layer) so the
innermost scoring loops stay allocation-light and easily testable.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.common.errors import ValidationError

#: Relative tolerance below which a derived float statistic is treated
#: as zero.  Derived quantities (means, standard deviations) accumulate
#: rounding error even when the underlying data is exactly constant —
#: e.g. ``population_std([0.1, 0.1, 0.1])`` is ~1.4e-17, not 0 — so
#: exact ``== 0.0`` guards both miss true zeros and let near-zero
#: divisors blow ratios up to 1e16.  See docs/static_analysis.md (R001).
ZERO_TOLERANCE = 1e-12


def near_zero(value: float, *, scale: float = 1.0) -> bool:
    """True when *value* is zero up to rounding error at *scale*.

    *scale* should be the magnitude of the data the statistic was
    derived from (e.g. the largest absolute input); the guard is
    ``|value| <= ZERO_TOLERANCE * max(1, |scale|)`` so it behaves
    absolutely near 1.0 and relatively for large-magnitude data.
    """
    return abs(value) <= ZERO_TOLERANCE * max(1.0, abs(scale))


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; raises on an empty sequence."""
    if not values:
        raise ValidationError("mean of empty sequence")
    return sum(values) / len(values)


def population_variance(values: Sequence[float]) -> float:
    """Population (``ddof=0``) variance; raises on an empty sequence."""
    center = mean(values)
    return sum((value - center) ** 2 for value in values) / len(values)


def population_std(values: Sequence[float]) -> float:
    """Population standard deviation."""
    return math.sqrt(population_variance(values))


def sample_variance(values: Sequence[float]) -> float:
    """Sample (``ddof=1``) variance; 0.0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    center = mean(values)
    return sum((value - center) ** 2 for value in values) / (len(values) - 1)


def sample_std(values: Sequence[float]) -> float:
    """Sample standard deviation (``ddof=1``)."""
    return math.sqrt(sample_variance(values))


def coefficient_of_variation(values: Sequence[float]) -> float:
    """Sample std divided by the mean (Formula 8's :math:`C_v`).

    The MARAS penalty term uses the coefficient of variation of the
    contextual associations' confidences.  The *sample* (``ddof=1``)
    standard deviation reproduces the paper's worked example
    (``contrast_cv(C_1) = 0.18``, ``contrast_cv(C_2) = 0.45`` at
    ``θ = 0.75``); the population form would give 0.275/0.458.  A zero
    mean (all-zero confidences) has no meaningful dispersion ratio; we
    return 0.0 so the penalty degrades gracefully instead of dividing
    by zero.
    """
    center = mean(values)
    if near_zero(center, scale=max(abs(value) for value in values)):
        return 0.0
    return sample_std(values) / center


def z_score(value: float, reference: Sequence[float]) -> float:
    """Standard score of *value* against the *reference* population.

    When the reference has zero spread (up to rounding error — a
    bit-for-bit constant reference can still yield a ~1e-17 standard
    deviation) the z-score is defined here as 0.0 if the value matches
    the (constant) reference, else signed infinity.
    """
    center = mean(reference)
    spread = population_std(reference)
    scale = max(abs(value) for value in reference)
    if near_zero(spread, scale=scale):
        if near_zero(value - center, scale=max(scale, abs(value))):
            return 0.0
        return math.inf if value > center else -math.inf
    return (value - center) / spread


def min_max(values: Sequence[float]) -> tuple[float, float]:
    """Return ``(min, max)`` in one pass; raises on an empty sequence."""
    if not values:
        raise ValidationError("min_max of empty sequence")
    lo = hi = values[0]
    for value in values[1:]:
        if value < lo:
            lo = value
        elif value > hi:
            hi = value
    return lo, hi
