"""Order statistics for the benchmark's latency samples.

Every percentile the benchmark reports must rest on at least ten samples
beyond it; :func:`percentile` refuses anything weaker, so a tail figure
never silently reads off the single largest sample of a short run.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def supports(count: int, q: float) -> bool:
    """Whether ``count`` samples put at least ``MIN_BEYOND`` beyond ``q``."""
    if q == 50.0:
        return count >= 1
    return count * (100.0 - q) / 100.0 >= MIN_BEYOND


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (nearest rank) of ``values``.

    Raises :class:`TooFewSamples` unless at least :data:`MIN_BEYOND`
    samples lie beyond it (the median only needs one sample).
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must lie in (0, 100); got {q}")
    count = len(values)
    if not supports(count, q):
        raise TooFewSamples(
            f"p{q:g} needs {math.ceil(100.0 * MIN_BEYOND / (100.0 - q))} samples "
            f"to leave {MIN_BEYOND} beyond it; got {count}"
        )
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * count))
    return float(ordered[rank - 1])


def median(values: Sequence[float]) -> Optional[float]:
    """The median, or ``None`` for an empty sample."""
    return percentile(values, 50.0) if values else None
