"""(Shifted) Weibull distribution.

Färber notes that shifted Weibull distributions also fit the
Counter-Strike traffic acceptably; it is included so the fitting module
can rank it against the extreme-value and lognormal candidates.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..errors import ParameterError
from .base import ArrayLike, Distribution, as_array

__all__ = ["Weibull"]


class Weibull(Distribution):
    """Weibull distribution with shape ``k``, scale ``lam`` and a shift."""

    def __init__(self, shape: float, scale: float, shift: float = 0.0) -> None:
        if shape <= 0.0 or scale <= 0.0:
            raise ParameterError("Weibull shape and scale must be positive")
        self.shape = float(shape)
        self.scale = float(scale)
        self.shift = float(shift)
        if self.shift:
            self.name = f"Weibull({self.shape:g}, {self.scale:g}; shift={self.shift:g})"
        else:
            self.name = f"Weibull({self.shape:g}, {self.scale:g})"

    # -- moments -------------------------------------------------------
    @property
    def mean(self) -> float:
        from scipy import special

        return self.shift + self.scale * special.gamma(1.0 + 1.0 / self.shape)

    @property
    def variance(self) -> float:
        from scipy import special

        g1 = special.gamma(1.0 + 1.0 / self.shape)
        g2 = special.gamma(1.0 + 2.0 / self.shape)
        return self.scale**2 * (g2 - g1**2)

    # -- probabilities -------------------------------------------------
    def _frozen(self):
        from scipy import stats

        return stats.weibull_min(c=self.shape, scale=self.scale, loc=self.shift)

    def pdf(self, x: ArrayLike) -> ArrayLike:
        out = self._frozen().pdf(as_array(x))
        return out if out.ndim else float(out)

    def cdf(self, x: ArrayLike) -> ArrayLike:
        out = self._frozen().cdf(as_array(x))
        return out if out.ndim else float(out)

    def tail(self, x: ArrayLike) -> ArrayLike:
        out = self._frozen().sf(as_array(x))
        return out if out.ndim else float(out)

    def quantile(self, q: ArrayLike) -> ArrayLike:
        q = as_array(q)
        if np.any((q <= 0.0) | (q >= 1.0)):
            raise ParameterError("quantile levels must lie in (0, 1)")
        out = self._frozen().ppf(q)
        return out if out.ndim else float(out)

    # -- sampling ------------------------------------------------------
    def sample(
        self, size: Optional[int] = None, rng: Optional[np.random.Generator] = None
    ) -> ArrayLike:
        rng = self._rng(rng)
        return self.shift + self.scale * rng.weibull(self.shape, size=size)

    # -- constructors --------------------------------------------------
    @classmethod
    def from_mean_cov(cls, mean: float, cov: float, shift: float = 0.0) -> "Weibull":
        """Weibull matching a target mean and CoV (after shifting).

        The shape ``k`` solving ``CoV^2 = Gamma(1+2/k)/Gamma(1+1/k)^2 - 1``
        is found numerically; the scale then follows from the mean.
        """
        from scipy import optimize, special

        effective_mean = mean - shift
        if effective_mean <= 0.0:
            raise ParameterError("mean - shift must be positive")
        if cov <= 0.0:
            raise ParameterError("CoV must be positive")
        target = (mean * cov / effective_mean) ** 2

        def cov2(k: float) -> float:
            g1 = special.gamma(1.0 + 1.0 / k)
            g2 = special.gamma(1.0 + 2.0 / k)
            return g2 / g1**2 - 1.0

        lo, hi = 0.05, 200.0
        if not (cov2(hi) <= target <= cov2(lo)):
            raise ParameterError(
                f"target CoV {math.sqrt(target):.3f} out of reachable Weibull range"
            )
        shape = optimize.brentq(lambda k: cov2(k) - target, lo, hi)
        scale = effective_mean / special.gamma(1.0 + 1.0 / shape)
        return cls(shape, scale, shift=shift)
