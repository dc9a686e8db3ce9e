"""Lognormal and normal distributions (optionally shifted).

Lang et al. model Half-Life server packet sizes with (map-dependent)
lognormal distributions and note that client packet sizes are fit
equally well by normal and lognormal distributions.  Färber also
mentions that *shifted* lognormal distributions fit the Counter-Strike
data acceptably, hence the optional ``shift`` parameter.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..errors import ParameterError
from .base import ArrayLike, ComplexLike, Distribution, as_array

__all__ = ["Lognormal", "Normal"]


class Lognormal(Distribution):
    """(Shifted) lognormal distribution.

    ``X = shift + exp(mu + sigma * Z)`` with ``Z`` standard normal.
    """

    def __init__(self, mu: float, sigma: float, shift: float = 0.0) -> None:
        if sigma <= 0.0:
            raise ParameterError(f"lognormal sigma must be positive, got {sigma!r}")
        self.mu = float(mu)
        self.sigma = float(sigma)
        self.shift = float(shift)
        if self.shift:
            self.name = f"Lognormal({self.mu:g}, {self.sigma:g}; shift={self.shift:g})"
        else:
            self.name = f"Lognormal({self.mu:g}, {self.sigma:g})"

    # -- moments -------------------------------------------------------
    @property
    def mean(self) -> float:
        return self.shift + math.exp(self.mu + 0.5 * self.sigma**2)

    @property
    def variance(self) -> float:
        return (math.exp(self.sigma**2) - 1.0) * math.exp(2.0 * self.mu + self.sigma**2)

    # -- probabilities -------------------------------------------------
    def _frozen(self):
        from scipy import stats

        return stats.lognorm(s=self.sigma, scale=math.exp(self.mu), loc=self.shift)

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
        return self.shift + rng.lognormal(self.mu, self.sigma, size=size)

    # -- constructors --------------------------------------------------
    @classmethod
    def from_mean_cov(cls, mean: float, cov: float, shift: float = 0.0) -> "Lognormal":
        """Lognormal with the requested mean and CoV (after shifting)."""
        effective_mean = mean - shift
        if effective_mean <= 0.0:
            raise ParameterError("mean - shift must be positive")
        if cov <= 0.0:
            raise ParameterError("CoV must be positive")
        std = mean * cov
        ratio = 1.0 + (std / effective_mean) ** 2
        sigma = math.sqrt(math.log(ratio))
        mu = math.log(effective_mean) - 0.5 * sigma**2
        return cls(mu, sigma, shift=shift)


class Normal(Distribution):
    """Normal distribution, used by Lang et al. for client packet sizes."""

    def __init__(self, mean: float, std: float) -> None:
        if std <= 0.0:
            raise ParameterError(f"normal std must be positive, got {std!r}")
        self._mean = float(mean)
        self._std = float(std)
        self.name = f"N({self._mean:g}, {self._std:g})"

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def variance(self) -> float:
        return self._std**2

    def pdf(self, x: ArrayLike) -> ArrayLike:
        from scipy import stats

        out = stats.norm.pdf(as_array(x), loc=self._mean, scale=self._std)
        return out if out.ndim else float(out)

    def cdf(self, x: ArrayLike) -> ArrayLike:
        from scipy import stats

        out = stats.norm.cdf(as_array(x), loc=self._mean, scale=self._std)
        return out if out.ndim else float(out)

    def tail(self, x: ArrayLike) -> ArrayLike:
        from scipy import stats

        out = stats.norm.sf(as_array(x), loc=self._mean, scale=self._std)
        return out if out.ndim else float(out)

    def quantile(self, q: ArrayLike) -> ArrayLike:
        from scipy import stats

        q = as_array(q)
        if np.any((q <= 0.0) | (q >= 1.0)):
            raise ParameterError("quantile levels must lie in (0, 1)")
        out = stats.norm.ppf(q, loc=self._mean, scale=self._std)
        return out if out.ndim else float(out)

    def sample(
        self, size: Optional[int] = None, rng: Optional[np.random.Generator] = None
    ) -> ArrayLike:
        rng = self._rng(rng)
        return rng.normal(self._mean, self._std, size=size)

    def mgf(self, s: ComplexLike) -> ComplexLike:
        """``E[e^{sX}] = exp(mu s + sigma^2 s^2 / 2)`` (vectorized).

        The quadratic exponent overflows for very large real ``|s|`` —
        exactly why the inversion's atom-at-zero probe is bounded.
        """
        return np.exp(self._mean * s + 0.5 * (self._std * s) ** 2)
