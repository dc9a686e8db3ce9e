"""Erlang distribution ``Erlang(K, lambda)``.

The server burst sizes are modelled in the paper by an Erlang
distribution of order ``K`` and rate ``lam`` (the paper's shape
parameter λ): the sum of ``K`` i.i.d. exponentials with rate ``lam``.
Its mean is ``K / lam`` and its variance ``K / lam**2``, so the
coefficient of variation is ``1 / sqrt(K)`` and the order can be chosen
by fitting either the CoV or the tail (Section 2.3.2, Figure 1).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..errors import ParameterError
from .base import ArrayLike, ComplexLike, Distribution, as_array

__all__ = ["Erlang", "Exponential"]


class Erlang(Distribution):
    """Erlang distribution of integer order ``order`` and rate ``rate``."""

    def __init__(self, order: int, rate: float) -> None:
        if int(order) != order or order < 1:
            raise ParameterError(f"Erlang order must be a positive integer, got {order!r}")
        if rate <= 0.0:
            raise ParameterError(f"Erlang rate must be positive, got {rate!r}")
        self.order = int(order)
        self.rate = float(rate)
        self.name = f"E({self.order}, {self.rate:g})"

    # -- moments -------------------------------------------------------
    @property
    def mean(self) -> float:
        return self.order / self.rate

    @property
    def variance(self) -> float:
        return self.order / self.rate**2

    @property
    def cov(self) -> float:
        return 1.0 / math.sqrt(self.order)

    # -- probabilities -------------------------------------------------
    def pdf(self, x: ArrayLike) -> ArrayLike:
        from scipy import stats

        x = as_array(x)
        out = stats.gamma.pdf(x, a=self.order, scale=1.0 / self.rate)
        return out if out.ndim else float(out)

    def cdf(self, x: ArrayLike) -> ArrayLike:
        from scipy import stats

        x = as_array(x)
        out = stats.gamma.cdf(x, a=self.order, scale=1.0 / self.rate)
        return out if out.ndim else float(out)

    def tail(self, x: ArrayLike) -> ArrayLike:
        """``P(X > x) = exp(-rate*x) * sum_{i<K} (rate*x)^i / i!``.

        Implemented through the regularised upper incomplete gamma
        function, which is numerically accurate far into the tail (the
        paper plots tails down to 1e-6 in Figure 1).
        """
        from scipy import special

        x = as_array(x)
        out = special.gammaincc(self.order, self.rate * np.maximum(x, 0.0))
        out = np.where(x < 0.0, 1.0, out)
        return out if out.ndim else float(out)

    def quantile(self, q: ArrayLike) -> ArrayLike:
        from scipy import stats

        q = as_array(q)
        if np.any((q < 0.0) | (q >= 1.0)):
            raise ParameterError("quantile levels must lie in [0, 1)")
        out = stats.gamma.ppf(q, a=self.order, scale=1.0 / self.rate)
        return out if out.ndim else float(out)

    # -- sampling ------------------------------------------------------
    def sample(
        self, size: Optional[int] = None, rng: Optional[np.random.Generator] = None
    ) -> ArrayLike:
        rng = self._rng(rng)
        return rng.gamma(shape=self.order, scale=1.0 / self.rate, size=size)

    # -- transform -----------------------------------------------------
    def mgf(self, s: ComplexLike) -> ComplexLike:
        """``E[e^{sX}] = (rate / (rate - s))^K`` for ``Re(s) < rate``.

        Vectorized: ``s`` may be a complex ndarray of any shape.
        """
        return (self.rate / (self.rate - s)) ** self.order

    # -- constructors --------------------------------------------------
    @classmethod
    def from_mean_order(cls, mean: float, order: int) -> "Erlang":
        """Erlang of a given order with the rate chosen to match ``mean``.

        This is how Figure 1 builds candidate fits: the mean is pinned to
        the measured mean burst size and only the order varies.
        """
        if mean <= 0.0:
            raise ParameterError("mean must be positive")
        return cls(order, order / float(mean))

    @classmethod
    def from_mean_cov(cls, mean: float, cov: float) -> "Erlang":
        """Erlang whose order matches the CoV (``K = round(1 / cov**2)``).

        Following Section 2.3.2: fitting the CoV of 0.19 gives ``K = 28``.
        """
        if mean <= 0.0 or cov <= 0.0:
            raise ParameterError("mean and CoV must be positive")
        order = max(1, int(round(1.0 / cov**2)))
        return cls.from_mean_order(mean, order)


class Exponential(Erlang):
    """Exponential distribution (Erlang of order 1)."""

    def __init__(self, rate: float) -> None:
        super().__init__(1, rate)
        self.name = f"Exp({self.rate:g})"
