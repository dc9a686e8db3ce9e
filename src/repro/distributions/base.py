"""Common interface for the distributions used throughout the library.

The paper models packet sizes, inter-arrival times and burst sizes with a
small zoo of distributions (deterministic, extreme/Gumbel, Erlang,
lognormal, ...).  Each of them is exposed here behind the same small
interface so that the traffic generators, the fitting code and the
queueing models can be written generically.

Every distribution implements:

* moments (:attr:`mean`, :attr:`variance`, :attr:`std`, :attr:`cov`),
* densities and probabilities (:meth:`pdf`, :meth:`cdf`, :meth:`tail`),
* the quantile function (:meth:`quantile`),
* random sampling (:meth:`sample`), and
* where it exists in closed form, the moment generating function
  (:meth:`mgf`), which is the workhorse of the queueing analysis.
"""

from __future__ import annotations

import abc
import math
from typing import Optional, Union

import numpy as np

from ..errors import ParameterError

__all__ = ["Distribution", "ArrayLike", "ComplexLike", "as_array"]

ArrayLike = Union[float, np.ndarray]

#: Scalar complex argument or a complex ndarray of any shape; MGF
#: implementations must be numpy-vectorized so the Euler inversion can
#: evaluate all of its abscissae in a single call.
ComplexLike = Union[complex, np.ndarray]


def as_array(x: ArrayLike) -> np.ndarray:
    """Coerce a scalar or array argument into a float ndarray."""
    return np.asarray(x, dtype=float)


class Distribution(abc.ABC):
    """Abstract base class for univariate distributions."""

    #: Human readable name used in tables (e.g. ``"Ext(120, 36)"``).
    name: str = "distribution"

    # ------------------------------------------------------------------
    # Moments
    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def mean(self) -> float:
        """The first moment of the distribution."""

    @property
    @abc.abstractmethod
    def variance(self) -> float:
        """The central second moment of the distribution."""

    @property
    def std(self) -> float:
        """The standard deviation."""
        return math.sqrt(max(self.variance, 0.0))

    @property
    def cov(self) -> float:
        """The coefficient of variation (std / mean).

        The paper characterises every measured traffic quantity by its
        mean and CoV, so the CoV is promoted to a first-class property.
        """
        mean = self.mean
        if mean == 0.0:
            raise ParameterError("coefficient of variation undefined for zero mean")
        return self.std / abs(mean)

    # ------------------------------------------------------------------
    # Probabilities
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def pdf(self, x: ArrayLike) -> ArrayLike:
        """Probability density (or mass concentrated via a Dirac pulse)."""

    @abc.abstractmethod
    def cdf(self, x: ArrayLike) -> ArrayLike:
        """Cumulative distribution function ``P(X <= x)``."""

    def tail(self, x: ArrayLike) -> ArrayLike:
        """Tail distribution function (TDF) ``P(X > x)``.

        Figure 1 of the paper plots tail distribution functions; the
        default implementation is ``1 - cdf`` but subclasses override it
        when a numerically better expression exists.
        """
        return 1.0 - self.cdf(x)

    @abc.abstractmethod
    def quantile(self, q: ArrayLike) -> ArrayLike:
        """Quantile function (inverse CDF)."""

    # ------------------------------------------------------------------
    # Sampling and transforms
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def sample(
        self, size: Optional[int] = None, rng: Optional[np.random.Generator] = None
    ) -> ArrayLike:
        """Draw ``size`` i.i.d. samples (a scalar when ``size`` is ``None``)."""

    def mgf(self, s: ComplexLike) -> ComplexLike:
        """Moment generating function ``E[exp(s X)]`` where defined.

        Subclasses that have a closed-form MGF override this; others
        raise :class:`NotImplementedError`.  Implementations accept a
        scalar ``complex`` or a complex ndarray and evaluate elementwise
        (the numerical inversion batches all Euler abscissae of a tail
        point into one such array call).
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no closed-form moment generating function"
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _rng(rng: Optional[np.random.Generator]) -> np.random.Generator:
        return rng if rng is not None else np.random.default_rng()

    def summary(self) -> dict:
        """Return a mean / CoV summary dictionary (used to print tables)."""
        return {"name": self.name, "mean": self.mean, "cov": self.cov}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"
