"""Distribution fitting procedures used in Section 2 of the paper.

Three fitting philosophies appear in the paper and are all implemented:

* **Least-squares pdf fit** (Färber): minimise the squared error between
  a candidate density and the experimental histogram
  (:func:`fit_extreme_least_squares`, :func:`fit_lognormal_least_squares`).
* **Moment fit**: match the sample mean and CoV
  (:func:`fit_by_moments`, and the ``from_mean_cov`` constructors of the
  individual distributions).  Section 2.3.2 derives ``K = 28`` for the
  Erlang order this way.
* **Tail fit** (the paper's own contribution for the burst sizes):
  choose the Erlang order whose tail distribution function tracks the
  experimental tail best over a range of exceedance probabilities
  (:func:`fit_erlang_tail`); Figure 1 shows this gives ``K`` between 15
  and 20.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import FittingError
from .base import Distribution
from .deterministic import Deterministic
from .empirical import Empirical
from .erlang import Erlang
from .extreme import Extreme
from .lognormal import Lognormal, Normal
from .weibull import Weibull

__all__ = [
    "FitResult",
    "sample_moments",
    "fit_extreme_least_squares",
    "fit_lognormal_least_squares",
    "fit_normal_least_squares",
    "fit_by_moments",
    "fit_deterministic",
    "fit_erlang_tail",
    "fit_erlang_cov",
    "rank_candidate_fits",
]


@dataclass
class FitResult:
    """Outcome of a fitting procedure.

    Attributes
    ----------
    distribution:
        The fitted distribution object.
    error:
        The value of the objective that was minimised (sum of squared
        pdf errors, tail mismatch, ... depending on the method).
    method:
        Short identifier of the fitting method.
    details:
        Free-form extra information (e.g. the candidate orders examined).
    """

    distribution: Distribution
    error: float
    method: str
    details: dict = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.distribution.name


def sample_moments(samples: Sequence[float]) -> Tuple[float, float]:
    """Return ``(mean, cov)`` of a sample, the summary used in Tables 1-3."""
    data = np.asarray(list(samples), dtype=float)
    if data.size == 0:
        raise FittingError("cannot compute moments of an empty sample")
    mean = float(np.mean(data))
    if data.size < 2 or mean == 0.0:
        return mean, 0.0
    std = float(np.std(data, ddof=1))
    return mean, std / abs(mean)


def _histogram(samples: Sequence[float], bins: Optional[int]) -> Tuple[np.ndarray, np.ndarray]:
    empirical = Empirical(samples)
    return empirical.histogram(bins=bins)


def _least_squares_pdf(
    samples: Sequence[float],
    build: "callable",
    initial: Sequence[float],
    bounds: Sequence[Tuple[float, float]],
    method_name: str,
    bins: Optional[int] = None,
) -> FitResult:
    """Generic least-squares fit of a parametric pdf against a histogram."""
    from scipy import optimize

    centers, density = _histogram(samples, bins)
    if centers.size < 3:
        raise FittingError("not enough distinct histogram bins for a least-squares fit")

    def objective(params: np.ndarray) -> float:
        try:
            dist = build(*params)
        except Exception:
            return 1e12
        model = np.asarray(dist.pdf(centers), dtype=float)
        return float(np.sum((model - density) ** 2))

    result = optimize.minimize(
        objective,
        x0=np.asarray(initial, dtype=float),
        bounds=bounds,
        method="L-BFGS-B",
    )
    if not np.all(np.isfinite(result.x)):
        raise FittingError(f"{method_name} fit diverged")
    dist = build(*result.x)
    return FitResult(
        distribution=dist,
        error=float(result.fun),
        method=method_name,
        details={"params": [float(v) for v in result.x], "bins": centers.size},
    )


def fit_extreme_least_squares(
    samples: Sequence[float], bins: Optional[int] = None
) -> FitResult:
    """Fit ``Ext(a, b)`` by least squares on the histogram (Färber's method)."""
    mean, cov = sample_moments(samples)
    start = Extreme.from_mean_cov(mean, max(cov, 1e-3))
    return _least_squares_pdf(
        samples,
        Extreme,
        initial=[start.location, start.scale],
        bounds=[(None, None), (1e-9, None)],
        method_name="least-squares-pdf(extreme)",
        bins=bins,
    )


def fit_lognormal_least_squares(
    samples: Sequence[float], bins: Optional[int] = None
) -> FitResult:
    """Fit an (unshifted) lognormal density by least squares on the histogram."""
    mean, cov = sample_moments(samples)
    start = Lognormal.from_mean_cov(mean, max(cov, 1e-3))
    return _least_squares_pdf(
        samples,
        Lognormal,
        initial=[start.mu, start.sigma],
        bounds=[(None, None), (1e-6, None)],
        method_name="least-squares-pdf(lognormal)",
        bins=bins,
    )


def fit_normal_least_squares(
    samples: Sequence[float], bins: Optional[int] = None
) -> FitResult:
    """Fit a normal density by least squares on the histogram."""
    mean, cov = sample_moments(samples)
    std = max(mean * max(cov, 1e-3), 1e-6)
    return _least_squares_pdf(
        samples,
        Normal,
        initial=[mean, std],
        bounds=[(None, None), (1e-9, None)],
        method_name="least-squares-pdf(normal)",
        bins=bins,
    )


def fit_by_moments(samples: Sequence[float], family: str) -> FitResult:
    """Fit a distribution of the named family by matching mean and CoV.

    ``family`` is one of ``"extreme"``, ``"erlang"``, ``"lognormal"``,
    ``"weibull"``, ``"normal"`` or ``"deterministic"``.
    """
    mean, cov = sample_moments(samples)
    family = family.lower()
    if family == "deterministic":
        dist: Distribution = Deterministic(mean)
    elif family == "extreme":
        dist = Extreme.from_mean_cov(mean, max(cov, 1e-6))
    elif family == "erlang":
        dist = Erlang.from_mean_cov(mean, max(cov, 1e-6))
    elif family == "lognormal":
        dist = Lognormal.from_mean_cov(mean, max(cov, 1e-6))
    elif family == "weibull":
        dist = Weibull.from_mean_cov(mean, max(cov, 1e-6))
    elif family == "normal":
        dist = Normal(mean, max(mean * max(cov, 1e-6), 1e-9))
    else:
        raise FittingError(f"unknown distribution family {family!r}")
    return FitResult(distribution=dist, error=0.0, method=f"moments({family})",
                     details={"mean": mean, "cov": cov})


def fit_deterministic(samples: Sequence[float]) -> FitResult:
    """Approximate a low-variance sample by ``Det(mean)``.

    This mirrors the paper's choice of ``Det(40)`` for the client
    inter-arrival time whose CoV is small.
    """
    mean, cov = sample_moments(samples)
    return FitResult(
        distribution=Deterministic(mean),
        error=cov,
        method="deterministic",
        details={"mean": mean, "cov": cov},
    )


def fit_erlang_cov(samples: Sequence[float]) -> FitResult:
    """Erlang order chosen by matching the CoV (Section 2.3.2 first approach)."""
    mean, cov = sample_moments(samples)
    if cov <= 0.0:
        raise FittingError("cannot fit an Erlang order to a zero-CoV sample")
    dist = Erlang.from_mean_cov(mean, cov)
    return FitResult(
        distribution=dist,
        error=abs(dist.cov - cov),
        method="erlang-cov",
        details={"mean": mean, "cov": cov, "order": dist.order},
    )


def fit_erlang_tail(
    samples: Sequence[float],
    orders: Optional[Iterable[int]] = None,
    tail_range: Tuple[float, float] = (1e-3, 5e-1),
) -> FitResult:
    """Choose the Erlang order by fitting the tail distribution function.

    This is the paper's own approach for the burst-size distribution
    (Section 2.3.2, Figure 1): the mean is pinned to the sample mean and
    the order ``K`` is selected so the Erlang tail tracks the empirical
    tail over the exceedance-probability window ``tail_range``.  The
    error metric is the mean squared difference of ``log10`` tails
    evaluated at the empirical quantiles of that window, which mimics a
    visual fit on the log-scale TDF plot of Figure 1.
    """
    data = np.asarray(list(samples), dtype=float)
    if data.size < 10:
        raise FittingError("tail fitting needs at least 10 samples")
    mean, cov = sample_moments(data)
    if mean <= 0.0:
        raise FittingError("tail fitting requires positive-mean samples")
    if orders is None:
        guess = max(1, int(round(1.0 / max(cov, 1e-3) ** 2)))
        orders = range(1, max(guess * 2, 30) + 1)
    empirical = Empirical(data)

    lo, hi = tail_range
    probs = np.logspace(math.log10(max(lo, 1.5 / data.size)), math.log10(hi), 30)
    x_grid = np.asarray(empirical.quantile(1.0 - probs), dtype=float)

    best: Optional[Tuple[float, Erlang]] = None
    examined: List[Tuple[int, float]] = []
    for order in orders:
        candidate = Erlang.from_mean_order(mean, int(order))
        model_tail = np.asarray(candidate.tail(x_grid), dtype=float)
        model_tail = np.clip(model_tail, 1e-300, 1.0)
        err = float(np.mean((np.log10(model_tail) - np.log10(probs)) ** 2))
        examined.append((int(order), err))
        if best is None or err < best[0]:
            best = (err, candidate)
    assert best is not None
    return FitResult(
        distribution=best[1],
        error=best[0],
        method="erlang-tail",
        details={
            "mean": mean,
            "cov": cov,
            "order": best[1].order,
            "examined": examined,
        },
    )


def rank_candidate_fits(samples: Sequence[float], bins: Optional[int] = None) -> List[FitResult]:
    """Fit all parametric candidates by least squares and rank them.

    Reproduces the comparison Färber reports: extreme value first, with
    lognormal and Weibull as acceptable alternatives.  Candidates whose
    fit fails on the given data are silently skipped.
    """
    fits: List[FitResult] = []
    for fitter in (
        fit_extreme_least_squares,
        fit_lognormal_least_squares,
        fit_normal_least_squares,
    ):
        try:
            fits.append(fitter(samples, bins=bins))
        except (FittingError, ValueError):
            continue
    try:
        fits.append(fit_by_moments(samples, "weibull"))
    except (FittingError, ValueError):
        pass
    if not fits:
        raise FittingError("no candidate distribution could be fitted to the sample")
    fits.sort(key=lambda fit: fit.error)
    return fits
