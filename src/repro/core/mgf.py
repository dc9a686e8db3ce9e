"""Algebra of moment generating functions that are sums of Erlang terms.

Appendix A of the paper shows that every delay distribution appearing in
the analysis can be written as

.. math::

    F(s) = c_0 + \\sum_j \\sum_{m=1}^{M_j} c_{j,m}
           \\left( \\frac{\\lambda_j}{\\lambda_j - s} \\right)^m

i.e. an atom at zero (the probability of no queueing delay) plus a
weighted sum of Erlang-``m`` transforms with (possibly complex) rates
``lambda_j``, and that the *product* of such transforms — the transform
of a sum of independent delays — is again of that form, with the new
coefficients obtained by partial-fraction expansion.

:class:`ErlangTermSum` implements that representation together with the
operations the paper needs: products (Appendix A), evaluation of the
transform, analytic inversion to the density/tail, quantiles, moments
and the dominant-pole and Chernoff approximations of Section 3.3.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ParameterError

__all__ = ["ErlangTerm", "ErlangTermSum"]

#: Coefficients with modulus below this threshold are dropped; they
#: contribute nothing at the probability levels of interest (1e-5) but
#: can cause overflow in high-order partial fractions.
_COEFFICIENT_FLOOR = 1e-18

#: Tolerance used to decide that two (complex) rates are "the same pole".
_POLE_MERGE_TOL = 1e-9


@dataclass(frozen=True)
class ErlangTerm:
    """One term ``coefficient * (rate / (rate - s))**order`` of the sum.

    ``rate`` may be complex (the D/E_K/1 poles come in conjugate pairs);
    in a valid transform the imaginary parts cancel in every real-valued
    quantity derived from the sum.
    """

    coefficient: complex
    rate: complex
    order: int

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ParameterError(f"Erlang term order must be >= 1, got {self.order!r}")
        if self.rate.real <= 0.0:
            raise ParameterError(
                f"Erlang term rate must have positive real part, got {self.rate!r}"
            )

    def mgf(self, s: complex) -> complex:
        """Value of this term of the transform at ``s``."""
        return self.coefficient * (self.rate / (self.rate - s)) ** self.order

    def tail(self, x: float) -> complex:
        """Contribution of this term to ``P(X > x)`` for ``x >= 0``."""
        lam_x = self.rate * x
        acc = 1.0 + 0.0j
        term = 1.0 + 0.0j
        for i in range(1, self.order):
            term = term * lam_x / i
            acc += term
        return self.coefficient * cmath.exp(-lam_x) * acc

    def pdf(self, x: float) -> complex:
        """Contribution of this term to the density at ``x > 0``."""
        if x < 0.0:
            return 0.0
        log_unsigned = (
            self.order * cmath.log(self.rate)
            + (self.order - 1) * (math.log(x) if x > 0.0 else -math.inf)
            - self.rate * x
            - math.lgamma(self.order)
        )
        if self.order == 1 and x == 0.0:
            return self.coefficient * self.rate
        return self.coefficient * cmath.exp(log_unsigned)

    def mean(self) -> complex:
        """Contribution of this term to the first moment."""
        return self.coefficient * self.order / self.rate

    def second_moment(self) -> complex:
        """Contribution of this term to the (raw) second moment."""
        return self.coefficient * self.order * (self.order + 1) / self.rate**2


def _erlang_powers(orders: np.ndarray) -> Optional[np.ndarray]:
    """Erlang orders as the complex exponents of :func:`_erlang_sum`.

    ``None`` when every order is 1: numpy's complex power returns its
    base unchanged for an exponent of 1, so the power is skipped.
    """
    return None if np.all(orders == 1) else orders.astype(complex)


def _erlang_sum(
    atom, coefficients: np.ndarray, rates: np.ndarray, powers: Optional[np.ndarray], s: np.ndarray
) -> np.ndarray:
    """``atom + sum_j c_j (r_j / (r_j - s))**m_j`` at every element of ``s``.

    The term arrays carry the term index on their last axis and
    broadcast against ``s[..., None]``; ``powers`` comes from
    :func:`_erlang_powers`.  The one evaluation of Erlang-term sums:
    :meth:`ErlangTermSum.mgf`, a model's compiled product kernel and the
    stacked evaluator of many models all run it, so they agree bit for
    bit.
    """
    if coefficients.size == 0:
        return np.full(s.shape, atom, dtype=complex)
    ratio = rates / (rates - s[..., None])
    if powers is not None:
        ratio = ratio**powers
    return atom + np.add.reduce(coefficients * ratio, axis=-1)


class ErlangTermSum:
    """A (defective or proper) distribution written as atom + Erlang terms."""

    def __init__(self, atom: complex = 0.0, terms: Iterable[ErlangTerm] = ()) -> None:
        self.atom = complex(atom)
        self.terms: List[ErlangTerm] = [
            t for t in terms if abs(t.coefficient) > _COEFFICIENT_FLOOR
        ]
        self._mgf_arrays: Optional[Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def point_mass_at_zero(cls) -> "ErlangTermSum":
        """The distribution of a delay that is identically zero."""
        return cls(atom=1.0)

    @classmethod
    def exponential(cls, rate: float, weight: float = 1.0, atom: float = 0.0) -> "ErlangTermSum":
        """``atom * delta_0 + weight * Exp(rate)``."""
        return cls(atom=atom, terms=[ErlangTerm(weight, rate, 1)])

    @classmethod
    def erlang(cls, order: int, rate: float, weight: float = 1.0, atom: float = 0.0) -> "ErlangTermSum":
        """``atom * delta_0 + weight * Erlang(order, rate)``."""
        return cls(atom=atom, terms=[ErlangTerm(weight, rate, order)])

    @classmethod
    def erlang_mixture(
        cls, weights: Sequence[float], orders: Sequence[int], rate: float, atom: float = 0.0
    ) -> "ErlangTermSum":
        """A finite mixture of Erlang distributions sharing one rate."""
        if len(weights) != len(orders):
            raise ParameterError("weights and orders must have the same length")
        terms = [ErlangTerm(w, rate, int(m)) for w, m in zip(weights, orders)]
        return cls(atom=atom, terms=terms)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def total_mass(self) -> float:
        """``F(0)``: should be 1 for a proper probability distribution."""
        return float((self.atom + sum(t.coefficient for t in self.terms)).real)

    @property
    def atom_mass(self) -> float:
        """Probability mass at zero (e.g. the probability of no queueing)."""
        return float(self.atom.real)

    def _term_arrays(self) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """(coefficients, rates, powers) as ndarrays, built once per sum.

        ``powers`` are the orders cast to complex, see :func:`_erlang_powers`.
        """
        if self._mgf_arrays is None:
            self._mgf_arrays = (
                np.array([t.coefficient for t in self.terms], dtype=complex),
                np.array([t.rate for t in self.terms], dtype=complex),
                _erlang_powers(np.array([t.order for t in self.terms], dtype=float)),
            )
        return self._mgf_arrays

    def mgf(self, s: complex) -> complex:
        """Evaluate the transform ``E[e^{sX}]`` at ``s``.

        Accepts a scalar or a complex ndarray of any shape; array input
        is evaluated with one vectorized pass over the cached term
        arrays (the Euler inversion feeds all its abscissae at once).
        Scalar input runs the same term arithmetic and the same pairwise
        reduction over one abscissa, so a scalar call returns the exact
        floats of the corresponding array element — the numerical
        inversion relies on that to make its scalar fallback agree with
        the batched path.
        """
        if isinstance(s, np.ndarray):
            return _erlang_sum(self.atom, *self._term_arrays(), np.asarray(s, dtype=complex))
        return complex(_erlang_sum(self.atom, *self._term_arrays(), np.asarray(complex(s))))

    def mean(self) -> float:
        """First moment of the distribution."""
        return float(sum((t.mean() for t in self.terms), start=0.0 + 0.0j).real)

    def variance(self) -> float:
        """Variance of the distribution."""
        second = float(sum((t.second_moment() for t in self.terms), start=0.0 + 0.0j).real)
        return second - self.mean() ** 2

    def tail(self, x: float) -> float:
        """``P(X > x)`` by analytic inversion of the Erlang terms."""
        if x < 0.0:
            return 1.0
        # At x = 0 each term contributes its coefficient, which for a
        # proper distribution sums to 1 - atom; for defective one-term
        # approximations (dominant pole) it is simply the residue mass.
        value = sum((t.tail(x) for t in self.terms), start=0.0 + 0.0j)
        return float(min(1.0, max(0.0, value.real)))

    def cdf(self, x: float) -> float:
        """``P(X <= x)``."""
        return 1.0 - self.tail(x)

    def pdf(self, x: float) -> float:
        """Density of the absolutely continuous part at ``x > 0``."""
        value = sum((t.pdf(x) for t in self.terms), start=0.0 + 0.0j)
        return float(value.real)

    # ------------------------------------------------------------------
    # Quantiles and approximations
    # ------------------------------------------------------------------
    def quantile(self, probability: float) -> float:
        """Smallest ``x`` with ``P(X <= x) >= probability`` (exact inversion).

        This is the paper's primary method: invert the Erlang-term sum
        and read off the required quantile (e.g. the 99.999% point).
        """
        if not 0.0 < probability < 1.0:
            raise ParameterError("probability must lie in (0, 1)")
        target = 1.0 - probability
        if self.tail(0.0) <= target:
            return 0.0
        upper = self._tail_upper_bound(target)
        # Imported here: the inversion module imports this one.
        from .inversion import _brent, drive

        return float(drive(_brent(0.0, upper, 1e-12, 300), lambda x: self.tail(x) - target))

    def _tail_upper_bound(self, target: float) -> float:
        """Find an ``x`` with ``tail(x) < target`` by doubling an initial guess.

        The guess is based on the slowest-decaying pole: the tail decays
        (up to polynomial factors) like ``tail(0) * exp(-rate_min * x)``,
        so the crossing of ``target`` happens near
        ``log(tail(0)/target) / rate_min``.  This keeps the bracket tight
        even for defective one-term approximations whose "mean" is not a
        meaningful length scale.
        """
        tail0 = self.tail(0.0)
        rate_min = min(t.rate.real for t in self.terms)
        order_max = max(t.order for t in self.terms)
        guess = (math.log(max(tail0 / target, 2.0)) + 3.0 * order_max) / rate_min
        upper = max(guess, 1e-12)
        for _ in range(200):
            if self.tail(upper) < target:
                return upper
            upper *= 2.0
        raise ParameterError("could not bracket the requested quantile")

    def dominant_pole(self) -> Tuple[complex, complex]:
        """Return ``(rate, coefficient)`` of the asymptotically dominant term.

        The tail decays like ``coefficient * exp(-rate * x)`` (up to the
        polynomial factor of the term's order); the dominant pole is the
        one with the smallest real part.
        """
        if not self.terms:
            raise ParameterError("distribution has no Erlang terms (it is a point mass)")
        dominant = min(self.terms, key=lambda t: t.rate.real)
        coefficient = sum(
            t.coefficient
            for t in self.terms
            if abs(t.rate - dominant.rate) <= _POLE_MERGE_TOL * abs(dominant.rate)
            and t.order == dominant.order
        )
        return dominant.rate, coefficient

    def quantile_dominant_pole(self, probability: float) -> float:
        """Quantile from the dominant-pole approximation of the tail.

        Section 3.3: neglect all terms but the dominant pole, i.e.
        approximate ``P(X > x) ~ c * x^{m-1}/(m-1)! * rate^{m-1} e^{-rate x}``
        (for a first-order dominant pole simply ``c e^{-rate x}``).
        """
        if not 0.0 < probability < 1.0:
            raise ParameterError("probability must lie in (0, 1)")
        target = 1.0 - probability
        rate, coefficient = self.dominant_pole()
        dominant = min(self.terms, key=lambda t: t.rate.real)
        approx = ErlangTermSum(atom=0.0, terms=[ErlangTerm(coefficient, rate, dominant.order)])
        if approx.tail(0.0) <= target:
            return 0.0
        return approx.quantile(probability)

    def quantile_chernoff(self, probability: float) -> float:
        """Quantile from the Chernoff bound on the transform (eq. (36)).

        ``P(X > x) <= inf_{s in (0, s_max)} e^{-s x} F(s)`` where ``s_max``
        is the real part of the closest pole.  The reported quantile is
        the smallest ``x`` whose bound drops below the target.
        """
        if not 0.0 < probability < 1.0:
            raise ParameterError("probability must lie in (0, 1)")
        # Imported here: scipy loads only when a Chernoff bound is asked
        # for, and the inversion module imports this one.
        from scipy import optimize

        from .inversion import _brent, drive

        target = 1.0 - probability
        s_max = min(t.rate.real for t in self.terms) if self.terms else 1.0

        def bound(x: float) -> float:
            if x <= 0.0:
                return 1.0
            result = optimize.minimize_scalar(
                lambda s: (-s * x + math.log(max(abs(self.mgf(s)), 1e-300))),
                bounds=(1e-12, s_max * (1.0 - 1e-9)),
                method="bounded",
            )
            return math.exp(min(float(result.fun), 0.0))

        upper = max(self.mean(), 1e-12)
        for _ in range(200):
            if bound(upper) < target:
                break
            upper *= 2.0
        else:
            raise ParameterError("could not bracket the Chernoff quantile")
        return float(drive(_brent(1e-15, upper, 1e-12), lambda x: bound(x) - target))

    # ------------------------------------------------------------------
    # Products (Appendix A)
    # ------------------------------------------------------------------
    def product(self, other: "ErlangTermSum") -> "ErlangTermSum":
        """Transform of the sum of two independent delays (Appendix A).

        Each pair of Erlang terms with distinct poles is re-expanded by
        partial fractions; pairs sharing a pole simply add their orders.
        """
        atom = self.atom * other.atom
        terms: List[ErlangTerm] = []
        # atom x term cross products keep the other factor unchanged.
        for t in self.terms:
            if abs(other.atom) > 0.0:
                terms.append(ErlangTerm(t.coefficient * other.atom, t.rate, t.order))
        for t in other.terms:
            if abs(self.atom) > 0.0:
                terms.append(ErlangTerm(t.coefficient * self.atom, t.rate, t.order))
        # term x term cross products.
        for a in self.terms:
            for b in other.terms:
                terms.extend(_term_product(a, b))
        return ErlangTermSum(atom=atom, terms=_merge_terms(terms))

    def __mul__(self, other: "ErlangTermSum") -> "ErlangTermSum":
        if not isinstance(other, ErlangTermSum):
            return NotImplemented
        return self.product(other)

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def scaled(self, factor: float) -> "ErlangTermSum":
        """Distribution of ``factor * X`` (e.g. converting work to delay)."""
        if factor <= 0.0:
            raise ParameterError("scaling factor must be positive")
        return ErlangTermSum(
            atom=self.atom,
            terms=[ErlangTerm(t.coefficient, t.rate / factor, t.order) for t in self.terms],
        )

    def normalized(self) -> "ErlangTermSum":
        """Rescale the coefficients so the total mass is exactly one."""
        total = self.total_mass
        if total <= 0.0:
            raise ParameterError("cannot normalise a distribution with non-positive mass")
        return ErlangTermSum(
            atom=self.atom / total,
            terms=[ErlangTerm(t.coefficient / total, t.rate, t.order) for t in self.terms],
        )

    def sample(self, size: int, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Monte-Carlo samples (only valid when all coefficients are real
        and non-negative, i.e. the sum is an honest mixture).

        Used by the test-suite to cross-check products against direct
        convolution; the D/E_K/1 output with complex conjugate poles is
        *not* a mixture and cannot be sampled this way.
        """
        rng = rng if rng is not None else np.random.default_rng()
        weights = [self.atom_mass] + [float(t.coefficient.real) for t in self.terms]
        if any(w < -1e-12 for w in weights):
            raise ParameterError("sampling requires non-negative mixture weights")
        if any(abs(complex(t.coefficient).imag) > 1e-9 for t in self.terms):
            raise ParameterError("sampling requires real mixture weights")
        weights = np.clip(np.asarray(weights, dtype=float), 0.0, None)
        weights = weights / weights.sum()
        choices = rng.choice(len(weights), size=size, p=weights)
        out = np.zeros(size, dtype=float)
        for idx, term in enumerate(self.terms, start=1):
            mask = choices == idx
            count = int(mask.sum())
            if count:
                out[mask] = rng.gamma(shape=term.order, scale=1.0 / term.rate.real, size=count)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ErlangTermSum atom={self.atom_mass:.4g} terms={len(self.terms)} "
            f"mass={self.total_mass:.6g}>"
        )


# ----------------------------------------------------------------------
# Partial-fraction helpers (module private)
# ----------------------------------------------------------------------
def _merge_terms(terms: Sequence[ErlangTerm]) -> List[ErlangTerm]:
    """Combine terms that share (rate, order) and drop negligible ones."""
    merged: dict = {}
    for term in terms:
        key = None
        for existing in merged:
            rate, order = existing
            if order == term.order and abs(rate - term.rate) <= _POLE_MERGE_TOL * max(
                abs(rate), abs(term.rate)
            ):
                key = existing
                break
        if key is None:
            key = (term.rate, term.order)
            merged[key] = 0.0 + 0.0j
        merged[key] += term.coefficient
    out = [
        ErlangTerm(coefficient, rate, order)
        for (rate, order), coefficient in merged.items()
        if abs(coefficient) > _COEFFICIENT_FLOOR
    ]
    return out


def _term_product(a: ErlangTerm, b: ErlangTerm) -> List[ErlangTerm]:
    """Partial-fraction expansion of the product of two Erlang terms."""
    coefficient = a.coefficient * b.coefficient
    if abs(coefficient) <= _COEFFICIENT_FLOOR:
        return []
    if abs(a.rate - b.rate) <= _POLE_MERGE_TOL * max(abs(a.rate), abs(b.rate)):
        # Same pole: Erlang(m) * Erlang(n) with equal rates is Erlang(m+n).
        return [ErlangTerm(coefficient, a.rate, a.order + b.order)]
    return _partial_fraction_pair(coefficient, a.rate, a.order, b.rate, b.order)


def _partial_fraction_pair(
    coefficient: complex, lam: complex, m: int, mu: complex, n: int
) -> List[ErlangTerm]:
    """Expand ``coefficient * (lam/(lam-s))^m * (mu/(mu-s))^n``.

    Writing the product as ``lam^m mu^n / ((lam-s)^m (mu-s)^n)``,
    substituting ``u = lam - s`` and expanding ``(mu - s)^{-n} =
    (d + u)^{-n}`` (with ``d = mu - lam``) as a binomial series gives,
    for the pole ``lam`` of multiplicity ``k``::

        A_k = (-1)^{m-k} * C(m+n-k-1, m-k) * (mu-lam)^{-(m+n-k)}

    (and symmetrically for ``mu``), which is then renormalised into the
    ``(rate/(rate-s))^k`` convention used throughout.
    """
    prefactor = coefficient * lam**m * mu**n
    terms: List[ErlangTerm] = []
    for k in range(1, m + 1):
        raw = (
            (-1.0) ** (m - k)
            * math.comb(m + n - k - 1, m - k)
            * (mu - lam) ** (-(m + n - k))
        )
        coeff_k = prefactor * raw / lam**k
        if abs(coeff_k) > _COEFFICIENT_FLOOR:
            terms.append(ErlangTerm(coeff_k, lam, k))
    for k in range(1, n + 1):
        raw = (
            (-1.0) ** (n - k)
            * math.comb(m + n - k - 1, n - k)
            * (lam - mu) ** (-(m + n - k))
        )
        coeff_k = prefactor * raw / mu**k
        if abs(coeff_k) > _COEFFICIENT_FLOOR:
            terms.append(ErlangTerm(coeff_k, mu, k))
    return terms
