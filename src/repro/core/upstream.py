"""Upstream queueing models (Section 3.1 of the paper).

The clients each send one fixed-size packet per update interval; at the
aggregation node these periodic streams compete for the bottleneck link
towards the server.  The paper analyses this as an N*D/D/1 queue, shows
that the input converges to a Poisson stream when the number of gamers
grows (so that the M/D/1 — more generally M/G/1 — queue applies), and
finally approximates the M/G/1 waiting-time transform by a single
exponential term (eq. (14)) for use in the end-to-end combination.

Implemented here:

* :class:`PeriodicSourcesQueue` — the N*D/D/1 queue with the
  binomial dominant-term estimate (eq. (4)) and the Chernoff /
  large-deviations estimate (eqs. (7)-(10));
* :class:`MD1Queue` — the M/D/1 queue: exact Pollaczek-Khinchine
  moments, Crommelin's waiting-time distribution, the large-deviations
  estimate (eq. (12)), the dominant pole ``gamma`` and the one-pole
  transform of eq. (14);
* :class:`MultiClassMG1Queue` — several classes of gamers with their own
  packet sizes and intervals (eq. (13) and the surrounding discussion).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ParameterError, StabilityError
from ..units import require_positive
from .inversion import _brent, drive
from .mgf import ErlangTermSum

__all__ = ["PeriodicSourcesQueue", "MD1Queue", "MultiClassMG1Queue", "TrafficClass"]


# ----------------------------------------------------------------------
# N*D/D/1
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PeriodicSourcesQueue:
    """N periodic sources of fixed-size packets into a constant-rate link.

    Parameters
    ----------
    num_sources:
        Number of gamers ``N``.
    interval_s:
        Packet inter-arrival time ``D`` of one source, in seconds.
    packet_bits:
        Packet size ``p`` in bits.
    rate_bps:
        Link (or scheduler share) rate ``C`` in bit/s.
    """

    num_sources: int
    interval_s: float
    packet_bits: float
    rate_bps: float

    def __post_init__(self) -> None:
        if self.num_sources < 1:
            raise ParameterError("num_sources must be at least 1")
        require_positive(self.interval_s, "interval_s")
        require_positive(self.packet_bits, "packet_bits")
        require_positive(self.rate_bps, "rate_bps")
        if self.load >= 1.0:
            raise StabilityError(self.load)

    @property
    def load(self) -> float:
        """Offered load ``rho = N * p / (D * C)``."""
        return self.num_sources * self.packet_bits / (self.interval_s * self.rate_bps)

    @property
    def service_time_s(self) -> float:
        """Transmission time of one packet, ``p / C``."""
        return self.packet_bits / self.rate_bps

    # -- eq. (4): binomial dominant-term estimate -----------------------
    def delay_tail_binomial(self, delay_s: float, time_points: int = 400) -> float:
        """``P(Q/C > delay)`` using the dominant-window binomial estimate.

        eq. (4): ``P(Q > B) ~ sup_t P(Bin(N, t/D) * p > B + C*t)``; the
        supremum over the window length ``t`` is taken on a grid over
        ``(0, D]`` (the only windows that matter below saturation).
        """
        from scipy import stats

        if delay_s < 0.0:
            return 1.0
        backlog_bits = delay_s * self.rate_bps
        best = 0.0
        for t in np.linspace(self.interval_s / time_points, self.interval_s, time_points):
            threshold_packets = (backlog_bits + self.rate_bps * t) / self.packet_bits
            prob = float(
                stats.binom.sf(math.floor(threshold_packets), self.num_sources, t / self.interval_s)
            )
            best = max(best, prob)
        return min(best, 1.0)

    # -- eqs. (7)-(10): Chernoff / large-deviations estimate ------------
    def log_delay_tail_chernoff(self, delay_s: float, time_points: int = 400) -> float:
        """Natural log of the large-deviations estimate of ``P(Q/C > delay)``.

        For each window length ``t`` the inner infimum over ``s`` is
        available in closed form (eq. (9)); the outer supremum over ``t``
        is taken on a grid over ``(0, D]``.
        """
        if delay_s <= 0.0:
            return 0.0
        backlog = delay_s * self.rate_bps
        n, p_bits, d, c = self.num_sources, self.packet_bits, self.interval_s, self.rate_bps
        best = -math.inf
        for t in np.linspace(d / time_points, d, time_points):
            threshold = backlog + c * t
            if threshold >= n * p_bits:
                # Even all N packets together cannot exceed the threshold.
                continue
            a = t / d
            ratio = (threshold * (1.0 - a)) / (a * (n * p_bits - threshold))
            if ratio <= 0.0:
                continue
            s_star = math.log(ratio) / p_bits
            if s_star <= 0.0:
                # The threshold is below the mean arrival in the window;
                # the Chernoff bound is vacuous there (log P ~ 0).
                best = max(best, 0.0)
                continue
            log_mgf = n * math.log1p(a * (math.exp(s_star * p_bits) - 1.0))
            best = max(best, -s_star * threshold + log_mgf)
        return min(best, 0.0)

    def delay_tail_chernoff(self, delay_s: float, time_points: int = 400) -> float:
        """Large-deviations estimate of ``P(Q/C > delay)`` (eqs. (7)-(10))."""
        return math.exp(self.log_delay_tail_chernoff(delay_s, time_points))

    def delay_quantile_chernoff(self, probability: float) -> float:
        """Delay quantile from the large-deviations estimate."""
        if not 0.0 < probability < 1.0:
            raise ParameterError("probability must lie in (0, 1)")
        target = math.log(1.0 - probability)
        upper = self.service_time_s
        for _ in range(200):
            if self.log_delay_tail_chernoff(upper) < target:
                break
            upper *= 2.0
        else:
            raise ParameterError("could not bracket the requested quantile")
        return float(
            drive(_brent(0.0, upper, 1e-9), lambda x: self.log_delay_tail_chernoff(x) - target)
        )

    # -- Poisson limit ---------------------------------------------------
    def poisson_limit(self) -> "MD1Queue":
        """The M/D/1 queue the system converges to when N grows (eq. (11))."""
        return MD1Queue(
            arrival_rate=self.num_sources / self.interval_s,
            packet_bits=self.packet_bits,
            rate_bps=self.rate_bps,
        )

    def simulate_delays(
        self,
        num_cycles: int,
        rng: Optional[np.random.Generator] = None,
        warmup_cycles: int = 50,
    ) -> np.ndarray:
        """Per-packet waiting times from a direct event-driven simulation.

        Each source emits one packet per period with an independent
        uniform phase; packets are served FIFO at ``rate_bps``.  Used to
        validate the analytical estimates.
        """
        rng = rng if rng is not None else np.random.default_rng()
        phases = rng.uniform(0.0, self.interval_s, size=self.num_sources)
        total_cycles = num_cycles + warmup_cycles
        arrivals = np.concatenate(
            [phases + k * self.interval_s for k in range(total_cycles)]
        )
        arrivals.sort()
        service = self.service_time_s
        waits = np.empty(arrivals.size, dtype=float)
        free_at = 0.0
        for i, arrival in enumerate(arrivals):
            start = max(arrival, free_at)
            waits[i] = start - arrival
            free_at = start + service
        return waits[self.num_sources * warmup_cycles:]


# ----------------------------------------------------------------------
# M/D/1
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MD1Queue:
    """M/D/1 queue: Poisson packet arrivals, deterministic service.

    Parameters
    ----------
    arrival_rate:
        Packet arrival rate ``lambda`` in packets per second (``N / D``).
    packet_bits:
        Packet size in bits.
    rate_bps:
        Link rate in bit/s.
    """

    arrival_rate: float
    packet_bits: float
    rate_bps: float

    def __post_init__(self) -> None:
        require_positive(self.arrival_rate, "arrival_rate")
        require_positive(self.packet_bits, "packet_bits")
        require_positive(self.rate_bps, "rate_bps")
        if self.load >= 1.0:
            raise StabilityError(self.load)

    @property
    def service_time_s(self) -> float:
        """Deterministic service time ``d = p / C``."""
        return self.packet_bits / self.rate_bps

    @property
    def load(self) -> float:
        """Offered load ``rho = lambda * d``."""
        return self.arrival_rate * self.service_time_s

    # -- exact Pollaczek-Khinchine moments ------------------------------
    def mean_waiting_time(self) -> float:
        """Mean waiting time ``rho * d / (2 * (1 - rho))``."""
        return self.load * self.service_time_s / (2.0 * (1.0 - self.load))

    def mean_sojourn_time(self) -> float:
        """Mean waiting plus service time."""
        return self.mean_waiting_time() + self.service_time_s

    # -- dominant pole and eq. (14) --------------------------------------
    @cached_property
    def dominant_pole(self) -> float:
        """The dominant pole ``gamma`` of the waiting-time transform.

        ``gamma`` is the unique positive solution of
        ``s = lambda * (exp(s*d) - 1)`` (the zero of the Pollaczek-
        Khinchine denominator closest to the origin).
        """
        lam, d = self.arrival_rate, self.service_time_s

        def g(s: float) -> float:
            return lam * math.expm1(s * d) - s

        # g(0) = 0, g'(0) = rho - 1 < 0 and g -> +inf, so bracket upwards.
        lower = 1e-9 / d
        upper = 1.0 / d
        while g(upper) <= 0.0:
            upper *= 2.0
            if upper > 1e12 / d:
                raise ParameterError("failed to bracket the M/D/1 dominant pole")
        return float(drive(_brent(lower, upper, 1e-15, rtol=1e-14), g))

    def residue_coefficient(self) -> float:
        """Asymptotic tail constant: ``P(W > x) ~ coeff * exp(-gamma x)``.

        The residue of the Pollaczek-Khinchine transform at ``gamma``
        gives ``coeff = (1 - rho) / (lambda*d*exp(gamma*d) - 1)``.
        """
        gamma = self.dominant_pole
        lam, d = self.arrival_rate, self.service_time_s
        return (1.0 - self.load) / (lam * d * math.exp(gamma * d) - 1.0)

    def waiting_time(self, coefficient: str = "load") -> ErlangTermSum:
        """One-pole approximation of the waiting-time transform (eq. (14)).

        ``D_u(s) ~ (1 - rho) + rho * gamma / (gamma - s)``.

        Parameters
        ----------
        coefficient:
            ``"load"`` uses the paper's choice (weight ``rho`` on the
            exponential term); ``"residue"`` uses the exact asymptotic
            constant instead, which is sharper deep in the tail.
        """
        gamma = self.dominant_pole
        if coefficient == "load":
            weight = self.load
        elif coefficient == "residue":
            weight = self.residue_coefficient()
        else:
            raise ParameterError("coefficient must be 'load' or 'residue'")
        return ErlangTermSum.exponential(gamma, weight=weight, atom=1.0 - weight)

    def mgf_exact(self, s: float) -> float:
        """Exact Pollaczek-Khinchine transform ``E[e^{sW}]`` for real ``s < gamma``."""
        if s == 0.0:
            return 1.0
        lam, d = self.arrival_rate, self.service_time_s
        denominator = s - lam * math.expm1(s * d)
        if denominator <= 0.0:
            raise ParameterError("transform evaluated at or beyond its dominant pole")
        return (1.0 - self.load) * s / denominator

    # -- exact waiting-time distribution (Crommelin) ---------------------
    def waiting_time_cdf_exact(self, x: float, max_terms: int = 2000) -> float:
        """Crommelin's series for ``P(W <= x)`` in the M/D/1 queue.

        ``P(W <= x) = (1-rho) * sum_{k=0}^{floor(x/d)}
        [lambda*(k*d - x)]^k / k! * exp(-lambda*(k*d - x))``.

        The series alternates in sign and loses precision when ``x/d`` is
        large (hundreds of service times); it is intended for moderate
        arguments and cross-checks, with the large-deviations estimate
        available for the deep tail.
        """
        if x < 0.0:
            return 0.0
        lam, d = self.arrival_rate, self.service_time_s
        kmax = min(int(math.floor(x / d)), max_terms)
        terms = []
        for k in range(kmax + 1):
            u = lam * (k * d - x)
            # u <= 0 here, so exp(-u) >= 1; the power alternates in sign.
            terms.append((u**k / math.factorial(k)) * math.exp(-u))
        total = (1.0 - self.load) * math.fsum(terms)
        return min(max(total, 0.0), 1.0)

    # -- eq. (12): large-deviations estimate ------------------------------
    def log_delay_tail_chernoff(self, delay_s: float, horizon_periods: float = 50.0,
                                time_points: int = 800) -> float:
        """Log of the large-deviations estimate of ``P(Q/C > delay)`` (eq. (12)).

        ``log P(Q > B) ~ sup_t inf_s [-s(B + C t) + lambda t (e^{s p} - 1)]``
        with the inner optimiser ``s* = (1/p) log((B + C t)/(lambda t p))``.
        """
        if delay_s <= 0.0:
            return 0.0
        backlog = delay_s * self.rate_bps
        lam, p_bits, c = self.arrival_rate, self.packet_bits, self.rate_bps
        horizon = horizon_periods * max(self.service_time_s / self.load, self.service_time_s)
        best = -math.inf
        for t in np.linspace(horizon / time_points, horizon, time_points):
            threshold = backlog + c * t
            mean_arrival = lam * t * p_bits
            if threshold <= mean_arrival:
                best = max(best, 0.0)
                continue
            s_star = math.log(threshold / mean_arrival) / p_bits
            value = -s_star * threshold + lam * t * math.expm1(s_star * p_bits)
            best = max(best, value)
        return min(best, 0.0)

    def delay_tail_chernoff(self, delay_s: float) -> float:
        """Large-deviations estimate of ``P(Q/C > delay)`` (eq. (12))."""
        return math.exp(self.log_delay_tail_chernoff(delay_s))

    # -- validation -------------------------------------------------------
    def simulate_waiting_times(
        self,
        num_packets: int,
        rng: Optional[np.random.Generator] = None,
        warmup: int = 1000,
    ) -> np.ndarray:
        """Lindley-recursion simulation of the M/D/1 waiting time."""
        if num_packets < 1:
            raise ParameterError("num_packets must be positive")
        rng = rng if rng is not None else np.random.default_rng()
        total = num_packets + warmup
        inter_arrivals = rng.exponential(1.0 / self.arrival_rate, size=total)
        service = self.service_time_s
        waits = np.empty(total, dtype=float)
        w = 0.0
        for i in range(total):
            waits[i] = w
            w = max(w + service - inter_arrivals[i], 0.0)
        return waits[warmup:]


# ----------------------------------------------------------------------
# Multi-class M/G/1 (two classes of gamers, end of Section 3.1)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TrafficClass:
    """One class of gamers: ``num_sources`` users sending ``packet_bits``
    every ``interval_s`` seconds.

    ``num_sources`` may be fractional: in the Poisson limit only the
    aggregate rate ``num_sources / interval_s`` matters, and load-derived
    operating points (eq. (37)) produce fractional gamer counts.
    """

    num_sources: float
    interval_s: float
    packet_bits: float

    def __post_init__(self) -> None:
        require_positive(self.num_sources, "num_sources")
        require_positive(self.interval_s, "interval_s")
        require_positive(self.packet_bits, "packet_bits")

    @property
    def arrival_rate(self) -> float:
        """Aggregate packet arrival rate of the class (packets/s)."""
        return self.num_sources / self.interval_s


@dataclass(frozen=True)
class MultiClassMG1Queue:
    """M/G/1 queue fed by several classes of periodic gamers.

    In the Poisson limit every arrival is, independently, of class ``i``
    with probability ``lambda_i / lambda`` (the "flip a coin" remark of
    Section 3.1), so the service time is a finite mixture of the
    per-class deterministic transmission times and the classic
    Pollaczek-Khinchine machinery applies.
    """

    classes: Tuple[TrafficClass, ...]
    rate_bps: float

    def __post_init__(self) -> None:
        if not self.classes:
            raise ParameterError("at least one traffic class is required")
        require_positive(self.rate_bps, "rate_bps")
        if self.load >= 1.0:
            raise StabilityError(self.load)

    @classmethod
    def from_classes(cls, classes: Sequence[TrafficClass], rate_bps: float) -> "MultiClassMG1Queue":
        """Build the queue from an iterable of traffic classes."""
        return cls(tuple(classes), rate_bps)

    @property
    def arrival_rate(self) -> float:
        """Total packet arrival rate (packets/s)."""
        return sum(c.arrival_rate for c in self.classes)

    @property
    def load(self) -> float:
        """Total offered load."""
        return sum(
            c.arrival_rate * c.packet_bits / self.rate_bps for c in self.classes
        )

    def _service_moments(self) -> Tuple[float, float]:
        """Mean and second moment of the (mixture) service time."""
        lam = self.arrival_rate
        mean = 0.0
        second = 0.0
        for c in self.classes:
            weight = c.arrival_rate / lam
            d = c.packet_bits / self.rate_bps
            mean += weight * d
            second += weight * d * d
        return mean, second

    def mean_waiting_time(self) -> float:
        """Pollaczek-Khinchine mean waiting time ``lambda E[S^2] / (2(1-rho))``."""
        _, second = self._service_moments()
        return self.arrival_rate * second / (2.0 * (1.0 - self.load))

    @cached_property
    def dominant_pole(self) -> float:
        """Dominant pole of the multi-class waiting-time transform.

        The unique positive root of ``s = lambda (B(s) - 1)`` where
        ``B(s) = sum_i (lambda_i/lambda) e^{s d_i}``.
        """
        lam = self.arrival_rate

        def service_mgf(s: float) -> float:
            return sum(
                (c.arrival_rate / lam) * math.exp(s * c.packet_bits / self.rate_bps)
                for c in self.classes
            )

        def g(s: float) -> float:
            return lam * (service_mgf(s) - 1.0) - s

        d_max = max(c.packet_bits / self.rate_bps for c in self.classes)
        lower = 1e-9 / d_max
        upper = 1.0 / d_max
        while g(upper) <= 0.0:
            upper *= 2.0
            if upper > 1e12 / d_max:
                raise ParameterError("failed to bracket the multi-class dominant pole")
        return float(drive(_brent(lower, upper, 1e-15, rtol=1e-14), g))

    def waiting_time(self) -> ErlangTermSum:
        """One-pole approximation of the waiting time (eq. (14) analogue)."""
        gamma = self.dominant_pole
        rho = self.load
        return ErlangTermSum.exponential(gamma, weight=rho, atom=1.0 - rho)
