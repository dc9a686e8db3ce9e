"""Downstream D/E_K/1 queueing model (Section 3.2 of the paper).

The gaming server emits a burst of back-to-back packets every ``T``
seconds; the burst *service time* (burst size divided by the reserved
downstream rate) is Erlang-``K`` distributed.  Two delay components are
derived:

* the **burst delay** — the waiting time of the whole burst behind the
  residual work of previous bursts (Section 3.2.1).  Its transform is a
  constant plus ``K`` simple poles: the poles follow from the roots
  ``zeta_k`` of ``z = exp((z-1)/rho + 2*pi*i*(k-1)/K)`` inside the unit
  disc (eq. (26), Appendix C) through ``alpha_k = beta*(1-zeta_k)``
  (eq. (25)), and the weights are the Vandermonde solution
  ``a_j = zeta_j^K * prod_{k != j} (zeta_k - 1)/(zeta_k - zeta_j)``
  (eq. (27), Appendix D);
* the **packet-position delay** — the time to transmit the packets that
  sit in front of the tagged packet within its own burst
  (Section 3.2.2).  For a uniformly positioned packet this is an equal
  mixture of Erlang(1..K-1) with the burst rate ``beta`` (eq. (34)).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence

import numpy as np

from ..errors import ConvergenceError, ParameterError, StabilityError
from ..units import require_positive
from .inversion import _brent, drive
from .mgf import ErlangTerm, ErlangTermSum

__all__ = [
    "DEKOneQueue",
    "PacketPositionDelay",
    "MultiServerBurstQueue",
    "ServerFlow",
    "solve_root",
    "solve_all_roots",
]

_MAX_ITERATIONS = 100_000
_ROOT_TOLERANCE = 1e-14


def solve_root(load: float, order: int, branch: int) -> complex:
    """Solve ``z = exp((z-1)/load + 2*pi*i*branch/order)`` inside ``|z| < 1``.

    Appendix C proves each branch has exactly one root in the half plane
    ``Re[z] < 1`` (which then automatically satisfies ``|z| < 1``) and
    that the fixed-point iteration started at ``z = 0`` converges to it.
    """
    if not 0.0 < load < 1.0:
        raise StabilityError(load)
    if order < 1:
        raise ParameterError("Erlang order must be >= 1")
    phase = 2.0j * math.pi * branch / order
    exp, tolerance = cmath.exp, _ROOT_TOLERANCE
    z = 0.0 + 0.0j
    for _ in range(_MAX_ITERATIONS):
        z_next = exp((z - 1.0) / load + phase)
        # The relative step test ``tolerance * max(1, |z_next|)``; the
        # roots lie inside the unit disc, so the scale is almost always 1.
        scale = abs(z_next)
        if abs(z_next - z) <= tolerance * (scale if scale > 1.0 else 1.0):
            return z_next
        z = z_next
    raise ConvergenceError(
        f"fixed-point iteration for root (load={load}, order={order}, branch={branch}) "
        f"did not converge",
        iterations=_MAX_ITERATIONS,
    )


def solve_all_roots(load: float, order: int) -> List[complex]:
    """All ``K`` roots ``zeta_1..zeta_K`` of eq. (26) inside the unit disc."""
    return [solve_root(load, order, branch) for branch in range(order)]


@dataclass(frozen=True)
class DEKOneQueue:
    """The D/E_K/1 queue of Section 3.2.1.

    Parameters
    ----------
    order:
        Erlang order ``K`` of the burst service time.
    mean_service_s:
        Mean burst service time ``b`` in seconds (mean burst size divided
        by the downstream link rate).
    interval_s:
        Burst inter-arrival (server tick) time ``T`` in seconds.
    """

    order: int
    mean_service_s: float
    interval_s: float

    def __post_init__(self) -> None:
        if self.order < 1 or int(self.order) != self.order:
            raise ParameterError(f"Erlang order must be a positive integer, got {self.order!r}")
        require_positive(self.mean_service_s, "mean_service_s")
        require_positive(self.interval_s, "interval_s")
        if self.load >= 1.0:
            raise StabilityError(self.load)

    # ------------------------------------------------------------------
    # Elementary parameters
    # ------------------------------------------------------------------
    @property
    def load(self) -> float:
        """Offered load ``rho_d = b / T``."""
        return self.mean_service_s / self.interval_s

    @property
    def service_rate(self) -> float:
        """The Erlang stage rate ``beta = K / b`` (in 1/s)."""
        return self.order / self.mean_service_s

    # ------------------------------------------------------------------
    # Spectral solution (Appendices C & D)
    # ------------------------------------------------------------------
    @cached_property
    def roots(self) -> List[complex]:
        """The roots ``zeta_1..zeta_K`` of eq. (26)."""
        return solve_all_roots(self.load, self.order)

    @cached_property
    def poles(self) -> List[complex]:
        """The poles ``alpha_k = beta * (1 - zeta_k)`` of the waiting-time MGF."""
        beta = self.service_rate
        return [beta * (1.0 - zeta) for zeta in self.roots]

    @cached_property
    def weights(self) -> List[complex]:
        """The weights ``a_j`` of eq. (27)."""
        zetas = self.roots
        weights: List[complex] = []
        for j, zeta_j in enumerate(zetas):
            if zeta_j == 0:
                # A root that underflowed to 0 (very low load) carries
                # weight zeta_j**K * ... = 0: the empty-queue limit.
                weights.append(0j)
                continue
            product = 1.0 + 0.0j
            for k, zeta_k in enumerate(zetas):
                if k == j:
                    continue
                product *= (zeta_k - 1.0) / (zeta_k - zeta_j)
            weights.append(zeta_j**self.order * product)
        return weights

    # ------------------------------------------------------------------
    # Waiting-time distribution of a burst
    # ------------------------------------------------------------------
    def waiting_time(self) -> ErlangTermSum:
        """Transform of the burst waiting time ``W`` as an Erlang-term sum.

        ``W(s) = a_0 + sum_j a_j * alpha_j / (alpha_j - s)`` where
        ``a_0 = 1 - sum_j a_j`` is the probability that a burst finds the
        system empty.
        """
        terms = [
            ErlangTerm(weight, pole, 1)
            for weight, pole in zip(self.weights, self.poles)
        ]
        atom = 1.0 - sum(self.weights)
        return ErlangTermSum(atom=atom, terms=terms)

    def idle_probability(self) -> float:
        """Probability that an arriving burst sees an empty system."""
        return float((1.0 - sum(self.weights)).real)

    def mean_waiting_time(self) -> float:
        """Mean burst waiting time in seconds."""
        return self.waiting_time().mean()

    def waiting_time_tail(self, x: float) -> float:
        """``P(W > x)`` for the burst waiting time."""
        return self.waiting_time().tail(x)

    def waiting_time_quantile(self, probability: float) -> float:
        """Quantile of the burst waiting time."""
        return self.waiting_time().quantile(probability)

    # ------------------------------------------------------------------
    # Validation helpers
    # ------------------------------------------------------------------
    def characteristic_equation(self, s: complex) -> complex:
        """Residual of eq. (54): ``(1 - s/beta)^K - exp(-s*T)``.

        Every pole of the waiting-time transform is a root of this
        equation; the property is used in the test-suite.
        """
        beta = self.service_rate
        return (1.0 - s / beta) ** self.order - cmath.exp(-s * self.interval_s)

    def simulate_waiting_times(
        self,
        num_bursts: int,
        rng: Optional[np.random.Generator] = None,
        warmup: int = 1000,
    ) -> np.ndarray:
        """Simulate the Lindley recursion (eq. (15)) for validation.

        ``w_{n+1} = (w_n + b_n - T)^+`` with ``b_n`` Erlang(K, beta).
        """
        if num_bursts < 1:
            raise ParameterError("num_bursts must be positive")
        rng = rng if rng is not None else np.random.default_rng()
        total = num_bursts + warmup
        services = rng.gamma(shape=self.order, scale=1.0 / self.service_rate, size=total)
        waits = np.empty(total, dtype=float)
        w = 0.0
        for i in range(total):
            waits[i] = w
            w = max(w + services[i] - self.interval_s, 0.0)
        return waits[warmup:]


@dataclass(frozen=True)
class PacketPositionDelay:
    """Delay of a tagged packet behind its burst mates (Section 3.2.2).

    Parameters
    ----------
    order:
        Erlang order ``K`` of the burst service time.
    mean_service_s:
        Mean burst service time ``b`` in seconds.
    """

    order: int
    mean_service_s: float

    def __post_init__(self) -> None:
        if self.order < 1 or int(self.order) != self.order:
            raise ParameterError(f"Erlang order must be a positive integer, got {self.order!r}")
        require_positive(self.mean_service_s, "mean_service_s")

    @property
    def service_rate(self) -> float:
        """The Erlang stage rate ``beta = K / b``."""
        return self.order / self.mean_service_s

    # ------------------------------------------------------------------
    # Uniform position (eq. (33)/(34)) — the case used in the paper
    # ------------------------------------------------------------------
    def uniform_position(self) -> ErlangTermSum:
        """Delay transform for a packet uniformly placed in the burst.

        For ``K > 1`` eq. (34) gives an equal-weight mixture of
        Erlang(1..K-1) with rate ``beta``.  ``K = 1`` has a logarithmic
        branch point instead of poles and is excluded, exactly as in the
        paper ("we only consider ... K > 1").
        """
        if self.order < 2:
            raise ParameterError(
                "the uniform-position delay requires Erlang order K >= 2 (see Section 3.2.2)"
            )
        count = self.order - 1
        weights = [1.0 / count] * count
        orders = list(range(1, self.order))
        return ErlangTermSum.erlang_mixture(weights, orders, self.service_rate)

    def fixed_position(self, theta: float) -> ErlangTermSum:
        """Delay transform for a packet always at fraction ``theta`` of the burst.

        Eq. (32): ``P(s) = (beta/theta / (beta/theta - s))^K``, i.e. an
        Erlang(K) with rate ``beta / theta``.  ``theta = 1`` is the last
        packet of the burst (worst case), ``theta -> 0`` the first.
        """
        if not 0.0 < theta <= 1.0:
            raise ParameterError("theta must lie in (0, 1]")
        return ErlangTermSum.erlang(self.order, self.service_rate / theta)

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    def mean_uniform(self) -> float:
        """Mean position delay for a uniformly placed packet (``b / 2``... almost).

        The exact mean of the Erlang(1..K-1) mixture is
        ``(K-1+1)*K/(2*(K-1)*beta)``... simplified: ``K/(2*beta) = b/2``.
        """
        return 0.5 * self.mean_service_s

    def exact_transform_uniform(self, s: complex) -> complex:
        """Direct evaluation of eq. (33), used to cross-check eq. (34)."""
        beta = self.service_rate
        if s == 0:
            return 1.0
        if self.order == 1:
            return -(beta / s) * cmath.log(1.0 - s / beta)
        ratio = (beta / (beta - s)) ** (self.order - 1)
        return (beta / (s * (self.order - 1))) * (ratio - 1.0)

    def sample_uniform(self, size: int, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Monte-Carlo samples of ``U * B`` with ``U`` uniform, ``B`` Erlang(K)."""
        rng = rng if rng is not None else np.random.default_rng()
        bursts = rng.gamma(shape=self.order, scale=1.0 / self.service_rate, size=size)
        return rng.uniform(0.0, 1.0, size=size) * bursts


@dataclass(frozen=True)
class ServerFlow:
    """One game server's burst flow on a shared downstream pipe.

    Parameters
    ----------
    interval_s:
        Tick interval of this server (seconds).
    mean_service_s:
        Mean burst service time of this server on the shared pipe.
    order:
        Erlang order of this server's burst-size distribution.
    """

    interval_s: float
    mean_service_s: float
    order: int

    def __post_init__(self) -> None:
        require_positive(self.interval_s, "interval_s")
        require_positive(self.mean_service_s, "mean_service_s")
        if self.order < 1 or int(self.order) != self.order:
            raise ParameterError(f"Erlang order must be a positive integer, got {self.order!r}")

    @property
    def arrival_rate(self) -> float:
        """Burst arrival rate of this server (bursts per second)."""
        return 1.0 / self.interval_s

    @property
    def load(self) -> float:
        """Load contributed by this server."""
        return self.mean_service_s / self.interval_s

    @property
    def service_rate(self) -> float:
        """Erlang stage rate ``beta_i = K_i / b_i``."""
        return self.order / self.mean_service_s


@dataclass(frozen=True)
class MultiServerBurstQueue:
    """Several game servers multiplexed on one reserved downstream pipe.

    Section 3.2 of the paper: "If traffic stemming from more servers is
    transported over a reserved bit pipe, the N*D/G/1 queuing model
    applies where G = sum of E_K (a weighted mix of Erlang
    distributions), which [...] is very well approximated by M/G/1 if
    the number of servers is high enough."

    The class implements that M/G/1 approximation: Poisson burst
    arrivals at the aggregate rate, service times drawn from the
    rate-weighted mixture of the per-server Erlang burst services, with
    the Pollaczek-Khinchine mean, a dominant-pole one-term transform
    (the analogue of eq. (14)) and a Lindley simulation for validation.
    """

    flows: tuple

    def __post_init__(self) -> None:
        if not self.flows:
            raise ParameterError("at least one server flow is required")
        if self.load >= 1.0:
            raise StabilityError(self.load)

    @classmethod
    def from_flows(cls, flows) -> "MultiServerBurstQueue":
        """Build the queue from an iterable of :class:`ServerFlow`."""
        return cls(tuple(flows))

    # -- aggregate parameters -------------------------------------------
    @property
    def arrival_rate(self) -> float:
        """Aggregate burst arrival rate (bursts per second)."""
        return sum(flow.arrival_rate for flow in self.flows)

    @property
    def load(self) -> float:
        """Total offered load of all servers."""
        return sum(flow.load for flow in self.flows)

    def mixture_weights(self) -> List[float]:
        """Probability that an arriving burst belongs to each server."""
        total = self.arrival_rate
        return [flow.arrival_rate / total for flow in self.flows]

    def service_mgf(self, s: complex) -> complex:
        """Transform of the mixture service time ``B(s)``."""
        weights = self.mixture_weights()
        return sum(
            w * (flow.service_rate / (flow.service_rate - s)) ** flow.order
            for w, flow in zip(weights, self.flows)
        )

    def _service_moments(self) -> tuple:
        weights = self.mixture_weights()
        mean = sum(w * flow.mean_service_s for w, flow in zip(weights, self.flows))
        second = sum(
            w * flow.order * (flow.order + 1) / flow.service_rate**2
            for w, flow in zip(weights, self.flows)
        )
        return mean, second

    # -- waiting time -----------------------------------------------------
    def mean_waiting_time(self) -> float:
        """Pollaczek-Khinchine mean burst waiting time."""
        _, second = self._service_moments()
        return self.arrival_rate * second / (2.0 * (1.0 - self.load))

    @cached_property
    def dominant_pole(self) -> float:
        """Dominant pole of the M/G/1 waiting-time transform.

        The unique positive root of ``s = lambda (B(s) - 1)`` below the
        smallest per-server service pole ``beta_i``.
        """
        lam = self.arrival_rate
        s_max = min(flow.service_rate for flow in self.flows)

        def g(s: float) -> float:
            return lam * (self.service_mgf(s).real - 1.0) - s

        lower = 1e-12 * s_max
        upper = s_max * (1.0 - 1e-9)
        # g(0) = 0 with negative slope (stability), g -> +inf at the pole.
        probe = upper
        while g(probe) <= 0.0:
            probe = s_max - (s_max - probe) / 10.0
            if s_max - probe < 1e-15 * s_max:
                raise ParameterError("failed to bracket the multi-server dominant pole")
        return float(drive(_brent(lower, probe, 1e-15, rtol=1e-14), g))

    def waiting_time(self) -> ErlangTermSum:
        """One-pole approximation of the burst waiting time (eq. (14) analogue)."""
        rho = self.load
        return ErlangTermSum.exponential(self.dominant_pole, weight=rho, atom=1.0 - rho)

    def waiting_time_tail(self, x: float) -> float:
        """Approximate ``P(W > x)`` from the one-pole transform."""
        return self.waiting_time().tail(x)

    def waiting_time_quantile(self, probability: float) -> float:
        """Quantile of the one-pole waiting-time approximation."""
        return self.waiting_time().quantile(probability)

    # -- validation --------------------------------------------------------
    def simulate_waiting_times(
        self,
        num_bursts: int,
        rng: Optional[np.random.Generator] = None,
        warmup: int = 1000,
    ) -> np.ndarray:
        """Lindley simulation of the M/G/1 approximation (mixture service)."""
        if num_bursts < 1:
            raise ParameterError("num_bursts must be positive")
        rng = rng if rng is not None else np.random.default_rng()
        total = num_bursts + warmup
        weights = self.mixture_weights()
        choices = rng.choice(len(self.flows), size=total, p=weights)
        services = np.empty(total, dtype=float)
        for index, flow in enumerate(self.flows):
            mask = choices == index
            count = int(mask.sum())
            if count:
                services[mask] = rng.gamma(flow.order, 1.0 / flow.service_rate, size=count)
        inter_arrivals = rng.exponential(1.0 / self.arrival_rate, size=total)
        waits = np.empty(total, dtype=float)
        w = 0.0
        for i in range(total):
            waits[i] = w
            w = max(w + services[i] - inter_arrivals[i], 0.0)
        return waits[warmup:]
