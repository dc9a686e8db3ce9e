"""End-to-end Ping-time (RTT) model (Sections 3.3 and 4 of the paper).

:class:`PingTimeModel` assembles the three queueing-delay components —
upstream M/D/1 waiting, downstream D/E_K/1 burst waiting and the
in-burst packet-position delay — plus the deterministic serialization,
propagation and processing delays into the round-trip time experienced
by a gamer, and evaluates its high quantiles.

Four evaluation methods are offered (Section 3.3):

* ``"inversion"`` (default) — numerical inversion of the *exact* product
  transform ``D_u(s) W(s) P(s)`` with the Euler algorithm; numerically
  robust at every load;
* ``"erlang-sum"`` — the paper's Appendix-A route: expand the product as
  a sum of Erlang terms (eq. (35)) and invert it analytically.  Exact,
  but the expansion is ill-conditioned when the D/E_K/1 poles crowd the
  packet-position pole (low load), so use with care;
* ``"dominant-pole"`` — keep only the dominant pole of the product;
* ``"chernoff"`` — the Chernoff bound of eq. (36);
* ``"sum-of-quantiles"`` — sum of the per-component quantiles (the
  conservative shortcut mentioned at the end of Section 3.3).
"""

from __future__ import annotations

import cmath
import math
import os
import time
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import ParameterError, StabilityError
from ..units import require_non_negative, require_positive
from .bounds import DeterministicRttBound
from .downstream import (
    DEKOneQueue,
    MultiServerBurstQueue,
    PacketPositionDelay,
    ServerFlow,
)
from .inversion import _brent, _ProductTailKernel, drive, quantiles_from_mgfs
from .mgf import ErlangTerm, ErlangTermSum, _erlang_powers, _erlang_sum
from .upstream import MD1Queue, MultiClassMG1Queue, TrafficClass

__all__ = [
    "ComposedRttModel",
    "PingTimeModel",
    "MixFlow",
    "MixPingTimeModel",
    "DEFAULT_QUANTILE",
    "RttBreakdown",
    "QUANTILE_METHODS",
    "QueueingMgfStack",
    "CostModel",
    "EvalPlan",
    "PlanResult",
    "compile_eval_plans",
    "execute_plan",
    "plan_signature",
    "model_uplink_load",
    "model_build_count",
    "reset_model_build_count",
]

#: Running count of PingTimeModel constructions (see model_build_count).
_MODEL_BUILDS = 0

def model_build_count() -> int:
    """Number of :class:`PingTimeModel` instances built so far.

    Model construction is the expensive step of every evaluation (it
    triggers the component-transform computations), so benchmarks and
    the engine and fleet tests use this counter to
    verify how much work a code path really performs.
    """
    return _MODEL_BUILDS


def reset_model_build_count() -> int:
    """Reset the construction counter, returning the previous value."""
    global _MODEL_BUILDS
    previous = _MODEL_BUILDS
    _MODEL_BUILDS = 0
    return previous

#: The paper computes 99.999% quantiles of the RTT (Section 4).
DEFAULT_QUANTILE = 0.99999

#: The quantile evaluation methods accepted by :meth:`PingTimeModel.queueing_quantile`.
QUANTILE_METHODS = (
    "inversion",
    "erlang-sum",
    "dominant-pole",
    "chernoff",
    "sum-of-quantiles",
)


@dataclass(frozen=True)
class RttBreakdown:
    """Per-component view of an RTT quantile evaluation (all in seconds)."""

    probability: float
    serialization_s: float
    propagation_s: float
    processing_s: float
    upstream_queueing_s: float
    downstream_burst_s: float
    packet_position_s: float
    total_queueing_quantile_s: float
    rtt_quantile_s: float

    def as_dict(self) -> Dict[str, float]:
        """Dictionary view (useful for tabulation)."""
        return {
            "probability": self.probability,
            "serialization_s": self.serialization_s,
            "propagation_s": self.propagation_s,
            "processing_s": self.processing_s,
            "upstream_queueing_s": self.upstream_queueing_s,
            "downstream_burst_s": self.downstream_burst_s,
            "packet_position_s": self.packet_position_s,
            "total_queueing_quantile_s": self.total_queueing_quantile_s,
            "rtt_quantile_s": self.rtt_quantile_s,
        }


class ComposedRttModel:
    """Shared RTT machinery over three composed queueing-delay factors.

    Every analytical RTT model in the package is the same symbolic
    object: the product of three Erlang-term-sum transforms — an
    upstream aggregation waiting time, a downstream burst waiting time
    and an in-burst packet-position delay — plus deterministic
    serialization, propagation and processing delays.  Subclasses
    provide the factors as the cached properties ``_upstream_terms``,
    ``_burst_terms`` and ``_position_terms`` plus the
    ``serialization_delay_s`` / ``deterministic_delay_s`` properties;
    this base turns them into the exact product transform, its tails
    and every quantile method of Section 3.3.

    Keeping the arithmetic here guarantees the single-server
    :class:`PingTimeModel` and the multi-server
    :class:`MixPingTimeModel` follow the exact same evaluation path —
    and therefore share the stacked plan/execute machinery
    (:class:`QueueingMgfStack`, :class:`EvalPlan`) with bit-identical
    floats.
    """

    # Supplied by the dataclass subclasses: the tagged/served gamer's
    # packet sizes and access rates plus the deterministic extras.
    client_packet_bytes: float
    server_packet_bytes: float
    access_uplink_bps: float
    access_downlink_bps: float
    aggregation_rate_bps: float
    propagation_delay_s: float
    server_processing_s: float

    # ------------------------------------------------------------------
    # Deterministic delays
    # ------------------------------------------------------------------
    @property
    def serialization_delay_s(self) -> float:
        """Serialization on the access and aggregation links, both ways."""
        up_bits = 8.0 * self.client_packet_bytes
        down_bits = 8.0 * self.server_packet_bytes
        return (
            up_bits / self.access_uplink_bps
            + up_bits / self.aggregation_rate_bps
            + down_bits / self.aggregation_rate_bps
            + down_bits / self.access_downlink_bps
        )

    @property
    def deterministic_delay_s(self) -> float:
        """All non-queueing delay: serialization + propagation + processing."""
        return (
            self.serialization_delay_s
            + 2.0 * self.propagation_delay_s
            + self.server_processing_s
        )

    # ------------------------------------------------------------------
    # Queueing delay: transform, tail and quantiles
    # ------------------------------------------------------------------
    def queueing_mgf(self, s: complex) -> complex:
        """The exact total queueing-delay transform ``D_u(s) W(s) P(s)``.

        Evaluating the product directly (without re-expanding it) is
        numerically stable at every load and is what the default
        ``"inversion"`` quantile method operates on; the product is
        evaluated by :attr:`tail_kernel`, which also runs the model's
        own inversion tails and quantiles.  Accepts a scalar
        or a complex ndarray (the Euler inversion evaluates all its
        abscissae in one array call).  Scalar input is routed through a
        one-element array so a scalar call returns the exact floats of
        the corresponding array element, whatever SIMD kernels numpy
        picks for the array product.
        """
        if not isinstance(s, np.ndarray):
            return complex(self.queueing_mgf(np.asarray(s, dtype=complex).reshape(1))[0])
        return self.tail_kernel.mgf(np.asarray(s, dtype=complex))

    @property
    def queueing_atom(self) -> float:
        """``P(total queueing delay = 0)``: the product of the component atoms.

        Passed to the inversion as the known atom at zero, replacing the
        unbounded ``mgf(-1e12)`` probe the inversion used to perform.
        """
        return (
            self._upstream_terms.atom_mass
            * self._burst_terms.atom_mass
            * self._position_terms.atom_mass
        )

    @property
    def _inversion_scale_hint(self) -> float:
        """Bracketing length scale of the quantile search."""
        return max(self.mean_queueing_delay(), 1e-7)

    @cached_property
    def queueing_delay_erlang_sum(self) -> ErlangTermSum:
        """The Appendix-A expansion of the product transform (eq. (35)).

        Exact in exact arithmetic, but ill-conditioned in floating point
        when the burst-delay poles approach the position-delay pole
        (which happens at low load); prefer :meth:`queueing_mgf` plus the
        ``"inversion"`` method for numbers, and this object when the
        symbolic structure itself is of interest.
        """
        return self._upstream_terms.product(self._burst_terms).product(self._position_terms)

    def mean_queueing_delay(self) -> float:
        """Mean total queueing delay (sum of the three component means)."""
        return (
            self._upstream_terms.mean()
            + self._burst_terms.mean()
            + self._position_terms.mean()
        )

    # ------------------------------------------------------------------
    # Monte-Carlo sampling hooks (used by :mod:`repro.validate.batch`)
    # ------------------------------------------------------------------
    def sample_upstream_delays(
        self, size: int, rng: Optional[np.random.Generator] = None
    ) -> "np.ndarray":
        """Monte-Carlo samples of the upstream waiting time.

        Both upstream models (M/D/1 eq. (14) and the multi-class M/G/1
        one-pole analogue) produce an honest atom + exponential mixture,
        so the transform itself is sampleable; the burst factor is *not*
        (complex conjugate poles) and is validated through the Lindley
        recursion instead — see :mod:`repro.validate.batch`.
        """
        return self._upstream_terms.sample(size, rng=rng)

    def sample_position_delays(
        self, size: int, rng: Optional[np.random.Generator] = None
    ) -> "np.ndarray":
        """Monte-Carlo samples of the in-burst packet-position delay."""
        return self.position_delay().sample_uniform(size, rng=rng)

    @cached_property
    def tail_kernel(self) -> _ProductTailKernel:
        """The product transform compiled for inversion, built once per model.

        Holds the three factors' term arrays and the known atom;
        :meth:`queueing_mgf` and every ``"inversion"`` tail and quantile
        of this model run on it.
        """
        factors = (self._upstream_terms, self._burst_terms, self._position_terms)
        return _ProductTailKernel(factors, self.queueing_atom)

    def queueing_tail(self, delay_s: float) -> float:
        """``P(total queueing delay > delay_s)`` by transform inversion.

        The float of ``tail_from_mgf(self.queueing_mgf, delay_s,
        atom_at_zero=self.queueing_atom)``, computed by :attr:`tail_kernel`.
        """
        return self.tail_kernel.tail(delay_s)

    def queueing_quantile(
        self, probability: float = DEFAULT_QUANTILE, method: str = "inversion"
    ) -> float:
        """Quantile of the total queueing delay, in seconds.

        ``"inversion"`` runs one quantile search on :attr:`tail_kernel`
        and returns the float of ``quantile_from_mgf(self.queueing_mgf,
        probability, self._inversion_scale_hint,
        atom_at_zero=self.queueing_atom)``; the other methods are listed
        in :data:`QUANTILE_METHODS`.  Only ``"chernoff"`` uses scipy
        (``optimize.minimize_scalar`` for the bound's infimum): the first
        Chernoff quantile a process computes pays scipy's one-time
        import (about 0.4 s on a 2-vCPU x86_64 host), and every other
        method runs on numpy alone.
        """
        if method == "inversion":
            return self.tail_kernel.quantile(probability, self._inversion_scale_hint)
        if method == "erlang-sum":
            return self.queueing_delay_erlang_sum.quantile(probability)
        if method == "dominant-pole":
            return self._dominant_pole_quantile(probability)
        if method == "chernoff":
            return self._chernoff_quantile(probability)
        if method == "sum-of-quantiles":
            return (
                self._upstream_terms.quantile(probability)
                + self._burst_terms.quantile(probability)
                + self._position_terms.quantile(probability)
            )
        raise ParameterError(
            f"method must be one of {QUANTILE_METHODS}; got {method!r}"
        )

    # -- dominant pole ---------------------------------------------------
    def _dominant_pole_term(self) -> ErlangTermSum:
        """One-term approximation of the product around its dominant pole.

        The dominant pole of the product is the smallest pole (by real
        part) among the component poles; its residue is the residue of
        the owning component multiplied by the other two transforms
        evaluated at the pole (Section 3.3).
        """
        upstream, burst, position = (
            self._upstream_terms,
            self._burst_terms,
            self._position_terms,
        )
        candidates = []
        for owner, terms, others in (
            ("upstream", upstream, (burst, position)),
            ("burst", burst, (upstream, position)),
            ("position", position, (upstream, burst)),
        ):
            if not terms.terms:
                continue
            dominant = min(terms.terms, key=lambda t: t.rate.real)
            candidates.append((dominant.rate.real, dominant, others))
        if not candidates:
            return ErlangTermSum.point_mass_at_zero()
        _, dominant, others = min(candidates, key=lambda item: item[0])
        coefficient = dominant.coefficient
        for other in others:
            coefficient *= other.mgf(dominant.rate)
        return ErlangTermSum(
            atom=0.0, terms=[ErlangTerm(coefficient, dominant.rate, dominant.order)]
        )

    def _dominant_pole_quantile(self, probability: float) -> float:
        approx = self._dominant_pole_term()
        if not approx.terms:
            return 0.0
        target = 1.0 - probability
        if approx.tail(0.0) <= target:
            return 0.0
        return approx.quantile(probability)

    # -- Chernoff bound (eq. (36)) ----------------------------------------
    def _chernoff_tail(self, delay_s: float) -> float:
        if delay_s <= 0.0:
            return 1.0
        poles = (
            [t.rate.real for t in self._upstream_terms.terms]
            + [t.rate.real for t in self._burst_terms.terms]
            + [t.rate.real for t in self._position_terms.terms]
        )
        s_max = min(poles) * (1.0 - 1e-9)
        # Imported here: scipy loads only when a Chernoff bound is asked for.
        from scipy import optimize

        result = optimize.minimize_scalar(
            lambda s: -s * delay_s + math.log(max(abs(self.queueing_mgf(s)), 1e-300)),
            bounds=(1e-12, s_max),
            method="bounded",
        )
        return math.exp(min(float(result.fun), 0.0))

    def _chernoff_quantile(self, probability: float) -> float:
        target = 1.0 - probability
        upper = max(self.mean_queueing_delay(), 1e-7)
        for _ in range(200):
            if self._chernoff_tail(upper) < target:
                break
            upper *= 2.0
        else:
            raise ParameterError("could not bracket the Chernoff quantile")
        search = _brent(1e-15, upper, 1e-12)
        return float(drive(search, lambda x: self._chernoff_tail(x) - target))

    # ------------------------------------------------------------------
    # RTT quantiles
    # ------------------------------------------------------------------
    def rtt_quantile(self, probability: float = DEFAULT_QUANTILE, method: str = "inversion") -> float:
        """Quantile of the round-trip time in seconds."""
        return self.deterministic_delay_s + self.queueing_quantile(probability, method)

    def rtt_quantile_ms(self, probability: float = DEFAULT_QUANTILE, method: str = "inversion") -> float:
        """Quantile of the round-trip time in milliseconds."""
        return 1e3 * self.rtt_quantile(probability, method)

    def mean_rtt(self) -> float:
        """Mean round-trip time in seconds."""
        return self.deterministic_delay_s + self.mean_queueing_delay()

    def breakdown(self, probability: float = DEFAULT_QUANTILE) -> RttBreakdown:
        """Per-component quantiles, useful to see which delay dominates.

        Note that the per-component quantiles do not add up to the total
        quantile (the total is computed on the convolved distribution).
        """
        upstream = self._upstream_terms.quantile(probability)
        burst = self._burst_terms.quantile(probability)
        position = self._position_terms.quantile(probability)
        total_queueing = self.queueing_quantile(probability)
        return RttBreakdown(
            probability=probability,
            serialization_s=self.serialization_delay_s,
            propagation_s=2.0 * self.propagation_delay_s,
            processing_s=self.server_processing_s,
            upstream_queueing_s=upstream,
            downstream_burst_s=burst,
            packet_position_s=position,
            total_queueing_quantile_s=total_queueing,
            rtt_quantile_s=self.deterministic_delay_s + total_queueing,
        )


@dataclass(frozen=True)
class PingTimeModel(ComposedRttModel):
    """Analytical RTT model for the access architecture of Figure 2.

    Parameters
    ----------
    num_gamers:
        Number of active gamers ``N`` sharing the aggregation link (may
        be fractional when derived from a load sweep).
    tick_interval_s:
        Server tick / client update interval ``T`` in seconds (the paper
        assumes both directions share the same interval).
    client_packet_bytes:
        Upstream packet size ``P_C`` in bytes (80 in Section 4).
    server_packet_bytes:
        Downstream per-client packet size ``P_S`` in bytes.
    erlang_order:
        Erlang order ``K`` of the downstream burst-size distribution.
    access_uplink_bps / access_downlink_bps:
        Per-user DSL access rates ``R_up`` / ``R_down`` in bit/s.
    aggregation_rate_bps:
        Capacity ``C`` dedicated to gaming on the bottleneck link, bit/s.
    propagation_delay_s:
        One-way propagation delay added twice to the RTT (default 0).
    server_processing_s:
        Server processing time added once to the RTT (default 0).
    """

    num_gamers: float
    tick_interval_s: float
    client_packet_bytes: float
    server_packet_bytes: float
    erlang_order: int
    access_uplink_bps: float
    access_downlink_bps: float
    aggregation_rate_bps: float
    propagation_delay_s: float = 0.0
    server_processing_s: float = 0.0

    def __post_init__(self) -> None:
        global _MODEL_BUILDS
        _MODEL_BUILDS += 1
        if self.num_gamers < 1.0:
            raise ParameterError("num_gamers must be at least 1")
        require_positive(self.tick_interval_s, "tick_interval_s")
        require_positive(self.client_packet_bytes, "client_packet_bytes")
        require_positive(self.server_packet_bytes, "server_packet_bytes")
        if self.erlang_order < 2:
            raise ParameterError(
                "erlang_order must be >= 2 (the uniform packet-position delay "
                "of Section 3.2.2 requires K > 1)"
            )
        require_positive(self.access_uplink_bps, "access_uplink_bps")
        require_positive(self.access_downlink_bps, "access_downlink_bps")
        require_positive(self.aggregation_rate_bps, "aggregation_rate_bps")
        require_non_negative(self.propagation_delay_s, "propagation_delay_s")
        require_non_negative(self.server_processing_s, "server_processing_s")
        if self.downlink_load >= 1.0:
            raise StabilityError(self.downlink_load, "downlink load on the aggregation link >= 1")
        if self.uplink_load >= 1.0:
            raise StabilityError(self.uplink_load, "uplink load on the aggregation link >= 1")

    # ------------------------------------------------------------------
    # Alternative constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_downlink_load(cls, downlink_load: float, **kwargs) -> "PingTimeModel":
        """Build a model whose number of gamers realises ``downlink_load``.

        Inverts eq. (37): ``N = rho * T * C / (8 * P_S)``.
        """
        if not 0.0 < downlink_load < 1.0:
            raise ParameterError("downlink_load must lie in (0, 1)")
        tick = kwargs["tick_interval_s"]
        server_bytes = kwargs["server_packet_bytes"]
        rate = kwargs["aggregation_rate_bps"]
        num_gamers = downlink_load * tick * rate / (8.0 * server_bytes)
        if num_gamers < 1.0:
            raise ParameterError(
                f"load {downlink_load:.3f} corresponds to fewer than one gamer"
            )
        return cls(num_gamers=num_gamers, **kwargs)

    def with_gamers(self, num_gamers: float) -> "PingTimeModel":
        """Copy of this model with a different number of gamers."""
        return replace(self, num_gamers=num_gamers)

    # ------------------------------------------------------------------
    # Loads (eq. (37))
    # ------------------------------------------------------------------
    @property
    def downlink_load(self) -> float:
        """``rho_d = 8 N P_S / (T C)``."""
        return (
            8.0 * self.num_gamers * self.server_packet_bytes
            / (self.tick_interval_s * self.aggregation_rate_bps)
        )

    @property
    def uplink_load(self) -> float:
        """``rho_u = 8 N P_C / (T C)`` (see :func:`model_uplink_load`)."""
        return model_uplink_load(self.__dict__)

    @property
    def mean_burst_service_s(self) -> float:
        """Mean downstream burst service time ``b = 8 N P_S / C`` (seconds)."""
        return 8.0 * self.num_gamers * self.server_packet_bytes / self.aggregation_rate_bps

    # ------------------------------------------------------------------
    # Component models
    # ------------------------------------------------------------------
    def upstream_queue(self) -> MD1Queue:
        """The M/D/1 model of the upstream aggregation queue (Section 3.1)."""
        return MD1Queue(
            arrival_rate=self.num_gamers / self.tick_interval_s,
            packet_bits=8.0 * self.client_packet_bytes,
            rate_bps=self.aggregation_rate_bps,
        )

    def downstream_queue(self) -> DEKOneQueue:
        """The D/E_K/1 model of the downstream burst queue (Section 3.2.1)."""
        return DEKOneQueue(
            order=self.erlang_order,
            mean_service_s=self.mean_burst_service_s,
            interval_s=self.tick_interval_s,
        )

    def position_delay(self) -> PacketPositionDelay:
        """The in-burst packet-position delay model (Section 3.2.2)."""
        return PacketPositionDelay(
            order=self.erlang_order, mean_service_s=self.mean_burst_service_s
        )

    # Cached per-component transforms -----------------------------------
    @cached_property
    def _upstream_terms(self) -> ErlangTermSum:
        return self.upstream_queue().waiting_time()

    @cached_property
    def _burst_terms(self) -> ErlangTermSum:
        return self.downstream_queue().waiting_time()

    @cached_property
    def _position_terms(self) -> ErlangTermSum:
        return self.position_delay().uniform_position()

    # The queueing transform, tails, quantile methods and deterministic
    # delays live on :class:`ComposedRttModel` (shared with the
    # multi-server mix model).

    # ------------------------------------------------------------------
    # Baseline: deterministic worst-case bound
    # ------------------------------------------------------------------
    def deterministic_bound(self) -> DeterministicRttBound:
        """The worst-case (network-calculus style) RTT bound baseline."""
        return DeterministicRttBound.from_model(self)


@dataclass(frozen=True)
class MixFlow:
    """One game server's traffic share within a multi-server mix.

    Parameters
    ----------
    tick_interval_s:
        Server tick / client update interval of this game, in seconds.
    client_packet_bytes / server_packet_bytes:
        Upstream / per-client downstream packet sizes of this game.
    erlang_order:
        Erlang order of this game's downstream burst-size distribution.
    weight:
        Fraction of the mix's total gamer population playing this game.
    """

    tick_interval_s: float
    client_packet_bytes: float
    server_packet_bytes: float
    erlang_order: int
    weight: float

    def __post_init__(self) -> None:
        require_positive(self.tick_interval_s, "tick_interval_s")
        require_positive(self.client_packet_bytes, "client_packet_bytes")
        require_positive(self.server_packet_bytes, "server_packet_bytes")
        if self.erlang_order < 1 or int(self.erlang_order) != self.erlang_order:
            raise ParameterError(
                f"Erlang order must be a positive integer, got {self.erlang_order!r}"
            )
        object.__setattr__(self, "erlang_order", int(self.erlang_order))
        require_positive(self.weight, "weight")

    @classmethod
    def coerce(cls, value) -> "MixFlow":
        """Accept a :class:`MixFlow`, a mapping or a field-order tuple."""
        if isinstance(value, cls):
            return value
        if isinstance(value, Mapping):
            return cls(**value)
        return cls(*value)

    def as_dict(self) -> Dict[str, float]:
        """Plain-dictionary view (JSON- and pickle-ready)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class MixPingTimeModel(ComposedRttModel):
    """Analytical RTT model for several game servers on one reserved pipe.

    Section 3.2 of the paper: "If traffic stemming from more servers is
    transported over a reserved bit pipe, the N*D/G/1 queuing model
    applies [...] which is very well approximated by M/G/1 if the number
    of servers is high enough."  A tagged gamer playing on
    ``flows[tagged]`` sees

    * an **upstream** multi-class M/G/1 aggregation queue (eq. (13)):
      every gamer of every game sends its own client packets over the
      shared link, approximated by the one-pole transform of eq. (14);
    * a **downstream** burst waiting time from the
      :class:`~repro.core.downstream.MultiServerBurstQueue` M/G/1
      approximation — Poisson burst arrivals at the aggregate rate with
      the rate-weighted Erlang service mixture — again as the one-pole
      eq. (14) analogue;
    * the **packet-position** delay inside the tagged server's own burst
      (Section 3.2.2), unchanged from the single-server model.

    The queueing transform is therefore — exactly like
    :class:`PingTimeModel` — a product of three Erlang-term sums, with
    factor signature ``(1, 1, K_tagged - 1)``, so mix models compile
    into the same picklable :class:`EvalPlan` units, stack in the same
    :class:`QueueingMgfStack` lockstep searches and return bit-identical
    floats on every executor.

    Parameters
    ----------
    num_gamers:
        Total number of active gamers across every server of the mix
        (split over the flows by their weights; may be fractional when
        derived from a load sweep).
    flows:
        Per-server :class:`MixFlow` descriptions (mappings or
        field-order tuples are coerced); the weights must sum to one.
    tagged:
        Index of the flow whose gamers' RTT is evaluated (its Erlang
        order must be >= 2 for the Section 3.2.2 position delay).
    access_uplink_bps / access_downlink_bps:
        Per-user access rates of the tagged gamer, in bit/s.
    aggregation_rate_bps:
        Capacity of the shared reserved bit pipe, in bit/s.
    propagation_delay_s / server_processing_s:
        Deterministic extras, as in :class:`PingTimeModel`.
    """

    num_gamers: float
    flows: Tuple[MixFlow, ...]
    tagged: int
    access_uplink_bps: float
    access_downlink_bps: float
    aggregation_rate_bps: float
    propagation_delay_s: float = 0.0
    server_processing_s: float = 0.0

    def __post_init__(self) -> None:
        global _MODEL_BUILDS
        _MODEL_BUILDS += 1
        object.__setattr__(
            self, "flows", tuple(MixFlow.coerce(flow) for flow in self.flows)
        )
        if not self.flows:
            raise ParameterError("a mix needs at least one server flow")
        if self.num_gamers < 1.0:
            raise ParameterError("num_gamers must be at least 1")
        total_weight = math.fsum(flow.weight for flow in self.flows)
        if abs(total_weight - 1.0) > 1e-9:
            raise ParameterError(
                f"mix flow weights must sum to 1, got {total_weight!r}"
            )
        if int(self.tagged) != self.tagged or not 0 <= int(self.tagged) < len(self.flows):
            raise ParameterError(
                f"tagged must be a flow index in [0, {len(self.flows)}), "
                f"got {self.tagged!r}"
            )
        object.__setattr__(self, "tagged", int(self.tagged))
        if self.tagged_flow.erlang_order < 2:
            raise ParameterError(
                "the tagged flow needs erlang_order >= 2 (the uniform "
                "packet-position delay of Section 3.2.2 requires K > 1)"
            )
        require_positive(self.access_uplink_bps, "access_uplink_bps")
        require_positive(self.access_downlink_bps, "access_downlink_bps")
        require_positive(self.aggregation_rate_bps, "aggregation_rate_bps")
        require_non_negative(self.propagation_delay_s, "propagation_delay_s")
        require_non_negative(self.server_processing_s, "server_processing_s")
        if self.downlink_load >= 1.0:
            raise StabilityError(
                self.downlink_load, "downlink load on the shared pipe >= 1"
            )
        if self.uplink_load >= 1.0:
            raise StabilityError(
                self.uplink_load, "uplink load on the aggregation link >= 1"
            )

    # ------------------------------------------------------------------
    # Per-flow and aggregate parameters
    # ------------------------------------------------------------------
    @property
    def tagged_flow(self) -> MixFlow:
        """The flow carrying the tagged gamer."""
        return self.flows[self.tagged]

    def flow_gamers(self) -> Tuple[float, ...]:
        """Gamer count of each flow (``weight_i * num_gamers``)."""
        return tuple(flow.weight * self.num_gamers for flow in self.flows)

    def _flow_burst_service_s(self, flow: MixFlow) -> float:
        """Mean burst service time of one flow: ``8 N_i P_S_i / C``."""
        return (
            8.0 * flow.weight * self.num_gamers * flow.server_packet_bytes
            / self.aggregation_rate_bps
        )

    @property
    def downlink_load(self) -> float:
        """Total downstream load: ``sum_i 8 N_i P_S_i / (T_i C)`` (eq. (37))."""
        return sum(
            self._flow_burst_service_s(flow) / flow.tick_interval_s
            for flow in self.flows
        )

    @property
    def uplink_load(self) -> float:
        """Total upstream load: ``sum_i 8 N_i P_C_i / (T_i C)``."""
        return model_uplink_load(self.__dict__)

    @property
    def mean_burst_service_s(self) -> float:
        """Mean burst service time of the tagged server (seconds)."""
        return self._flow_burst_service_s(self.tagged_flow)

    # ------------------------------------------------------------------
    # Component models
    # ------------------------------------------------------------------
    def upstream_queue(self) -> MultiClassMG1Queue:
        """The multi-class M/G/1 model of the upstream queue (eq. (13))."""
        return MultiClassMG1Queue.from_classes(
            [
                TrafficClass(
                    num_sources=flow.weight * self.num_gamers,
                    interval_s=flow.tick_interval_s,
                    packet_bits=8.0 * flow.client_packet_bytes,
                )
                for flow in self.flows
            ],
            rate_bps=self.aggregation_rate_bps,
        )

    def downstream_queue(self) -> MultiServerBurstQueue:
        """The multi-server burst queue on the shared pipe (Section 3.2)."""
        return MultiServerBurstQueue.from_flows(
            [
                ServerFlow(
                    interval_s=flow.tick_interval_s,
                    mean_service_s=self._flow_burst_service_s(flow),
                    order=flow.erlang_order,
                )
                for flow in self.flows
            ]
        )

    def position_delay(self) -> PacketPositionDelay:
        """The tagged server's in-burst packet-position delay model."""
        return PacketPositionDelay(
            order=self.tagged_flow.erlang_order,
            mean_service_s=self.mean_burst_service_s,
        )

    # Cached per-component transforms -----------------------------------
    @cached_property
    def _upstream_terms(self) -> ErlangTermSum:
        return self.upstream_queue().waiting_time()

    @cached_property
    def _burst_terms(self) -> ErlangTermSum:
        return self.downstream_queue().waiting_time()

    @cached_property
    def _position_terms(self) -> ErlangTermSum:
        return self.position_delay().uniform_position()

    # ------------------------------------------------------------------
    # The tagged gamer's packet sizes (feed the shared deterministic-
    # delay arithmetic on ComposedRttModel)
    # ------------------------------------------------------------------
    @property
    def client_packet_bytes(self) -> float:
        """Upstream packet size of the tagged gamer's game."""
        return self.tagged_flow.client_packet_bytes

    @property
    def server_packet_bytes(self) -> float:
        """Per-client downstream packet size of the tagged gamer's game."""
        return self.tagged_flow.server_packet_bytes

    def with_gamers(self, num_gamers: float) -> "MixPingTimeModel":
        """Copy of this model with a different total number of gamers."""
        return replace(self, num_gamers=num_gamers)


class QueueingMgfStack:
    """Joint evaluator of several models' product transforms.

    The queueing-delay transform of every :class:`PingTimeModel` is the
    same symbolic object — a product of three Erlang-term sums (upstream
    M/D/1, downstream D/E_K/1 burst, packet position) — so a whole
    heterogeneous batch of models can be evaluated on a vstacked
    abscissa array in **one** numpy pass: the term coefficients, rates
    and orders of every model are laid out as ``(models, terms)``
    arrays per factor, each abscissa row is routed to its model's terms
    with an index take, and the three factor sums are reduced by
    :func:`repro.core.mgf._erlang_sum` and multiplied exactly as
    :meth:`PingTimeModel.queueing_mgf` does per model.

    The only requirement is that the stacked models share a *factor
    signature* — the per-factor term counts — so the term axis is
    rectangular and the pairwise reduction over it keeps the exact
    association (and therefore the exact floats) of the per-model
    evaluation.  :meth:`group_indices` partitions an arbitrary batch
    into such groups; in practice a multi-preset batch collapses into
    one group per Erlang order.
    """

    def __init__(self, models: Sequence["PingTimeModel"]) -> None:
        self.models: List[PingTimeModel] = list(models)
        if not self.models:
            raise ParameterError("a QueueingMgfStack needs at least one model")
        signatures = {self.signature(m) for m in self.models}
        if len(signatures) != 1:
            raise ParameterError(
                f"stacked models must share one factor signature; got {sorted(signatures)}"
            )
        self._factors = []
        for name in self._FACTOR_ATTRIBUTES:
            sums = [getattr(m, name) for m in self.models]
            coefficients = np.array(
                [[t.coefficient for t in s.terms] for s in sums], dtype=complex
            )
            rates = np.array([[t.rate for t in s.terms] for s in sums], dtype=complex)
            orders = np.array([[t.order for t in s.terms] for s in sums], dtype=float)
            atoms = np.array([s.atom for s in sums], dtype=complex)
            self._factors.append((coefficients, rates, _erlang_powers(orders), atoms))
        self.array_calls = 0

    #: The factor order must match PingTimeModel.queueing_mgf's product.
    _FACTOR_ATTRIBUTES = ("_upstream_terms", "_burst_terms", "_position_terms")

    @classmethod
    def signature(cls, model: "PingTimeModel") -> tuple:
        """Per-factor term counts — the stacking compatibility key."""
        return tuple(
            len(getattr(model, name).terms) for name in cls._FACTOR_ATTRIBUTES
        )

    @classmethod
    def group_indices(cls, models: Sequence["PingTimeModel"]) -> "Dict[tuple, List[int]]":
        """Partition model indices into stack-compatible groups."""
        groups: Dict[tuple, List[int]] = {}
        for index, model in enumerate(models):
            groups.setdefault(cls.signature(model), []).append(index)
        return groups

    def __call__(self, s: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Transform values at abscissa rows ``s``, row ``r`` using model
        ``rows[r]``'s terms; one numpy pass for the whole batch."""
        self.array_calls += 1
        value: Optional[np.ndarray] = None
        for coefficients, rates, powers, atoms in self._factors:
            factor = _erlang_sum(
                atoms[rows][:, None],
                coefficients[rows][:, None, :],
                rates[rows][:, None, :],
                None if powers is None else powers[rows][:, None, :],
                s,
            )
            value = factor if value is None else value * factor
        return value


# ----------------------------------------------------------------------
# The plan/execute layer: picklable work units for arbitrary executors
# ----------------------------------------------------------------------
#: Models per :class:`EvalPlan` of the paper-default ``inversion/K9``
#: signature under an unobserved :class:`CostModel` (the calibration of
#: its priors), and the split when a plan is compiled with neither a
#: ``chunk_size`` nor a cost model.  Chunking a signature group does not
#: change a single float (per-transform searches are independent of
#: which other transforms share their lockstep rounds, see the
#: stacked-inversion test-suite); it only bounds plan size so a process
#: pool has enough units to balance.
_PRIOR_PLAN_CHUNK = 32

#: One model's parameters as a plain picklable mapping (PingTimeModel
#: constructor keywords).
ModelParams = Mapping[str, float]


def model_params(model: "ComposedRttModel") -> Dict[str, float]:
    """The constructor keywords of a model, as a plain picklable dict.

    ``PingTimeModel(**model_params(m))`` — or ``MixPingTimeModel`` for a
    mix, see :meth:`EvalPlan.build_models` — rebuilds a model equal to
    ``m`` in any process whose every derived float is bit-identical
    (the component transforms are deterministic functions of the
    fields).  Mix parameter dictionaries carry their per-server
    :class:`MixFlow` tuples, which pickle as plain frozen records.
    """
    return {f.name: getattr(model, f.name) for f in fields(model)}


def model_uplink_load(params: ModelParams) -> float:
    """The uplink load of a model's parameters, without building it.

    ``8 N P_C / (T C)``, summed over the flows of a mix (``8 w_i N
    P_C_i / (T_i C)``); both models' ``uplink_load`` properties call it.
    """
    num_gamers = params["num_gamers"]
    rate_bps = params["aggregation_rate_bps"]
    if "flows" in params:
        return sum(
            8.0 * flow.weight * num_gamers * flow.client_packet_bytes
            / (flow.tick_interval_s * rate_bps)
            for flow in map(MixFlow.coerce, params["flows"])
        )
    return (
        8.0 * num_gamers * params["client_packet_bytes"]
        / (params["tick_interval_s"] * rate_bps)
    )


@dataclass(frozen=True)
class EvalPlan:
    """A self-contained, picklable unit of RTT-quantile work.

    A plan carries model *parameters* — never live
    :class:`~repro.engine.Engine` / :class:`PingTimeModel` references —
    so any executor (in-process, process pool, asyncio) can run it:
    the worker rebuilds the models, which recompute their component
    transforms deterministically, so the answers are bit-identical
    wherever the plan executes.  All models of one plan share a factor
    signature (plans are compiled per signature group, see
    :func:`compile_eval_plans`), which lets the execution drive one
    stacked lockstep search for the whole plan.

    ``indices`` maps each model back to its position in the batch the
    plan was compiled from, and ``probabilities`` holds each one's
    quantile level: one operating point asked at several levels is
    several entries of the plan, built once (:meth:`build_models`).
    """

    probabilities: Tuple[float, ...]
    method: str
    indices: Tuple[int, ...]
    model_params: Tuple[Dict[str, float], ...]

    def __len__(self) -> int:
        return len(self.indices)

    def build_models(self) -> List["ComposedRttModel"]:
        """Reconstruct the plan's models (deterministic, bit-identical).

        Parameter sets carrying a ``flows`` key rebuild as
        :class:`MixPingTimeModel`; everything else as
        :class:`PingTimeModel`.  Equal parameter sets share one model,
        so its component transforms are computed once per plan.
        """
        built: Dict[tuple, ComposedRttModel] = {}
        models = []
        for params in self.model_params:
            key = _params_key(params)
            if key not in built:
                cls = MixPingTimeModel if "flows" in params else PingTimeModel
                built[key] = cls(**params)
            models.append(built[key])
        return models


@dataclass(frozen=True)
class PlanResult:
    """The outcome of executing one :class:`EvalPlan`.

    Carries its own evaluation counters — ``stacked_mgf_calls`` counts
    the :class:`QueueingMgfStack` array evaluations spent by the
    executing process, which the serving layer folds into its
    statistics — plus the worker PID so callers can tell remote
    executions apart.

    The transport metadata is stamped by the execution tier, never by
    the kernel: a :class:`~repro.executors.RemoteExecutor` records which
    worker ``host`` served the plan, the wire round-trip it paid
    (``wire_s``) and how many dead hosts the plan was re-dispatched past
    (``redispatches``).  In-process executions leave the defaults, and
    none of the three fields influences a served float.
    """

    indices: Tuple[int, ...]
    values: Tuple[float, ...]
    stacked_mgf_calls: int
    evaluations: int
    worker_pid: int
    #: Worker host ("host:port") that executed the plan; None in-process.
    host: Optional[str] = None
    #: Wall-clock seconds spent on the wire round trip (0 in-process).
    wire_s: float = 0.0
    #: Dead-host failovers this plan survived before completing.
    redispatches: int = 0
    #: Wall-clock seconds :func:`execute_plan` spent on this plan, in the
    #: process that ran it (excludes wire time).  The serving layer folds
    #: it into per-signature cost statistics (FleetStats.plan_costs) —
    #: the measured grounding for cost-model plan chunking.
    exec_s: float = 0.0


def _params_key(params: ModelParams) -> tuple:
    """A hashable identity of a parameter set (one operating point)."""
    return tuple(sorted(params.items()))


def _signature_key(params: ModelParams):
    """The stacking compatibility key of a parameter set, without
    building the model.

    The factor term counts are structural: for a single-server model the
    M/D/1 one-pole transform always has 1 term, the D/E_K/1 burst
    transform K, the uniform packet-position mixture K - 1 — so the full
    signature ``(1, K, K-1)`` is a function of the Erlang order alone.
    A multi-server mix (a parameter set with a ``flows`` key) composes
    two one-pole transforms with the tagged server's position mixture,
    signature ``(1, 1, K_tagged - 1)`` — a function of the tagged
    Erlang order alone, and never equal to a single-server signature
    (that would need K = 1, which the models exclude).  (Execution
    still re-groups defensively through
    :meth:`QueueingMgfStack.group_indices`, which reads the built
    transforms.)
    """
    if "flows" in params:
        flow = MixFlow.coerce(params["flows"][int(params["tagged"])])
        return ("mix", flow.erlang_order)
    return int(params["erlang_order"])


def _signature_label(method: str, key: object = None) -> str:
    """The cost-accounting label of a signature group, pre-plan.

    Computable from the grouping key alone, so the planner can size a
    chunk before any :class:`EvalPlan` exists.  ``key`` is a
    :func:`_signature_key` value for ``"inversion"`` groups and ignored
    otherwise (non-inversion methods are costed per method).
    """
    if method != "inversion":
        return method
    if isinstance(key, tuple):
        return f"inversion/mix-K{key[1]}"
    return f"inversion/K{key}"


def plan_signature(plan: EvalPlan) -> str:
    """A stable human-readable cost-accounting label for a plan.

    ``"inversion"`` plans are compiled per factor-signature group, so
    the label names the group (``"inversion/K9"`` for a single-server
    Erlang-9 batch, ``"inversion/mix-K2"`` for a mix tagged at order 2).
    Other methods are chunked in batch order across signatures, so their
    per-model cost is keyed by the method alone (``"chernoff"``).
    """
    if plan.method != "inversion":
        return _signature_label(plan.method)
    return _signature_label(plan.method, _signature_key(plan.model_params[0]))


#: Prior per-model cost of one Erlang stage under ``"inversion"`` — the
#: lockstep search's per-round work grows with the number of transform
#: terms, which is linear in the Erlang order K (signature (1, K, K-1)).
_INVERSION_STAGE_PRIOR_S = 1.5e-4

#: Prior per-model cost of the non-inversion methods.  Closed-form
#: bounds (chernoff, dominant-pole) are cheap; the Appendix-A expansion
#: and the per-component quantile sum each run scalar searches.
_METHOD_PRIORS_S = {
    "erlang-sum": 2.0e-3,
    "dominant-pole": 2.0e-4,
    "chernoff": 2.0e-4,
    "sum-of-quantiles": 1.5e-3,
}

#: Fallback prior when a label matches no table entry.
_DEFAULT_PRIOR_S = 1.0e-3


def _prior_model_cost_s(label: str) -> float:
    """Static per-model cost prior (seconds) for a signature label."""
    if label.startswith("inversion/"):
        tail = label.split("/", 1)[1]
        digits = tail[5:] if tail.startswith("mix-K") else tail[1:]
        try:
            order = int(digits)
        except ValueError:
            return _DEFAULT_PRIOR_S
        return _INVERSION_STAGE_PRIOR_S * max(order, 1)
    return _METHOD_PRIORS_S.get(label, _DEFAULT_PRIOR_S)


class CostModel:
    """Measured per-signature evaluation cost, spent on plan sizing.

    The planner asks :meth:`chunk_size_for` how many models one
    :class:`EvalPlan` of a signature group should carry so every plan
    costs roughly ``target_plan_cost_s`` seconds: heterogeneous batches
    then split into equal-*cost* plans instead of equal-*count* ones,
    and a process pool's tail is no longer gated by one oversized
    expensive chunk.  Before any measurement arrives the model answers
    from static priors calibrated so the paper-default signature
    (``"inversion/K9"``) chunks at 32 models per plan — an unobserved
    cost model reproduces the legacy static split there,
    while cheaper signatures pack more models per plan and costlier
    ones fewer.  The serving layer folds every executed plan back in
    through :meth:`observe` (fleet.py does so per batch), so the
    predictions converge on the measured per-model means.

    Chunking is purely a scheduling knob: per-transform lockstep
    searches are independent of which other models share their plan, so
    any chunk sizing yields bit-identical floats (see
    :func:`compile_eval_plans`).
    """

    #: Largest chunk any policy may produce — bounds plan size so a pool
    #: always has enough units to balance, however cheap the signature.
    max_chunk = 128

    def __init__(self, target_plan_cost_s: Optional[float] = None):
        if target_plan_cost_s is None:
            target_plan_cost_s = _PRIOR_PLAN_CHUNK * _prior_model_cost_s(
                "inversion/K9"
            )
        if target_plan_cost_s <= 0.0:
            raise ParameterError("target_plan_cost_s must be positive")
        self.target_plan_cost_s = float(target_plan_cost_s)
        #: label -> [models observed, total exec seconds]
        self._observed: Dict[str, List[float]] = {}

    def observe(self, label: str, models: int, exec_s: float) -> None:
        """Fold one executed plan's measured cost into the model."""
        totals = self._observed.setdefault(label, [0.0, 0.0])
        totals[0] += int(models)
        totals[1] += float(exec_s)

    def predict_model_cost_s(self, label: str) -> float:
        """Predicted per-model cost: observed mean, else the prior."""
        totals = self._observed.get(label)
        if totals and totals[0] > 0 and totals[1] > 0.0:
            return totals[1] / totals[0]
        return _prior_model_cost_s(label)

    def predict_plan_cost_s(self, plan: EvalPlan) -> float:
        """Predicted wall-clock cost of one plan, for LPT dispatch."""
        return len(plan.indices) * self.predict_model_cost_s(plan_signature(plan))

    def chunk_size_for(self, label: str) -> int:
        """Models per plan so one plan costs ~``target_plan_cost_s``."""
        cost = self.predict_model_cost_s(label)
        if cost <= 0.0:
            return _PRIOR_PLAN_CHUNK
        return max(1, min(int(round(self.target_plan_cost_s / cost)), self.max_chunk))

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """Observed totals and current predictions, for stats payloads."""
        return {
            label: {
                "models": totals[0],
                "exec_s": totals[1],
                "predicted_model_cost_s": self.predict_model_cost_s(label),
                "chunk_size": self.chunk_size_for(label),
            }
            for label, totals in sorted(self._observed.items())
        }


def _per_model(value: Union[float, Sequence[float]], count: int) -> list:
    """A value shared by ``count`` models, or one value per model."""
    return [value] * count if np.isscalar(value) else list(value)


def compile_eval_plans(
    models: Sequence[Union["PingTimeModel", ModelParams]],
    probability: Union[float, Sequence[float]] = DEFAULT_QUANTILE,
    method: str = "inversion",
    chunk_size: Optional[int] = None,
    cost_model: Optional[CostModel] = None,
) -> List[EvalPlan]:
    """Compile a batch of models into executable :class:`EvalPlan` units.

    ``models`` may hold :class:`PingTimeModel` instances or plain
    parameter mappings — compilation never builds a model or a
    transform, so the planning phase stays cheap and the expensive work
    (root finding, lockstep searches) lands in whatever process executes
    the plan.  ``probability`` is one level for the whole batch or one
    per model.  For the ``"inversion"`` method the batch is partitioned
    into stack-compatible signature groups (first-appearance order) and
    each group is cut into chunks; other methods are evaluated per
    model, so they are chunked in batch order.  Every entry of one
    operating point (the same parameters asked at several levels) lands
    in the plan of its first appearance, which builds the model once.

    Chunk sizing is a pure scheduling knob — per-transform lockstep
    searches are independent of which other models share their rounds —
    so every policy yields the same floats.  An explicit ``chunk_size``
    wins (the legacy equal-count split); otherwise a ``cost_model``
    sizes each group's chunks from its predicted per-model cost, cutting
    heterogeneous batches into roughly equal-cost plans; with neither,
    the static 32-model split applies (what an unobserved
    :class:`CostModel` gives the paper-default signature).  Executing the
    plans in any order, on any executor, yields floats identical to
    ``model.rtt_quantile(probability, method=...)`` per model.
    """
    probabilities = [float(p) for p in _per_model(probability, len(models))]
    if len(probabilities) != len(models) or not all(0.0 < p < 1.0 for p in probabilities):
        raise ParameterError("probability must lie in (0, 1), one level or one per model")
    if method not in QUANTILE_METHODS:
        raise ParameterError(
            f"method must be one of {QUANTILE_METHODS}; got {method!r}"
        )
    if chunk_size is not None:
        if int(chunk_size) < 1:
            raise ParameterError("chunk_size must be at least 1")
        chunk_size = int(chunk_size)
    params_list = [
        dict(m) if isinstance(m, Mapping) else model_params(m) for m in models
    ]
    # signature group -> operating point -> its entries (batch indices)
    groups: "Dict[object, Dict[tuple, List[int]]]" = {}
    for index, params in enumerate(params_list):
        key = _signature_key(params) if method == "inversion" else None
        groups.setdefault(key, {}).setdefault(_params_key(params), []).append(index)
    plans: List[EvalPlan] = []
    for key, points in groups.items():
        if chunk_size is not None:
            size = chunk_size
        elif cost_model is not None:
            size = cost_model.chunk_size_for(_signature_label(method, key))
        else:
            size = _PRIOR_PLAN_CHUNK
        chunks: List[List[int]] = [[]]
        for entries in points.values():
            if len(chunks[-1]) >= size:
                chunks.append([])
            chunks[-1].extend(entries)
        plans.extend(
            EvalPlan(
                probabilities=tuple(probabilities[i] for i in chunk),
                method=method,
                indices=tuple(chunk),
                model_params=tuple(params_list[i] for i in chunk),
            )
            for chunk in chunks
            if chunk
        )
    return plans


def execute_plan(plan: EvalPlan) -> PlanResult:
    """Execute one plan: the stateless kernel run by every executor.

    Rebuilds the plan's models from their parameters and runs one
    stacked lockstep search per factor-signature group (normally one —
    plans are compiled per group; the re-grouping is defensive), or the
    per-model fallback for methods without a batch formulation.  A
    group of one model has nothing to stack with: it builds no
    :class:`QueueingMgfStack` and runs its search on the model's
    compiled :attr:`~ComposedRttModel.tail_kernel`.  The rebuilt models
    reproduce the originals' floats, which is what makes the plan
    executor-agnostic.
    """
    started = time.perf_counter()
    models = plan.build_models()
    values: List[Optional[float]] = [None] * len(models)
    stacked_calls = 0
    if plan.method == "inversion":
        for indices in QueueingMgfStack.group_indices(models).values():
            if len(indices) == 1:
                [index] = indices
                values[index] = models[index].rtt_quantile(plan.probabilities[index])
                continue
            group = [models[i] for i in indices]
            stack = QueueingMgfStack(group)
            queueing = quantiles_from_mgfs(
                [plan.probabilities[i] for i in indices],
                [m._inversion_scale_hint for m in group],
                [m.queueing_atom for m in group],
                stack_eval=stack,
            )
            for index, model, value in zip(indices, group, queueing):
                values[index] = model.deterministic_delay_s + value
            stacked_calls += stack.array_calls
    else:
        values = [
            m.rtt_quantile(p, method=plan.method)
            for m, p in zip(models, plan.probabilities)
        ]
    return PlanResult(
        indices=plan.indices,
        values=tuple(float(v) for v in values),  # type: ignore[arg-type]
        stacked_mgf_calls=stacked_calls,
        evaluations=len(models),
        worker_pid=os.getpid(),
        exec_s=time.perf_counter() - started,
    )
