"""Seeded request streams for the two http workloads.

Every generator takes the run's ``--seed`` and nothing else, so one seed
always yields the same requests.  Requests are plain JSONL records (the
:meth:`repro.fleet.Request.from_dict` fields): the program under test
parses them itself, over HTTP.  Each independent stream
draws from its own :class:`random.Random`, seeded with the run seed and
a fixed label, so adding draws to one stream never shifts another.
"""

from __future__ import annotations

import bisect
import itertools
import random
from typing import Dict, List, Sequence, Tuple

#: The registry presets (``fps-ping scenarios list``), named here so the
#: benchmark's inputs change only when the benchmark does.
ALL_PRESETS: Tuple[str, ...] = (
    "cable",
    "cloud-gaming",
    "counter-strike",
    "dsl-mixed-background",
    "ftth",
    "half-life",
    "halo",
    "lte",
    "multi-game-dsl",
    "paper-dsl",
    "paper-dsl-tick40",
    "quake3",
    "satellite-leo",
    "unreal-tournament",
)

#: Presets given certified surfaces (``inversion``) in set-up.
SURFACED: Tuple[str, ...] = ("paper-dsl", "counter-strike")

#: The certified region of those surfaces (``build_surfaces`` keywords).
SURFACE_REGION = {
    "load_lo": 0.30,
    "load_hi": 0.60,
    "probability_lo": 0.999,
    "probability_hi": 0.99999,
    "tolerance": 1e-4,
}

#: Admit budgets whose capacity root lies inside both surfaces' region at
#: the default quantile 0.99999 (about 57-100 ms there), so the surface
#: answers them.
SURFACE_ADMIT_BUDGET_MS = (60.0, 98.0)

UNSURFACED: Tuple[str, ...] = tuple(p for p in ALL_PRESETS if p not in SURFACED)

#: Points of the answer-cache warm set.
WARM_SIZE = 256
#: Zipf exponent of the repeats of the warm set.
WARM_ZIPF_S = 1.1

#: Share of each tier in the http-mixed stream.
HTTP_MIX: Tuple[Tuple[str, float], ...] = (
    ("lru", 0.6),
    ("surface", 0.2),
    ("cold", 0.1),
    ("admit", 0.1),
)
#: Share of each tier in the http-warm stream: no request takes the
#: exact path.
WARM_MIX: Tuple[Tuple[str, float], ...] = (
    ("lru", 0.7),
    ("surface", 0.2),
    ("admit", 0.1),
)


def _rng(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}:{label}")


class Zipf:
    """Draws ranks ``0..n-1`` with probability proportional to ``1/(k+1)**s``."""

    def __init__(self, n: int, s: float) -> None:
        self._cumulative = list(
            itertools.accumulate(1.0 / (k + 1) ** s for k in range(n))
        )

    def draw(self, rng: random.Random) -> int:
        target = rng.random() * self._cumulative[-1]
        return min(bisect.bisect_right(self._cumulative, target), len(self._cumulative) - 1)


class _FreshPoints:
    """Distinct (preset, load, quantile level, method) operating points."""

    def __init__(self, rng: random.Random, presets: Sequence[str]) -> None:
        self.rng = rng
        self.presets = tuple(presets)
        self.seen: set = set()

    def draw(self, probabilities: Sequence[float], method: str = "inversion") -> Dict:
        while True:
            record = {
                "scenario": self.rng.choice(self.presets),
                "load": self.rng.uniform(0.05, 0.95),
                "probability": self.rng.choice(probabilities),
                "method": method,
            }
            key = (record["scenario"], round(record["load"], 6), record["probability"], method)
            if key not in self.seen:
                self.seen.add(key)
                return record


def surface_point(rng: random.Random) -> Dict:
    """An ``inversion`` point strictly inside a surfaced preset's region."""
    nines = rng.uniform(3.05, 4.95)
    return {
        "scenario": rng.choice(SURFACED),
        "load": rng.uniform(0.31, 0.59),
        "probability": 1.0 - 10.0 ** -nines,
    }


def surface_admit(rng: random.Random) -> Dict:
    """An admit whose capacity the surfaced preset's surface certifies."""
    record = {
        "scenario": rng.choice(SURFACED),
        "kind": "admit",
        "rtt_budget_ms": rng.uniform(*SURFACE_ADMIT_BUDGET_MS),
    }
    if rng.random() < 0.5:
        record["load"] = rng.uniform(0.1, 0.9)
    return record


class HttpInputs:
    """An http workload's inputs: a warm set and a Poisson arrival schedule.

    The warm set and the cold points use only unsurfaced presets, so a
    warm point is always an answer-cache hit and a cold point always
    takes the exact path; surface points and admits use only the
    surfaced presets, inside the certified region.
    """

    def __init__(self, seed: int, mix: Sequence[Tuple[str, float]]) -> None:
        self.seed = seed
        self.mix = tuple(mix)
        points = _FreshPoints(_rng(seed, "warm"), UNSURFACED)
        self.warm = [points.draw((0.999, 0.99999)) for _ in range(WARM_SIZE)]
        self._points = points
        self._zipf = Zipf(WARM_SIZE, WARM_ZIPF_S)

    def schedule(self, seconds: float, rate: float) -> List[Tuple[float, str, Dict]]:
        """``(due_s, tier, record)`` for Poisson arrivals over ``seconds``.

        Each record carries a unique ``tag``, echoed in its answer.
        """
        rng = _rng(self.seed, "arrivals")
        tiers = [tier for tier, _ in self.mix]
        cumulative = list(itertools.accumulate(share for _, share in self.mix))
        out: List[Tuple[float, str, Dict]] = []
        due = rng.expovariate(rate)
        while due < seconds:
            tier = tiers[min(bisect.bisect_right(cumulative, rng.random()), len(tiers) - 1)]
            if tier == "lru":
                record = dict(self.warm[self._zipf.draw(rng)])
            elif tier == "surface":
                record = surface_point(rng)
            elif tier == "cold":
                record = self._points.draw((0.999, 0.99999))
            else:
                record = surface_admit(rng)
            record["tag"] = f"r{len(out)}"
            out.append((due, tier, record))
            due += rng.expovariate(rate)
        return out

