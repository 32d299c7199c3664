"""Azure Blob access inter-arrival-time model (Fig. 3).

The paper analyses the Azure Blob trace (14 days, 33.1 M invocations,
44.3 M accesses) and reports the CDF of inter-arrival times (IaT) between
repeated accesses to the same blob: "nearly 80 % of the objects are
repeatedly accessed within 100 ms, while the remaining 10 % are revisited
ranging from 100 ms to 1000 ms" — i.e. bursty re-access, the pattern that
makes in-container client caching profitable.

We reproduce that CDF with a three-component mixture:

* ~80 % *burst* re-accesses — log-uniform in [1 ms, 100 ms);
* ~10 % *near* re-accesses — log-uniform in [100 ms, 1000 ms);
* ~10 % *far* re-accesses — log-uniform in [1 s, 10 min).

Each of the 14 "days" perturbs the mixture weights slightly (the grey
curves of Fig. 3); the combined model uses the nominal weights (the blue
curve).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List

from repro.common.cdf import EmpiricalCdf
from repro.common.errors import WorkloadError
from repro.common.units import MINUTE, SECOND

#: Nominal mixture: (weight, lower_ms, upper_ms).
NOMINAL_MIXTURE = (
    (0.80, 1.0, 100.0),
    (0.10, 100.0, SECOND),
    (0.10, SECOND, 10 * MINUTE),
)
TRACE_DAYS = 14


def _log_uniform(rng: random.Random, lower: float, upper: float) -> float:
    return math.exp(rng.uniform(math.log(lower), math.log(upper)))


@dataclass(frozen=True)
class BlobIatModel:
    """One day's (or the combined) IaT mixture."""

    burst_weight: float
    near_weight: float
    far_weight: float

    def __post_init__(self) -> None:
        total = self.burst_weight + self.near_weight + self.far_weight
        if abs(total - 1.0) > 1e-6:
            raise WorkloadError(f"mixture weights sum to {total}, not 1")

    def sample(self, rng: random.Random) -> float:
        """Draw one inter-arrival time in milliseconds."""
        roll = rng.random()
        if roll < self.burst_weight:
            lower, upper = NOMINAL_MIXTURE[0][1], NOMINAL_MIXTURE[0][2]
        elif roll < self.burst_weight + self.near_weight:
            lower, upper = NOMINAL_MIXTURE[1][1], NOMINAL_MIXTURE[1][2]
        else:
            lower, upper = NOMINAL_MIXTURE[2][1], NOMINAL_MIXTURE[2][2]
        return _log_uniform(rng, lower, upper)

    def sample_many(self, count: int, rng: random.Random) -> List[float]:
        if count <= 0:
            raise WorkloadError(f"count must be > 0, got {count}")
        return [self.sample(rng) for _ in range(count)]


def combined_model() -> BlobIatModel:
    """The all-days model (Fig. 3's blue curve)."""
    weights = [component[0] for component in NOMINAL_MIXTURE]
    return BlobIatModel(*weights)


#: Seeds every day's perturbation of the nominal mixture.
DAY_MODEL_SEED = 3


def day_model(day: int) -> BlobIatModel:
    """One day's model with slightly perturbed weights (grey curves)."""
    seed = DAY_MODEL_SEED
    if not 1 <= day <= TRACE_DAYS:
        raise WorkloadError(f"day must be in [1, {TRACE_DAYS}], got {day}")
    rng = random.Random(f"{seed}:{day}")
    burst = min(0.88, max(0.70, NOMINAL_MIXTURE[0][0]
                          + rng.uniform(-0.06, 0.06)))
    near = min(0.2, max(0.05, NOMINAL_MIXTURE[1][0]
                        + rng.uniform(-0.03, 0.03)))
    far = 1.0 - burst - near
    return BlobIatModel(burst, near, far)


def iat_cdf(model: BlobIatModel, samples: int = 20_000,
            seed: int = 7) -> EmpiricalCdf:
    """Sample *samples* IaTs from *model* and return their empirical CDF."""
    rng = random.Random(seed)
    return EmpiricalCdf(model.sample_many(samples, rng))
