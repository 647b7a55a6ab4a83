"""Small Monte Carlo statistics helpers shared across modules."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["MCEstimate", "two_sample_z", "wilson_lower", "wilson_upper"]


@dataclass(frozen=True)
class MCEstimate:
    """A Monte Carlo point estimate with its standard error and sample size."""

    mean: float
    stderr: float
    reps: int

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("an estimate needs at least one replicate")
        if self.stderr < 0:
            raise ValueError("standard error cannot be negative")

    @classmethod
    def from_samples(cls, x) -> "MCEstimate":
        x = np.asarray(x, dtype=np.float64)
        n = len(x)
        if n < 2:
            raise ValueError("need at least two samples for a standard error")
        return cls(float(x.mean()), float(x.std(ddof=1) / math.sqrt(n)), n)

    @classmethod
    def from_binary(cls, successes: int, n: int) -> "MCEstimate":
        if n < 2:
            raise ValueError("need at least two trials")
        phat = successes / n
        # Bessel-corrected, so this agrees exactly with from_samples on 0/1 data
        return cls(phat, math.sqrt(phat * (1.0 - phat) / (n - 1)), n)

    def as_dict(self) -> dict:
        return {"mean": self.mean, "stderr": self.stderr, "reps": self.reps}


def two_sample_z(a: MCEstimate, b: MCEstimate) -> float:
    """Unpooled two-sample z score (a - b).  Zero spread and zero gap give 0."""
    denom = math.sqrt(a.stderr**2 + b.stderr**2)
    diff = a.mean - b.mean
    if denom == 0.0:
        return 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
    return diff / denom


# Normal quantiles used by the Wilson score bounds.
_Z_FOR_CONF = {0.95: 1.6448536269514722, 0.99: 2.3263478740408408}


def _z_quantile(conf: float) -> float:
    if conf in _Z_FOR_CONF:
        return _Z_FOR_CONF[conf]
    from statistics import NormalDist  # deferred: its decimal and fractions imports cost ~3 ms at start-up
    return NormalDist().inv_cdf(conf)


def _wilson(successes: int, n: int, conf: float, sign: float) -> float:
    """Wilson score interval endpoint: center - rad (sign -1) or center + rad (sign +1)."""
    if n < 1:
        raise ValueError("need at least one trial")
    z = _z_quantile(conf)
    phat = successes / n
    denom = 1.0 + z * z / n
    center = phat + z * z / (2 * n)
    rad = z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4 * n * n))
    return (center + sign * rad) / denom


def wilson_lower(successes: int, n: int, conf: float = 0.99) -> float:
    """Wilson score lower confidence bound for a binomial proportion."""
    return max(0.0, _wilson(successes, n, conf, -1.0))


def wilson_upper(successes: int, n: int, conf: float = 0.99) -> float:
    """Wilson score upper confidence bound for a binomial proportion."""
    return min(1.0, _wilson(successes, n, conf, 1.0))
