"""Erlang-k service distribution (sum of k i.i.d. exponentials).

Erlang service has squared coefficient of variation ``1/k < 1``, i.e. it is
*less* variable than exponential — the classic model for multi-phase service
(e.g. a request that always performs k sequential I/O operations).  Used by
the simulator to exercise the paper's "more general service distributions"
future-work direction and by robustness tests that measure how the M/M/1
inference degrades under model misspecification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.distributions.base import ServiceDistribution
from repro.rng import RandomState, as_generator


@dataclass(frozen=True)
class Erlang(ServiceDistribution):
    """Erlang distribution with shape ``k`` (positive integer) and rate ``rate``.

    The mean is ``k / rate`` and the variance ``k / rate**2``.
    """

    k: int
    rate: float

    def __post_init__(self) -> None:
        if not (isinstance(self.k, (int, np.integer)) and self.k >= 1):
            raise ValueError(f"Erlang shape k must be a positive integer, got {self.k}")
        if not (self.rate > 0.0 and np.isfinite(self.rate)):
            raise ValueError(f"Erlang rate must be positive and finite, got {self.rate}")

    def sample(self, size: int, random_state: RandomState = None) -> np.ndarray:
        rng = as_generator(random_state)
        return rng.gamma(shape=self.k, scale=1.0 / self.rate, size=size)

    def log_pdf(self, x: np.ndarray) -> np.ndarray:
        from scipy import special

        x = np.asarray(x, dtype=float)
        out = np.full(x.shape, -np.inf)
        ok = x > 0.0
        xs = x[ok]
        out[ok] = (
            self.k * np.log(self.rate)
            + (self.k - 1) * np.log(xs)
            - self.rate * xs
            - special.gammaln(self.k)
        )
        if self.k == 1:
            # Density is finite (= rate) at zero only for k == 1.
            out[x == 0.0] = np.log(self.rate)
        return out

    @property
    def mean(self) -> float:
        return self.k / self.rate

    @property
    def variance(self) -> float:
        return self.k / (self.rate * self.rate)

    @classmethod
    def fit(cls, samples: Sequence[float]) -> "Erlang":
        """Method-of-moments shape (rounded to >= 1), then MLE rate given shape."""
        arr = cls._validate_samples(samples)
        mean = float(arr.mean())
        var = float(arr.var())
        if mean <= 0.0:
            raise ValueError("cannot fit an Erlang to all-zero samples")
        k = 1 if var <= 0.0 else max(1, int(round(mean * mean / var)))
        return cls(k=k, rate=k / mean)
