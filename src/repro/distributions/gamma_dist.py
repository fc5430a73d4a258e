"""Gamma service distribution (continuous-shape generalization of Erlang)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.distributions.base import ServiceDistribution
from repro.rng import RandomState, as_generator


@dataclass(frozen=True)
class Gamma(ServiceDistribution):
    """Gamma distribution with shape ``shape`` and rate ``rate``.

    Mean ``shape / rate``; SCV ``1 / shape``, so shape < 1 gives service more
    variable than exponential and shape > 1 less variable.
    """

    shape: float
    rate: float

    def __post_init__(self) -> None:
        if not (self.shape > 0.0 and np.isfinite(self.shape)):
            raise ValueError(f"gamma shape must be positive and finite, got {self.shape}")
        if not (self.rate > 0.0 and np.isfinite(self.rate)):
            raise ValueError(f"gamma rate must be positive and finite, got {self.rate}")

    def sample(self, size: int, random_state: RandomState = None) -> np.ndarray:
        rng = as_generator(random_state)
        return rng.gamma(shape=self.shape, scale=1.0 / self.rate, size=size)

    def log_pdf(self, x: np.ndarray) -> np.ndarray:
        from scipy import special

        x = np.asarray(x, dtype=float)
        out = np.full(x.shape, -np.inf)
        ok = x > 0.0
        xs = x[ok]
        out[ok] = (
            self.shape * np.log(self.rate)
            + (self.shape - 1.0) * np.log(xs)
            - self.rate * xs
            - special.gammaln(self.shape)
        )
        return out

    @property
    def mean(self) -> float:
        return self.shape / self.rate

    @property
    def variance(self) -> float:
        return self.shape / (self.rate * self.rate)

    @classmethod
    def fit(cls, samples: Sequence[float]) -> "Gamma":
        """MLE via Newton iteration on the digamma equation.

        Solves ``log(shape) - digamma(shape) = log(mean) - mean(log x)``
        starting from the Minka (2002) closed-form initializer.
        """
        from scipy import special

        arr = cls._validate_samples(samples)
        arr = np.maximum(arr, 1e-300)
        mean = float(arr.mean())
        log_mean_minus_mean_log = float(np.log(mean) - np.mean(np.log(arr)))
        if log_mean_minus_mean_log <= 0.0:
            # Degenerate (all samples equal): fall back to a sharp gamma.
            return cls(shape=1e6, rate=1e6 / mean)
        s = log_mean_minus_mean_log
        shape = (3.0 - s + np.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)
        for _ in range(100):
            num = np.log(shape) - special.digamma(shape) - s
            den = 1.0 / shape - special.polygamma(1, shape)
            step = num / den
            new_shape = shape - step
            if new_shape <= 0:
                new_shape = shape / 2.0
            if abs(new_shape - shape) < 1e-12 * max(1.0, shape):
                shape = new_shape
                break
            shape = new_shape
        return cls(shape=float(shape), rate=float(shape / mean))
