"""Non-increasing reward weights applied to sojourn times.

Two families are shipped: exponential decay in the sojourn time and
polynomial decay (a delay-utility shape). Any object exposing
``eval``/``deriv`` with the same signatures is accepted by the condition
checkers, so custom non-increasing rewards plug in at the interface level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = ["ExponentialReward", "PolynomialReward", "RewardSpec"]


@dataclass(frozen=True)
class ExponentialReward:
    """f(t) = exp(-kappa * t)."""

    kappa: float

    def __post_init__(self):
        if not 0 < self.kappa < math.inf:
            raise ValueError(f"kappa must be finite and positive, got {self.kappa}")

    def eval(self, t):
        return np.exp(-self.kappa * t)

    def deriv(self, t):
        return -self.kappa * np.exp(-self.kappa * t)


@dataclass(frozen=True)
class PolynomialReward:
    """f(t) = (t + 1)^(-gamma)."""

    gamma: float

    def __post_init__(self):
        if not 0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and positive, got {self.gamma}")

    def eval(self, t):
        return (t + 1.0) ** (-self.gamma)

    def deriv(self, t):
        return -self.gamma * (t + 1.0) ** (-self.gamma - 1.0)


RewardSpec = Union[ExponentialReward, PolynomialReward]
