"""Scalar Gauss-Markov plant model."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field


def is_number(value, kind=numbers.Real) -> bool:
    """Whether a config value is a ``kind`` number; a bool is not one."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class PlantModel:
    """Scalar linear plant x' = a*x + w with w ~ N(0, sigma2).

    The initial state x0 is known to the estimator, so the error starts
    at zero. ``horizon`` is the number of decision stages. A config's
    ``plant`` section is read with ``PlantModel(**section)`` and written with
    ``dataclasses.asdict``.
    """

    a: float
    sigma2: float
    x0: float = 0.0
    horizon: int = field(kw_only=True)  # required, so a config must name it

    def __post_init__(self):
        for name in ("a", "x0", "sigma2"):
            value = getattr(self, name)
            if not is_number(value):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, float(value))  # so 1 and 1.0 hash the same
        if not self.sigma2 > 0:
            raise ValueError(f"sigma2 must be positive, got {self.sigma2}")
        if not (is_number(self.horizon, numbers.Integral) and self.horizon >= 1):
            raise ValueError(f"horizon must be an integer >= 1, got {self.horizon!r}")


def predicted_open_loop_cost(plant: PlantModel) -> float:
    """Total expected squared error when nothing is ever delivered.

    With e0 = 0, Var(E_n) follows v' = a^2 v + sigma2, so the total over
    the horizon is sigma2 * sum_{n=1..N} sum_{j=0..n-1} a^(2j). Closed-form
    reference for the never-transmit regime.
    """
    total = 0.0
    var = 0.0
    for _ in range(plant.horizon):
        var = plant.a ** 2 * var + plant.sigma2
        total += var
    return total
