"""Scalar Gauss-Markov plant model."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass


@dataclass(frozen=True)
class PlantModel:
    """Scalar linear plant x' = a*x + w with w ~ N(0, sigma2).

    The initial state x0 is known to the estimator, so the error starts
    at zero. ``horizon`` is the number of decision stages.
    """

    a: float
    sigma2: float
    x0: float = 0.0
    horizon: int = 1

    def __post_init__(self):
        for name in ("a", "x0", "sigma2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.sigma2 > 0:
            raise ValueError(f"sigma2 must be positive, got {self.sigma2}")
        if not (isinstance(self.horizon, numbers.Integral) and self.horizon >= 1):
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


def plant_to_dict(plant: PlantModel) -> dict:
    return {"a": plant.a, "sigma2": plant.sigma2, "x0": plant.x0,
            "horizon": plant.horizon}


def plant_from_dict(data: dict) -> PlantModel:
    try:
        return PlantModel(a=float(data["a"]), sigma2=float(data["sigma2"]),
                          x0=float(data.get("x0", 0.0)), horizon=data["horizon"])
    except KeyError as exc:
        raise ValueError(f"malformed plant description: missing {exc}") from exc
