"""Transmission-policy solver for a white Gaussian source (plant gain 0).

With an independent source the estimation errors decouple across stages, so
the dynamic program runs over the channel state alone and each stage
reduces to a two-parameter optimization over the no-transmit interval
[tau_lo, tau_hi]. Stage costs come from closed-form truncated-normal
moments: silence is estimated by the conditional mean inside the interval,
an attempted-but-dropped packet by the conditional mean outside, and the
receiver can tell the two apart, which is why the optimal interval need not
be symmetric (skewing the interval signals information through the attempt
itself even when every packet drops).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np
from scipy.special import ndtr

from .channel import ChannelFsm, validate_fsm
from .policy import TransmitPolicy
from .quadrature import MASS_FLOOR, gaussian_partial_moments

_SQRT2PI = math.sqrt(2.0 * math.pi)


def iid_stage_cost(sigma2: float, p_drop: float, tau_lo: float, tau_hi: float):
    """Expected one-stage squared error of the interval rule [tau_lo, tau_hi].

    The rule stays silent inside the interval and transmits outside it.
    Returns ``(cost, p_transmit)``:

        cost = E[(X - xhat0)^2; X inside] + p_drop * E[(X - xhat1)^2; X outside]

    with xhat0, xhat1 the conditional means of the two regions. Regions of
    (numerically) zero mass contribute nothing.
    """
    if not sigma2 > 0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    if tau_lo > tau_hi:
        raise ValueError(f"need tau_lo <= tau_hi, got ({tau_lo}, {tau_hi})")
    if tau_lo == tau_hi:
        m0 = m1 = m2 = 0.0
    else:
        m0, m1, m2 = gaussian_partial_moments(sigma2, tau_lo, tau_hi)
    m0c, m1c, m2c = 1.0 - m0, -m1, sigma2 - m2
    cost = 0.0
    if m0 >= MASS_FLOOR:
        cost += m2 - m1 * m1 / m0
    if m0c >= MASS_FLOOR:
        cost += p_drop * (m2c - m1c * m1c / m0c)
    return cost, m0c


def conditional_estimates(sigma2: float, tau_lo: float, tau_hi: float):
    """Conditional means (xhat inside, xhat outside) of the interval split.

    Massless regions fall back to 0.0; they are never realized.
    """
    if tau_lo == tau_hi:
        m0 = m1 = 0.0
    else:
        m0, m1, _ = gaussian_partial_moments(sigma2, tau_lo, tau_hi)
    xhat0 = m1 / m0 if m0 >= MASS_FLOOR else 0.0
    m0c, m1c = 1.0 - m0, -m1
    xhat1 = m1c / m0c if m0c >= MASS_FLOOR else 0.0
    return xhat0, xhat1


def _objective_vec(sigma2, p_drop, gap, lo, hi):
    """Vectorized stage cost + transition coupling over interval arrays."""
    sigma = math.sqrt(sigma2)
    za, zb = lo / sigma, hi / sigma
    m0 = ndtr(zb) - ndtr(za)
    pa = np.exp(-0.5 * za * za) / _SQRT2PI
    pb = np.exp(-0.5 * zb * zb) / _SQRT2PI
    m1 = sigma * (pa - pb)
    m2 = sigma2 * (m0 + za * pa - zb * pb)
    m0c, m1c, m2c = 1.0 - m0, -m1, sigma2 - m2
    # massless regions contribute nothing, as in iid_stage_cost
    with np.errstate(divide="ignore", invalid="ignore"):
        term_in = np.where(m0 >= MASS_FLOOR, m2 - m1 * m1 / m0, 0.0)
        term_out = np.where(m0c >= MASS_FLOOR, m2c - m1c * m1c / m0c, 0.0)
    return term_in + p_drop * term_out + gap * m0c


NEVER_TRANSMIT = (-math.inf, math.inf)
# The coarse search covers [-SPAN, SPAN] source standard deviations; local
# refinement stops once its window is below REFINE_TOL standard deviations.
SPAN = 6.0
REFINE_TOL = 1e-6
# An interval optimum counts as asymmetric when it beats the best symmetric
# rule by more than this fraction of the source variance.
ASYMMETRY_TOL = 1e-7


def optimize_interval(sigma2: float, p_drop: float, continuation_gap: float,
                      coarse: int = 121):
    """Best no-transmit interval for one stage plus transition coupling.

    Minimizes ``stage cost + p_transmit * continuation_gap`` over
    tau_lo <= tau_hi by a ``coarse``-point grid over [-SPAN*sigma,
    SPAN*sigma]^2 followed by zooming local refinement down to
    ``REFINE_TOL * sigma``.
    The never-transmit rule (interval = whole line) competes as an explicit
    candidate and is returned as ``(-inf, inf)`` when it wins. Deterministic
    for fixed settings; among numerically tied optima the narrowest, most
    centered interval is preferred.

    Returns ``(tau_lo, tau_hi, objective)``.
    """
    sigma = math.sqrt(sigma2)
    lo_best, hi_best, best = _grid_search(
        sigma2, p_drop, continuation_gap,
        np.linspace(-SPAN * sigma, SPAN * sigma, coarse))
    window = 2.0 * SPAN * sigma / (coarse - 1)
    while window > REFINE_TOL * sigma:
        lo_axis = lo_best + np.linspace(-window, window, 21)
        hi_axis = hi_best + np.linspace(-window, window, 21)
        lo_c, hi_c, cand = _grid_search(sigma2, p_drop, continuation_gap,
                                        lo_axis, hi_axis)
        if cand <= best:
            lo_best, hi_best, best = lo_c, hi_c, cand
        window /= 8.0
    never = sigma2  # silence forever: estimate 0, p_transmit 0
    if never < best:
        return NEVER_TRANSMIT[0], NEVER_TRANSMIT[1], never
    return float(lo_best), float(hi_best), float(best)


def _grid_search(sigma2, p_drop, gap, lo_axis, hi_axis=None):
    if hi_axis is None:
        hi_axis = lo_axis
    lo_m, hi_m = np.meshgrid(lo_axis, hi_axis, indexing="ij")
    valid = lo_m <= hi_m
    obj = np.where(valid, _objective_vec(sigma2, p_drop, gap, lo_m, hi_m), np.inf)
    best = float(obj.min())
    # tie polish: narrowest interval first, then the most centered one
    tied = np.argwhere(obj <= best + 1e-15)
    widths = hi_m[tied[:, 0], tied[:, 1]] - lo_m[tied[:, 0], tied[:, 1]]
    centers = np.abs(hi_m[tied[:, 0], tied[:, 1]] + lo_m[tied[:, 0], tied[:, 1]])
    order = np.lexsort((centers, widths))
    i, j = tied[order[0]]
    return float(lo_m[i, j]), float(hi_m[i, j]), best


def optimize_symmetric_threshold(sigma2: float, p_drop: float,
                                 continuation_gap: float, coarse: int = 121):
    """Best symmetric rule (no-transmit interval [-tau, tau]) for one stage.

    Same objective as :func:`optimize_interval` restricted to the symmetric
    diagonal; used to quantify how much asymmetry buys. Returns
    ``(tau, objective)`` with tau = inf when never-transmit wins.
    """
    sigma = math.sqrt(sigma2)
    axis = np.linspace(0.0, SPAN * sigma, coarse)
    obj = _objective_vec(sigma2, p_drop, continuation_gap, -axis, axis)
    k = int(np.argmin(obj))
    tau_best, best = float(axis[k]), float(obj[k])
    window = SPAN * sigma / (coarse - 1)
    while window > REFINE_TOL * sigma:
        axis = np.maximum(tau_best + np.linspace(-window, window, 21), 0.0)
        obj = _objective_vec(sigma2, p_drop, continuation_gap, -axis, axis)
        k = int(np.argmin(obj))
        if obj[k] <= best:
            tau_best, best = float(axis[k]), float(obj[k])
        window /= 8.0
    if sigma2 < best:
        return math.inf, sigma2
    return tau_best, best


@dataclass
class IidValueTable:
    """Channel-state value table for the white-noise problem.

    ``values[s, q]`` is the optimal remaining cost at stage s+1 (s = 0..N;
    the terminal slice is zero). ``intervals[s, q]`` is the optimizing
    no-transmit interval and ``p_transmit[s, q]`` its attempt probability.
    ``asymmetry_log`` records every (n, q, symmetric objective, interval
    objective) where the unrestricted interval strictly beat the best
    symmetric rule.
    """

    fsm: ChannelFsm
    sigma2: float
    values: np.ndarray
    intervals: np.ndarray
    p_transmit: np.ndarray
    asymmetry_log: List[Tuple[int, int, float, float]] = field(default_factory=list)

    @property
    def horizon(self) -> int:
        return self.values.shape[0] - 1

    def policy(self) -> TransmitPolicy:
        symmetric = not self.asymmetry_log
        return TransmitPolicy.interval(self.intervals, symmetric_flag=symmetric)

    def value_at_start(self) -> float:
        return float(self.values[0, self.fsm.initial_state])


def iid_backward_induction(fsm: ChannelFsm, sigma2: float, horizon: int,
                           coarse: int = 121) -> IidValueTable:
    """Backward induction over channel states for a white Gaussian source.

    Each stage solves one interval optimization per state with the
    continuation folded in through the attempt probability:

        V[n, q] = min_{lo<=hi} stage(lo, hi) + p_tx (V[n+1, q1] - V[n+1, q0])
                  + V[n+1, q0]

    Masked states skip the optimization and stay silent (stage cost equal
    to the source variance). The terminal slice is zero.
    """
    problems = validate_fsm(fsm)
    if problems:
        raise ValueError("invalid channel FSM: " + "; ".join(problems))
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    m = fsm.num_states
    values = np.zeros((horizon + 1, m))
    intervals = np.zeros((horizon, m, 2))
    p_transmit = np.zeros((horizon, m))
    log: List[Tuple[int, int, float, float]] = []
    for s in range(horizon - 1, -1, -1):
        for q in range(m):
            q0, q1 = fsm.transitions[q]
            if not fsm.transmit_allowed[q]:
                values[s, q] = sigma2 + values[s + 1, q0]
                intervals[s, q] = NEVER_TRANSMIT
                continue
            gap = values[s + 1, q1] - values[s + 1, q0]
            lo, hi, obj = optimize_interval(sigma2, fsm.drop_probs[q], gap,
                                            coarse=coarse)
            _, obj_sym = optimize_symmetric_threshold(sigma2, fsm.drop_probs[q],
                                                      gap, coarse=coarse)
            if obj_sym - obj > ASYMMETRY_TOL * sigma2:
                log.append((s + 1, q, obj_sym, obj))
            intervals[s, q] = (lo, hi)
            _, p_transmit[s, q] = iid_stage_cost(sigma2, fsm.drop_probs[q], lo, hi)
            values[s, q] = obj + values[s + 1, q0]
    return IidValueTable(fsm=fsm, sigma2=sigma2, values=values,
                         intervals=intervals, p_transmit=p_transmit,
                         asymmetry_log=log)


def export_iid_table_csv(table: IidValueTable, path):
    """One row (n, q, kind, tau_lo, tau_hi, value, p_transmit) per pair."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "q", "kind", "tau_lo", "tau_hi", "value", "p_transmit"])
        for s in range(table.horizon):
            for q in range(table.fsm.num_states):
                lo, hi = table.intervals[s, q]
                writer.writerow([s + 1, q, "interval_pair", repr(float(lo)),
                                 repr(float(hi)), repr(float(table.values[s, q])),
                                 repr(float(table.p_transmit[s, q]))])
