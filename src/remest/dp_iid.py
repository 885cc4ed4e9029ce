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

from .channel import ChannelFsm
from .policy import TransmitPolicy, write_csv
from .quadrature import MASS_FLOOR, _moments_given_mass, gaussian_partial_moments, ndtr


def _split_costs(sigma2, m0, m1, m2):
    """``(term_in, term_out, m0c)`` of the split at the inside moments
    (m0, m1, m2): the unnormalized squared error about the conditional mean
    inside and outside the no-transmit interval, and the attempt probability.
    A region below ``MASS_FLOOR`` contributes nothing."""
    m0c, m1c, m2c = 1.0 - m0, -m1, sigma2 - m2
    with np.errstate(divide="ignore", invalid="ignore"):
        term_in = np.where(m0 >= MASS_FLOOR, m2 - m1 * m1 / m0, 0.0)
        term_out = np.where(m0c >= MASS_FLOOR, m2c - m1c * m1c / m0c, 0.0)
    return term_in, term_out, m0c


def iid_stage_cost(sigma2: float, p_drop, tau_lo, tau_hi):
    """Expected one-stage squared error of the interval rule [tau_lo, tau_hi].

    The rule stays silent inside the interval and transmits outside it.
    Returns ``(cost, p_transmit)``:

        cost = E[(X - xhat0)^2; X inside] + p_drop * E[(X - xhat1)^2; X outside]

    with xhat0, xhat1 the conditional means of the two regions. Regions of
    (numerically) zero mass contribute nothing. The arguments after sigma2
    are scalars or broadcastable arrays.
    """
    moments = gaussian_partial_moments(sigma2, tau_lo, tau_hi)
    term_in, term_out, m0c = _split_costs(sigma2, *moments)
    return term_in + p_drop * term_out, m0c


def conditional_estimates(sigma2: float, tau_lo, tau_hi):
    """Conditional means (xhat inside, xhat outside) of the interval split,
    for scalar or broadcastable array ends.

    Massless regions fall back to 0.0; they are never realized.
    """
    m0, m1, _ = gaussian_partial_moments(sigma2, tau_lo, tau_hi)
    m0c = 1.0 - m0
    with np.errstate(divide="ignore", invalid="ignore"):
        return (np.where(m0 >= MASS_FLOOR, m1 / m0, 0.0)[()],
                np.where(m0c >= MASS_FLOOR, -m1 / m0c, 0.0)[()])


def _interval_terms(sigma2, lo, hi):
    """``_split_costs`` of the no-transmit intervals [lo, hi], so the search
    objective is ``term_in + p * term_out + gap * m0c``. ``lo`` and ``hi``
    broadcast against each other and the CDF and density see each alone, so
    axes shaped (..., k, 1) and (..., 1, k) cost 2k evaluations for a k-by-k
    table; ``term_in`` is +inf where lo > hi.

    The one difference from :func:`gaussian_partial_moments` is the inside
    mass, taken as ``ndtr(zb) - ndtr(za)`` also where lo > 0, where that
    difference cancels. Reflecting it moves solved intervals, so it waits
    for the benchmark re-baseline (ROADMAP item 1b). Both ends go through one
    :func:`ndtr` call, which has a fixed cost of a few dozen numpy calls.
    """
    sigma = math.sqrt(sigma2)
    za, zb = lo / sigma, hi / sigma
    cdf = ndtr(np.concatenate((za.ravel(), zb.ravel())))
    m0 = cdf[za.size:].reshape(zb.shape) - cdf[:za.size].reshape(za.shape)
    term_in, term_out, m0c = _split_costs(sigma2, *_moments_given_mass(sigma2, za, zb, m0))
    return np.where(lo > hi, np.inf, term_in), term_out, m0c


NEVER_TRANSMIT = (-math.inf, math.inf)
# The coarse search covers [-SPAN, SPAN] source standard deviations with
# COARSE points per axis; local refinement stops once its window is below
# REFINE_TOL standard deviations.
SPAN = 6.0
COARSE = 121
REFINE_TOL = 1e-6
# An interval optimum counts as asymmetric when it beats the best symmetric
# rule by more than this fraction of the source variance.
ASYMMETRY_TOL = 1e-7


def _check_settings(sigma2, p_drop, continuation_gap=0.0):
    """Raises ``ValueError`` unless sigma2 is positive and finite, every
    p_drop lies in [0, 1] and every continuation gap is finite."""
    if not 0 < sigma2 < math.inf:
        raise ValueError(f"sigma2 must be positive and finite, got {sigma2}")
    if not np.all((np.asarray(p_drop) >= 0) & (np.asarray(p_drop) <= 1)):
        raise ValueError(f"p_drop must be in [0, 1], got {p_drop}")
    if not np.all(np.isfinite(continuation_gap)):
        raise ValueError(f"continuation_gap must be finite, got {continuation_gap}")


def _rows(p_drop, continuation_gap):
    """Whether both settings are scalars, and both as equal-length 1-D arrays."""
    p, gap = np.broadcast_arrays(np.array(p_drop, float, ndmin=1),
                                 np.array(continuation_gap, float, ndmin=1))
    return np.ndim(p_drop) == 0 and np.ndim(continuation_gap) == 0, p, gap


def optimize_interval(sigma2: float, p_drop, continuation_gap):
    """Best no-transmit interval for one stage plus transition coupling.

    Minimizes ``stage cost + p_transmit * continuation_gap`` over
    tau_lo <= tau_hi by a ``COARSE``-point grid over [-SPAN*sigma,
    SPAN*sigma]^2 followed by zooming local refinement down to
    ``REFINE_TOL * sigma``.
    The never-transmit rule (interval = whole line) competes as an explicit
    candidate and is returned as ``(-inf, inf)`` when it wins. Deterministic
    for fixed settings; among numerically tied optima the narrowest, most
    centered interval is preferred.

    ``p_drop`` and ``continuation_gap`` are scalars, or equal-length 1-D
    arrays with one entry per row (a state, or a (stage, state) pair); all
    rows share one coarse table and are refined together, each exactly as
    if it were searched alone. Returns ``(tau_lo, tau_hi, objective)``:
    floats for scalar settings, arrays otherwise. Raises ``ValueError``
    unless sigma2 > 0 is finite, p_drop is in [0, 1] and the gap is finite.
    """
    _check_settings(sigma2, p_drop, continuation_gap)
    return _interval_search(sigma2)(p_drop, continuation_gap)


def optimize_symmetric_threshold(sigma2: float, p_drop, continuation_gap):
    """Best symmetric rule (no-transmit interval [-tau, tau]) for one stage.

    Same objective as :func:`optimize_interval` restricted to the symmetric
    diagonal; used to quantify how much asymmetry buys. Both conditional
    means are 0 there, so the objective's tau-derivative is
    2 pdf(tau) ((1 - p_drop) tau^2 - gap), minimized in closed form at
    tau = sqrt(gap / (1 - p_drop)): 0 where gap <= 0, inf where
    p_drop = 1 < gap. Takes and checks scalar or per-row settings like
    :func:`optimize_interval`. Returns ``(tau, objective)``.
    """
    _check_settings(sigma2, p_drop, continuation_gap)
    scalar, p, gap = _rows(p_drop, continuation_gap)
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = np.where(gap > 0, np.sqrt(gap / (1.0 - p)), 0.0)
    cost, p_transmit = iid_stage_cost(sigma2, p, -tau, tau)
    objective = cost + gap * p_transmit
    never = sigma2 < objective  # silence forever: estimate 0, p_transmit 0
    tau[never], objective[never] = math.inf, sigma2
    return (float(tau[0]), float(objective[0])) if scalar else (tau, objective)


def _interval_search(sigma2):
    """The interval search of :func:`optimize_interval`. The coarse table
    over [-SPAN, SPAN]^2 standard deviations depends on sigma2 alone, so it
    is built here once; the returned ``solve(p_drop, continuation_gap)``
    picks each row's best interval from it, then refines each row in
    21-point windows shrinking 8x down to ``REFINE_TOL``. A tying candidate
    replaces the incumbent, and never-transmit goes where sigma2 wins."""
    sigma = math.sqrt(sigma2)
    axis = np.linspace(-SPAN * sigma, SPAN * sigma, COARSE)[None, :]
    coarse = _interval_terms(sigma2, axis[:, :, None], axis[:, None, :])

    def pick(lo_axes, hi_axes, terms, p, gap):
        # each row's minimum over lo_axes[k] x hi_axes[k] as (lo, hi, objective)
        term_in, term_out, m0c = terms
        obj = term_in + p[:, None, None] * term_out + gap[:, None, None] * m0c
        best = obj.min(axis=(1, 2))
        # tie polish within each row: narrowest interval first, then the most
        # centered one, then the first in row-major order
        k, i, j = np.nonzero(obj <= best[:, None, None] + 1e-15)
        lo = np.broadcast_to(lo_axes, (len(p), lo_axes.shape[1]))[k, i]
        hi = np.broadcast_to(hi_axes, (len(p), hi_axes.shape[1]))[k, j]
        order = np.lexsort((np.abs(hi + lo), hi - lo, k))
        first = order[np.searchsorted(k[order], np.arange(len(p)))]
        return lo[first], hi[first], best

    def solve(p_drop, continuation_gap):
        scalar, p, gap = _rows(p_drop, continuation_gap)
        best = pick(axis, axis, coarse, p, gap)
        window = 2.0 * SPAN * sigma / (COARSE - 1)
        while window > REFINE_TOL * sigma:
            offsets = np.linspace(-window, window, 21)
            lo_axes, hi_axes = best[0][:, None] + offsets, best[1][:, None] + offsets
            terms = _interval_terms(sigma2, lo_axes[:, :, None], hi_axes[:, None, :])
            cand = pick(lo_axes, hi_axes, terms, p, gap)
            better = cand[2] <= best[2]
            for x, c in zip(best, cand):
                x[better] = c[better]
            window /= 8.0
        never = sigma2 < best[2]  # silence forever: estimate 0, p_transmit 0
        for x, v in zip(best, NEVER_TRANSMIT + (sigma2,)):
            x[never] = v
        return tuple(float(x[0]) if scalar else x for x in best)

    return solve


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
    values: np.ndarray
    intervals: np.ndarray
    p_transmit: np.ndarray
    asymmetry_log: List[Tuple[int, int, float, float]] = field(default_factory=list)

    @property
    def horizon(self) -> int:
        return self.values.shape[0] - 1

    def policy(self) -> TransmitPolicy:
        return TransmitPolicy.interval(self.intervals)

    def value_at_start(self) -> float:
        return float(self.values[0, self.fsm.initial_state])


def iid_backward_induction(fsm: ChannelFsm, sigma2: float, horizon: int) -> IidValueTable:
    """Backward induction over channel states for a white Gaussian source.

    Each stage solves one interval optimization for all transmit-allowed
    states together, with the continuation folded in through the attempt
    probability:

        V[n, q] = min_{lo<=hi} stage(lo, hi) + p_tx (V[n+1, q1] - V[n+1, q0])
                  + V[n+1, q0]

    The coarse interval table depends on sigma2 alone, so it is built once
    and every stage picks from it. Masked states skip the optimization and
    stay silent (stage cost equal to the source variance). The terminal
    slice is zero. No value reads the closed-form symmetric comparison, so
    it runs once after the loop, over every (stage, allowed state) row.
    Raises ``ValueError`` unless horizon >= 1 and sigma2 > 0 is finite.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    _check_settings(sigma2, fsm.drop)
    m = fsm.num_states
    values = np.zeros((horizon + 1, m))
    intervals = np.full((horizon, m, 2), NEVER_TRANSMIT)
    p_transmit = np.zeros((horizon, m))
    q0, q1 = fsm.successor.T
    allowed = np.flatnonzero(fsm.allowed)
    p = fsm.drop[allowed]
    search = _interval_search(sigma2)
    objs = np.empty((horizon, len(allowed)))
    for s in range(horizon - 1, -1, -1):
        # every state silent; the transmit-allowed ones are overwritten below
        values[s] = sigma2 + values[s + 1, q0]
        silent_next = values[s + 1, q0[allowed]]
        lo, hi, objs[s] = search(p, values[s + 1, q1[allowed]] - silent_next)
        values[s, allowed] = objs[s] + silent_next
        intervals[s, allowed, 0], intervals[s, allowed, 1] = lo, hi
    _, p_transmit[:, allowed] = iid_stage_cost(sigma2, p, intervals[:, allowed, 0],
                                               intervals[:, allowed, 1])
    gaps = values[1:, q1[allowed]] - values[1:, q0[allowed]]
    _, obj_sym = optimize_symmetric_threshold(sigma2, np.tile(p, horizon), gaps.ravel())
    obj_sym = obj_sym.reshape(objs.shape)
    wins = obj_sym - objs > ASYMMETRY_TOL * sigma2
    log = [(s + 1, int(allowed[k]), float(obj_sym[s, k]), float(objs[s, k]))
           for s in range(horizon - 1, -1, -1) for k in np.flatnonzero(wins[s])]
    return IidValueTable(fsm=fsm, values=values, intervals=intervals,
                         p_transmit=p_transmit, asymmetry_log=log)


def export_iid_table_csv(table: IidValueTable, path):
    """One row (n, q, kind, tau_lo, tau_hi, value, p_transmit) per pair."""
    n, q = np.indices(table.p_transmit.shape)
    write_csv(path, ("n", "q", "kind", "tau_lo", "tau_hi", "value", "p_transmit"), {},
              [(n + 1, q, "interval_pair", table.intervals[..., 0], table.intervals[..., 1],
                table.values[:-1], table.p_transmit)])
