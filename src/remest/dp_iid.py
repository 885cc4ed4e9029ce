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
from .quadrature import MASS_FLOOR, _moments_given_mass, gaussian_partial_moments


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
    for the benchmark re-baseline (ROADMAP item 1).
    """
    from scipy.special import ndtr  # deferred: importing the CLI skips scipy

    sigma = math.sqrt(sigma2)
    za, zb = lo / sigma, hi / sigma
    term_in, term_out, m0c = _split_costs(
        sigma2, *_moments_given_mass(sigma2, za, zb, ndtr(zb) - ndtr(za)))
    return np.where(lo > hi, np.inf, term_in), term_out, m0c


NEVER_TRANSMIT = (-math.inf, math.inf)
# The coarse search covers [-SPAN, SPAN] source standard deviations; local
# refinement stops once its window is below REFINE_TOL standard deviations.
SPAN = 6.0
REFINE_TOL = 1e-6
# An interval optimum counts as asymmetric when it beats the best symmetric
# rule by more than this fraction of the source variance.
ASYMMETRY_TOL = 1e-7


def optimize_interval(sigma2: float, p_drop, continuation_gap, coarse: int = 121):
    """Best no-transmit interval for one stage plus transition coupling.

    Minimizes ``stage cost + p_transmit * continuation_gap`` over
    tau_lo <= tau_hi by a ``coarse``-point grid over [-SPAN*sigma,
    SPAN*sigma]^2 followed by zooming local refinement down to
    ``REFINE_TOL * sigma``.
    The never-transmit rule (interval = whole line) competes as an explicit
    candidate and is returned as ``(-inf, inf)`` when it wins. Deterministic
    for fixed settings; among numerically tied optima the narrowest, most
    centered interval is preferred.

    ``p_drop`` and ``continuation_gap`` are scalars, or equal-length 1-D
    arrays with one entry per state; all states share one coarse table and
    are refined together. Returns ``(tau_lo, tau_hi, objective)``: floats
    for scalar settings, arrays otherwise.
    """
    return _zoom(_interval_search, sigma2, p_drop, continuation_gap, -SPAN, coarse,
                 NEVER_TRANSMIT)


def optimize_symmetric_threshold(sigma2: float, p_drop, continuation_gap,
                                 coarse: int = 121):
    """Best symmetric rule (no-transmit interval [-tau, tau]) for one stage.

    Same objective as :func:`optimize_interval` restricted to the symmetric
    diagonal, searched over tau in [0, SPAN*sigma]; used to quantify how
    much asymmetry buys. Takes scalar or per-state settings like
    :func:`optimize_interval`. Returns ``(tau, objective)`` with tau = inf
    when never-transmit wins.
    """
    return _zoom(_symmetric_search, sigma2, p_drop, continuation_gap, 0.0, coarse,
                 (math.inf,))


def _zoom(search, sigma2, p_drop, continuation_gap, start, coarse, never_transmit):
    """The search loop of both optimizers: ``search(sigma2, p, gap, *axes)``
    returns each state's best coordinates (one per entry of
    ``never_transmit``) and objective over one axis row per state, or one
    shared row. A coarse search over [start, SPAN] standard deviations, then
    21-point windows shrinking 8x down to ``REFINE_TOL``; a tying candidate
    replaces the incumbent, and ``never_transmit`` goes where sigma2 wins."""
    sigma = math.sqrt(sigma2)
    scalar = np.ndim(p_drop) == 0 and np.ndim(continuation_gap) == 0
    p, gap = np.broadcast_arrays(np.atleast_1d(np.asarray(p_drop, dtype=float)),
                                 np.atleast_1d(np.asarray(continuation_gap, dtype=float)))
    axis = np.linspace(start * sigma, SPAN * sigma, coarse)[None, :]
    best = search(sigma2, p, gap, *[axis] * len(never_transmit))  # coordinates, objective
    window = (SPAN - start) * sigma / (coarse - 1)
    while window > REFINE_TOL * sigma:
        offsets = np.linspace(-window, window, 21)
        cand = search(sigma2, p, gap, *[x[:, None] + offsets for x in best[:-1]])
        better = cand[-1] <= best[-1]
        for x, c in zip(best, cand):
            x[better] = c[better]
        window /= 8.0
    never = sigma2 < best[-1]  # silence forever: estimate 0, p_transmit 0
    for x, v in zip(best, never_transmit + (sigma2,)):
        x[never] = v
    return tuple(float(x[0]) if scalar else x for x in best)


def _interval_search(sigma2, p, gap, lo_axes, hi_axes):
    """Per-state minimum over the tables lo_axes[k] x hi_axes[k]:
    ``(lo, hi, objective)`` arrays."""
    term_in, term_out, m0c = _interval_terms(sigma2, lo_axes[:, :, None], hi_axes[:, None, :])
    obj = term_in + p[:, None, None] * term_out + gap[:, None, None] * m0c
    best = obj.min(axis=(1, 2))
    # tie polish within each state: narrowest interval first, then the most
    # centered one, then the first in row-major order
    k, i, j = np.nonzero(obj <= best[:, None, None] + 1e-15)
    lo = np.broadcast_to(lo_axes, (len(p), lo_axes.shape[1]))[k, i]
    hi = np.broadcast_to(hi_axes, (len(p), hi_axes.shape[1]))[k, j]
    order = np.lexsort((np.abs(hi + lo), hi - lo, k))
    first = order[np.searchsorted(k[order], np.arange(len(p)))]
    return lo[first], hi[first], best


def _symmetric_search(sigma2, p, gap, axes):
    """Per-state first minimum over tau in axes[k], clamped at 0:
    ``(tau, objective)`` arrays."""
    axes = np.maximum(axes, 0.0)
    term_in, term_out, m0c = _interval_terms(sigma2, -axes, axes)
    obj = term_in + p[:, None] * term_out + gap[:, None] * m0c
    k = np.argmin(obj, axis=1)
    rows = np.arange(len(p))
    return np.broadcast_to(axes, obj.shape)[rows, k], obj[rows, k]


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
        return TransmitPolicy.interval(self.intervals)

    def value_at_start(self) -> float:
        return float(self.values[0, self.fsm.initial_state])


def iid_backward_induction(fsm: ChannelFsm, sigma2: float, horizon: int,
                           coarse: int = 121) -> IidValueTable:
    """Backward induction over channel states for a white Gaussian source.

    Each stage solves one interval optimization for all transmit-allowed
    states together, with the continuation folded in through the attempt
    probability:

        V[n, q] = min_{lo<=hi} stage(lo, hi) + p_tx (V[n+1, q1] - V[n+1, q0])
                  + V[n+1, q0]

    Masked states skip the optimization and stay silent (stage cost equal
    to the source variance). The terminal slice is zero.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    m = fsm.num_states
    values = np.zeros((horizon + 1, m))
    intervals = np.full((horizon, m, 2), NEVER_TRANSMIT)
    p_transmit = np.zeros((horizon, m))
    log: List[Tuple[int, int, float, float]] = []
    q0 = np.array([t0 for t0, _ in fsm.transitions])
    allowed = np.flatnonzero(fsm.transmit_allowed)
    q1 = np.array([fsm.transitions[q][1] for q in allowed], dtype=np.intp)
    p = np.array(fsm.drop_probs)[allowed]
    for s in range(horizon - 1, -1, -1):
        # every state silent; the transmit-allowed ones are overwritten below
        values[s] = sigma2 + values[s + 1, q0]
        silent_next = values[s + 1, q0[allowed]]
        gap = values[s + 1, q1] - silent_next
        lo, hi, obj = optimize_interval(sigma2, p, gap, coarse=coarse)
        _, obj_sym = optimize_symmetric_threshold(sigma2, p, gap, coarse=coarse)
        values[s, allowed] = obj + silent_next
        intervals[s, allowed, 0], intervals[s, allowed, 1] = lo, hi
        log += [(s + 1, int(allowed[k]), float(obj_sym[k]), float(obj[k]))
                for k in np.flatnonzero(obj_sym - obj > ASYMMETRY_TOL * sigma2)]
    _, p_transmit[:, allowed] = iid_stage_cost(sigma2, p, intervals[:, allowed, 0],
                                               intervals[:, allowed, 1])
    return IidValueTable(fsm=fsm, sigma2=sigma2, values=values,
                         intervals=intervals, p_transmit=p_transmit,
                         asymmetry_log=log)


def export_iid_table_csv(table: IidValueTable, path):
    """One row (n, q, kind, tau_lo, tau_hi, value, p_transmit) per pair."""
    n, q = np.indices(table.p_transmit.shape)
    write_csv(path, ("n", "q", "kind", "tau_lo", "tau_hi", "value", "p_transmit"), {},
              [(n + 1, q, "interval_pair", table.intervals[..., 0], table.intervals[..., 1],
                table.values[:-1], table.p_transmit)])
