"""Closed-loop Monte Carlo simulation and desk-scale exact oracles.

The simulator estimates exactly what each solver computes:

- For symmetric policies (any plant gain) it runs the stage-coupled chain
  the grid solver recurses over: the decision at each stage sees the
  current error, a delivery zeroes that stage's cost, the error then
  propagates through the plant, and the squared error left after the final
  stage is counted as the horizon-end term, matching the solver's terminal
  slice. The Monte Carlo total is therefore an unbiased estimate of
  ``ValueTable.value_at_origin()``.
- For interval policies on a white source (gain 0) it runs the per-stage
  problem with conditional-mean estimators from truncated moments, an
  unbiased estimate of ``IidValueTable.value_at_start()``. No horizon-end
  term exists in this accounting.

The oracle layer replaces the Gaussian source with a small finite support
so that every stage-wise deterministic policy can be enumerated and scored
in exact arithmetic; an independently coded backward induction must agree
with the enumeration to rounding error.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, fields
from typing import Dict, Optional, Tuple

import numpy as np

from . import workers
from .channel import ChannelFsm, reachable_pairs
from .policy import TransmitPolicy, decide_many, write_csv
from .process import PlantModel
from .quadrature import SolverOverflowError
from .dp_iid import conditional_estimates

ENUMERATION_LIMIT = 10 ** 7
# Trials stepped together over all workers.count(ceil(trials / BLOCK_TRIALS))
# threads: each steps blocks of BLOCK_TRIALS // threads trials, so its
# per-stage rows stay cache-resident. Each thread holds one stage-major
# buffer of its block, the normals (which the costs overwrite), so all
# threads' buffers hold one block; the uniforms sit in the block's cost rows.
BLOCK_TRIALS = 2 ** 15
_TRACE_FIELDS = (("x", float), ("xhat", float), ("e", float), ("r", bool),
                 ("c", bool), ("q", np.intp))


class EnumerationSizeError(ValueError):
    """The policy space of a discrete instance exceeds the enumeration cap."""


@dataclass
class SimSummary:
    """Aggregate Monte Carlo output.

    ``stage_mse`` has one entry per counted cost term: horizon entries for
    the white-source accounting, horizon + 1 when the horizon-end term is
    included (``horizon_term_included``). ``total`` is exactly the sum of
    ``stage_mse``; its standard error comes from per-trial totals.
    """

    trials: int
    seed: int
    stage_mse: np.ndarray
    stage_se: np.ndarray
    total: float
    total_se: float
    transmit_rate: np.ndarray
    occupancy: np.ndarray
    horizon_term_included: bool
    trace: Optional[dict] = None

    def to_dict(self) -> dict:
        """Every field but ``trace``, in field order, arrays as lists."""
        values = ((f.name, getattr(self, f.name)) for f in fields(self) if f.name != "trace")
        return {name: v.tolist() if isinstance(v, np.ndarray) else v for name, v in values}


def check_policy_fits(plant: PlantModel, fsm: ChannelFsm, policy: TransmitPolicy):
    """Raise ``ValueError`` unless :func:`simulate` can run ``policy`` against
    the plant and channel. With gain a != 0 the policy must be symmetric: a
    threshold is by construction, a gridded policy must decide alike at e and
    -e on every grid point, and an interval policy is refused."""
    if policy.horizon != plant.horizon or policy.num_states != fsm.num_states:
        raise ValueError("policy shape does not match plant horizon / channel states")
    if plant.a == 0.0 or policy.kind == "symmetric_threshold":
        return
    if policy.kind == "interval_pair":
        raise ValueError("interval policies simulate only with plant gain 0; asymmetric "
                         "rules admit no tractable estimator otherwise")
    # the grid is antisymmetric, so the mirror image is the reversed last axis
    differ = np.argwhere(policy.indicator != policy.indicator[..., ::-1])
    if len(differ):
        n, q, i = differ[0].tolist()
        raise ValueError(f"gridded policy is not symmetric at (n, q, e) = ({n + 1}, {q}, "
                         f"{float(policy.grid.points[i])!r}), as nonzero plant gain requires")


def simulate(plant: PlantModel, fsm: ChannelFsm, policy: TransmitPolicy,
             trials: int, seed: int, collect_trace: bool = False) -> SimSummary:
    """Monte Carlo estimate of the closed-loop cost of a policy.

    Interval policies require a white source (plant gain 0) and use the
    conditional-mean estimator; all other policies follow the stage-coupled
    accounting described in the module docstring, which with nonzero gain is
    valid only for symmetric ones (see :func:`check_policy_fits`). Fixed
    ``seed`` gives a bit-identical summary.

    Stream contract (same seed, same summary): one Philox(key=seed)
    generator draws the (trials, stages) standard normals, then the
    uniforms, both trial-major; the normals go in block order into the head
    of each block's own cost rows and are scaled as ``rng.normal(0.0,
    sigma)`` scales them. Trials are stepped in blocks, stage-major, on
    ``workers.count(ceil(trials / BLOCK_TRIALS))`` threads that
    :func:`workers.run_each` runs and ends, each stepping blocks of
    ``BLOCK_TRIALS // threads`` trials on one stage-major buffer. A thread
    takes the next block and, holding one lock, copies its normals into its
    buffer and draws its uniforms trial-major into the rows the normals
    left, so the stream is consumed in block order. Outside the lock it
    scales the normals in its buffer, and each stage reads its uniforms in
    the rows and writes its costs over the normals it has just read; the
    buffer then becomes the block's cost rows. Every step is elementwise
    and the counts are integers, so neither the blocking nor the
    thread count changes a bit. Both accountings share one estimator step,
    an undelivered sample estimated per (stage, attempt, state): on a white
    source the decision sees the stage's fresh sample, estimated by its
    conditional mean; on the chain it sees the carried error, estimated by
    0, which the plant propagates.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    check_policy_fits(plant, fsm, policy)
    white = policy.kind == "interval_pair"
    n_stages, m = plant.horizon, fsm.num_states
    n_costs = n_stages if white else n_stages + 1
    threads = workers.count(-(-trials // BLOCK_TRIALS))
    block = min(trials, BLOCK_TRIALS // threads)  # each buffer, over all threads, is one block
    traced = sum(np.dtype(dtype).itemsize for _, dtype in _TRACE_FIELDS) * collect_trace
    workers.refuse_past_memory(  # the cost table, per-trial totals, block buffers and trace
        f"the simulator's tables for {trials} trials of {n_stages} stages",
        8 * trials * (n_costs + 1) + 8 * threads * block * n_stages + trials * n_stages * traced)
    successor = fsm.successor.reshape(-1)  # indexed by slot = 2 q + r
    xhat = (np.stack(conditional_estimates(plant.sigma2, policy.intervals[..., 0],
                                           policy.intervals[..., 1]), -1).reshape(n_stages, -1)
            if white else np.zeros((n_stages, 2 * m)))  # per (stage, slot); 0 on the chain

    rng = np.random.Generator(np.random.Philox(key=seed))
    stage_costs = np.empty((trials, n_costs))
    trace = ({key: np.empty((trials, n_stages), dtype=dtype)
              for key, dtype in _TRACE_FIELDS} if collect_trace else None)

    def head(table, k):  # its first k * n_stages entries, viewed trial-major
        return table.reshape(-1)[:k * n_stages].reshape(k, n_stages)

    for start in range(0, trials, block):
        rng.standard_normal(out=head(stage_costs[start:], min(block, trials - start)))
    starts = iter(range(0, trials, block))
    lock = threading.Lock()

    @np.errstate(over="ignore", invalid="ignore")  # the summary's spread is checked
    def step_blocks():
        """Step blocks until none is left; return this thread's counts."""
        sends = np.zeros(n_stages, dtype=np.int64)
        occupancy = np.zeros(m, dtype=np.int64)
        buf = np.empty((n_stages, block))
        while True:
            with lock:  # blocks take their uniforms in block order
                start = next(starts, None)
                if start is None:
                    return sends, occupancy
                k = min(block, trials - start)
                rows, cells = slice(start, start + k), head(stage_costs[start:], k)
                w = buf[:, :k]
                np.copyto(w, cells.T)
                rng.random(out=cells)  # trial-major, over the normals just copied
            w *= math.sqrt(plant.sigma2)  # what rng.normal(0.0, sigma) computes
            w += 0.0
            e = np.zeros(k)
            q = np.full(k, fsm.initial_state, dtype=np.intp)
            if collect_trace and not white:
                est = np.full(k, plant.a * plant.x0)
                x = est + e
            for s in range(n_stages):
                occupancy += np.bincount(q, minlength=m)
                if white:
                    e = w[s]
                r = decide_many(policy, s + 1, q, e) & fsm.allowed[q]
                slot = 2 * q + r
                success = cells[:, s] >= fsm.drop[q]
                delivered = r & success
                residual = np.where(delivered, 0.0, e - xhat[s][slot])
                sends[s] += np.count_nonzero(r)
                if collect_trace:
                    if white:
                        row = (e, np.where(delivered, e, xhat[s][slot]), residual)
                    else:  # the row keeps this stage's arrays; the plant propagates both
                        row = (x, np.where(delivered, x, est), e)
                        est, x = plant.a * row[1], plant.a * x + w[s]
                    for (key, _), value in zip(_TRACE_FIELDS, row + (r, success, q)):
                        trace[key][rows, s] = value
                if not white:
                    e = plant.a * residual + w[s]
                np.multiply(residual, residual, out=w[s])  # over the normals just read
                q = successor[slot]
            stage_costs[rows, :n_stages] = w.T
            if not white:
                stage_costs[rows, n_stages] = e * e

    counts = workers.run_each(lambda _: step_blocks(), range(threads))
    sends, occupancy = (sum(c) for c in zip(*counts))

    # numpy's own std steps, in place: the per-trial totals hold their squared
    # deviations, then the cost table, read no more after its mean, holds its own
    ddof = min(1, trials - 1)  # one trial has no spread
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN reaches the spread
        totals = stage_costs.sum(axis=1)
        totals -= totals.sum() / trials
        np.square(totals, out=totals)
        total_sd = math.sqrt(totals.sum() / (trials - ddof))
        stage_mse = stage_costs.mean(axis=0)
        stage_costs -= stage_mse
        np.square(stage_costs, out=stage_costs)
        stage_sd = np.sqrt(stage_costs.sum(axis=0) / (trials - ddof))
    if not (math.isfinite(total_sd) and np.isfinite(stage_sd).all()):
        raise SolverOverflowError(
            f"simulated costs or their spread overflow a float (a = {plant.a:.3g}, "
            f"sigma2 = {plant.sigma2:.3g}, horizon {n_stages})")
    return SimSummary(trials=trials, seed=seed, stage_mse=stage_mse,
                      stage_se=stage_sd / math.sqrt(trials), total=float(stage_mse.sum()),
                      total_se=total_sd / math.sqrt(trials), transmit_rate=sends / trials,
                      occupancy=occupancy, horizon_term_included=not white,
                      trace=trace)


def write_trace_csv(summary: SimSummary, path):
    """Dump the recorded per-trial trace as (trial, n, x, xhat, e, r, c, q),
    about ``BLOCK_TRIALS`` rows per write.

    On the stage-coupled chain ``e`` is the error the encoder saw before
    deciding; on a white source it is x - xhat after the stage.
    """
    if summary.trace is None:
        raise ValueError("simulation was run without collect_trace")
    tr = summary.trace
    trials, stages = tr["e"].shape
    step = max(1, BLOCK_TRIALS // stages)

    def blocks():
        for start in range(0, trials, step):
            rows = slice(start, start + step)
            t, n = np.indices(tr["e"][rows].shape)
            yield (t + start, n + 1, *(tr[key][rows] for key, _ in _TRACE_FIELDS))

    write_csv(path, ("trial", "n") + tuple(key for key, _ in _TRACE_FIELDS), {}, blocks())


# ---------------------------------------------------------------------------
# Exact oracles on finite supports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscreteInstance:
    """White source quantized to a finite support, for exact verification.

    ``support`` is a tuple of (value, probability) pairs summing to one;
    the source draws independently from it each stage. Policies are all
    stage-wise maps (support point, channel state) -> {0, 1}; masked
    channel states are pinned to the never-transmit map.
    """

    support: tuple
    fsm: ChannelFsm
    horizon: int

    def __post_init__(self):
        vals = [v for v, _ in self.support]
        probs = [p for _, p in self.support]
        if not all(map(math.isfinite, vals + probs)):  # NaN passes every check below
            raise ValueError("support values and probabilities must be finite")
        if not math.isfinite(sum(p * v * v for v, p in self.support)):  # oracles square v
            raise ValueError("support second moment must be finite")
        if sorted(vals) != vals:
            raise ValueError("support values must be sorted ascending")
        if abs(sum(probs) - 1.0) > 1e-12 or min(probs) < 0:
            raise ValueError("support probabilities must be nonnegative and sum to 1")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")

    @property
    def values(self):
        return np.array([v for v, _ in self.support])

    @property
    def probs(self):
        return np.array([p for _, p in self.support])


def _stage_cost_tables(inst: DiscreteInstance):
    """Per (state, map) exact stage cost and attempt probability.

    Map k encodes the transmit decision per support point in its bits
    (bit j set = transmit at support point j).
    """
    vals, probs = inst.values, inst.probs
    s_count = len(inst.support)
    n_maps = 1 << s_count
    bits = (np.arange(n_maps)[:, None] >> np.arange(s_count)[None, :]) & 1
    send = bits.astype(bool)
    p_send = np.where(send, probs, 0.0).sum(axis=1)
    p_stay = 1.0 - p_send
    m1_send = np.where(send, probs * vals, 0.0).sum(axis=1)
    m1_stay = probs @ vals - m1_send
    m2_send = np.where(send, probs * vals ** 2, 0.0).sum(axis=1)
    m2_stay = probs @ vals ** 2 - m2_send
    with np.errstate(divide="ignore", invalid="ignore"):
        var_send = np.where(p_send > 0, m2_send - m1_send ** 2 / np.maximum(p_send, 1e-300), 0.0)
        var_stay = np.where(p_stay > 0, m2_stay - m1_stay ** 2 / np.maximum(p_stay, 1e-300), 0.0)
    return var_stay + inst.fsm.drop[:, None] * var_send, p_send


def _slot_maps(inst: DiscreteInstance, q: int) -> np.ndarray:
    """Every map where state q may transmit, else only map 0 (silence)."""
    return np.arange(1 << len(inst.support) if inst.fsm.allowed[q] else 1)


def exhaustive_policy_search(inst: DiscreteInstance):
    """Score every stage-wise deterministic policy exactly.

    Returns ``(optimal cost, minimizers)`` where each minimizer is a dict
    ``(stage, state) -> map`` over the reachable decision slots (map bits
    as in :func:`_stage_cost_tables`). Raises
    :class:`EnumerationSizeError` above ``ENUMERATION_LIMIT`` combinations.
    """
    cost_table, p_send_table = _stage_cost_tables(inst)
    slots = sorted(reachable_pairs(inst.fsm, inst.horizon))
    slot_axis = {slot: axis for axis, slot in enumerate(slots)}
    slot_maps = {slot: _slot_maps(inst, slot[1]) for slot in slots}
    if math.prod(map(len, slot_maps.values())) > ENUMERATION_LIMIT:
        raise EnumerationSizeError(f"policy space exceeds {ENUMERATION_LIMIT} combinations")
    n_axes = len(slots)

    def shaped(slot, arr):
        shape = [1] * n_axes
        shape[slot_axis[slot]] = len(arr)
        return arr.reshape(shape)

    @functools.cache
    def expected_cost(n, q):
        if n > inst.horizon:
            return 0.0
        maps = slot_maps[(n, q)]
        cost = shaped((n, q), cost_table[q, maps])
        p_send = shaped((n, q), p_send_table[maps])
        # a masked state's one map has p_send = 0 and q1 = q0
        q0, q1 = inst.fsm.successor[q].tolist()
        return (cost + (1.0 - p_send) * expected_cost(n + 1, q0)
                + p_send * expected_cost(n + 1, q1))

    total = np.broadcast_to(expected_cost(1, inst.fsm.initial_state),
                            tuple(len(slot_maps[s]) for s in slots))
    best = float(total.min())
    tie = np.argwhere(np.asarray(total) <= best + 1e-12 * max(1.0, abs(best)))
    minimizers = []
    for combo in tie[:10000]:
        policy = {slot: int(slot_maps[slot][combo[slot_axis[slot]]])
                  for slot in slots}
        minimizers.append(policy)
    return best, minimizers


def discrete_dp(inst: DiscreteInstance):
    """Independent exact backward induction over (stage, state).

    Returns ``(value, policy)`` with the same map encoding as the
    exhaustive search; the two must agree to rounding error.
    """
    cost_table, p_send_table = _stage_cost_tables(inst)
    m = inst.fsm.num_states
    values = np.zeros((inst.horizon + 1, m))
    policy: Dict[Tuple[int, int], int] = {}
    for n in range(inst.horizon, 0, -1):
        for q in range(m):
            maps = _slot_maps(inst, q)
            q0, q1 = inst.fsm.successor[q]
            totals = (cost_table[q, maps] + (1.0 - p_send_table[maps]) * values[n, q0]
                      + p_send_table[maps] * values[n, q1])
            k = int(np.argmin(totals))
            values[n - 1, q] = totals[k]
            policy[(n, q)] = int(maps[k])
    return float(values[0, inst.fsm.initial_state]), policy


def transmit_set_is_interval_complement(map_bits: int, support_size: int) -> bool:
    """True when the no-transmit support points form one contiguous run."""
    stay = [j for j in range(support_size) if not (map_bits >> j) & 1]
    if not stay:
        return True
    return stay[-1] - stay[0] + 1 == len(stay)


def minimizer_has_interval_structure(inst: DiscreteInstance, policy: dict) -> bool:
    s_count = len(inst.support)
    return all(transmit_set_is_interval_complement(bits, s_count)
               for bits in policy.values())
