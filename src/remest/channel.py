"""Packet-drop channels whose drop probability follows a finite state machine.

The channel state is driven only by the history of transmission attempts:
attempting or skipping a transmission moves the FSM along its r=1 or r=0
arc, and the current state sets the probability that an attempted packet is
dropped. An FSM checks its own invariants when it is constructed. Two
builders cover the bundled applications: a battery with deterministic
energy harvesting, and a sliding-count model of how busy a human operator
is.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from .process import is_number

# The builders and the FSM's own check loop over the states in Python, about
# half a second per 10**5 states: a builder refuses a larger count before its
# loop (each solver refuses its own tables past the host's memory).
MAX_BUILT_STATES = 10 ** 5


@dataclass(frozen=True)
class ChannelFsm:
    """Finite state machine channel model.

    Attributes
    ----------
    num_states : int
        States are indexed 0..num_states-1.
    transitions : tuple of (int, int or None)
        ``transitions[q] = (next on r=0, next on r=1)``. The r=1 target may
        be None only where ``transmit_allowed[q]`` is False.
    drop_probs : tuple of float
        Probability that an attempted transmission in state q is dropped.
    initial_state : int
    transmit_allowed : tuple of bool
        Action mask; masked states must carry drop probability 1.

    Construction raises ``ValueError("invalid channel FSM: ...")`` listing
    every violated invariant. The sequences may be given as JSON lists and
    are stored as tuples, so a config's ``fsm`` section is read with
    ``ChannelFsm(**section)`` and written with ``dataclasses.asdict``. It
    then builds the read-only arrays ``successor[q, r]``, ``drop[q]`` and
    ``allowed[q]``, which ``asdict``, equality and hashing ignore (they are
    not fields). A masked state's r=1 successor is its r=0 one, never taken.
    """

    num_states: int
    transitions: tuple
    drop_probs: tuple
    initial_state: int
    transmit_allowed: tuple

    def __post_init__(self):
        problems = _violations(self)
        if problems:
            raise ValueError("invalid channel FSM: " + "; ".join(problems))
        object.__setattr__(self, "transitions",
                           tuple((int(a), None if b is None else int(b))
                                 for a, b in self.transitions))
        object.__setattr__(self, "drop_probs", tuple(float(p) for p in self.drop_probs))
        object.__setattr__(self, "transmit_allowed", tuple(self.transmit_allowed))
        successor = [(t0, t1 if ok else t0)
                     for (t0, t1), ok in zip(self.transitions, self.transmit_allowed)]
        for name, table in (("successor", np.array(successor, dtype=np.intp)),
                            ("drop", np.array(self.drop_probs, dtype=float)),
                            ("allowed", np.array(self.transmit_allowed, dtype=bool))):
            table.flags.writeable = False
            object.__setattr__(self, name, table)

    def states(self):
        return range(self.num_states)


def _require(name, value, kind=numbers.Real):
    """Raise ``ValueError`` naming a builder parameter that is no ``kind``
    number (a bool is none)."""
    if not is_number(value, kind):
        noun = "an integer" if kind is numbers.Integral else "a number"
        raise ValueError(f"{name} must be {noun}, got {value!r}")


def _cap_states(name, value):
    """Raise ``ValueError`` when ``value + 1`` states exceed ``MAX_BUILT_STATES``."""
    if value + 1 > MAX_BUILT_STATES:
        raise ValueError(f"{name} {value} gives {value + 1} states, more than the "
                         f"builders' cap of {MAX_BUILT_STATES}")


def _violations(fsm: ChannelFsm):
    """Every invariant violation of an FSM description, as readable strings;
    sequence fields that are no list are reported alone, then the first
    transition that is no pair, then the first entry of the wrong type in
    each field (a bool is no number)."""
    not_lists = [f"{name} must be a list, got {seq!r}"
                 for name in ("transitions", "drop_probs", "transmit_allowed")
                 if not isinstance(seq := getattr(fsm, name), (list, tuple))]
    if not_lists:
        return not_lists
    for i, t in enumerate(fsm.transitions):
        if not (isinstance(t, (list, tuple)) and len(t) == 2):
            return [f"transitions[{i}] must be a 2-element list, got {t!r}"]
    integer = functools.partial(is_number, kind=numbers.Integral)
    fields = (("num_states", [fsm.num_states], integer, "an integer"),
              ("initial_state", [fsm.initial_state], integer, "an integer"),
              ("transitions", [t for pair in fsm.transitions for t in pair if t is not None],
               integer, "integers"),
              ("drop_probs", fsm.drop_probs, is_number, "numbers"),
              ("transmit_allowed", fsm.transmit_allowed, lambda t: isinstance(t, bool),
               "true or false"))
    violations = [f"{name} must be {kind}, got {bad[0]!r}" for name, values, ok, kind in fields
                  if (bad := [v for v in values if not ok(v)])]
    if violations:
        return violations
    m = fsm.num_states
    if m < 1:
        violations.append(f"num_states must be >= 1, got {m}")
        return violations
    for name, seq in (("transitions", fsm.transitions),
                      ("drop_probs", fsm.drop_probs),
                      ("transmit_allowed", fsm.transmit_allowed)):
        if len(seq) != m:
            violations.append(f"{name} has length {len(seq)}, expected {m}")
    if violations:
        return violations
    if not 0 <= fsm.initial_state < m:
        violations.append(f"initial_state {fsm.initial_state} outside 0..{m - 1}")
    for q in fsm.states():
        t0, t1 = fsm.transitions[q]
        if not 0 <= t0 < m:
            violations.append(f"state {q}: dangling transition on r=0 to {t0}")
        if fsm.transmit_allowed[q]:
            if t1 is None:
                violations.append(f"state {q}: missing r=1 transition at an unmasked state")
            elif not 0 <= t1 < m:
                violations.append(f"state {q}: dangling transition on r=1 to {t1}")
        elif t1 is not None and not 0 <= t1 < m:
            violations.append(f"state {q}: dangling transition on r=1 to {t1}")
        p = fsm.drop_probs[q]
        if not 0.0 <= p <= 1.0:
            violations.append(f"state {q}: probability out of range ({p})")
        if not fsm.transmit_allowed[q] and p != 1.0:
            violations.append(
                f"state {q}: masked state must carry drop probability 1, got {p}")
    return violations


def reachable_pairs(fsm: ChannelFsm, horizon: int):
    """(stage, state) pairs reachable from (1, initial) under some actions."""
    reach = np.zeros((horizon, fsm.num_states), dtype=bool)
    reach[0, fsm.initial_state] = True
    for s in range(1, horizon):
        reach[s, fsm.successor[reach[s - 1]]] = True
    return {(int(s) + 1, int(q)) for s, q in np.argwhere(reach)}


def energy_harvesting_fsm(capacity: int, tx_cost: int, p_tx: float) -> ChannelFsm:
    """Battery-powered channel with deterministic harvesting.

    State q is the stored energy in 0..capacity. Staying silent harvests one
    unit (saturating at capacity); transmitting costs ``tx_cost`` units and
    is masked below that level, where the drop probability is pinned to 1.
    Every state that can transmit drops with probability ``p_tx``. The
    battery starts full.
    """
    _require("capacity", capacity, numbers.Integral)
    _require("tx_cost", tx_cost, numbers.Integral)
    _require("p_tx", p_tx)
    if tx_cost < 1 or capacity < tx_cost:
        raise ValueError(f"need capacity >= tx_cost >= 1, got ({capacity}, {tx_cost})")
    _cap_states("capacity", capacity)
    transitions = []
    drop = []
    allowed = []
    for q in range(capacity + 1):
        t0 = min(q + 1, capacity)
        if q >= tx_cost:
            transitions.append((t0, q - tx_cost))
            drop.append(p_tx)
            allowed.append(True)
        else:
            transitions.append((t0, None))
            drop.append(1.0)
            allowed.append(False)
    return ChannelFsm(capacity + 1, tuple(transitions), tuple(drop),
                      initial_state=capacity, transmit_allowed=tuple(allowed))


def workload_chain_fsm(window: int, drop_probs) -> ChannelFsm:
    """Request-count chain for an attention-limited receiver.

    State i counts recent requests in a length ``window`` memory: each
    request (r=1) increments the count, each silent step decrements it,
    both saturating at the ends. ``drop_probs[i]`` is the probability a
    request in state i goes unanswered. All states allow transmitting.
    """
    _require("window", window, numbers.Integral)
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    _cap_states("window", window)
    transitions = tuple((max(i - 1, 0), min(i + 1, window)) for i in range(window + 1))
    return ChannelFsm(window + 1, transitions, drop_probs, initial_state=0,
                      transmit_allowed=tuple(True for _ in range(window + 1)))
