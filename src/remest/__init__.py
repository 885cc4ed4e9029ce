"""Remote estimation over packet-drop channels with transmission-dependent state.

A scalar Gauss-Markov source is watched by an encoder that decides, stage
by stage, whether to send the current sample over a lossy link. Attempts
drive a finite state machine (a battery level, an operator's workload)
whose state sets the drop probability, so every transmission spends future
channel quality. The package synthesizes optimal transmission policies for
this trade-off and verifies their structure:

- :mod:`remest.dp_symmetric`: grid backward induction over (error, channel
  state) for symmetric policies, with threshold extraction and structure
  checks (symmetry, monotonicity, growth-rate bounds, the closed-form
  drop-probability margin for guaranteed threshold optima).
- :mod:`remest.dp_iid`: interval-policy solver for a white source, built on
  closed-form truncated-normal moments.
- :mod:`remest.oracle_sim`: reproducible closed-loop Monte Carlo plus exact
  brute-force oracles on small discretized instances.
- :mod:`remest.channel`, :mod:`remest.process`, :mod:`remest.policy`,
  :mod:`remest.quadrature`: the channel FSM model, the plant model, policy
  representations, and the Gaussian grid calculus.
"""

from .channel import (ChannelFsm, energy_harvesting_fsm, validate_fsm,
                      workload_chain_fsm)
from .dp_iid import (IidValueTable, iid_backward_induction, iid_stage_cost,
                     optimize_interval)
from .dp_symmetric import (SolverSettings, ValueTable, backward_induction,
                           check_growth_rate_bound, check_value_structure,
                           solve_and_extract, threshold_optimality_condition)
from .oracle_sim import (DiscreteInstance, SimSummary, discrete_dp,
                         exhaustive_policy_search, simulate)
from .policy import TransmitPolicy, extract_threshold
from .process import PlantModel, predicted_open_loop_cost
from .quadrature import (ErrorGrid, GaussianExpectationOperator,
                         is_symmetric_nondecreasing)

__version__ = "0.1.0"
