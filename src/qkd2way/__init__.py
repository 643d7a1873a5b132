"""Two-way deterministic QKD (LM05) and BB84: simulation and security analysis.

The package has three layers:

* ``qsim`` / ``attacks`` / ``protocol`` -- a small pure-state simulator,
  pluggable eavesdropping strategies, and the round-level state machines
  for LM05 and BB84;
* ``infotheory`` -- closed-form mutual-information curves, secrecy
  capacities and security thresholds;
* ``photonics`` -- zero-QBER (beam-splitting / photon-number-splitting)
  analysis for weak coherent pulse sources.

``protocol`` also enumerates a round's exact outcome distribution and
samples runs from it; ``montecarlo`` samples batches of tallies from the
same distribution and gates the empirical error rates against the analytic
predictions; ``cli`` exposes everything as a command line tool.
"""

from .qsim import Basis, Gate, GateKind, StateVector, apply, attach_ancilla, discriminate, measure, prepare
from .attacks import NO_ATTACK, AttackParams, AttackStrategy, make_strategy
from .protocol import (
    LeafTable,
    ProtocolConfig,
    RoundRecord,
    Tallies,
    enumerate_round,
    run,
    run_round_bb84,
    run_round_lm05,
    tally,
    write_round_log,
)
from .infotheory import (
    EVE_MODELS,
    IDENTIFIED,
    InfoPoint,
    NoiseModel,
    binary_entropy,
    curve_points,
    eve_curves,
    generic_bound,
    generic_full_information_point,
    secrecy,
    threshold,
)
from .photonics import (
    GainPoint,
    LinkBudget,
    bs_eve_info,
    bs_success_prob,
    crossover_distance,
    optimize_mu,
    pns_margin,
    pns_multiphoton_prob,
    poisson_pmf,
    raw_gain,
    scan_distances,
    secure_gain,
)
from .montecarlo import BatchReport, RateReport, compare, run_batch

__version__ = "0.1.0"
