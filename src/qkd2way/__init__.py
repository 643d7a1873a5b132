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

The public names below resolve on first access, each by importing its home
module: ``import qkd2way`` loads nothing else, and the closed-form layers
(``infotheory``, ``photonics``, ``numerics``) never load numpy or the
simulator.
"""

from importlib import import_module

__version__ = "0.1.0"
PROTOCOLS = ("lm05", "bb84")  # the simulator's protocols; BB84 is the one-way one

_HOMES = {
    "qsim": "Basis Gate StateVector apply attach_ancilla measure prepare",
    "attacks": "NO_ATTACK AttackParams AttackStrategy make_strategy",
    "protocol": "LeafTable ProtocolConfig RoundRecord Tallies enumerate_round run run_round tally "
                "write_round_log",
    "infotheory": "EVE_MODELS IDENTIFIED InfoPoint NoiseModel binary_entropy curve_points eve_curves "
                  "generic_bound generic_full_information_point secrecy threshold",
    "photonics": "GainPoint LinkBudget bs_eve_info bs_success_prob crossover_distance optimize_mu "
                 "pns_margin pns_multiphoton_prob poisson_pmf raw_gain scan_distances secure_gain",
    "montecarlo": "BatchReport RateReport compare run_batch",
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}
_SUBMODULES = (*_HOMES, "numerics", "rng")

__all__ = ["PROTOCOLS", "__version__", *_HOME]


def __getattr__(name):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
