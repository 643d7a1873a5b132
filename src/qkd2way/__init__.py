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

Each public name lives in its home module and is imported from there
(``from qkd2way.montecarlo import run_batch``): ``import qkd2way`` loads
no module of the package, and the closed-form layers (``infotheory``,
``photonics``, ``numerics``) never load numpy or the simulator.
"""

__version__ = "0.1.0"
PROTOCOLS = ("lm05", "bb84")  # the simulator's protocols; BB84 is the one-way one
