"""Numerical laboratory for quantum-complexity experiments.

Submodules:
  paulis      Pauli strings, k-local Hamiltonians, traces, evolution
  scrambling  random-circuit epidemic model and precursor complexity
  gates       exact gate complexity by BFS over inverse-closed gate sets
  geometry    penalized complexity metric, Loschmidt expansion, curvature
  counting    log-space counting and entropy estimates
  thermofield density matrices and thermofield doubles
  holography  AdS-Schwarzschild wormhole growth and action rates
  acceptance  the quantitative acceptance suite
  cli         command-line driver
"""

__version__ = "0.1.0"
