"""Photon-number statistics of generalized Heisenberg algebra coherent states
for power-law potentials, evaluated overflow-safely in the log domain.

The Python API is in the modules: ``core``, ``stats``, ``lab`` and ``cli``.
"""

__version__ = "0.1.0"
