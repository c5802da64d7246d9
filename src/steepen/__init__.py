"""steepen: a smooth-solution laboratory for 1-D Lagrangian gas dynamics.

Evolves smooth states of the compressible Euler equations with a frozen
entropy profile, traces characteristics, verifies the directional Riccati
identities numerically, and certifies finite-time gradient blowup.
"""

from steepen.eos import GasConstants, VacuumError, make_constants
from steepen.fields import Grid, StateField, build_initial

__version__ = "0.1.0"

__all__ = [
    "GasConstants",
    "VacuumError",
    "make_constants",
    "Grid",
    "StateField",
    "build_initial",
    "__version__",
]
