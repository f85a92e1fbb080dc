"""Physical constants and default numerical tolerances.

The values mirror those used in the paper (listing 1 hard-codes
``e0 := 8.8542e-12``); CODATA refinements are irrelevant at the accuracy of
lumped MEMS models, but we keep the full-precision values and expose the
paper's rounded permittivity separately for exact comparisons against the
printed tables.
"""

from __future__ import annotations

import math

#: Vacuum permittivity [F/m] (value used in the paper's Listing 1).
EPSILON_0 = 8.8542e-12

#: Vacuum permittivity [F/m], CODATA 2018.
EPSILON_0_CODATA = 8.8541878128e-12

#: Vacuum permeability [H/m].
MU_0 = 4.0e-7 * math.pi

#: Speed of light in vacuum [m/s].
SPEED_OF_LIGHT = 299_792_458.0

#: Elementary charge [C].
ELEMENTARY_CHARGE = 1.602176634e-19

#: Boltzmann constant [J/K].
BOLTZMANN = 1.380649e-23

#: Standard temperature for device models [K].
T_NOMINAL = 300.15

#: Thermal voltage kT/q at ``T_NOMINAL`` [V].
THERMAL_VOLTAGE = BOLTZMANN * T_NOMINAL / ELEMENTARY_CHARGE

#: Standard gravity [m/s^2].
GRAVITY = 9.80665

# ---------------------------------------------------------------------------
# Default numerical tolerances for the circuit solver.  The names follow the
# SPICE option conventions (RELTOL/ABSTOL/VNTOL) so that anyone familiar with
# ELDO option decks can map them directly.
# ---------------------------------------------------------------------------

#: Relative tolerance on Newton updates and truncation-error control
#: (SPICE default).
RELTOL = 1e-3

#: Absolute tolerance on through variables (currents, forces) [A or N].
ABSTOL = 1e-12

#: Absolute tolerance on across variables (voltages, velocities) [V or m/s].
VNTOL = 1e-6

#: Minimum conductance placed across nonlinear junctions for convergence aid.
GMIN = 1e-12

#: Maximum Newton iterations per solve point.
MAX_NEWTON_ITERATIONS = 100

#: Number of source-stepping levels for difficult operating points.
MAX_SOURCE_STEPS = 32
