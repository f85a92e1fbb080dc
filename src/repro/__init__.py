"""repro -- behavioral modeling and simulation of electromechanical transducers.

Reproduction of Romanowicz et al., "Modeling and Simulation of
Electromechanical Transducers in Microsystems using an Analog Hardware
Description Language" (ED&TC / DATE 1997).

The package provides, entirely in Python:

* :mod:`repro.natures` -- physical domains, generalized variables and the
  force-current / force-voltage analogies (the paper's Table 1),
* :mod:`repro.ad` -- forward-mode automatic differentiation used to derive
  port efforts from transducer internal energies,
* :mod:`repro.circuit` -- a SPICE-class multi-domain circuit simulator
  (MNA, DC/AC/transient, behavioral devices),
* :mod:`repro.hdl` -- an HDL-A-like analog hardware description language
  front-end that elaborates entities into simulatable behavioral devices,
* :mod:`repro.transducers` -- the four conservative electromechanical
  transducers of the paper (Tables 2/3) in energy-based, closed-form and
  linearized equivalent-circuit forms,
* :mod:`repro.linalg` -- the shared factorization-caching linear-solver
  core (dense LU / SuperLU backends, a held factorization reused while
  the matrix repeats, sparsity-pattern caching) behind every analysis
  layer,
* :mod:`repro.fem` -- a 2D electrostatic finite-element solver standing in
  for ANSYS, plus structural beam/chain models and harmonic analysis,
* :mod:`repro.pxt` -- the parameter extraction and HDL model generation tool,
* :mod:`repro.campaign` -- the simulation-campaign engine: declarative
  grid/Monte-Carlo/corner sweeps executed serially or on a process pool,
  with content-addressed result caching and columnar yield statistics,
* :mod:`repro.optim` -- the design-optimization and calibration engine:
  bounded/log parameter spaces, AD/finite-difference gradient objectives
  with content-addressed memoization, Nelder-Mead / projected gradient
  descent / multi-start solvers on the campaign backends, ROM-surrogate
  acceleration and Monte-Carlo yield optimization,
* :mod:`repro.system` -- the transducer + resonator microsystem of Figs. 3-5
  and the behavioral-versus-linearized comparison harness.

Quickstart::

    from repro.circuit import Circuit, Pulse, TransientAnalysis
    from repro.transducers import TransverseElectrostaticTransducer

    ckt = Circuit("electrostatic drive")
    ckt.voltage_source("VS", "a", "0", Pulse(0, 10, rise=2e-3, width=35e-3))
    TransverseElectrostaticTransducer(area=1e-4, gap=0.15e-3).add_to_circuit(
        ckt, "XDCR", "a", "0", "m", "0")
    ckt.mass("M1", "m", 1e-4)
    ckt.spring("K1", "m", "0", 200.0)
    ckt.damper("D1", "m", "0", 40e-3)
    result = TransientAnalysis(ckt, t_stop=60e-3, t_step=2e-4).run()
    displacement = result.signal("x(XDCR)")
"""

from __future__ import annotations

__version__ = "1.4.0"

from . import constants, errors, units
from .campaign import (
    CampaignResult,
    CampaignRunner,
    CircuitEvaluator,
    CornerSet,
    GridSweep,
    MonteCarlo,
    Normal,
    PointList,
    ResultCache,
    Uniform,
)
from .circuit import (
    ACAnalysis,
    BehavioralDevice,
    Circuit,
    DCSweepAnalysis,
    OperatingPointAnalysis,
    Pulse,
    Sine,
    SimulationOptions,
    TransientAnalysis,
)
from .linalg import FactorizationCache, FactorizedSolver, StructureCache
from .natures import ELECTRICAL, MECHANICAL_TRANSLATION, get_nature
from .optim import (
    GradientDescent,
    MultiStart,
    NelderMead,
    Objective,
    OptimResult,
    Parameter,
    ParameterSpace,
    SurrogateStrategy,
    YieldOptimizer,
)
from .rom import (
    BeamROMEvaluator,
    ReducedModel,
    krylov_rom,
    modal_rom,
    rom_from_beam,
    rom_from_chain,
    rom_from_matrices,
    rom_to_hdl,
)
from .system import (
    PAPER_PARAMETERS,
    MechanicalResonator,
    Table4Parameters,
    build_behavioral_system,
    build_linearized_system,
    run_figure5_comparison,
)
from .transducers import (
    ElectrodynamicTransducer,
    ElectromagneticTransducer,
    LateralElectrostaticTransducer,
    TransverseElectrostaticTransducer,
    create_transducer,
    linearize_transverse_electrostatic,
)

__all__ = [
    "__version__",
    "constants",
    "errors",
    "units",
    "Circuit",
    "Pulse",
    "Sine",
    "SimulationOptions",
    "OperatingPointAnalysis",
    "DCSweepAnalysis",
    "ACAnalysis",
    "TransientAnalysis",
    "BehavioralDevice",
    "CampaignRunner",
    "CampaignResult",
    "CircuitEvaluator",
    "GridSweep",
    "MonteCarlo",
    "CornerSet",
    "PointList",
    "Uniform",
    "Normal",
    "ResultCache",
    "FactorizedSolver",
    "FactorizationCache",
    "StructureCache",
    "ELECTRICAL",
    "MECHANICAL_TRANSLATION",
    "get_nature",
    "ReducedModel",
    "modal_rom",
    "krylov_rom",
    "rom_from_matrices",
    "rom_from_beam",
    "rom_from_chain",
    "rom_to_hdl",
    "BeamROMEvaluator",
    "Parameter",
    "ParameterSpace",
    "Objective",
    "OptimResult",
    "NelderMead",
    "GradientDescent",
    "MultiStart",
    "SurrogateStrategy",
    "YieldOptimizer",
    "TransverseElectrostaticTransducer",
    "LateralElectrostaticTransducer",
    "ElectromagneticTransducer",
    "ElectrodynamicTransducer",
    "create_transducer",
    "linearize_transverse_electrostatic",
    "MechanicalResonator",
    "Table4Parameters",
    "PAPER_PARAMETERS",
    "build_behavioral_system",
    "build_linearized_system",
    "run_figure5_comparison",
]
