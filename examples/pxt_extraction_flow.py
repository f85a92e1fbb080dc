#!/usr/bin/env python3
"""The full PXT workflow: FE characterization -> HDL-A model -> system simulation.

This example reproduces the tool flow of the paper's figure 6:

1. the electrostatic field in the transducer gap is solved with the built-in
   finite-element solver for a sweep of electrode displacements and voltages,
2. PXT integrates the Maxwell stress and the field energy over the terminal
   surface to extract the force and capacitance macromodels,
3. an HDL-A behavioral model is generated from the piecewise-linear tables,
4. the generated model is parsed, elaborated and simulated inside the
   transducer + resonator system, and compared against the analytic
   behavioral model.

Run with::

    python examples/pxt_extraction_flow.py
"""

from __future__ import annotations

import numpy as np

from repro.circuit import Circuit, Pulse, TransientAnalysis
from repro.hdl import instantiate, parse
from repro.pxt import ParameterExtractor, generate_electrostatic_macromodel
from repro.pxt.macromodel import PiecewiseLinearModel
from repro.pxt.report import ExtractionReport
from repro.system import PAPER_PARAMETERS


def main() -> None:
    parameters = PAPER_PARAMETERS
    extractor = ParameterExtractor(area=parameters.area, gap=parameters.gap,
                                   epsilon_r=parameters.epsilon_r, nx=16, ny=12)

    # --- step 1 & 2: FE sweep and macro-parameter extraction -------------------
    displacements = sorted(np.linspace(-0.3 * parameters.gap, 0.3 * parameters.gap, 9))
    voltages = [2.0, 5.0, 10.0, 15.0]
    sweep = extractor.sweep([0.0], voltages)
    report = ExtractionReport(extractor, sweep,
                              title="PXT extraction (figure-6 workflow)")
    print(report.render())
    print()
    print(f"worst force deviation from the Table 3 closed form: "
          f"{100.0 * report.worst_force_deviation():.4f} %")
    print()

    capacitance_model = extractor.capacitance_model(displacements)
    force_model = PiecewiseLinearModel(
        tuple(displacements),
        tuple(extractor.solve_point(x, parameters.dc_voltage).force for x in displacements),
        quantity="force", unit="N")

    # --- step 3: HDL-A model generation ----------------------------------------
    source = generate_electrostatic_macromodel(
        "pxt_eletran", capacitance_model, force_model, parameters.dc_voltage)
    print("Generated HDL-A model:")
    print(source)

    # --- step 4: system simulation with the generated model --------------------
    circuit = Circuit("PXT-generated transducer + resonator")
    drive = Pulse(0.0, 10.0, delay=2e-3, rise=2e-3, width=40e-3)
    circuit.voltage_source("VS", "a", "0", drive)
    module = parse(source)
    device = instantiate(
        module, "pxt_eletran", name="XDCR", generics={"vref": parameters.dc_voltage},
        pins={"a": circuit.electrical_node("a"), "b": circuit.ground,
              "c": circuit.mechanical_node("m"), "e": circuit.ground})
    circuit.add(device)
    parameters.resonator().add_to_circuit(circuit, "m")

    # Stop on the plateau: the pulse holds 10 V from 4 ms and falls at 44 ms.
    result = TransientAnalysis(circuit, t_stop=43e-3, t_step=2e-4).run()
    plateau = result.final("x(res_m)")
    analytic = abs(parameters.transducer().force(10.0, 0.0)) / parameters.stiffness
    print("System simulation with the PXT-generated model:")
    print(f"  plateau displacement (PXT model) : {plateau:.4e} m")
    print(f"  analytic quasi-static value      : {analytic:.4e} m")
    print(f"  deviation                        : {abs(plateau - analytic) / analytic * 100:.3f} %")


if __name__ == "__main__":
    main()
