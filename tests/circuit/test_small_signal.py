"""The small-signal system is the devices' own stamps, linearized.

``MNASystem.assemble_ac`` runs every device's one ``stamp`` through an
:class:`~repro.circuit.mna.ACStampContext`: accessors read the operating
point, ``ddt`` is ``j*omega`` on the derivative part and ``integ``
divides it by ``j*omega``.  So the conductance part of ``Y(omega)`` is the
operating-point Jacobian itself, bit for bit, at every frequency.  That
contract runs over both seeded corpora (``test_batch_assembly.generate``
and ``test_stamp_program.generated_netlist``), two figure-5 arrays, a
controlled-source circuit and a switch biased inside its transition band,
whose control transconductance the AC gain must carry (checked against a
central difference of the operating point).

``DIGESTS`` pins the sha256 of ``matrix + 0.0`` and ``rhs + 0.0`` at 1 Hz,
1 kHz and 1 MHz for every switch-free corpus circuit, linearized at a
seeded point with an AC magnitude and phase on every independent source.
They were recorded from the hand-written per-device small-signal stamps
this assembly replaced.  Diode conductances go through the C library's
``exp``; nothing else in these assemblies calls a transcendental function.
"""

from __future__ import annotations

import hashlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.circuit import Circuit, OperatingPointAnalysis, SimulationOptions
from repro.circuit.analysis.ac import ACAnalysis
from repro.circuit.devices.sources import CurrentSource, VoltageSource
from repro.circuit.devices.switches import VoltageControlledSwitch
from repro.circuit.mna import MNASystem

from test_batch_assembly import SEEDS as BATCH_SEEDS, generate  # sibling

sys.path.append(str(Path(__file__).resolve().parents[1] / "hdl"))
from test_stamp_program import (SEEDS as PROGRAM_SEEDS,  # noqa: E402
                                figure5_array, generated_netlist)

OPTIONS = SimulationOptions()
FREQUENCIES = (1.0, 1e3, 1e6)


def controlled_circuit() -> Circuit:
    """Every controlled-source kind, with a capacitor and an inductor."""
    circuit = Circuit("controlled sources")
    circuit.voltage_source("V1", "in", "0", 0.5, ac=1.0)
    circuit.resistor("R1", "in", "a", 1e3)
    circuit.capacitor("C1", "a", "0", 1e-7)
    circuit.vccs("G1", "b", "0", "a", "0", 2e-3)
    circuit.resistor("R2", "b", "0", 2e3)
    circuit.vcvs("E1", "e", "0", "b", "a", 3.0)
    circuit.resistor("R3", "e", "f", 500.0)
    circuit.inductor("L1", "f", "0", 1e-3)
    circuit.cccs("F1", "g", "0", "V1", 4.0)
    circuit.resistor("R4", "g", "0", 100.0)
    circuit.ccvs("H1", "h", "0", "V1", 50.0)
    circuit.resistor("R5", "h", "0", 1e3)
    return circuit


def switch_circuit(control: float = 0.52) -> Circuit:
    """A switch whose control voltage sits inside its transition band
    (0.4 V to 0.6 V), loading a 1 V supply through 1 kOhm."""
    circuit = Circuit("switch in band")
    circuit.voltage_source("VDD", "dd", "0", 1.0)
    circuit.resistor("RL", "dd", "b", 1e3)
    circuit.add(VoltageControlledSwitch(
        "S1", circuit.node("b"), circuit.node("0"), circuit.node("c"),
        circuit.node("0"), threshold=0.5, hysteresis=0.1, r_on=100.0,
        r_off=1e5))
    circuit.voltage_source("VC", "c", "0", control, ac=1.0)
    return circuit


#: Switch-free corpus circuits by id.
CORPUS = {
    **{f"batch-{seed}": (lambda seed=seed: generate(seed)[0])
       for seed in BATCH_SEEDS},
    **{f"program-{seed}": (lambda seed=seed: generated_netlist(seed)[0])
       for seed in PROGRAM_SEEDS},
    "figure5-2": lambda: figure5_array(2),
    "figure5-3-jitter": lambda: figure5_array(3, seed=1),
    "controlled": controlled_circuit,
}
CONTRACT = {**CORPUS, "switch": switch_circuit}


def ac_digest(circuit: Circuit) -> str:
    """sha256 of the small-signal matrix and rhs at ``FREQUENCIES``."""
    sources = [device for device in circuit
               if isinstance(device, (VoltageSource, CurrentSource))]
    for k, source in enumerate(sources):
        source.ac = 1.0 + 0.1 * k
        source.ac_phase_deg = 15.0 * k
    system = MNASystem(circuit)
    rng = np.random.default_rng(7)
    x = rng.uniform(-0.5, 0.5, system.size)
    digest = hashlib.sha256()
    for frequency in FREQUENCIES:
        ctx = system.assemble_ac(x, 2.0 * math.pi * frequency, OPTIONS)
        digest.update((ctx.matrix + 0.0).tobytes())
        digest.update((ctx.rhs + 0.0).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(CONTRACT))
def test_conductance_part_is_the_operating_point_jacobian(case):
    circuit = CONTRACT[case]()
    system = MNASystem(circuit)
    op = OperatingPointAnalysis(circuit, OPTIONS).run()
    jacobian = system.assemble(op.raw, "op", 0.0, None, OPTIONS).jacobian()
    for frequency in FREQUENCIES:
        ctx = system.assemble_ac(op.raw, 2.0 * math.pi * frequency, OPTIONS)
        assert np.array_equal(ctx.matrix.real + 0.0, jacobian + 0.0), frequency


def test_switch_gain_in_band_matches_operating_point_difference():
    h = 1e-6
    up = OperatingPointAnalysis(switch_circuit(0.52 + h), OPTIONS).run()
    down = OperatingPointAnalysis(switch_circuit(0.52 - h), OPTIONS).run()
    difference = (up["v(b)"] - down["v(b)"]) / (2.0 * h)
    ac = ACAnalysis(switch_circuit(), [1e3], OPTIONS).run()
    gain = ac.at("v(b)", 1e3) / ac.at("v(c)", 1e3)
    assert difference < -1.0
    assert abs(gain.imag) <= 1e-12 * abs(difference)
    assert abs(gain.real - difference) <= 1e-6 * abs(difference)


@pytest.mark.parametrize("case", sorted(CORPUS))
def test_small_signal_assembly_is_pinned(case):
    assert ac_digest(CORPUS[case]()) == DIGESTS[case]


#: ``case -> sha256`` of :func:`ac_digest`.
DIGESTS = {
    "batch-0":
        "c70ab87a036b8be31e8741d66d224bdb0eab6072bc5a09c29d848ea594df07a5",
    "batch-1":
        "40a2da5f06f419fc7962ebb2c2385235c4d5627dd501ed70acca562dbadf484c",
    "batch-10":
        "71ea28c6dfafeb5b2e00e31898819474e6fef923f89334512b45a0f67bcb5198",
    "batch-11":
        "b0b1abe0c8d72b46aaca71821d2f4cafb1827f002a938f927ba9ffe915b788a7",
    "batch-12":
        "459ec825c677f0e6718f7b5bf28335e01c9d0c9442b4e11bc0c8ed0f9bacff0a",
    "batch-13":
        "bf7e2783cb0cdf0239a99593190d9de07ac815f5b1cc4a4a720435b6d0d939d9",
    "batch-14":
        "2a4653861e41d392a64ffcc74e85ce8db85b6e43d4284ab479c6d56ca53c7817",
    "batch-15":
        "58874eedeb6842abed47715286326a3e9ce3d4b1d442be371849b737e23f45e6",
    "batch-16":
        "3a54ece87b818389f24b6220d12154c20aa7b6d4e611023d03ac495c22438a12",
    "batch-17":
        "fec9f6bd512c4590e70156efdf0e5feaa695985c14ecb29a8d20eacaafe698c7",
    "batch-18":
        "8881f20f8025adb7f1ffc0331765ded2c854886bd449223bca6d73e9ab8922f9",
    "batch-19":
        "a0e6bade849f49e9f38d96fbb89aece4e29b63bd6df227a88b9542c927274f8a",
    "batch-2":
        "7a879e5a59100482810a39e1c4e5ebfed2561ae83977c4a0ba498ce8bb5b2324",
    "batch-20":
        "446c4787d90683f56332ab26761b14555e6e837fb610606daaaa39409db8043d",
    "batch-21":
        "6522fbf3270854db6517772f7d0b4235db2ef6f90f8fd2db0dd349e3fcc7be9c",
    "batch-22":
        "c89a319dc881601fb9c92136bad3314e4863994fdd96134bfbf8657422ae1076",
    "batch-23":
        "effb684a78a640710fe9c7f511d803dab01a5775b77ad548f8eb3f3db71c2204",
    "batch-24":
        "500685e2c66a68fd7aef0dc357a4ffef740a37eea557667eb698e60832585893",
    "batch-25":
        "c3c423ccad10c358b33dc3f29b5a6ee4179f3e19ad34fb01694f9dcf15d3902f",
    "batch-26":
        "b5fd89304d6cc677b869966590847ff6eaacf4dc9413173366d351cb45d94d11",
    "batch-27":
        "ac2a3a335f4a341adb208cd17a35ae846311e5da4bca78faa1b597619019d54b",
    "batch-28":
        "e3087bc39c268c9460316f8eb0cdce46d754a8054c098694dc713840d5f0f7da",
    "batch-29":
        "ad47fbee89dfe65f35fb555b98996d7ca50c34105b757bccdc7e0bc99a9d0149",
    "batch-3":
        "b7a9885a97d993122638bb5d7b10f0f70365c488a52304830137d604787e4084",
    "batch-30":
        "0d8ee7ed209cb041f98c2edc31a4eeebc27a730c7df7b00b60d412b6279d4079",
    "batch-31":
        "717ff0ba0f6ea692505c853714874aae2a7b5c9e2651eabf3595924b5a97297b",
    "batch-32":
        "940b9d4377063f3cbf27a50b0a6e67f10b8c39648655df5abab85f1a8d066c5f",
    "batch-33":
        "ef8d245ae48d29abc0d5456a24a59143a5b18263821094d28d40eae2cbaba8ec",
    "batch-34":
        "ace94765d3d2385cdc55457e2d54072d4b4537daaffd318f343a68e47362eb6e",
    "batch-35":
        "d214777be87121e5d60a8c318ea5984344c71dbd42e2bdd8637b652a0a86187f",
    "batch-36":
        "e2f8ad0f4e81c8172b2936201751ecc56e07fec6c5bf5b2e7b0ce52d5bf35625",
    "batch-37":
        "3b37e57d9a0fd439c1cce578e8aee7ef39128c6695fe3dea8086313696a5a139",
    "batch-38":
        "0f776216996213881d7373733fc4dca0a0bf5842f829fd835a751ff2f2d4ad06",
    "batch-39":
        "bde3ae9271df52a7c929cc354bf5f2789b7cdb33ed7e958135fa2848d8050aff",
    "batch-4":
        "b0bc5302297ffeb6c41822245118a86e560e6e8e5ceb01c43e2ece15d5e1e3bf",
    "batch-5":
        "fdd68ae59bf1051347e3c5354dc6f2c2265d8f235392c048b856b4344674db91",
    "batch-6":
        "ec1fadd5ac9ad28a35a95d281e2db2d10d45f51fc75181aed22952cb0666a822",
    "batch-7":
        "31b1d953e9424736a676ee6efbb822269c7cbffe8b51cc5daf899facfa62fd93",
    "batch-8":
        "4767ac48d5906ec70fa8e8673dc49e491d135ffd7f4f63e209a1318a3648aa61",
    "batch-9":
        "0bb8a40b6288df1e8bcadec42cd06e1530363d4db83a9a8f600d65a1b159505e",
    "controlled":
        "8a69e5f7bacc7c255d48e22d0f8313344ebaed82f4eda5b382afc79dfe034203",
    "figure5-2":
        "096e96b989c15a1885a671fe0260eb9bc242460995c93fe05931e5f04568e417",
    "figure5-3-jitter":
        "e18baaecb8d9c24608633390884620962a387ec538be0d7307e9393f7507f34b",
    "program-0":
        "a8bbd1693b583703f23d287ea8ec0495c328111ff05c76663d972ddb5c7095f8",
    "program-1":
        "a357da84c117a67b7a62ec3a51c06e45ddf469627bbc710e221719a3f4c5545f",
    "program-10":
        "2dda416bd07ff16b07ff5370c80e8711b3561f4ea45a04e18c615f3718567c2a",
    "program-11":
        "10612c9f85ce3ed331f6d98d42825cf17b01d62ceceeca888cf0548074847862",
    "program-12":
        "97227d110698e4b2f4097247453a53b8013e6bceb0336b55da8b70df5c523b96",
    "program-13":
        "16008f2388bef7664f5cedb495420ba5f096b34a713a3293692b5959e237defa",
    "program-14":
        "778ec73ffddef0758ecc600865851dc3d7e996796c19dc8f7b4cd871a2e7d163",
    "program-15":
        "d36836c98af3efed2b696bc160875d441eddd03ec20fd1a1c3114744ab7a6d2f",
    "program-16":
        "b9d3111753863305b8eba4a5524f681dc8031bdecdd9005aa065b9d0289fed32",
    "program-17":
        "f1d49c47e6ec13b9b5d42aac97877686f7dba3f8a716b90bce1135245867b96d",
    "program-18":
        "dfcd9a1d709fbf0d7e2c78492f0a2462b102769d4539c746a0deecb34c179939",
    "program-19":
        "0cc9793ccd0b7a6180290bb86e6c68afee72ce780c765cda5750671b3084778e",
    "program-2":
        "bd778602334424e8d65bd435a3a6dbd43c3e393927197737d890a63476718d43",
    "program-20":
        "3f1bba2d0a422cb84a35da3b7aa71d60fe63fc09ffb490d1831946987f22cd49",
    "program-21":
        "a9220682d8376635b751443395d13551fddd8221cdd58244836050cf7e49f42f",
    "program-22":
        "8db631166f76a65165593312820280d07ce1c5cfb6760d070c2656b70ec9d7be",
    "program-23":
        "b0aa59aacc40825f79485076dda443a74ef91e6476b575aea6915b367251fda5",
    "program-24":
        "a928eaaa194a6b56a5b50b72d1d7d9c0dadfcda264e3b7ef96efc43f11058122",
    "program-25":
        "0cb208bde86880650541304332196845c8b1737f421a76214762b25e137b7d40",
    "program-26":
        "f2a26aba62eedd67611b578dc9b0fa8920f1ce89be3ffeac7523750b35413289",
    "program-27":
        "1bcc255b50807d8a62656ec95fa278c5ca949076b606471334ef347979671386",
    "program-28":
        "acac5f55d5f49770e065445a84b4aa55f41d49ce281785379c43e093ea99a661",
    "program-29":
        "a173e95a0fbcd7ee975bed50adb75eb4a9002df2ae3cd255e63a8b5903640b3a",
    "program-3":
        "b9e0b7b6fe595a969a138389f6bc6c5f18925ef54f2083af896836437cd0382d",
    "program-30":
        "62bf72733c5ab645fb168099d9c03511db6870b811831987bfaa18dfe9d24da8",
    "program-31":
        "af550d6a5b753155128e9580a32817c58ca6392175c1bcb224b6c52cfbc391a5",
    "program-32":
        "471e7acc591815a4b19780ea31a375b847e4d8af274e69328b8fc974d92ff980",
    "program-33":
        "be03072b789f2cda7c76727746ecca368776d0e4f8d8e297e70c2d7f0abc4bbc",
    "program-34":
        "a6eb4242a02d918f645d506b1115fef4dde09b3c9392f9663a5613590774f2c4",
    "program-35":
        "d631cd2852b12cb539bf089d796925d1cd65a03790190f6df5edacb49210870f",
    "program-36":
        "42c76520acdd06a59517200969379464ffb742875d757e5751b6980ab3c47c4f",
    "program-37":
        "30c8bfb8a3161635e9d09a4080a4ca4e7cff4fadcbb2690040252686d6f3cf1f",
    "program-38":
        "af7a406ab5eac1c5e391760e7cb187c4a6e986f6a58631b679e4e26da05365a5",
    "program-39":
        "00caece200335c4703d6c4ad384d66fa74b37eb8e4ce707c8b87f9f4f58ea683",
    "program-4":
        "27ce686eca6c0bfa4fe171caf8cccdf7cb389dede0a35e104a466b7d4f4a3e11",
    "program-5":
        "cc5db61f06b8540e9d5f089e67bca415ef3ee347ecc43d2f2d9eea6fd64ffd33",
    "program-6":
        "021e1ac9b52160ec932e78e5b38487a2c9d52fb03cf77ca839a3c973a5e3cc2c",
    "program-7":
        "10409b7a1564d4cd82120c0bf0629e1a27c95ccec3ee99ba366c65b6a333610e",
    "program-8":
        "f13732f1727f322bb76d8f40c6c5b9aa6690c95e9dc7293b1829f747e4eae89f",
    "program-9":
        "660282d46a95c3293e0459dcca409fc414d2433b606aa5cc9f5440f01ca24410",
}
