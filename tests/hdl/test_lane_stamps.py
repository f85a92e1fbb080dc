"""Lane-axis behavioral stamps on the generated stamp-program corpus.

A guard-free behavioral device stamps a whole ``BatchStampContext`` with one
call of its ``"lanes"`` stamp function; guarded ones stamp per lane through
their scalar program.  The seeded netlists of ``test_stamp_program`` reach
that path with ``ddt``/``integ`` state (DC forms with initial values),
extra unknowns, colliding leaves, params-dict, binding and default
parameters and analysis time.  Each netlist runs through ``assemble_batch``
with 4-lane columns on ``R1`` and on every behavioral params-dict entry,
dense and sparse, with and without the Jacobian; the sha256 digests of the
residual, the dense Jacobian and the CSR ``data``/``indices``/``indptr``
lanes are pinned.  The corpus computes no transcendental functions and no
BLAS products during assembly, so the digests do not depend on the
platform's math library.  Batched operating points match serial ones to
1e-12 with equal iteration counts.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.circuit import SimulationOptions
from repro.circuit.analysis.batch import (ParameterColumns, assemble_batch,
                                          batched_operating_points)
from repro.circuit.analysis.op import OperatingPointAnalysis
from repro.circuit.devices.behavioral import BehavioralDevice
from repro.circuit.mna import MNASystem
from repro.hdl.compile import ir, runtime

from test_stamp_program import SEEDS, generated_netlist  # sibling module

LANES = 4
SOLVERS = {"dense": SimulationOptions(),
           "sparse": SimulationOptions(linear_solver="sparse",
                                       sparse_threshold=1)}

#: ``(seed, solver) -> sha256`` of every assembly of one run.
DIGESTS = {
    (0, "dense"): "b165da639c90acf59ad2f2ec94ff92a5c34d66e84727fdc75a2c2326b7218b77",
    (0, "sparse"): "602abfb3cdd06484a1b36dc558ca8a763e60881985d4785d9470ac5e70426f48",
    (1, "dense"): "e4d83a9991ce286ab07661fd57876a52fd4ce658045b9e92aef49a381048b9e6",
    (1, "sparse"): "8028233dfdb379ef47a625d1b9982a37d965bc75de276988442bed3363dc51a6",
    (2, "dense"): "edcf1cc00bb7e2725e5c53c6e6bb9bcf0f0df301a2cc3c1fdaccae4a39f9ae06",
    (2, "sparse"): "edcf1cc00bb7e2725e5c53c6e6bb9bcf0f0df301a2cc3c1fdaccae4a39f9ae06",
    (3, "dense"): "ea49f8dc30b3b2ff021a9fc61c023288c9976afc82642f561cc4493b1eddc786",
    (3, "sparse"): "87608c62492676d649c78ebbde94c38df011342244a9908281897d28d4ed3d9b",
    (4, "dense"): "8ad1c6119e42ef7d78cc3287c1b9e8fd7762631337f7936fb5a900f0108fbffa",
    (4, "sparse"): "ae6eb354f91f46c717d8a5901a3f071615aff35d9d71036b85fdc828b53eac92",
    (5, "dense"): "b50df34e84c9771f976f3401d219bd6907eeb4e33a6df4c7318a525a22ba96ef",
    (5, "sparse"): "e3f1fc3b6748261110f07ff2f6246de8bf126d7c10e8b400c9b9b4537ae97b71",
    (6, "dense"): "cc55cf86db1a0a49fa849ffd2af41c99db24ce82bf7549818a3924604b18ee4e",
    (6, "sparse"): "cc55cf86db1a0a49fa849ffd2af41c99db24ce82bf7549818a3924604b18ee4e",
    (7, "dense"): "0c96678bcd1a619da1090ac12743b85558451e2833d37e439e3f0c1113861eab",
    (7, "sparse"): "0c96678bcd1a619da1090ac12743b85558451e2833d37e439e3f0c1113861eab",
    (8, "dense"): "fa1e0cb35c0fe8040d9393b7a32b28564781c84d2d335584adf5313c63acf01c",
    (8, "sparse"): "834a3eb6ff55179146be1cc50112f0286bae2534a6a820354bb9fd252c27f522",
    (9, "dense"): "20c6ebdc921d22be15e436ab1ed00335e18128947784ec18dc3619aeda7ce954",
    (9, "sparse"): "20c6ebdc921d22be15e436ab1ed00335e18128947784ec18dc3619aeda7ce954",
    (10, "dense"): "92962d96cf645f7d40c49e3a6515297f3db8fd03dcfcdd50273faea6e63fe56e",
    (10, "sparse"): "7a4baa5e4596de70b21236da594c8641acdbb23e75d154d41922d0ae673a6571",
    (11, "dense"): "a71ede606ddf59e7c9e56a890b479591d5e369522be7c39eac2543cbdaf6494e",
    (11, "sparse"): "a71ede606ddf59e7c9e56a890b479591d5e369522be7c39eac2543cbdaf6494e",
    (12, "dense"): "d6580bb61258383a2f880e6d1152d949bcf7fc7bbe9bde59a4b5ef69e62ba244",
    (12, "sparse"): "d6580bb61258383a2f880e6d1152d949bcf7fc7bbe9bde59a4b5ef69e62ba244",
    (13, "dense"): "519fb8dff2e7697d651d599df19311045082f68b62915d72ede81748ee8ab1b1",
    (13, "sparse"): "519fb8dff2e7697d651d599df19311045082f68b62915d72ede81748ee8ab1b1",
    (14, "dense"): "e18b14884f8f736812df5992cf94db1382c0655c03cf9904cc900d4ada3eaffd",
    (14, "sparse"): "e18b14884f8f736812df5992cf94db1382c0655c03cf9904cc900d4ada3eaffd",
    (15, "dense"): "b8d8f910e319c056673d41873459dba089dc1a326e3e091bb4f32f6b24fc3b28",
    (15, "sparse"): "b8d8f910e319c056673d41873459dba089dc1a326e3e091bb4f32f6b24fc3b28",
    (16, "dense"): "546a132856f1d8fae763bb4f17e4d288c17fb051a9fff70636d2d5a45bc4b7b7",
    (16, "sparse"): "546a132856f1d8fae763bb4f17e4d288c17fb051a9fff70636d2d5a45bc4b7b7",
    (17, "dense"): "ae7d2992a2b5ed4cfc34e38a2568b3cbab7e2c7da4ab4cad352eeee6c588074a",
    (17, "sparse"): "6607817185bc9352b27bd4a416bec9333f46e3e2d6d32e5fc3e01aad7cb76833",
    (18, "dense"): "7a8534d216aa00d0c0e1982da625537a69501a74d3619218176960f3886a8c53",
    (18, "sparse"): "3037a120a10de615eeef694ce7bf95f92d707c6f638aa66a9a3a036384880496",
    (19, "dense"): "45622a3cad5ec3e8d0c4fe8a7bce4b20c920bad207c4f1c8413482553cd2451d",
    (19, "sparse"): "4e4dff2671bc7a3c050b2a181523a33e12ba93797f758e45f87ba291ec94c7f9",
    (20, "dense"): "177675fbd4a5525bfdc6c764b301048a67fa5eb122e9f4ef03cfc707deabef1e",
    (20, "sparse"): "c4259cee1922e6922d36e0497e9acb2b9939e1f917c53782ff23e1bb43097993",
    (21, "dense"): "8d7c27d9ac54e06d46db329b82b25c28024578b1e5a5b0054fadf4b234823abb",
    (21, "sparse"): "8d7c27d9ac54e06d46db329b82b25c28024578b1e5a5b0054fadf4b234823abb",
    (22, "dense"): "0377d89b12104b2fd9c16d58c522c013f4c6b489f83aa171080c76b0b1d92341",
    (22, "sparse"): "bdb5a72033dfebcd478b5d6f2137561e9b6dc0b0031963db5d03c39fc74dc9b1",
    (23, "dense"): "a113a83dd046ce3fdc99fd7650767c4698915a85d57da07c4cbd65f03a521278",
    (23, "sparse"): "a113a83dd046ce3fdc99fd7650767c4698915a85d57da07c4cbd65f03a521278",
    (24, "dense"): "9728a47f18152ddc30ea7bb89634138b32f55bde3469503e1e71731032cba768",
    (24, "sparse"): "fc1334a9dba026a5922d054e25a4765d9ccfeb8105b6804e19779da948a2bed0",
    (25, "dense"): "9c96ae99414051d381c2a04c8288a08a8e2e1344abe609befcabccfb03946033",
    (25, "sparse"): "9c96ae99414051d381c2a04c8288a08a8e2e1344abe609befcabccfb03946033",
    (26, "dense"): "2ed6d117e396eec1da4ecf149a273ba4765bf9b5fdc914276d5b36f6962f1cf8",
    (26, "sparse"): "c8ac1fd84fc189311fc2586705e6fb3a34328143bd4db56fcd2860faa195e1b7",
    (27, "dense"): "b3b370800bd692760d9f14afaec3765cee25688873f7becb3c04dd3265af6594",
    (27, "sparse"): "8029a488dfe568df20872ec611724a728b559de39b2069aacfbed38555bb0007",
    (28, "dense"): "41dfc785e850d32f28d742787f81599cb7c18920e9b3b423786783e4b824b307",
    (28, "sparse"): "41dfc785e850d32f28d742787f81599cb7c18920e9b3b423786783e4b824b307",
    (29, "dense"): "fce65f10b70811e5e2bd92a42f3e8d28951b43618968055ac7b07ca6c3ebd134",
    (29, "sparse"): "a59aced0b62b32e897235f55e72a4f3e4a9da51470bb9030d2ac04e3119246b0",
    (30, "dense"): "71641605a77392225ac1b75b48263c9eaa8df63ed93f4be7f96717a801d59d79",
    (30, "sparse"): "71641605a77392225ac1b75b48263c9eaa8df63ed93f4be7f96717a801d59d79",
    (31, "dense"): "49dfa3fe089bf65ff122007210a6cf287fcb254e6b956a0bf44449a50bac53a8",
    (31, "sparse"): "b895c964f6ff5d299188992f1c02ad2a8e6d3a0ba79e36384dcf910441c31d68",
    (32, "dense"): "d016f9e8e59f295735b9b02f3ea6111374672df7764c13a17a28c568f38be124",
    (32, "sparse"): "ecf3b3cf7a0bd3cd2d85c32a218eb7168ea0d86250beac1c4f22f9579dc8133d",
    (33, "dense"): "039d14a8aabf89483f1da1004249c582ecbb760c3fe176eca4f4dd9fa90f933b",
    (33, "sparse"): "039d14a8aabf89483f1da1004249c582ecbb760c3fe176eca4f4dd9fa90f933b",
    (34, "dense"): "ab95fe2aa607090ac097451476b16a7c9dc42cbf345f0e8374aa1f3d224c88ee",
    (34, "sparse"): "de60fe3e09c2ca6fb20568c6645a84b1bba6e939cf2eec65740f1fe24abecd62",
    (35, "dense"): "85e08a1b715db430059a0954b56dc43199328116663874ae442e44354aae44da",
    (35, "sparse"): "b859beacccff7a1368a48d706009ec33ab90031583703de2189961b40fe27b05",
    (36, "dense"): "c8d38864096bd21945a0691336aab359b76a946a4e2e6fc76138d1bfdbb6dd0e",
    (36, "sparse"): "5c1eb336c99a8a8d21d062761e54fc2312c93deb3c8b1414d97158893b19a423",
    (37, "dense"): "e24a19d1049967d3164b93d3aab3e2d05517ac5acba71a9277671d304a5782c2",
    (37, "sparse"): "9bcef2fe54f9920a17ea3289dcada547f13d8d9d57bfa75e7273db671e1bb88c",
    (38, "dense"): "9dd36f4018d198cb5ecf640a03ed92d6f94baf566c88c240bfc3a9ed54bd94e0",
    (38, "sparse"): "87d967ef662b43648d9f6e3cc1476f5cfd9322f5b19b048cf73ed79a5b688d24",
    (39, "dense"): "c135d25c47ba8eb34c23f0a2b21081691e668e6af447f6bc6c7dc089a1206228",
    (39, "sparse"): "c135d25c47ba8eb34c23f0a2b21081691e668e6af447f6bc6c7dc089a1206228",
}


def corpus_columns(circuit, rng) -> ParameterColumns:
    """4-lane columns on ``R1`` and every behavioral params-dict entry."""
    targets = [("R1", "resistance", circuit["R1"].get_parameter("resistance"))]
    for device in circuit:
        if isinstance(device, BehavioralDevice):
            targets.extend((device.name, name, value)
                           for name, value in device.params.items())
    return ParameterColumns(circuit, [
        (name, param, base * (1.0 + 0.1 * rng.normal(size=LANES)))
        for name, param, base in targets])


def run_digest(seed: int, solver: str) -> str:
    circuit, _ = generated_netlist(seed)
    options = SOLVERS[solver]
    system = MNASystem(circuit)
    rng = np.random.default_rng(2000 + seed)
    digest = hashlib.sha256()
    with corpus_columns(circuit, rng) as columns:
        for _ in range(2):
            x = 0.5 * rng.normal(size=(LANES, system.size))
            for want_jacobian in (True, False):
                ctx = assemble_batch(system, x, "op", options, columns,
                                     want_jacobian=want_jacobian)
                digest.update(np.ascontiguousarray(ctx.res).tobytes())
                if not want_jacobian:
                    continue
                jac = ctx.jacobian()
                if isinstance(jac, np.ndarray):
                    digest.update(np.ascontiguousarray(jac).tobytes())
                    continue
                for lane in jac:
                    for part in (lane.data, lane.indices, lane.indptr):
                        digest.update(np.ascontiguousarray(part).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("solver", sorted(SOLVERS))
@pytest.mark.parametrize("seed", SEEDS)
def test_lane_stamps_are_pinned(seed, solver):
    assert run_digest(seed, solver) == DIGESTS[(seed, solver)]


def lane_features(device) -> set[str]:
    """The constructs the op variant of a batch-safe device lowers."""
    bound, = runtime.state_for(device).variants["op"]
    variant = bound.kernels.variant
    roots = [node for _, node in variant.contributions + variant.equations]
    found = {type(node).__name__.lower() for node in ir.walk(roots)}
    found = (found & {"ddt", "integ"}) | {
        _PLAN_FEATURES[tag] for tag, _, _ in bound.plan
        if tag in _PLAN_FEATURES}
    nodes = [node for port in device.ports for node in (port.p, port.n)
             if not node.is_ground]
    if len(nodes) != len(set(nodes)):
        found.add("collide")
    return found


_PLAN_FEATURES = {"u": "unknown", "b": "binding", "d": "param",
                  "c": "default", "t": "time"}


def test_corpus_reaches_the_lane_path():
    covered = set()
    for seed in SEEDS:
        circuit, _ = generated_netlist(seed)
        for device in circuit:
            if isinstance(device, BehavioralDevice) \
                    and device.batch_safe_for(SOLVERS["dense"]):
                covered |= lane_features(device)
    assert {"ddt", "integ", "unknown", "collide", "param", "binding",
            "default", "time"} <= covered


@pytest.mark.parametrize("solver", sorted(SOLVERS))
@pytest.mark.parametrize("seed", SEEDS[::4])
def test_lane_batched_op_matches_serial(seed, solver):
    circuit, _ = generated_netlist(seed)
    options = SOLVERS[solver]
    columns = corpus_columns(circuit, np.random.default_rng(3000 + seed))
    results = batched_operating_points(circuit, options, columns)
    for lane, result in enumerate(results):
        assert result is not None
        columns.set_lane(lane)
        try:
            reference = OperatingPointAnalysis(circuit, options).run()
        finally:
            columns.restore()
        assert result.iterations == reference.iterations
        assert set(result.keys()) == set(reference.keys())
        for key, value in reference.items():
            assert abs(result[key] - value) <= 1e-12 * max(1.0, abs(value))
