"""run_inference against a float64 reference interpreter.

tests/oracles.reference_forward walks the layer list in float64 through the
per-op oracles and shares no code with the package, so it checks the whole
engine at once: the plan, its handovers, absorption (not reached without
quant points), slabs and the prepared tensor ops. The builder nets run with
BN live (its running statistics moved off their init by one training
forward) and folded into the convolutions. The bounds below were declared
before the first run: the largest absolute deviation from the reference,
over the largest reference magnitude (at least 1), per dtype.
"""

import numpy as np
import pytest

from oracles import reference_forward
from pfqkit.engine import forward_graph, run_inference
from pfqkit.graph import fold_bn_graph
from pfqkit.models import BUILDERS
from pfqkit.quantization import insert_quant_points

BOUND = {np.float32: 1e-4, np.float64: 1e-10}
BATCH = 2


def _net(name, dtype, folded):
    net = BUILDERS[name](seed=11, dtype=dtype)
    calib = np.random.default_rng(12).standard_normal((8,) + net.input_shape).astype(dtype)
    forward_graph(net, calib, training=True)
    return fold_bn_graph(net) if folded else net


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("folded", [False, True], ids=["bn_live", "folded"])
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_run_inference_matches_the_reference(name, folded, dtype):
    net = _net(name, dtype, folded)
    x = np.random.default_rng(13).standard_normal((BATCH,) + net.input_shape).astype(dtype)
    got = run_inference(net, x)
    want = reference_forward(net, x)
    assert got.dtype == dtype and got.shape == want.shape
    err = float(np.max(np.abs(got - want)))
    assert err <= BOUND[dtype] * max(1.0, float(np.max(np.abs(want)))), err


def test_the_reference_refuses_a_quantized_graph():
    net = insert_quant_points(_net("small_convnet", np.float32, True), 4, 4, weight_enabled=True)
    with pytest.raises(ValueError, match="reference_forward: layer 'conv1' is quantized"):
        reference_forward(net, np.zeros((1,) + net.input_shape, np.float32))
