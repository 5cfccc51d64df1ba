"""Primitive-level checks: values, shapes, cost bookkeeping, and the
recording rules (what gets counted, what gets saved, what stays silent).
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionlab import ops
from fusionlab.tensor import (
    GraphError,
    OpCounter,
    ShapeError,
    Tensor,
    grad,
    no_grad,
    scope,
    use_counter,
)


def t(arr, requires_grad=False, dtype=np.float64):
    return Tensor(np.asarray(arr, dtype=dtype), requires_grad=requires_grad)


# -- values -------------------------------------------------------------------


def test_matmul_values_and_batching():
    a = t(np.arange(6).reshape(2, 3))
    b = t(np.arange(12).reshape(3, 4))
    np.testing.assert_allclose(ops.matmul(a, b).data, a.data @ b.data)
    batched = t(np.arange(12).reshape(2, 2, 3) * 1.0)
    out = ops.matmul(batched, b)
    assert out.shape == (2, 2, 4)
    np.testing.assert_allclose(out.data, batched.data @ b.data)


def test_matmul_shape_errors():
    with pytest.raises(ShapeError):
        ops.matmul(t(np.zeros((2, 3))), t(np.zeros((4, 2))))
    with pytest.raises(ShapeError):
        ops.matmul(t(np.zeros(3)), t(np.zeros((3, 2))))
    with pytest.raises(ShapeError):
        ops.matmul(t(np.zeros((2, 2, 3))), t(np.zeros((3, 3, 4))))


def test_pointwise_values():
    x = t([[-1.0, 0.0, 2.0]])
    np.testing.assert_allclose(ops.relu(x).data, [[0.0, 0.0, 2.0]])
    s = 1.0 / (1.0 + np.exp(-x.data))
    np.testing.assert_allclose(ops.sigmoid(x).data, s, rtol=1e-12)
    np.testing.assert_allclose(ops.swish(x).data, x.data * s, rtol=1e-12)
    np.testing.assert_allclose(ops.scale(x, -2.0).data, -2.0 * x.data)
    np.testing.assert_allclose(ops.add(x, x).data, 2 * x.data)
    np.testing.assert_allclose(ops.mul(x, x).data, x.data ** 2)


def test_scale_preserves_dtype_with_numpy_scalar():
    x = Tensor(np.ones((2, 2), dtype=np.float32))
    out = ops.scale(x, 1.0 / np.sqrt(np.float64(4.0)))
    assert out.data.dtype == np.float32


def test_glu_halves_last_axis():
    x = t(np.random.default_rng(0).normal(size=(2, 3, 8)))
    out = ops.glu(x)
    assert out.shape == (2, 3, 4)
    a, b = x.data[..., :4], x.data[..., 4:]
    np.testing.assert_allclose(out.data, a / (1.0 + np.exp(-b)), rtol=1e-12)
    with pytest.raises(ShapeError):
        ops.glu(t(np.zeros((2, 3))))


def test_glu_counts_every_byte_its_node_keeps_alive():
    # a view of the gated half would pin the whole input, so the node
    # saves and charges all of it plus the gate activations
    x = Tensor(np.random.default_rng(0).standard_normal((768, 512), dtype=np.float32),
               requires_grad=True)
    ctr = counted()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with use_counter(ctr):
            out = ops.glu(ops.scale(x, 2.0))  # only the glu node holds the scaled input
        kept = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
    finally:
        tracemalloc.stop()
    assert ctr.saved_bytes == (768 * 512 + 768 * 256) * 4  # 2.36 MB
    assert abs(kept - ctr.saved_bytes) < 0.01 * ctr.saved_bytes


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_tails_dtype_and_strided_input(dtype):
    x = np.array([-1e4, -100.0, -88.0, -0.0, 0.0, 88.0, 100.0, 1e4], dtype=dtype)
    with np.errstate(all="raise"):
        s = ops._sigmoid(x)
    assert s.dtype == dtype
    assert ((s >= 0) & (s <= 1)).all()
    assert s[3] == 0.5 and s[4] == 0.5
    # glu passes the gate half as a non-contiguous view
    wide = np.random.default_rng(0).normal(size=(3, 4, 10)).astype(dtype)
    gate = wide[..., 5:]
    assert not gate.flags.c_contiguous
    np.testing.assert_array_equal(ops._sigmoid(gate), ops._sigmoid(gate.copy()))


def test_sigmoid_float32_close_to_float64_reference():
    x = np.random.default_rng(0).normal(0, 4, size=(16, 48, 256)).astype(np.float32)
    ref = 1.0 / (1.0 + np.exp(-x.astype(np.float64)))
    assert np.abs(ops._sigmoid(x) - ref).max() < 2e-7


def test_softmax_rows_sum_to_one():
    x = t(np.random.default_rng(1).normal(size=(4, 7)) * 30)
    out = ops.softmax(x).data
    np.testing.assert_allclose(out.sum(-1), np.ones(4), rtol=1e-12)
    assert (out > 0).all()


def test_layer_norm_normalizes():
    x = t(np.random.default_rng(2).normal(size=(5, 16)) * 3 + 1)
    g = t(np.ones(16))
    b = t(np.zeros(16))
    out = ops.layer_norm(x, g, b).data
    np.testing.assert_allclose(out.mean(-1), np.zeros(5), atol=1e-9)
    np.testing.assert_allclose(out.var(-1), np.ones(5), rtol=1e-4)


def test_conv1d_matches_manual_stride_2():
    rng = np.random.default_rng(3)
    x = t(rng.normal(size=(1, 6, 2)))
    w = t(rng.normal(size=(2, 2, 3)))  # (kernel, c_in, c_out)
    out = ops.conv1d(x, w, stride=2)
    assert out.shape == (1, 3, 3)
    for i in range(3):
        ref = x.data[0, 2 * i] @ w.data[0] + x.data[0, 2 * i + 1] @ w.data[1]
        np.testing.assert_allclose(out.data[0, i], ref, rtol=1e-12)


def test_depthwise_conv_same_length_and_values():
    rng = np.random.default_rng(4)
    x = t(rng.normal(size=(1, 5, 2)))
    w = t(rng.normal(size=(4, 2)))  # (kernel, channels), same padding
    out = ops.depthwise_conv1d(x, w)
    assert out.shape == (1, 5, 2)
    pad_left = (4 - 1) // 2
    xp = np.pad(x.data, ((0, 0), (pad_left, 4 - 1 - pad_left), (0, 0)))
    ref = sum(xp[:, k : k + 5] * w.data[k] for k in range(4))
    np.testing.assert_allclose(out.data, ref, rtol=1e-12)


def test_movement_ops_roundtrip():
    x = t(np.arange(24).reshape(2, 3, 4) * 1.0)
    assert ops.transpose(x, 1, 2).shape == (2, 4, 3)
    assert ops.reshape(x, (6, 4)).shape == (6, 4)
    np.testing.assert_allclose(ops.narrow(x, 1, 1, 2).data, x.data[:, 1:3])
    cat = ops.concat([x, x], axis=-1)
    assert cat.shape == (2, 3, 8)
    picked = ops.gather_rows(t(np.arange(12).reshape(4, 3) * 1.0), np.array([2, 0]))
    np.testing.assert_allclose(picked.data, [[6, 7, 8], [0, 1, 2]])


def test_cross_entropy_matches_manual():
    logits = t(np.array([[2.0, 0.5, -1.0], [0.0, 0.0, 0.0]]), requires_grad=True)
    labels = np.array([0, 2])
    out = ops.cross_entropy_with_logits(logits, labels)
    z = logits.data
    logp = z - np.log(np.exp(z).sum(-1, keepdims=True))
    np.testing.assert_allclose(out.data, -logp[[0, 1], labels].mean(), rtol=1e-12)
    with pytest.raises(ValueError):
        ops.cross_entropy_with_logits(t(np.zeros((0, 3))), np.zeros(0, dtype=int))
    with pytest.raises(ValueError):
        ops.cross_entropy_with_logits(t(np.zeros((2, 3))), np.array([0, 3]))


# -- cost bookkeeping ---------------------------------------------------------


def counted():
    return OpCounter()


def test_matmul_flop_and_save_accounting():
    ctr = counted()
    a = t(np.ones((2, 3)), requires_grad=True)
    b = t(np.ones((3, 4)), requires_grad=True)
    with use_counter(ctr):
        out = ops.matmul(a, b)
        grad(ops.mean(out), [a, b])
    assert ctr.forward_flops >= 2 * 2 * 3 * 4
    assert ctr.forward_ops["matmul"] == 1
    # both inputs need grads and neither is a parameter: both sides saved
    assert ctr.saved_bytes == (a.size + b.size) * 8


def test_backward_flops_at_most_twice_forward_per_op():
    rng = np.random.default_rng(0)
    x = t(rng.normal(size=(4, 6)), requires_grad=True)
    g = t(np.ones(6), requires_grad=True)
    b = t(np.zeros(6), requires_grad=True)
    cases = {
        "relu": lambda: ops.relu(x),
        "sigmoid": lambda: ops.sigmoid(x),
        "swish": lambda: ops.swish(x),
        "softmax": lambda: ops.softmax(x),
        "glu": lambda: ops.glu(x),
        "layer_norm": lambda: ops.layer_norm(x, g, b),
    }
    for kind, fn in cases.items():
        ctr = counted()
        with use_counter(ctr):
            out = fn()
            grad(ops.mean(out), [x])
        kinds_fwd = ctr.scope_forward_flops[""]
        kinds_bwd = ctr.scope_backward_flops[""]
        assert kinds_bwd <= 2 * kinds_fwd, f"{kind}: bwd {kinds_bwd} > 2x fwd {kinds_fwd}"


def test_frozen_inputs_record_nothing():
    ctr = counted()
    a = t(np.ones((2, 3)))  # no grad anywhere
    b = t(np.ones((3, 4)))
    with use_counter(ctr):
        out = ops.matmul(a, b)
    assert out.node is None
    assert ctr.saved_bytes == 0
    assert ctr.forward_flops == 2 * 2 * 3 * 4  # work still counted
    assert ctr.backward_flops == 0


def test_no_grad_suppresses_recording():
    ctr = counted()
    a = t(np.ones((2, 2)), requires_grad=True)
    with use_counter(ctr), no_grad():
        out = ops.matmul(a, a)
    assert out.node is None and not out.requires_grad
    assert ctr.saved_bytes == 0


def test_parameter_arrays_do_not_count_as_saved_bytes():
    ctr = counted()
    x = t(np.ones((2, 3)))
    w = Tensor(np.ones((3, 4)), requires_grad=True, is_param=True)
    with use_counter(ctr):
        out = ops.matmul(x, w)
    # dW needs x (saved, 6 floats); dx not needed, so w itself is not retained
    assert out.node is not None
    assert ctr.saved_bytes == 6 * 8


def test_movement_ops_cost_zero_flops():
    ctr = counted()
    x = t(np.arange(24).reshape(2, 3, 4) * 1.0, requires_grad=True)
    with use_counter(ctr):
        y = ops.reshape(ops.transpose(x, 1, 2), (24,))
        z = ops.concat([y, y], axis=0)
        ops.narrow(z, 0, 0, 4)
    assert ctr.forward_flops == 0
    assert ctr.saved_bytes == 0


def test_scope_attribution_forward_and_backward():
    ctr = counted()
    w = Tensor(np.ones((3, 3)), requires_grad=True, is_param=True)
    x = t(np.ones((2, 3)))
    with use_counter(ctr):
        with scope("outer"):
            with scope("inner"):
                h = ops.matmul(x, w)
            out = ops.mean(h)
        grad(out, [w])
    assert ctr.forward_flops_in("outer/inner") == 2 * 2 * 3 * 3
    assert ctr.forward_flops_in("outer") > ctr.forward_flops_in("outer/inner")
    # backward work lands in the creating scope
    assert ctr.backward_flops_in("outer/inner") == 2 * 2 * 3 * 3


def test_counter_prefix_query_does_not_match_sibling_names():
    ctr = counted()
    x = t(np.ones((2, 2)), requires_grad=True)
    with use_counter(ctr):
        with scope("layer_1"):
            ops.relu(x)
        with scope("layer_10"):
            ops.relu(x)
    assert ctr.forward_ops_in("layer_1") == 1


# -- property tests ------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(1, 4), cols=st.integers(1, 4),
    broadcast_rows=st.booleans(),
)
def test_add_broadcast_gradient_shapes(rows, cols, broadcast_rows):
    rng = np.random.default_rng(0)
    a = t(rng.normal(size=(rows, cols)), requires_grad=True)
    b_shape = (1, cols) if broadcast_rows else (rows, cols)
    b = t(rng.normal(size=b_shape), requires_grad=True)
    out = ops.mean(ops.add(a, b))
    ga, gb = grad(out, [a, b])
    assert ga.shape == a.shape
    assert gb.shape == b.shape


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 6))
def test_softmax_gradient_rows_sum_to_zero(n):
    x = t(np.random.default_rng(n).normal(size=(2, n)), requires_grad=True)
    out = ops.softmax(x)
    # pick one output coordinate; d softmax row sums to zero
    picked = ops.mean(ops.narrow(out, 1, 0, 1))
    (gx,) = grad(picked, [x])
    np.testing.assert_allclose(gx.sum(-1), np.zeros(2), atol=1e-12)


def test_double_backward_without_retain_raises():
    x = t(np.ones((2, 2)), requires_grad=True)
    out = ops.mean(ops.relu(x))
    grad(out, [x])
    with pytest.raises(GraphError):
        grad(out, [x])


def test_retain_graph_allows_second_pass():
    x = t(np.ones((2, 2)), requires_grad=True)
    out = ops.mean(ops.relu(x))
    g1 = grad(out, [x], retain_graph=True)
    g2 = grad(out, [x])
    np.testing.assert_array_equal(g1[0], g2[0])


def test_non_scalar_loss_rejected():
    x = t(np.ones((2, 2)), requires_grad=True)
    out = ops.relu(x)
    with pytest.raises(GraphError):
        grad(out, [x])
