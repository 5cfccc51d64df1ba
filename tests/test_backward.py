"""Reverse-sweep semantics: ordering, reuse, accumulation, freeing, and the
name-keyed gradient view used by the optimizer.
"""

import numpy as np
import pytest

from fusionlab import ops
from fusionlab.params import Module, backward, set_trainable
from fusionlab.tensor import GraphError, OpCounter, Tensor, grad, use_counter
from fusionlab.training import Adam, TrainConfig


def test_gradient_accumulates_over_shared_input():
    x = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    out = ops.mean(ops.add(ops.mul(x, x), x))  # f = x^2 + x, f' = 2x + 1
    (gx,) = grad(out, [x])
    np.testing.assert_allclose(gx, (2 * x.data + 1) / x.data.size)


def test_diamond_graph_visits_each_node_once():
    ctr = OpCounter()
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with use_counter(ctr):
        h = ops.relu(x)
        loss = ops.mean(ops.add(h, h))  # h feeds the same add twice
        grad(loss, [x])
    assert ctr.backward_ops["relu"] == 1
    assert ctr.backward_ops["add"] == 1


def test_chain_order_is_reverse_topological():
    # If the sweep ran out of order the inner gradient would be consumed
    # before its contribution arrived; values expose that immediately.
    x = Tensor(np.array([3.0]), requires_grad=True)
    y = ops.mul(x, x)          # x^2
    z = ops.mul(y, x)          # x^3
    loss = ops.mean(ops.add(z, y))  # x^3 + x^2 -> 3x^2 + 2x = 33
    (gx,) = grad(loss, [x])
    np.testing.assert_allclose(gx, [33.0])


def test_grad_returns_none_for_unreached_leaf():
    x = Tensor(np.ones(3), requires_grad=True)
    other = Tensor(np.ones(3), requires_grad=True)
    loss = ops.mean(ops.relu(x))
    gx, gother = grad(loss, [x, other])
    assert gx is not None and gother is None


def test_freed_graph_raises_and_retain_permits_reuse():
    x = Tensor(np.ones(4), requires_grad=True)
    loss = ops.mean(ops.swish(x))
    grad(loss, [x])
    with pytest.raises(GraphError):
        grad(loss, [x])
    loss2 = ops.mean(ops.swish(x))
    g1 = grad(loss2, [x], retain_graph=True)
    g2 = grad(loss2, [x])
    np.testing.assert_array_equal(g1[0], g2[0])


def test_scalar_leaf_loss_gradient_is_one():
    x = Tensor(np.array(2.5), requires_grad=True)
    (gx,) = grad(x, [x])
    np.testing.assert_array_equal(gx, np.array(1.0))


def test_frozen_branch_contributes_no_backward_ops():
    ctr = OpCounter()
    frozen = Tensor(np.ones((4, 4)))
    live = Tensor(np.ones((4, 4)), requires_grad=True)
    with use_counter(ctr):
        cold = ops.swish(ops.matmul(frozen, frozen))  # no grads wanted here
        warm = ops.mul(ops.relu(live), cold)
        grad(ops.mean(warm), [live])
    assert ctr.backward_ops["swish"] == 0
    assert ctr.backward_ops["matmul"] == 0
    assert ctr.backward_ops["relu"] == 1


class _Affine(Module):
    def __init__(self, dim):
        super().__init__()
        self.weight = self.param("weight", np.eye(dim))
        self.bias = self.param("bias", np.zeros(dim))

    def __call__(self, x):
        return ops.bias_add(ops.matmul(x, self.weight.value), self.bias.value)


class _TwoLayer(Module):
    def __init__(self, dim):
        super().__init__()
        self.first = self.child("first", _Affine(dim))
        self.second = self.child("second", _Affine(dim))

    def __call__(self, x):
        return self.second(ops.relu(self.first(x)))


def test_backward_returns_named_map_for_trainables_only():
    model = _TwoLayer(3)
    set_trainable(model, "first/**", False)
    x = Tensor(np.ones((2, 3)))
    grads = backward(ops.mean(model(x)), model)
    assert set(grads) == {"second/weight", "second/bias"}
    assert grads["second/weight"].shape == (3, 3)


def test_backward_map_covers_all_trainables_even_with_zero_grad():
    model = _TwoLayer(2)
    x = Tensor(np.zeros((1, 2)))  # relu kills the path through first/*
    grads = backward(ops.mean(model(x)), model)
    assert set(grads) == set(model.trainable_parameters())
    np.testing.assert_array_equal(grads["first/weight"], np.zeros((2, 2)))


def test_retained_graph_reads_the_weights_its_forward_used():
    # Adam replaces parameter arrays; a retained graph keeps the arrays its
    # forward read, so a second backward repeats the first bitwise.
    model = _TwoLayer(3)
    x = Tensor(np.random.default_rng(0).standard_normal((4, 3)))
    loss = ops.mean(ops.swish(model(x)))
    first = backward(loss, model, retain_graph=True)
    cfg = TrainConfig(learning_rate=0.1, warmup_steps=0)
    Adam(model.trainable_parameters(), cfg).apply(first)
    second = backward(loss, model)
    assert set(second) == set(first)
    for name in first:
        np.testing.assert_array_equal(second[name], first[name], err_msg=name)


def test_module_name_prefixing_and_duplicate_guard():
    model = _TwoLayer(2)
    names = sorted(model.parameters())
    assert names == ["first/bias", "first/weight", "second/bias", "second/weight"]
    with pytest.raises(ValueError):
        model.child("first", _Affine(2))
    inner = _Affine(2)
    outer = Module()
    outer.child("a", inner)
    with pytest.raises(ValueError):
        outer.child("b", inner)  # same module attached twice


def test_names_are_paths_from_the_walked_module():
    inner = _TwoLayer(2)
    alone = list(inner.parameters())
    outer = Module()
    outer.child("net", inner)
    assert list(outer.parameters()) == [f"net/{n}" for n in alone]
    assert list(inner.parameters()) == alone
    assert [p.name for p in inner.parameters().values()] == ["weight", "bias"] * 2


def test_release_hands_a_child_back_unowned():
    inner = _Affine(2)
    outer = Module()
    outer.child("a", inner)
    assert outer.release("a") is inner
    assert outer.parameters() == {}
    other = Module()
    other.child("b", inner)
    assert list(other.parameters()) == ["b/weight", "b/bias"]


def test_set_trainable_pattern_counts():
    model = _TwoLayer(4)
    assert set_trainable(model, "**/bias", False) == 2
    assert not model.parameters()["first/bias"].trainable
    assert model.parameters()["first/weight"].trainable
    assert set_trainable(model, "**", True) == 4
