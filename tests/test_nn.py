"""Forward/backward math, the optimizer, target blending, checkpoints."""

import json

import numpy as np
import pytest

from adapshare.nn import (
    ACTIVATIONS,
    AdamState,
    ArchitectureMismatch,
    Mlp,
    ShapeMismatch,
    adam_step,
    backward,
    forward,
    forward_cache,
    layer_views,
    mlp_from_dict,
    mlp_to_dict,
    soft_update,
)


def single_layer(w, b, activation):
    net = Mlp([np.shape(w)[1], np.shape(w)[0]], [activation], rng=np.random.default_rng(0))
    net.weights[0][:] = w
    net.biases[0][:] = b
    return net


class TestConstruction:
    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ShapeMismatch):
            Mlp([4], [], rng)
        with pytest.raises(ShapeMismatch):
            Mlp([4, 0], ["relu"], rng)
        with pytest.raises(ShapeMismatch):
            Mlp([4, 3, 2], ["relu"], rng)
        with pytest.raises(ShapeMismatch):
            Mlp([4, 2], ["softplus"], rng)

    def test_rng_is_required(self):
        with pytest.raises(TypeError):
            Mlp([4, 2], ["identity"])

    def test_init_bounded_by_fan_in(self):
        net = Mlp([4, 8, 2], ["relu", "identity"], rng=np.random.default_rng(9))
        for w, b, fan_in in zip(net.weights, net.biases, [4, 8]):
            bound = 1.0 / np.sqrt(fan_in)
            assert np.all(np.abs(w) <= bound)
            assert np.all(np.abs(b) <= bound)

    def test_params_interleaves_weights_and_biases(self):
        net = Mlp([3, 5, 2], ["tanh", "identity"], rng=np.random.default_rng(1))
        params = net.params()
        assert params[0] is net.weights[0]
        assert params[1] is net.biases[0]
        assert params[2] is net.weights[1]
        assert params[3] is net.biases[1]

    def test_clone_is_independent(self):
        net = Mlp([2, 3, 1], ["relu", "identity"], rng=np.random.default_rng(2))
        dup = net.clone()
        net.weights[0][0, 0] += 5.0
        assert dup.weights[0][0, 0] != net.weights[0][0, 0]
        assert dup.dims == net.dims and dup.activations == net.activations


class TestForward:
    def test_affine_single_layer(self):
        net = single_layer([[2.0]], [1.0], "identity")
        assert forward(net, [3.0]) == pytest.approx([7.0])

    def test_relu_clips_negative_preactivation(self):
        net = single_layer([[1.0, -1.0]], [0.5], "relu")
        assert forward(net, [2.0, 1.0]) == pytest.approx([1.5])
        assert forward(net, [0.0, 2.0]) == pytest.approx([0.0])

    def test_sigmoid_and_tanh_ranges(self):
        rng = np.random.default_rng(7)
        net = Mlp([3, 6, 2], ["tanh", "sigmoid"], rng=rng)
        out = forward(net, rng.normal(size=(40, 3)) * 50.0)
        assert np.all((out > 0.0) & (out < 1.0))

    def test_sigmoid_stable_on_extreme_inputs(self):
        net = single_layer([[1.0]], [0.0], "sigmoid")
        assert forward(net, [800.0]) == pytest.approx([1.0])
        assert forward(net, [-800.0]) == pytest.approx([0.0], abs=1e-300)

    def test_batch_matches_per_row(self):
        rng = np.random.default_rng(3)
        net = Mlp([4, 5, 3], ["relu", "identity"], rng=rng)
        batch = rng.normal(size=(6, 4))
        stacked = forward(net, batch)
        for i in range(6):
            np.testing.assert_allclose(stacked[i], forward(net, batch[i]), atol=1e-15)

    def test_wrong_width_rejected(self):
        net = Mlp([4, 2], ["identity"], rng=np.random.default_rng(0))
        with pytest.raises(ShapeMismatch):
            forward(net, np.zeros(3))


class TestBackward:
    def test_affine_layer_gradients_by_hand(self):
        # out = W x + b: dL/dW = u x^T, dL/db = u, dL/dx = W^T u
        net = single_layer([[1.0, 2.0], [3.0, 4.0]], [0.0, 0.0], "identity")
        _, cache = forward_cache(net, [5.0, 6.0])
        grad, grad_x = backward(net, cache, [1.0, 10.0])
        # laid out like net.flat: W row by row, then b
        np.testing.assert_allclose(grad, [5.0, 6.0, 50.0, 60.0, 1.0, 10.0])
        np.testing.assert_allclose(grad_x, [31.0, 42.0])

    def test_gradient_views_match_the_parameter_views(self):
        net = Mlp([3, 4, 2], ["relu", "identity"], rng=np.random.default_rng(8))
        _, cache = forward_cache(net, np.ones((2, 3)))
        grad, _ = backward(net, cache, np.ones((2, 2)))
        assert grad.shape == net.flat.shape
        grad_w, grad_b = layer_views(net.dims, grad)
        assert [g.shape for g in grad_w] == [w.shape for w in net.weights]
        assert [g.shape for g in grad_b] == [b.shape for b in net.biases]
        assert all(np.shares_memory(g, grad) for g in grad_w + grad_b)

    def test_each_call_returns_a_new_vector(self):
        net = Mlp([3, 2], ["identity"], rng=np.random.default_rng(0))
        _, cache = forward_cache(net, np.ones(3))
        first, _ = backward(net, cache, np.ones(2))
        second, _ = backward(net, cache, np.ones(2), inputs=False)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, net.flat)
        assert first.tobytes() == second.tobytes()

    def test_zero_upstream_gives_zero_gradients(self):
        net = Mlp([3, 4, 2], ["tanh", "identity"], rng=np.random.default_rng(5))
        _, cache = forward_cache(net, np.ones(3))
        grad, grad_x = backward(net, cache, np.zeros(2))
        assert np.all(grad == 0)
        assert np.all(grad_x == 0)

    def test_batch_gradient_is_sum_of_samples(self):
        rng = np.random.default_rng(11)
        net = Mlp([3, 5, 2], ["relu", "identity"], rng=rng)
        xs = rng.normal(size=(2, 3))
        ups = rng.normal(size=(2, 2))
        _, cache = forward_cache(net, xs)
        g_batch, _ = backward(net, cache, ups)
        _, c0 = forward_cache(net, xs[0])
        g0, _ = backward(net, c0, ups[0])
        _, c1 = forward_cache(net, xs[1])
        g1, _ = backward(net, c1, ups[1])
        np.testing.assert_allclose(g_batch, g0 + g1, atol=1e-12)

    def test_upstream_shape_checked(self):
        net = Mlp([3, 2], ["identity"], rng=np.random.default_rng(0))
        _, cache = forward_cache(net, np.zeros(3))
        with pytest.raises(ShapeMismatch):
            backward(net, cache, np.zeros(3))

    def test_matches_finite_differences(self):
        # numeric check across random depths, widths, and all activations
        master = np.random.default_rng(0)
        names = list(ACTIVATIONS)
        h = 1e-6
        for _ in range(10):
            depth = int(master.integers(1, 4))
            dims = [int(master.integers(1, 6)) for _ in range(depth + 1)]
            acts = [names[master.integers(len(names))] for _ in range(depth)]
            net = Mlp(dims, acts, rng=master)
            x = master.normal(size=(3, dims[0]))
            upstream = master.normal(size=(3, dims[-1]))

            def loss():
                return float(np.sum(forward(net, x) * upstream))

            _, cache = forward_cache(net, x)
            grad, grad_x = backward(net, cache, upstream)
            grad_w, grad_b = layer_views(net.dims, grad)
            arrays = list(zip(net.weights + net.biases, grad_w + grad_b))
            arrays.append((x, grad_x))
            for arr, grad in arrays:
                flat = arr.reshape(-1)
                gflat = np.asarray(grad).reshape(-1)
                picks = master.choice(flat.size, size=min(5, flat.size), replace=False)
                for i in picks:
                    keep = flat[i]
                    flat[i] = keep + h
                    up = loss()
                    flat[i] = keep - h
                    down = loss()
                    flat[i] = keep
                    numeric = (up - down) / (2.0 * h)
                    denom = max(abs(numeric), abs(gflat[i]), 1e-6)
                    assert abs(numeric - gflat[i]) / denom < 1e-4


class TestAdam:
    def test_first_step_moves_by_learning_rate(self):
        # bias correction makes |update| == lr regardless of grad scale
        p = [np.array([1.0])]
        state = AdamState(p, lr=0.01)
        adam_step(state, p, [np.array([0.5])])
        assert p[0][0] == pytest.approx(1.0 - 0.01, abs=1e-6)

    def test_zero_gradient_moves_nothing(self):
        p = [np.array([2.0, -3.0])]
        state = AdamState(p, lr=0.1)
        adam_step(state, p, [np.zeros(2)])
        np.testing.assert_array_equal(p[0], [2.0, -3.0])

    def test_updates_in_place(self):
        net = Mlp([2, 2], ["identity"], rng=np.random.default_rng(4))
        params = net.params()
        state = AdamState(params, lr=0.05)
        before = net.weights[0].copy()
        adam_step(state, params, [np.ones_like(a) for a in params])
        assert not np.allclose(net.weights[0], before)

    def test_minimizes_quadratic_bowl(self):
        p = [np.array([1.0])]
        state = AdamState(p, lr=0.01)
        for _ in range(500):
            adam_step(state, p, [2.0 * p[0]])
        assert abs(p[0][0]) < 1e-3

    def test_descends_on_a_real_network_loss(self):
        rng = np.random.default_rng(15)
        net = Mlp([2, 8, 1], ["tanh", "identity"], rng=rng)
        x = rng.normal(size=(16, 2))
        y = (x[:, :1] - x[:, 1:]) * 0.5
        state = AdamState([net.flat], lr=0.01)

        def mse():
            return float(np.mean((forward(net, x) - y) ** 2))

        start = mse()
        for _ in range(300):
            out, cache = forward_cache(net, x)
            grad, _ = backward(net, cache, 2.0 * (out - y) / len(x))
            adam_step(state, [net.flat], [grad])
        assert mse() < start * 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            AdamState([np.zeros(2)], lr=0.0)
        p = [np.zeros(2)]
        state = AdamState(p, lr=0.1)
        with pytest.raises(ShapeMismatch):
            adam_step(state, p, [])
        with pytest.raises(ShapeMismatch):
            adam_step(state, p, [np.zeros(3)])


class TestSoftUpdate:
    def test_tau_one_copies_online(self):
        rng = np.random.default_rng(6)
        online = Mlp([3, 4, 2], ["relu", "identity"], rng=rng)
        target = Mlp([3, 4, 2], ["relu", "identity"], rng=rng)
        soft_update(target, online, tau=1.0)
        for t_arr, o_arr in zip(target.params(), online.params()):
            np.testing.assert_array_equal(t_arr, o_arr)

    def test_tau_zero_keeps_target(self):
        rng = np.random.default_rng(6)
        online = Mlp([3, 4, 2], ["relu", "identity"], rng=rng)
        target = Mlp([3, 4, 2], ["relu", "identity"], rng=rng)
        before = [a.copy() for a in target.params()]
        soft_update(target, online, tau=0.0)
        for t_arr, b_arr in zip(target.params(), before):
            np.testing.assert_array_equal(t_arr, b_arr)

    def test_blends_convexly(self):
        online = Mlp([2, 2], ["identity"], rng=np.random.default_rng(1))
        target = online.clone()
        for arr in online.params():
            arr[:] = 1.0
        for arr in target.params():
            arr[:] = 0.0
        soft_update(target, online, tau=0.25)
        for arr in target.params():
            np.testing.assert_allclose(arr, 0.25)
        soft_update(target, online, tau=0.25)
        for arr in target.params():
            np.testing.assert_allclose(arr, 0.4375)

    def test_mismatched_architectures_rejected(self):
        a = Mlp([2, 2], ["identity"], rng=np.random.default_rng(0))
        b = Mlp([2, 3, 2], ["relu", "identity"], rng=np.random.default_rng(0))
        c = Mlp([2, 2], ["tanh"], rng=np.random.default_rng(0))
        with pytest.raises(ArchitectureMismatch):
            soft_update(a, b, tau=0.5)
        with pytest.raises(ArchitectureMismatch):
            soft_update(a, c, tau=0.5)

    def test_tau_out_of_range_rejected(self):
        a = Mlp([2, 2], ["identity"], rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            soft_update(a, a.clone(), tau=1.5)


class TestCheckpoints:
    def test_roundtrip_is_exact(self, tmp_path):
        net = Mlp([5, 7, 3], ["relu", "sigmoid"], rng=np.random.default_rng(21))
        path = tmp_path / "net.json"
        path.write_text(json.dumps(mlp_to_dict(net)))
        loaded = mlp_from_dict(json.loads(path.read_text()))
        assert loaded.dims == net.dims
        assert loaded.activations == net.activations
        for a, b in zip(loaded.params(), net.params()):
            np.testing.assert_array_equal(a, b)
        x = np.random.default_rng(1).normal(size=(4, 5))
        np.testing.assert_array_equal(forward(loaded, x), forward(net, x))

    def test_format_and_version_checked(self):
        net = Mlp([2, 2], ["identity"], rng=np.random.default_rng(0))
        payload = mlp_to_dict(net)
        with pytest.raises(ValueError):
            mlp_from_dict({**payload, "format": "something-else"})
        with pytest.raises(ValueError):
            mlp_from_dict({**payload, "version": 99})

    def test_inconsistent_shapes_rejected(self):
        net = Mlp([2, 3, 1], ["relu", "identity"], rng=np.random.default_rng(0))
        payload = mlp_to_dict(net)
        payload["dims"] = [2, 4, 1]
        with pytest.raises(ValueError):
            mlp_from_dict(payload)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_parameter_rejected(self, value):
        net = Mlp([2, 3, 1], ["relu", "identity"], rng=np.random.default_rng(0))
        payload = mlp_to_dict(net)
        payload["biases"][0][1] = value
        with pytest.raises(ValueError, match="a weight or bias is not finite"):
            mlp_from_dict(payload)
