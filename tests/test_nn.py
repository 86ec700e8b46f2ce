"""Forward/backward math, the optimizer, target blending, checkpoints."""

import json
import re

import numpy as np
import pytest

from adapshare.nn import (
    ACTIVATIONS,
    ADAM_BETA1,
    ADAM_FLUSH_EVERY,
    AdamState,
    Mlp,
    adam_step,
    backward,
    forward,
    forward_cache,
    layer_views,
    load_params,
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
        with pytest.raises(ValueError, match="^need at least an input and an output layer$"):
            Mlp([4], [], rng)
        with pytest.raises(ValueError, match=r"^layer widths must be positive, got \[4, 0\]$"):
            Mlp([4, 0], ["relu"], rng)
        with pytest.raises(ValueError, match="^2 layers need 2 activations, got 1$"):
            Mlp([4, 3, 2], ["relu"], rng)
        with pytest.raises(ValueError, match="^unknown activation 'softplus'$"):
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

    def test_activations_bound_by_name_through_clone_and_load(self):
        names = ["relu", "tanh", "sigmoid", "identity"]
        net = Mlp([3, 4, 4, 4, 2], names, rng=np.random.default_rng(3))
        bound = tuple(ACTIVATIONS[name][0] for name in names), tuple(ACTIVATIONS[name][1] for name in names)
        dup = net.clone()
        load_params(dup, mlp_to_dict(net))
        for each in (net, dup):
            assert (each.value_fns, each.chain_fns) == bound


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
        out, _ = forward_cache(net, rng.normal(size=(40, 3)) * 50.0)
        assert np.all((out > 0.0) & (out < 1.0))
        for row in rng.normal(size=(40, 3)) * 50.0:
            out = forward(net, row)
            assert np.all((out > 0.0) & (out < 1.0))

    def test_sigmoid_stable_on_extreme_inputs(self):
        net = single_layer([[1.0]], [0.0], "sigmoid")
        assert forward(net, [800.0]) == pytest.approx([1.0])
        assert forward(net, [-800.0]) == pytest.approx([0.0], abs=1e-300)

    def test_batch_matches_per_row(self):
        # each row of a batch, through forward_cache or alone through
        # forward, is the network's output for that row, written out here
        rng = np.random.default_rng(3)
        net = Mlp([4, 5, 3], ["relu", "identity"], rng=rng)
        (w0, w1), (b0, b1) = net.weights, net.biases
        batch = rng.normal(size=(6, 4))
        stacked, _ = forward_cache(net, batch)
        for i in range(6):
            by_hand = [sum(w1[k, j] * max(sum(w0[j, m] * batch[i, m] for m in range(4)) + b0[j], 0.0)
                           for j in range(5)) + b1[k] for k in range(3)]
            np.testing.assert_allclose(stacked[i], by_hand, atol=1e-15)
            np.testing.assert_allclose(forward(net, batch[i]), by_hand, atol=1e-15)

    def test_wrong_width_rejected(self):
        net = Mlp([4, 2], ["identity"], rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match=r"^input has shape \(3,\), network expects a vector of width 4$"):
            forward(net, np.zeros(3))

    @pytest.mark.parametrize("x, shape", [
        (np.zeros(3), "(3,)"), (np.zeros((2, 5)), "(2, 5)"), (np.zeros((1, 2, 4)), "(1, 2, 4)"), (1.0, "()"),
    ], ids=["vector", "batch", "3d", "scalar"])
    def test_wrong_shape_named_as_the_one_row_batch(self, x, shape):
        # each refusal names the shape it got and the form it takes; the
        # batch form's refusal names the one-row batch x[None]
        net = Mlp([4, 2], ["identity"], rng=np.random.default_rng(0))
        shape = re.escape(shape)
        with pytest.raises(ValueError, match=rf"^input has shape {shape}, network expects a vector of width 4$"):
            forward(net, x)
        with pytest.raises(ValueError,
                           match=rf"^input has shape {shape}, network expects a \(batch, 4\) matrix; one row is x\[None\]$"):
            forward_cache(net, x)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_forward_refuses_a_batch(self, rows):
        net = Mlp([4, 2], ["identity"], rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match=rf"^input has shape \({rows}, 4\), network expects a vector of width 4$"):
            forward(net, np.zeros((rows, 4)))

    def test_forward_cache_refuses_a_vector(self):
        net = Mlp([4, 2], ["identity"], rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match=r"^input has shape \(4,\), network expects a \(batch, 4\) matrix"):
            forward_cache(net, np.zeros(4))

    @pytest.mark.parametrize("x", [[1, -2, 3, 0], np.arange(-2, 2), np.arange(4, dtype=np.int32)],
                             ids=["list", "int64", "int32"])
    def test_int_vector_read_as_floats(self, x):
        net = Mlp([4, 3, 2], ["relu", "sigmoid"], rng=np.random.default_rng(2))
        out = forward(net, x)
        assert out.dtype == np.float64 and out.shape == (2,)
        assert out.tobytes() == forward(net, np.asarray(x, dtype=float)).tobytes()

    @pytest.mark.parametrize("output", sorted(ACTIVATIONS))
    def test_vector_bits_equal_the_one_row_batch(self, output):
        # forward keeps a vector 1-D; forward_cache, and so training, runs
        # it as a (1, dim) batch, and the two must give the same bits
        rng = np.random.default_rng(sorted(ACTIVATIONS).index(output))
        for _ in range(60):
            dims = [int(d) for d in rng.integers(1, 97, size=rng.integers(2, 5))]
            acts = [str(a) for a in rng.choice(sorted(ACTIVATIONS), size=len(dims) - 2)] + [output]
            net = Mlp(dims, acts, rng=rng)
            net.flat *= rng.choice([0.5, 1.0, 4.0, 8.0])
            v = rng.normal(size=dims[0]) * rng.choice([0.01, 1.0, 30.0])
            out = forward(net, v)
            assert out.shape == (dims[-1],)
            assert out.tobytes() == forward_cache(net, v[None])[0][0].tobytes()

    @pytest.mark.parametrize("dims, acts", [
        ([10, 64, 64, 2], ["relu", "relu", "sigmoid"]),
        ([12, 32, 1], ["relu", "identity"]),
        ([3, 6, 2], ["tanh", "sigmoid"]),
    ])
    @pytest.mark.parametrize("rows", [None, 1, 64])
    def test_same_bits_as_forward_cache(self, dims, acts, rows):
        # the agents act through forward and learn through forward_cache:
        # each row forward sees alone gives the bits of its one-row batch
        rng = np.random.default_rng(5)
        net = Mlp(dims, acts, rng=rng)
        x = rng.normal(size=(1 if rows is None else rows, dims[0])) * 3.0
        for row in x:
            out, _ = forward_cache(net, row[None])
            assert forward(net, row).tobytes() == out[0].tobytes()
            assert out.shape == (1, dims[-1])


class TestBackward:
    def test_affine_layer_gradients_by_hand(self):
        # out = W x + b: dL/dW = u x^T, dL/db = u, dL/dx = W^T u
        net = single_layer([[1.0, 2.0], [3.0, 4.0]], [0.0, 0.0], "identity")
        _, cache = forward_cache(net, [[5.0, 6.0]])
        grad, grad_x = backward(net, cache, [[1.0, 10.0]])
        # laid out like net.flat: W row by row, then b
        np.testing.assert_allclose(grad, [5.0, 6.0, 50.0, 60.0, 1.0, 10.0])
        np.testing.assert_allclose(grad_x, [[31.0, 42.0]])

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
        _, cache = forward_cache(net, np.ones((1, 3)))
        first, _ = backward(net, cache, np.ones((1, 2)))
        second, _ = backward(net, cache, np.ones((1, 2)), inputs=False)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, net.flat)
        assert first.tobytes() == second.tobytes()

    def test_zero_upstream_gives_zero_gradients(self):
        net = Mlp([3, 4, 2], ["tanh", "identity"], rng=np.random.default_rng(5))
        _, cache = forward_cache(net, np.ones((1, 3)))
        grad, grad_x = backward(net, cache, np.zeros((1, 2)))
        assert np.all(grad == 0)
        assert np.all(grad_x == 0)

    def test_batch_gradient_is_sum_of_samples(self):
        rng = np.random.default_rng(11)
        net = Mlp([3, 5, 2], ["relu", "identity"], rng=rng)
        xs = rng.normal(size=(2, 3))
        ups = rng.normal(size=(2, 2))
        _, cache = forward_cache(net, xs)
        g_batch, _ = backward(net, cache, ups)
        _, c0 = forward_cache(net, xs[:1])
        g0, _ = backward(net, c0, ups[:1])
        _, c1 = forward_cache(net, xs[1:])
        g1, _ = backward(net, c1, ups[1:])
        np.testing.assert_allclose(g_batch, g0 + g1, atol=1e-12)

    def test_upstream_shape_checked(self):
        net = Mlp([3, 2], ["identity"], rng=np.random.default_rng(0))
        _, cache = forward_cache(net, np.zeros((1, 3)))
        with pytest.raises(ValueError, match=r"^upstream gradient shape \(1, 3\) does not match output shape \(1, 2\)$"):
            backward(net, cache, np.zeros((1, 3)))

    def test_refuses_a_vector_upstream(self):
        # a one-row batch takes a one-row upstream, not its vector
        net = Mlp([3, 2], ["identity"], rng=np.random.default_rng(0))
        _, cache = forward_cache(net, np.zeros((1, 3)))
        with pytest.raises(ValueError, match=r"^upstream gradient shape \(2,\) does not match output shape \(1, 2\)$"):
            backward(net, cache, np.zeros(2))

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
                return float(np.sum(forward_cache(net, x)[0] * upstream))

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
        flat, weights = net.flat, net.weights[0]
        state = AdamState([flat], lr=0.05)
        before = weights.copy()
        adam_step(state, [flat], [np.ones_like(flat)])
        assert net.flat is flat and net.weights[0] is weights
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
            return float(np.mean((forward_cache(net, x)[0] - y) ** 2))

        start = mse()
        for _ in range(300):
            out, cache = forward_cache(net, x)
            grad, _ = backward(net, cache, 2.0 * (out - y) / len(x))
            adam_step(state, [net.flat], [grad])
        assert mse() < start * 0.05

    def test_subnormal_first_moments_flush_to_zero(self):
        # a dead unit's gradient is 0, so its moment decays by ADAM_BETA1 a
        # step and sticks at 2**-1074; every ADAM_FLUSH_EVERY steps a moment
        # below the normal range is set to 0 in place, and the rest kept
        tiny, zero = np.finfo(np.float64).tiny, np.zeros(4)
        p = [np.ones(4)]
        state = AdamState(p, lr=0.01)
        m = state.first_moment
        for _ in range(ADAM_FLUSH_EVERY - 2):
            adam_step(state, p, [zero])
        m[:] = [5e-324, -tiny / 2, 2 * tiny, 0.5]
        adam_step(state, p, [zero])
        assert m.tolist() == [5e-324, -tiny / 2 * ADAM_BETA1, 2 * tiny * ADAM_BETA1, 0.5 * ADAM_BETA1]
        adam_step(state, p, [zero])
        assert state.step_count == ADAM_FLUSH_EVERY and state.first_moment is m
        assert m.tolist() == [0.0, 0.0, 2 * tiny * ADAM_BETA1 * ADAM_BETA1, 0.5 * ADAM_BETA1 * ADAM_BETA1]

    def test_validation(self):
        with pytest.raises(ValueError):
            AdamState([np.zeros(2)], lr=0.0)
        p = [np.zeros(2)]
        state = AdamState(p, lr=0.1)
        with pytest.raises(ValueError, match=r"got parameter shapes \[\(2,\)\] and gradient shapes \[\]$"):
            adam_step(state, p, [])
        with pytest.raises(ValueError, match=r"got parameter shapes \[\(2,\)\] and gradient shapes \[\(3,\)\]$"):
            adam_step(state, p, [np.zeros(3)])
        with pytest.raises(ValueError, match=r"^Adam steps one vector of shape \(2,\) with one gradient of that shape, "
                           r"got parameter shapes \[\(3,\)\] and gradient shapes \[\(3,\)\]$"):
            adam_step(state, [np.zeros(3)], [np.zeros(3)])
        assert state.step_count == 0 and p[0].tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("arrays", [[], [np.zeros(2), np.zeros(3)]], ids=["none", "two"])
    def test_state_takes_exactly_one_vector(self, arrays):
        with pytest.raises(ValueError, match=rf"^Adam takes one parameter vector, got {len(arrays)} arrays$"):
            AdamState(arrays, lr=0.1)

    @pytest.mark.parametrize("params, grads", [
        (2, 1), (1, 2), (0, 0), (2, 2),
    ], ids=["two_params", "two_grads", "none", "two_each"])
    def test_step_takes_exactly_one_vector_each(self, params, grads):
        p = np.zeros(2)
        state = AdamState([p], lr=0.1)
        with pytest.raises(ValueError, match=r"^Adam steps one vector of shape \(2,\) with one gradient"):
            adam_step(state, [p] * params, [np.ones(2)] * grads)
        assert state.step_count == 0 and p.tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), -float("inf"), 0.0, -0.1],
                             ids=["nan", "inf", "-inf", "zero", "negative"])
    def test_bad_lr_named(self, lr):
        # a NaN rate would otherwise pass `lr <= 0` and train NaN weights
        with pytest.raises(ValueError, match=rf"^lr must be a finite positive number, got {re.escape(repr(lr))}$"):
            AdamState([np.zeros(2)], lr=lr)

    def test_mismatch_names_the_shapes(self):
        state = AdamState([np.zeros(2)], lr=0.1)
        with pytest.raises(ValueError, match=r"parameter shapes \[\(2,\)\] and gradient shapes \[\(3,\)\]$"):
            adam_step(state, [np.zeros(2)], [np.zeros(3)])


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

class TestCheckpoints:
    def test_roundtrip_is_exact(self, tmp_path):
        net = Mlp([5, 7, 3], ["relu", "sigmoid"], rng=np.random.default_rng(21))
        path = tmp_path / "net.json"
        path.write_text(json.dumps(mlp_to_dict(net)))
        loaded = Mlp([5, 7, 3], ["relu", "sigmoid"], rng=np.random.default_rng(22))
        load_params(loaded, json.loads(path.read_text()))
        assert loaded.flat.tobytes() == net.flat.tobytes()
        for a, b in zip(loaded.params(), net.params()):
            np.testing.assert_array_equal(a, b)
        x = np.random.default_rng(1).normal(size=(4, 5))
        np.testing.assert_array_equal(forward_cache(loaded, x)[0], forward_cache(net, x)[0])
        np.testing.assert_array_equal(forward(loaded, x[0]), forward(net, x[0]))

    def test_format_and_version_checked(self):
        net = Mlp([2, 2], ["identity"], rng=np.random.default_rng(0))
        payload = mlp_to_dict(net)
        with pytest.raises(ValueError):
            load_params(net, {**payload, "format": "something-else"})
        with pytest.raises(ValueError):
            load_params(net, {**payload, "version": 99})

    def test_inconsistent_shapes_rejected(self):
        net = Mlp([2, 3, 1], ["relu", "identity"], rng=np.random.default_rng(0))
        payload = mlp_to_dict(net)
        payload["dims"] = [2, 4, 1]
        with pytest.raises(ValueError, match="dims"):
            load_params(net, payload)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_parameter_rejected(self, value):
        net = Mlp([2, 3, 1], ["relu", "identity"], rng=np.random.default_rng(0))
        payload = mlp_to_dict(net)
        payload["biases"][0][1] = value
        with pytest.raises(ValueError, match="a weight or bias is not finite"):
            load_params(net, payload)


def _spoil(payload, how):
    """A copy of an mlp_to_dict payload for [2, 3, 1] broken one way."""
    payload = json.loads(json.dumps(payload))
    if how == "activations":
        payload["activations"] = ["tanh", "identity"]
    elif how == "extra_weight":
        # one weight too many after two valid layers; zip would drop it
        payload["weights"].append([[0.5]])
    elif how == "missing_bias":
        payload["biases"].pop()
    elif how == "weight_shape":
        payload["weights"][1] = [[0.5, 0.5]]
    elif how == "bias_shape":
        payload["biases"][0] = [0.5, 0.5, 0.5, 0.5]
    elif how == "ragged":
        payload["weights"][0][2] = [0.5]
    elif how == "last_value_nan":
        payload["biases"][-1][-1] = float("nan")
    elif how == "huge_int":
        payload["weights"][0][0][0] = 10 ** 400
    return payload


SPOILS = ["activations", "extra_weight", "missing_bias", "weight_shape", "bias_shape", "ragged",
          "last_value_nan", "huge_int"]


class TestLoadParams:
    @pytest.mark.parametrize("how", SPOILS)
    def test_refused_payload_leaves_the_network_unchanged(self, how):
        net = Mlp([2, 3, 1], ["relu", "identity"], rng=np.random.default_rng(0))
        payload = mlp_to_dict(Mlp([2, 3, 1], ["relu", "identity"], rng=np.random.default_rng(1)))
        before = net.flat.tobytes()
        with pytest.raises((ValueError, OverflowError)):
            load_params(net, _spoil(payload, how))
        assert net.flat.tobytes() == before

    @pytest.mark.parametrize("how,message", [
        ("extra_weight", "2 layers need as many weight and bias arrays, got 3 and 2"),
        ("missing_bias", "got 2 and 1"),
        ("weight_shape", r"weights\[1\] has shape \(1, 2\), the network's \(1, 3\)"),
        ("bias_shape", r"biases\[0\] has shape \(4,\), the network's \(3,\)"),
        ("activations", r"activations \['tanh', 'identity'\] do not fit"),
    ])
    def test_refusal_names_what_does_not_fit(self, how, message):
        net = Mlp([2, 3, 1], ["relu", "identity"], rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match=message):
            load_params(net, _spoil(mlp_to_dict(net), how))

    def test_writes_in_place_so_views_and_optimizer_state_stay_bound(self):
        net = Mlp([2, 3, 1], ["relu", "identity"], rng=np.random.default_rng(0))
        flat, weights = net.flat, net.weights
        source = Mlp([2, 3, 1], ["relu", "identity"], rng=np.random.default_rng(1))
        load_params(net, mlp_to_dict(source))
        assert net.flat is flat and net.weights is weights
        assert net.flat.tobytes() == source.flat.tobytes()
