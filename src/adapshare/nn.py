"""Minimal feedforward networks with manual backprop.

Everything an actor or critic needs and nothing more: dense layers,
four activations, exact reverse-mode gradients, a bias-corrected
adaptive-moment optimizer, Polyak target updates, and a JSON
checkpoint format. All math is float64 numpy; no autodiff framework.

Each network keeps all its parameters in one contiguous vector, with
per-layer views for the forward and backward passes. Adam and the
Polyak update work element by element, so running them once on that
vector gives the same bits as running them on each layer's arrays.
"""

import json

import numpy as np


class ShapeMismatch(ValueError):
    """Input or gradient shape incompatible with the network."""


class ArchitectureMismatch(ValueError):
    """Two networks expected to share an architecture do not."""


def _sigmoid(z):
    # stable on both tails
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _sigmoid_grad(z):
    s = _sigmoid(z)
    return s * (1.0 - s)


# name -> (value, derivative w.r.t. pre-activation)
ACTIVATIONS = {
    "relu": (lambda z: np.maximum(z, 0.0), lambda z: (z > 0).astype(float)),
    "tanh": (np.tanh, lambda z: 1.0 - np.tanh(z) ** 2),
    "sigmoid": (_sigmoid, _sigmoid_grad),
    "identity": (lambda z: z, np.ones_like),
}


class Mlp:
    """Dense network; weights[l] has shape (dims[l+1], dims[l]).

    activations has one name per weight layer. All parameters live in
    one contiguous float64 vector `flat`, ordered as params() lists
    them; `weights` and `biases` are views into it, so an optimizer may
    update either the whole vector or each array, in place.
    """

    def __init__(self, dims, activations, rng=None):
        dims = [int(d) for d in dims]
        activations = list(activations)
        if len(dims) < 2:
            raise ShapeMismatch("need at least an input and an output layer")
        if any(d <= 0 for d in dims):
            raise ShapeMismatch(f"layer widths must be positive, got {dims}")
        if len(activations) != len(dims) - 1:
            raise ShapeMismatch(
                f"{len(dims) - 1} layers need {len(dims) - 1} activations, "
                f"got {len(activations)}"
            )
        for name in activations:
            if name not in ACTIVATIONS:
                raise ShapeMismatch(f"unknown activation {name!r}")
        self.dims = dims
        self.activations = activations
        self._bind(np.empty(sum(o * i + o for i, o in zip(dims[:-1], dims[1:]))))
        if rng is None:
            rng = np.random.default_rng()
        for w, b in zip(self.weights, self.biases):
            bound = 1.0 / np.sqrt(w.shape[1])
            w[...] = rng.uniform(-bound, bound, w.shape)
            b[...] = rng.uniform(-bound, bound, b.shape)

    def _bind(self, flat):
        """Adopt `flat` as the parameter vector and carve the layer views."""
        self.flat = flat
        self.weights = []
        self.biases = []
        offset = 0
        for fan_in, fan_out in zip(self.dims[:-1], self.dims[1:]):
            self.weights.append(flat[offset: offset + fan_out * fan_in].reshape(fan_out, fan_in))
            offset += fan_out * fan_in
            self.biases.append(flat[offset: offset + fan_out])
            offset += fan_out

    def params(self):
        """Parameter arrays, weights then biases per layer: views of `flat`."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def clone(self):
        dup = object.__new__(Mlp)
        dup.dims = list(self.dims)
        dup.activations = list(self.activations)
        dup._bind(self.flat.copy())
        return dup


def flatten_layers(weights, biases):
    """Per-layer weight and bias arrays (parameters, or the gradients
    backward() returns) as one vector laid out like `Mlp.flat`."""
    return np.concatenate([a.ravel() for pair in zip(weights, biases) for a in pair])


def _as_batch(net, x):
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != net.dims[0]:
        raise ShapeMismatch(
            f"input has shape {np.asarray(x).shape}, network expects width {net.dims[0]}"
        )
    return x, squeeze


def forward(net, x):
    """Apply the network. Accepts a vector or a (batch, dim) matrix."""
    a, squeeze = _as_batch(net, x)
    for w, b, name in zip(net.weights, net.biases, net.activations):
        a = ACTIVATIONS[name][0](a @ w.T + b)
    return a[0] if squeeze else a


def forward_cache(net, x):
    """Like forward but also returns the cache backward() needs."""
    a, squeeze = _as_batch(net, x)
    pre, post = [], [a]
    for w, b, name in zip(net.weights, net.biases, net.activations):
        z = a @ w.T + b
        pre.append(z)
        a = ACTIVATIONS[name][0](z)
        post.append(a)
    out = a[0] if squeeze else a
    return out, (pre, post, squeeze)


def backward(net, cache, upstream):
    """Exact gradients of sum(output * upstream) for a cached forward pass.

    Returns (weight_grads, bias_grads, input_grad) with shapes matching
    net.weights, net.biases, and the cached input.
    """
    pre, post, squeeze = cache
    up = np.asarray(upstream, dtype=float)
    if squeeze:
        up = up[None, :]
    if up.shape != (post[0].shape[0], net.dims[-1]):
        raise ShapeMismatch(
            f"upstream gradient shape {np.asarray(upstream).shape} does not match "
            f"output shape ({post[0].shape[0]}, {net.dims[-1]})"
        )
    grad_w = [None] * len(net.weights)
    grad_b = [None] * len(net.weights)
    d = up
    for layer in range(len(net.weights) - 1, -1, -1):
        dz = d * ACTIVATIONS[net.activations[layer]][1](pre[layer])
        grad_w[layer] = dz.T @ post[layer]
        grad_b[layer] = dz.sum(axis=0)
        d = dz @ net.weights[layer]
    return grad_w, grad_b, (d[0] if squeeze else d)


class AdamState:
    """First/second moments for each array in `params` plus the step counter.

    Pass a network's `[net.flat]` to keep one moment vector per network;
    a list of per-layer arrays works the same way, array by array.
    """

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.step_count = 0
        self.first_moment = [np.zeros_like(p) for p in params]
        self.second_moment = [np.zeros_like(p) for p in params]


def adam_step(state, params, grads):
    """One bias-corrected descent step, updating params in place.

    Callers that want ascent negate their gradients first.
    """
    if len(params) != len(state.first_moment) or len(params) != len(grads):
        raise ShapeMismatch("params/grads do not match the optimizer state")
    state.step_count += 1
    t = state.step_count
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        if p.shape != g.shape:
            raise ShapeMismatch(f"param shape {p.shape} vs grad shape {g.shape}")
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        m_hat = m / (1.0 - state.beta1 ** t)
        v_hat = v / (1.0 - state.beta2 ** t)
        p -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return params


def soft_update(target, online, tau):
    """target <- tau * online + (1 - tau) * target, element-wise."""
    if target.dims != online.dims or target.activations != online.activations:
        raise ArchitectureMismatch(
            f"target {target.dims}/{target.activations} vs "
            f"online {online.dims}/{online.activations}"
        )
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    target.flat *= 1.0 - tau
    target.flat += tau * online.flat
    return target


MLP_FORMAT = "adapshare-mlp"
MLP_VERSION = 1


def mlp_to_dict(net):
    return {
        "format": MLP_FORMAT,
        "version": MLP_VERSION,
        "dims": list(net.dims),
        "activations": list(net.activations),
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
    }


def mlp_from_dict(payload):
    if payload.get("format") != MLP_FORMAT:
        raise ValueError(f"not a model payload: format={payload.get('format')!r}")
    if payload.get("version") != MLP_VERSION:
        raise ValueError(f"unsupported model version {payload.get('version')!r}")
    net = object.__new__(Mlp)
    net.dims = [int(d) for d in payload["dims"]]
    net.activations = list(payload["activations"])
    weights = [np.asarray(w, dtype=float) for w in payload["weights"]]
    biases = [np.asarray(b, dtype=float) for b in payload["biases"]]
    expect = [(o, i) for i, o in zip(net.dims[:-1], net.dims[1:])]
    got = [w.shape for w in weights]
    if got != expect:
        raise ValueError(f"weight shapes {got} do not chain with dims {net.dims}")
    got = [b.shape for b in biases]
    if got != [(o,) for o, _ in expect]:
        raise ValueError(f"bias shapes {got} do not match dims {net.dims}")
    net._bind(flatten_layers(weights, biases))
    return net


def save_mlp(net, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(mlp_to_dict(net), fh)
        fh.write("\n")


def load_mlp(path):
    with open(path, encoding="utf-8") as fh:
        return mlp_from_dict(json.load(fh))
