"""Minimal feedforward networks with manual backprop.

Dense layers, four activations, exact reverse-mode gradients, a
bias-corrected adaptive-moment optimizer, the Polyak update of the
agents' target networks (clones of their online networks, which no
output reads), and the plain-dict form agent checkpoints store as JSON,
which load_params checks in full before it writes the parameters into
a network of the same shape.
All math is float64 numpy; no autodiff framework.

Each function takes one form, the one its callers pass, and names any
other in a ShapeMismatch: `forward` one input vector (acting, serving),
`forward_cache` and `backward` a (batch, width) matrix (training; one
row is `x[None]`), and Adam one parameter vector. A network keeps its
parameters in one contiguous vector, carved per layer by `layer_views`.
`forward`'s matrix-vector products give the bits of the one-row batch
`forward_cache` runs (tests/test_nn.py checks every activation), and
its sigmoid ends on Python floats after np.exp. `backward` writes the
parameter gradient into a fresh vector of the same layout, which Adam
takes as a list of one, `adam_step(state, [net.flat], [grad])`: the
benchmark's flop counter sums sizes over that list. Adam and the Polyak
update work element by element, so running them once on that vector
gives the same bits as running them on each layer's arrays.

`backward` computes only what its caller reads: `params=False` skips
the parameter gradient (the actor step's pass through the critic wants
only the gradient w.r.t. the action), and `inputs=False` skips the
gradient w.r.t. the network's input (every update that steps a
network's own parameters). Each activation's derivative comes from the
forward cache, so nothing is evaluated twice. A network binds its
activations' value and chain-rule functions once, when it is built or
cloned, so no pass looks them up by name.
"""

import math

import numpy as np


class ShapeMismatch(ValueError):
    """Input or gradient shape incompatible with the network."""


def _sigmoid(z):
    # branch-free and stable on both tails: exp(-|z|) never overflows,
    # and it equals exp(-z) where z >= 0 and exp(z) where z < 0
    e = np.exp(-np.abs(z))
    if z.ndim == 1:
        # forward's vector: the same IEEE ops on Python floats, without
        # numpy's cost per call (math.exp would not give np.exp's bits)
        return np.array([(1.0 if x >= 0 else y) / (1.0 + y) for x, y in zip(z.tolist(), e.tolist())])
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


# name -> (value, chain rule): the chain rule maps the upstream gradient
# d, the pre-activation z and the cached output a to the gradient w.r.t. z
ACTIVATIONS = {
    "relu": (lambda z: np.maximum(z, 0.0), lambda d, z, a: d * (z > 0)),
    "tanh": (np.tanh, lambda d, z, a: d * (1.0 - a ** 2)),
    "sigmoid": (_sigmoid, lambda d, z, a: d * (a * (1.0 - a))),
    "identity": (lambda z: z, lambda d, z, a: d),
}


class Mlp:
    """Dense network; weights[l] has shape (dims[l+1], dims[l]).

    activations has one name per weight layer, and rng (a numpy
    Generator) draws the uniform, fan-in-bounded initial weights. All
    parameters live in one contiguous float64 vector `flat`, ordered as
    params() lists them; `weights` and `biases` are views into it, so an
    optimizer updates the whole vector in place.
    """

    def __init__(self, dims, activations, rng):
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
        for w, b in zip(self.weights, self.biases):
            bound = 1.0 / np.sqrt(w.shape[1])
            w[...] = rng.uniform(-bound, bound, w.shape)
            b[...] = rng.uniform(-bound, bound, b.shape)

    def _bind(self, flat):
        """Adopt `flat` as the parameter vector, carve the layer views and
        bind each layer's activation value and chain-rule functions."""
        self.flat = flat
        self.weights, self.biases = layer_views(self.dims, flat)
        self.value_fns, self.chain_fns = zip(*(ACTIVATIONS[name] for name in self.activations))

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


def layer_views(dims, flat):
    """(weights, biases): per-layer views into `flat`, a vector laid out
    like `Mlp.flat` (layer by layer, the (out, in) weight matrix then the
    bias), for the parameters or for a gradient backward() returns."""
    weights, biases = [], []
    offset = 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(flat[offset: offset + fan_out * fan_in].reshape(fan_out, fan_in))
        offset += fan_out * fan_in
        biases.append(flat[offset: offset + fan_out])
        offset += fan_out
    return weights, biases


def forward(net, x):
    """Apply the network to one input vector.

    Each layer is numpy's matrix-vector product np.dot(w, a), whose bits
    equal those of the one-row batch forward_cache runs.
    """
    a = np.asarray(x, dtype=float)
    if a.shape != (net.dims[0],):
        raise ShapeMismatch(f"input has shape {a.shape}, network expects a vector of width {net.dims[0]}")
    for w, b, value in zip(net.weights, net.biases, net.value_fns):
        a = np.dot(w, a)
        a += b
        a = value(a)
    return a


def forward_cache(net, x):
    """forward for a (batch, width) matrix, also returning the cache
    backward() needs: (pre-activations, layer outputs with the input first)."""
    a = np.asarray(x, dtype=float)
    if a.ndim != 2 or a.shape[1] != net.dims[0]:
        raise ShapeMismatch(f"input has shape {a.shape}, network expects a (batch, {net.dims[0]}) matrix; "
                            "one row is x[None]")
    pre, post = [], [a]
    for w, b, value in zip(net.weights, net.biases, net.value_fns):
        z = a @ w.T
        z += b
        a = value(z)
        pre.append(z)
        post.append(a)
    return a, (pre, post)


def backward(net, cache, upstream, params=True, inputs=True):
    """Exact gradients of sum(output * upstream) for a cached forward pass.

    Returns (grad, input_grad) for a (batch, output width) upstream:
    grad is a new vector laid out like net.flat (layer_views carves it
    per layer), and input_grad has the cached input's shape. params=False
    skips grad and inputs=False the input gradient; a skipped part comes
    back as None, and every part still computed has the same bits as in
    the full pass.
    """
    pre, post = cache
    up = np.asarray(upstream, dtype=float)
    if up.shape != (post[0].shape[0], net.dims[-1]):
        raise ShapeMismatch(
            f"upstream gradient shape {up.shape} does not match "
            f"output shape ({post[0].shape[0]}, {net.dims[-1]})"
        )
    grad = np.empty(net.flat.size) if params else None
    grad_w, grad_b = layer_views(net.dims, grad) if params else (None, None)
    d = up
    for layer in range(len(net.weights) - 1, -1, -1):
        dz = net.chain_fns[layer](d, pre[layer], post[layer + 1])
        if params:
            np.matmul(dz.T, post[layer], out=grad_w[layer])
            np.add.reduce(dz, axis=0, out=grad_b[layer])
        if layer > 0 or inputs:
            d = dz @ net.weights[layer]
    return grad, (d if inputs else None)


# Adam's moment decay rates and denominator guard (Kingma & Ba 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# steps between adam_step's flushes of subnormal first moments to 0: a dead
# unit's moment decays to 2**-1074 and sticks, and subnormal arithmetic is slow
ADAM_FLUSH_EVERY = 256


class AdamState:
    """First/second moments of one parameter vector plus the step counter.

    `params` is a list of that one vector, a network's `[net.flat]`.
    """

    def __init__(self, params, lr):
        if not (lr > 0 and math.isfinite(lr)):
            raise ValueError(f"lr must be a finite positive number, got {lr!r}")
        if len(params) != 1:
            raise ShapeMismatch(f"Adam takes one parameter vector, got {len(params)} arrays")
        self.lr = float(lr)
        self.step_count = 0
        self.first_moment, self.second_moment = np.zeros_like(params[0]), np.zeros_like(params[0])
        # two work vectors, so a step allocates nothing
        self.scratch = (np.empty_like(params[0]), np.empty_like(params[0]))


def adam_step(state, params, grads):
    """One bias-corrected step on params = [vector], in place, down grads = [grad].

    Callers that want ascent negate their gradients first. The update
    is p -= lr * m_hat / (sqrt(v_hat) + eps), evaluated in that order
    in the state's work vectors.
    """
    m, v = state.first_moment, state.second_moment
    if not (len(params) == len(grads) == 1 and np.shape(params[0]) == np.shape(grads[0]) == m.shape):
        shapes = [np.shape(p) for p in params], [np.shape(g) for g in grads]
        raise ShapeMismatch(f"Adam steps one vector of shape {m.shape} with one gradient of that "
                            f"shape, got parameter shapes {shapes[0]} and gradient shapes {shapes[1]}")
    (p,), (g,) = params, grads
    state.step_count += 1
    t = state.step_count
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    s1, s2 = state.scratch
    m *= b1
    m += np.multiply(1.0 - b1, g, out=s1)
    v *= b2
    np.multiply(1.0 - b2, g, out=s1)
    s1 *= g
    v += s1
    np.divide(m, 1.0 - b1 ** t, out=s1)  # m_hat
    s1 *= state.lr
    np.divide(v, 1.0 - b2 ** t, out=s2)  # v_hat
    np.sqrt(s2, out=s2)
    s2 += ADAM_EPS
    s1 /= s2
    p -= s1
    if t % ADAM_FLUSH_EVERY == 0:
        m[np.abs(m, out=s1) < np.finfo(np.float64).tiny] = 0.0


def soft_update(target, online, tau):
    """target <- tau * online + (1 - tau) * target, element-wise, in place,
    for a target made by online.clone() and tau in [0, 1]."""
    target.flat *= 1.0 - tau
    target.flat += tau * online.flat


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


def load_params(net, payload):
    """Write an mlp_to_dict payload into `net` in place, once its format,
    version, dims, activations, array count per layer and array shapes
    match net's and every value is finite; a refused payload writes nothing."""
    stamp = payload.get("format"), payload.get("version")
    if stamp != (MLP_FORMAT, MLP_VERSION):
        raise ValueError(f"not a {MLP_FORMAT} v{MLP_VERSION} payload: format and version {stamp}")
    if (payload["dims"], payload["activations"]) != (net.dims, net.activations):
        raise ValueError(f"dims {payload['dims']} and activations {payload['activations']} "
                         f"do not fit the network's {net.dims} and {net.activations}")
    arrays = payload["weights"], payload["biases"]
    if [len(a) for a in arrays] != [len(net.weights)] * 2:
        raise ValueError(f"{len(net.weights)} layers need as many weight and bias arrays, "
                         f"got {len(arrays[0])} and {len(arrays[1])}")
    flat = np.empty_like(net.flat)
    for part, views, stored in zip(("weights", "biases"), layer_views(net.dims, flat), arrays):
        for layer, (view, array) in enumerate(zip(views, stored)):
            array = np.asarray(array, dtype=float)
            if array.shape != view.shape:
                raise ValueError(f"{part}[{layer}] has shape {array.shape}, the network's {view.shape}")
            view[...] = array
    if not np.isfinite(flat).all():
        raise ValueError("a weight or bias is not finite")
    net.flat[...] = flat
