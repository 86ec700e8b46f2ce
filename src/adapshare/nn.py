"""Minimal feedforward networks with manual backprop.

Dense layers, four activations, exact reverse-mode gradients, a
bias-corrected adaptive-moment optimizer, the Polyak update of the
agents' target networks (which no output reads), and the plain-dict
form agent checkpoints store as JSON, refusing non-finite parameters.
All math is float64 numpy; no autodiff framework.

Each network keeps all its parameters in one contiguous vector, with
per-layer views (`layer_views`) for the forward and backward passes.
`backward` writes the parameter gradient into a fresh vector with the
same layout, so an update hands that one vector to Adam. Adam and the
Polyak update work element by element, so running them once on that
vector gives the same bits as running them on each layer's arrays.

`backward` computes only what its caller reads: `params=False` skips
the parameter gradient (the actor step's pass through the critic wants
only the gradient w.r.t. the action), and `inputs=False` skips the
gradient w.r.t. the network's input (every update that steps a
network's own parameters). Each activation's derivative comes from the
forward cache, so nothing is evaluated twice.
"""

import numpy as np


class ShapeMismatch(ValueError):
    """Input or gradient shape incompatible with the network."""


class ArchitectureMismatch(ValueError):
    """Two networks expected to share an architecture do not."""


def _sigmoid(z):
    # branch-free and stable on both tails: exp(-|z|) never overflows,
    # and it equals exp(-z) where z >= 0 and exp(z) where z < 0
    e = np.exp(-np.abs(z))
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
    optimizer may update either the whole vector or each array, in place.
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
        """Adopt `flat` as the parameter vector and carve the layer views."""
        self.flat = flat
        self.weights, self.biases = layer_views(self.dims, flat)

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
        z = a @ w.T
        z += b
        a = ACTIVATIONS[name][0](z)
    return a[0] if squeeze else a


def forward_cache(net, x):
    """Like forward but also returns the cache backward() needs:
    (pre-activations, layer outputs with the input first, squeeze)."""
    a, squeeze = _as_batch(net, x)
    pre, post = [], [a]
    for w, b, name in zip(net.weights, net.biases, net.activations):
        z = a @ w.T
        z += b
        pre.append(z)
        a = ACTIVATIONS[name][0](z)
        post.append(a)
    out = a[0] if squeeze else a
    return out, (pre, post, squeeze)


def backward(net, cache, upstream, params=True, inputs=True):
    """Exact gradients of sum(output * upstream) for a cached forward pass.

    Returns (grad, input_grad): grad is a new vector laid out like
    net.flat (layer_views carves it per layer), and input_grad has the
    cached input's shape. params=False skips grad and inputs=False the
    input gradient; a skipped part comes back as None, and every part
    still computed has the same bits as in the full pass.
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
    grad = np.empty(net.flat.size) if params else None
    grad_w, grad_b = layer_views(net.dims, grad) if params else (None, None)
    d = up
    for layer in range(len(net.weights) - 1, -1, -1):
        dz = ACTIVATIONS[net.activations[layer]][1](d, pre[layer], post[layer + 1])
        if params:
            np.matmul(dz.T, post[layer], out=grad_w[layer])
            dz.sum(axis=0, out=grad_b[layer])
        if layer > 0 or inputs:
            d = dz @ net.weights[layer]
    if not inputs:
        return grad, None
    return grad, (d[0] if squeeze else d)


# Adam's moment decay rates and denominator guard (Kingma & Ba 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamState:
    """First/second moments for each array in `params` plus the step counter.

    Pass a network's `[net.flat]` to keep one moment vector per network;
    a list of per-layer arrays works the same way, array by array.
    """

    def __init__(self, params, lr):
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        self.lr = float(lr)
        self.step_count = 0
        self.first_moment = [np.zeros_like(p) for p in params]
        self.second_moment = [np.zeros_like(p) for p in params]
        # two work arrays per parameter array, so a step allocates nothing
        self.scratch = [(np.empty_like(p), np.empty_like(p)) for p in params]


def adam_step(state, params, grads):
    """One bias-corrected descent step, updating params in place.

    Callers that want ascent negate their gradients first. The update
    is p -= lr * m_hat / (sqrt(v_hat) + eps), evaluated in that order
    in the state's work arrays.
    """
    if len(params) != len(state.first_moment) or len(params) != len(grads):
        raise ShapeMismatch("params/grads do not match the optimizer state")
    state.step_count += 1
    t = state.step_count
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for p, g, m, v, (s1, s2) in zip(
        params, grads, state.first_moment, state.second_moment, state.scratch
    ):
        if p.shape != g.shape:
            raise ShapeMismatch(f"param shape {p.shape} vs grad shape {g.shape}")
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
    net._bind(np.concatenate([a.ravel() for pair in zip(weights, biases) for a in pair]))
    if not np.isfinite(net.flat).all():
        raise ValueError("a weight or bias is not finite")
    return net
