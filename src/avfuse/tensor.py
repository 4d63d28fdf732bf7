"""Minimal dense-tensor kernel with reverse-mode differentiation.

Tensors are 2-D float arrays (row vectors are 1xD). Each operation records
its parents and per-parent gradient closures, so :func:`backward` can walk
the resulting acyclic graph once in reverse topological order. Graphs are
rebuilt every forward pass; running :func:`backward` twice on the same loss
node is an error rather than a silent re-accumulation. Trainable tensors
are created only by :class:`ParamStore` and updated only by :func:`sgd_step`.

All correctness tests run at float64.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import InvalidInput

LAYERNORM_EPS = 1e-5
_GELU_C = np.sqrt(2.0 / np.pi)

PARAM_MAGIC = b"AVTF"
PARAM_VERSION = 1


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fns", "_consumed")

    def __init__(self, data, requires_grad: bool = False, dtype=np.float64):
        array = np.asarray(data, dtype=dtype)
        if array.ndim == 0:
            array = array.reshape(1, 1)
        elif array.ndim == 1:
            array = array.reshape(1, -1)
        elif array.ndim != 2:
            raise InvalidInput(f"tensors are 2-D, got shape {array.shape}")
        if not np.all(np.isfinite(array)):
            raise InvalidInput("tensor data must be finite")
        self.data = array
        self.grad = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._grad_fns: tuple = ()
        self._consumed = False

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise InvalidInput(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _node(data, parents, grad_fns) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = False
    out._consumed = False
    tracked = any(p.requires_grad or p._parents for p in parents)
    out._parents = tuple(parents) if tracked else ()
    out._grad_fns = tuple(grad_fns) if tracked else ()
    return out


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise InvalidInput(f"{op}: shape mismatch, expected {a.shape}, got {b.shape}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise InvalidInput(f"matmul: inner dims disagree, {a.shape} @ {b.shape}")
    return _node(a.data @ b.data, (a, b),
                 (lambda g: g @ b.data.T, lambda g: a.data.T @ g))


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")
    return _node(a.data + b.data, (a, b), (lambda g: g, lambda g: g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")
    return _node(a.data - b.data, (a, b), (lambda g: g, lambda g: -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")
    return _node(a.data * b.data, (a, b),
                 (lambda g: g * b.data, lambda g: g * a.data))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _node(a.data * c, (a,), (lambda g: g * c,))


def add_bias(x: Tensor, bias: Tensor) -> Tensor:
    """Row-broadcast add of a (1, d) bias onto an (n, d) tensor."""
    if bias.shape != (1, x.shape[1]):
        raise InvalidInput(f"add_bias: bias shape {bias.shape} does not broadcast onto {x.shape}")
    return _node(x.data + bias.data, (x, bias),
                 (lambda g: g, lambda g: g.sum(axis=0, keepdims=True)))


def transpose(x: Tensor) -> Tensor:
    return _node(x.data.T.copy(), (x,), (lambda g: g.T,))


def softmax(x: Tensor) -> Tensor:
    """Row softmax with max-subtraction stabilization."""
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)

    def grad(g, s=s):
        return s * (g - (g * s).sum(axis=1, keepdims=True))

    return _node(s, (x,), (grad,))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = LAYERNORM_EPS) -> Tensor:
    """Per-row normalization followed by elementwise affine."""
    if gain.shape != (1, x.shape[1]) or bias.shape != (1, x.shape[1]):
        raise InvalidInput("layer_norm: gain/bias must be (1, d)")
    mu = x.data.mean(axis=1, keepdims=True)
    var = ((x.data - mu) ** 2).mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv_std

    def dx(g, xhat=xhat, inv_std=inv_std, gd=gain.data):
        gh = g * gd
        return (gh - gh.mean(axis=1, keepdims=True)
                - xhat * (gh * xhat).mean(axis=1, keepdims=True)) * inv_std

    return _node(
        xhat * gain.data + bias.data,
        (x, gain, bias),
        (dx,
         lambda g, xhat=xhat: (g * xhat).sum(axis=0, keepdims=True),
         lambda g: g.sum(axis=0, keepdims=True)),
    )


def gelu(x: Tensor) -> Tensor:
    """tanh-approximation GELU."""
    u = _GELU_C * (x.data + 0.044715 * x.data ** 3)
    t = np.tanh(u)
    out = 0.5 * x.data * (1.0 + t)

    def grad(g, x=x.data, t=t):
        du = _GELU_C * (1.0 + 3 * 0.044715 * x ** 2)
        return g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)

    return _node(out, (x,), (grad,))


def mean(x: Tensor, axis: int) -> Tensor:
    """Mean over one axis, keeping it as size 1."""
    if axis not in (0, 1):
        raise InvalidInput(f"mean: axis must be 0 or 1, got {axis}")
    n = x.shape[axis]
    return _node(x.data.mean(axis=axis, keepdims=True), (x,),
                 (lambda g: np.repeat(g, n, axis=axis) / n,))


def concat(tensors: list[Tensor], axis: int = 1) -> Tensor:
    if axis != 1:
        raise InvalidInput("concat supports the last axis only")
    if not tensors:
        raise InvalidInput("concat of nothing")
    rows = tensors[0].shape[0]
    if any(t.shape[0] != rows for t in tensors):
        raise InvalidInput("concat: row counts differ")
    widths = [t.shape[1] for t in tensors]
    offsets = np.cumsum([0] + widths)

    grad_fns = tuple(
        (lambda g, lo=offsets[i], hi=offsets[i + 1]: g[:, lo:hi])
        for i in range(len(tensors))
    )
    return _node(np.concatenate([t.data for t in tensors], axis=1), tuple(tensors), grad_fns)


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    if not (0 <= start < stop <= x.shape[1]):
        raise InvalidInput(f"slice_cols [{start}:{stop}] outside width {x.shape[1]}")

    def grad(g):
        out = np.zeros_like(x.data)
        out[:, start:stop] = g
        return out

    return _node(x.data[:, start:stop].copy(), (x,), (grad,))


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    if not (0 <= start < stop <= x.shape[0]):
        raise InvalidInput(f"slice_rows [{start}:{stop}] outside height {x.shape[0]}")

    def grad(g):
        out = np.zeros_like(x.data)
        out[start:stop, :] = g
        return out

    return _node(x.data[start:stop, :].copy(), (x,), (grad,))


def sum_all(x: Tensor) -> Tensor:
    return _node(np.array([[x.data.sum()]]), (x,),
                 (lambda g: np.full_like(x.data, g[0, 0]),))


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean softmax cross-entropy of (n, k) logits against integer labels."""
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    n, k = logits.shape
    if len(labels) != n:
        raise InvalidInput(f"cross_entropy: {n} rows but {len(labels)} labels")
    if labels.min() < 0 or labels.max() >= k:
        raise InvalidInput(f"cross_entropy: labels outside [0, {k})")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = float(np.mean(lse[:, 0] - shifted[np.arange(n), labels]))
    probs = np.exp(shifted - lse)

    def grad(g, probs=probs, labels=labels):
        d = probs.copy()
        d[np.arange(n), labels] -= 1.0
        return d * (g[0, 0] / n)

    return _node(np.array([[loss]]), (logits,), (grad,))


def attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Scaled dot-product attention: softmax(Q K^T / sqrt(d_k)) V."""
    if k.shape[0] != v.shape[0]:
        raise InvalidInput(
            f"attention: key count {k.shape} does not match value count {v.shape}"
        )
    return matmul(attention_weights(q, k), v)


def attention_weights(q: Tensor, k: Tensor) -> Tensor:
    """The softmax weight matrix of :func:`attention`."""
    if q.shape[1] != k.shape[1]:
        raise InvalidInput(
            f"attention: query dim {q.shape} does not match key dim {k.shape}"
        )
    return softmax(scale(matmul(q, transpose(k)), 1.0 / np.sqrt(q.shape[1])))


def backward(loss: Tensor) -> None:
    """Reverse-topological gradient accumulation from a scalar loss.

    Populates ``.grad`` on every reachable tensor with ``requires_grad``;
    tensors that are not ancestors of the loss are left untouched (their
    ``None`` grad reads as zero). Raises if called twice on the same node.
    """
    if loss.data.size != 1:
        raise InvalidInput(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss._consumed:
        raise RuntimeError("backward already ran on this graph; rebuild it to differentiate again")

    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    pending: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        out_grad = pending.pop(id(node), None)
        if out_grad is None:
            continue
        if node.requires_grad:
            node.grad = out_grad if node.grad is None else node.grad + out_grad
        for parent, grad_fn in zip(node._parents, node._grad_fns):
            contribution = grad_fn(out_grad)
            key = id(parent)
            if key in pending:
                pending[key] = pending[key] + contribution
            else:
                pending[key] = contribution
    loss._consumed = True


class ParamStore:
    """Named trainable tensors; the one place a parameter is created.

    Weights draw uniform(+-1/sqrt(fan_in)) values from one generator seeded
    at construction, in creation order; biases and gains start constant.
    """

    def __init__(self, seed: int = 0):
        self.rng = np.random.default_rng(seed)
        self.params: dict[str, Tensor] = {}

    def make(self, name: str, fan_in: int, shape) -> Tensor:
        bound = 1.0 / np.sqrt(fan_in)
        return self.make_const(name, self.rng.uniform(-bound, bound, size=shape))

    def make_const(self, name: str, value: np.ndarray) -> Tensor:
        tensor = Tensor(value, requires_grad=True)
        self.params[name] = tensor
        return tensor

    def linear(self, name: str, d_in: int, d_out: int) -> tuple[Tensor, Tensor]:
        return (self.make(f"{name}.weight", d_in, (d_in, d_out)),
                self.make_const(f"{name}.bias", np.zeros((1, d_out))))

    def layer_norm(self, name: str, dim: int) -> tuple[Tensor, Tensor]:
        return (self.make_const(f"{name}.gain", np.ones((1, dim))),
                self.make_const(f"{name}.bias", np.zeros((1, dim))))


def sgd_step(params, loss: Tensor, learning_rate: float) -> float:
    """One gradient-descent step on ``loss``; returns its value.

    Clears the grads of ``params``, back-propagates ``loss`` and moves every
    parameter the loss reaches by ``-learning_rate * grad``; the rest stay.
    """
    params = list(params)
    for p in params:
        p.grad = None
    backward(loss)
    for p in params:
        if p.grad is not None:
            p.data = p.data - learning_rate * p.grad
    return loss.item()


def finite_diff_check(
    f,
    params: list[Tensor],
    step: float = 1e-5,
    max_coords_per_param: int | None = None,
    seed: int = 0,
) -> float:
    """Worst relative error between analytic gradients and central differences.

    ``f`` must rebuild its graph from the current parameter data on every
    call and return a scalar Tensor. For large parameters a random subset of
    coordinates can be checked. The relative-error denominator is floored at
    1e-8 so near-zero gradients compare absolutely.
    """
    if step <= 0:
        raise InvalidInput("step must be positive")
    for p in params:
        p.grad = None
    backward(f())
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    rng = np.random.default_rng(seed)
    worst = 0.0
    for p, grad in zip(params, analytic):
        flat = p.data.reshape(-1)
        n = flat.size
        if max_coords_per_param is not None and n > max_coords_per_param:
            coords = rng.choice(n, size=max_coords_per_param, replace=False)
        else:
            coords = range(n)
        for idx in coords:
            original = flat[idx]
            flat[idx] = original + step
            plus = f().item()
            flat[idx] = original - step
            minus = f().item()
            flat[idx] = original
            numeric = (plus - minus) / (2.0 * step)
            reference = grad.reshape(-1)[idx]
            denom = max(abs(numeric), abs(reference), 1e-8)
            worst = max(worst, abs(numeric - reference) / denom)
    return worst


def save_tensors(path: str | Path, tensors: dict[str, np.ndarray | Tensor]) -> None:
    """Flat binary parameter file: magic, version, count, then per tensor
    (name length, name, rank, dims, float64 little-endian values)."""
    chunks = [PARAM_MAGIC, struct.pack("<II", PARAM_VERSION, len(tensors))]
    for name, value in tensors.items():
        array = value.data if isinstance(value, Tensor) else np.asarray(value)
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<I", array.ndim))
        chunks.append(struct.pack(f"<{array.ndim}I", *array.shape))
        chunks.append(array.astype("<f8").tobytes())
    Path(path).write_bytes(b"".join(chunks))


def load_tensors(path: str | Path) -> dict[str, np.ndarray]:
    """Inverse of :func:`save_tensors`; a truncated or padded file is rejected."""
    data = Path(path).read_bytes()
    if len(data) < 12 or data[:4] != PARAM_MAGIC:
        raise InvalidInput(f"{path}: not a parameter file (bad magic or short header)")
    version, count = struct.unpack_from("<II", data, 4)
    if version != PARAM_VERSION:
        raise InvalidInput(f"{path}: unsupported parameter format version {version}")
    offset = 12
    out: dict[str, np.ndarray] = {}
    try:
        for _ in range(count):
            (name_len,) = struct.unpack_from("<I", data, offset)
            offset += 4
            name = data[offset:offset + name_len].decode("utf-8")
            offset += name_len
            (rank,) = struct.unpack_from("<I", data, offset)
            offset += 4
            dims = struct.unpack_from(f"<{rank}I", data, offset)
            offset += 4 * rank
            size = int(np.prod(dims)) if rank else 1
            values = np.frombuffer(data, dtype="<f8", count=size, offset=offset)
            offset += 8 * size
            out[name] = values.reshape(dims).copy()
    except (struct.error, ValueError) as exc:  # ValueError covers UnicodeDecodeError
        raise InvalidInput(f"{path}: truncated or corrupt parameter file ({exc})") from exc
    if offset != len(data):
        raise InvalidInput(f"{path}: {len(data) - offset} unexpected bytes after the last tensor")
    return out


def load_state(params: dict[str, Tensor], state: dict[str, np.ndarray]) -> None:
    """Copy ``state`` into ``params`` in place; each must be present, same-shaped and finite."""
    for name, tensor in params.items():
        if name not in state:
            raise InvalidInput(f"parameter file missing tensor {name}")
        value = state[name]
        if value.shape != tensor.data.shape:
            raise InvalidInput(f"{name}: shape {value.shape} does not match model {tensor.data.shape}")
        if not np.all(np.isfinite(value)):
            raise InvalidInput(f"{name}: tensor data must be finite")
        tensor.data = value.astype(np.float64)
