"""Minimal dense-tensor kernel with reverse-mode differentiation.

Tensors are 2-D float arrays (row vectors are 1xD). Each operation records
its parents and per-parent gradient closures, so :func:`backward` can walk
the resulting acyclic graph once in reverse topological order. Graphs are
rebuilt every forward pass; running :func:`backward` twice on the same loss
node is an error rather than a silent re-accumulation. Inside a
:func:`inference` block the same operations record no graph at all, in the
calling thread only, so a forward pass there keeps no parents or closures.
Trainable tensors are created only by :class:`ParamStore` and updated only
by :func:`sgd_step`.

Models hold what the store's ``linear``, ``layer_norm`` and
``feed_forward`` builders return and run it through :func:`linear`,
:func:`layer_norm` and :func:`feed_forward`. :func:`linear` is one
operation that adds its bias in place into the product, so a training step
holds the parameters, their gradients and one activation per layer output.
Inside :func:`load` the
stores of one thread take every parameter from a file through :func:`read`
instead of drawing it, so a loader builds its model once, from the file,
and the file must hold nothing the loader does not read. :func:`save` is
the one writer. Files are streamed: :func:`load_tensors` reads each tensor
into its own array once the file is known to hold the bytes its dims
declare, and :func:`save_tensors` writes each to the open file, so neither
holds a whole-file buffer.

A batch of B sequences is one tensor of their rows stacked in order,
sequence b in one run of rows: a row block. Row-wise operations
(:func:`linear`, :func:`layer_norm`, :func:`gelu`, :func:`add`) need no
batch axis, so one graph trains on the whole batch. Three operations read
the blocks, given as a count B of equal blocks or as a list of the
blocks' lengths, which may differ: :func:`attention` attends within each
block only, ``mean(x, blocks)`` pools each block into one row, and
:func:`add_bias` adds the first n rows of an (m, d) bias onto each block
of n rows (m = 1 for an ordinary bias). A single sequence is one block.
Each run of consecutive equal-length blocks is one group, computed at once
as it would be alone, so B equal blocks are the one-group case and blocks
of unequal length add no padding: each block gets the bytes it has alone.

Multi-head attention is one operation: :func:`attention` runs every block
and head of a group at once over a (B, H, n, d/H) view of its inputs and
has its own backward. :func:`attention_weights` and :func:`softmax` share
its softmax code.

Precision: a :class:`Tensor` keeps float32 data as float32 and makes
anything else float64, and every operation computes in the dtype of its
inputs. Every scalar the kernel multiplies by is a Python float, which
NEP 50 casts to the array's dtype, so a float32 forward stays float32; in
float64 a Python float gives the same bits as a numpy one. Training,
parameter files and the test oracles are float64. ``avfuse run`` reads its
model's parameters as float32, each :func:`cast` as it is read, and does
its inference arithmetic there.
"""

from __future__ import annotations

import math
import os
import struct
import threading
from contextlib import contextmanager
from itertools import groupby
from pathlib import Path

import numpy as np

from .errors import InvalidInput

LAYERNORM_EPS = 1e-5
_GELU_C = float(np.sqrt(2.0 / np.pi))

PARAM_MAGIC = b"AVTF"
PARAM_VERSION = 1


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fns", "_consumed")

    def __init__(self, data, requires_grad: bool = False):
        array = np.asarray(data)
        if array.dtype != np.float32:
            array = array.astype(np.float64, copy=False)
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


class _Mode(threading.local):
    no_graph = False
    source = None  # name -> array a ParamStore reads instead of drawing; None: draw
    unread = None  # the names in source that nothing has read yet


_MODE = _Mode()


@contextmanager
def inference():
    """Record no graph in this thread until the block ends.

    Operations compute the same values; their results just keep no parents
    or gradient closures, so nothing inside can be differentiated. The
    previous mode comes back on exit, also when the block raises.
    """
    previous = _MODE.no_graph
    _MODE.no_graph = True
    try:
        yield
    finally:
        _MODE.no_graph = previous


def _leaf(data: np.ndarray, requires_grad: bool) -> Tensor:
    """A tensor of ``data`` without the checks of ``Tensor()``: its maker has done them."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = requires_grad
    out._parents = out._grad_fns = ()
    out._consumed = False
    return out


def _node(data, parents, grad_fns) -> Tensor:
    out = _leaf(data, False)
    if not _MODE.no_graph and any(p.requires_grad or p._parents for p in parents):
        out._parents, out._grad_fns = tuple(parents), tuple(grad_fns)
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


def add_bias(x: Tensor, bias: Tensor, blocks=None) -> Tensor:
    """Add an (m, d) bias onto the row blocks of ``x``: a block of n rows gets the first n
    bias rows.

    ``blocks`` is as in :func:`attention`; by default ``x`` is blocks of m rows, so a
    (1, d) bias is added to every row. No block may be longer than m rows.
    """
    m, d = bias.shape
    groups = _row_groups(x.shape[0], x.shape[0] // max(m, 1) if blocks is None else blocks,
                         "add_bias")
    if d != x.shape[1] or max(n for _, _, n in groups) > m:
        raise InvalidInput(f"add_bias: bias shape {bias.shape} does not broadcast onto {x.shape}")

    def grad_bias(g):
        out = np.zeros_like(bias.data)
        for start, count, n in groups:
            out[:n] += g[start:start + count * n].reshape(count, n, d).sum(axis=0)
        return out

    return _node(_join([(x.data[start:start + count * n].reshape(count, n, d) + bias.data[:n])
                        .reshape(count * n, d) for start, count, n in groups]),
                 (x, bias), (lambda g: g, grad_bias))


def transpose(x: Tensor) -> Tensor:
    return _node(x.data.T.copy(), (x,), (lambda g: g.T,))


def _softmax_last(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis with max-subtraction stabilization."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_last_grad(s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient through :func:`_softmax_last` with output ``s``."""
    return s * (g - (g * s).sum(axis=-1, keepdims=True))


def softmax(x: Tensor) -> Tensor:
    """Row softmax with max-subtraction stabilization."""
    s = _softmax_last(x.data)
    return _node(s, (x,), (lambda g: _softmax_last_grad(s, g),))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-row normalization followed by elementwise affine."""
    if gain.shape != (1, x.shape[1]) or bias.shape != (1, x.shape[1]):
        raise InvalidInput("layer_norm: gain/bias must be (1, d)")
    mu = x.data.mean(axis=1, keepdims=True)
    var = ((x.data - mu) ** 2).mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LAYERNORM_EPS)
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
    """tanh-approximation GELU.

    The cube is two multiplications (numpy's ``** 3`` is a slow ``pow``),
    and the steps run in place on two buffers, which at the FFN widths is
    about three times faster than a fresh array per step, with equal bits.
    """
    t = x.data * x.data
    t *= x.data
    t *= 0.044715
    t += x.data
    t *= _GELU_C
    np.tanh(t, out=t)
    out = t + 1.0
    out *= x.data
    out *= 0.5

    def grad(g, x=x.data, t=t):
        # g * (0.5 * (1 + t) + 0.5 * x * (1 - t * t) * du), with
        # du = _GELU_C * (1 + 3 * 0.044715 * x * x), on three buffers in the
        # same operation order, so the bits equal the fresh-array expression.
        du = x * x
        du *= 3 * 0.044715
        du += 1.0
        du *= _GELU_C
        slope = t * t
        np.subtract(1.0, slope, out=slope)
        term = 0.5 * x
        term *= slope
        term *= du
        np.add(t, 1.0, out=slope)
        slope *= 0.5
        slope += term
        slope *= g
        return slope

    return _node(out, (x,), (grad,))


def mean(x: Tensor, blocks) -> Tensor:
    """Each row block pooled into one row, in block order: B blocks give (B, d).

    ``blocks`` is as in :func:`attention`.
    """
    groups = _row_groups(x.shape[0], blocks, "mean")
    lengths = np.repeat([n for _, _, n in groups], [count for _, count, _ in groups])

    def grad(g):
        return np.repeat(g / lengths[:, np.newaxis].astype(g.dtype), lengths, axis=0)

    return _node(_join([x.data[start:start + count * n].reshape(count, n, -1).mean(axis=1)
                        for start, count, n in groups]), (x,), (grad,))


def concat(tensors: list[Tensor]) -> Tensor:
    """Join tensors of equal row count along the columns."""
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


def _row_groups(rows: int, blocks, op: str) -> list[tuple[int, int, int]]:
    """Each run of consecutive equal-length row blocks of a tensor of ``rows`` rows, as
    (first row, block count, rows per block), in row order.

    ``blocks`` is a count of equal blocks, or a list of the blocks' lengths in row order.
    """
    if isinstance(blocks, int):
        if blocks < 1 or rows % blocks:
            raise InvalidInput(f"{op}: {rows} rows do not split into {blocks} blocks")
        return [(0, blocks, rows // blocks)]
    if not blocks or min(blocks) < 1 or sum(blocks) != rows:
        raise InvalidInput(f"{op}: blocks of {list(blocks)} rows do not tile {rows} rows")
    groups, start = [], 0
    for n, run in groupby(blocks):
        count = len(list(run))
        groups.append((start, count, n))
        start += count * n
    return groups


def _join(parts: list[np.ndarray]) -> np.ndarray:
    """The row groups' results stacked in row order; one group's as it is."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _split_heads(x: np.ndarray, heads: int, blocks: int) -> np.ndarray:
    """(B*n, H*d) as a (B, H, n, d) view: row block b, column block h."""
    rows, width = x.shape
    return x.reshape(blocks, rows // blocks, heads, width // heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_split_heads`: (B, H, n, d) back to (B*n, H*d)."""
    blocks, heads, n, d = x.shape
    return x.transpose(0, 2, 1, 3).reshape(blocks * n, heads * d)


def _scaled_scores(q: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, float]:
    """softmax(Q K^T / sqrt(d_k)) over the last two axes, and the scale."""
    c = float(1.0 / np.sqrt(q.shape[-1]))
    return _softmax_last((q @ k.swapaxes(-1, -2)) * c), c


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int = 1, blocks=1) -> Tensor:
    """Scaled dot-product attention softmax(Q K^T / sqrt(d_k)) V, per head and row block.

    The columns of q, k and v split into ``heads`` equal blocks; head h
    attends with block h of each, all heads at once, and the head outputs
    are joined in the same column order. The rows split into row blocks,
    and the queries of block b attend only to the keys and values of block
    b. ``blocks`` is a count of equal blocks, or a list of block lengths
    that the rows of q and of k both follow. Each run of consecutive
    equal-length blocks is one (B, H, n, d/H) group.
    """
    if q.shape[1] != k.shape[1]:
        raise InvalidInput(
            f"attention: query dim {q.shape} does not match key dim {k.shape}"
        )
    if k.shape[0] != v.shape[0]:
        raise InvalidInput(
            f"attention: key count {k.shape} does not match value count {v.shape}"
        )
    if heads < 1 or q.shape[1] % heads or v.shape[1] % heads:
        raise InvalidInput(
            f"attention: widths {q.shape[1]} and {v.shape[1]} do not split into {heads} heads"
        )
    groups = []  # per group: its query rows, its (B, H, n, d) q, k and v, and its weights
    for (qs, count, nq), (ks, _, nk) in zip(_row_groups(q.shape[0], blocks, "attention"),
                                            _row_groups(k.shape[0], blocks, "attention")):
        rows_q, rows_k = slice(qs, qs + count * nq), slice(ks, ks + count * nk)
        qh, kh, vh = (_split_heads(t.data[rows], heads, count)
                      for t, rows in ((q, rows_q), (k, rows_k), (v, rows_k)))
        w, c = _scaled_scores(qh, kh)
        groups.append((rows_q, qh, kh, vh, w))

    memo: list = []  # (g, its score gradients): the query and key gradients share them

    def grad_scores(g):
        if not memo or memo[0] is not g:
            memo[:] = g, [_softmax_last_grad(w, _split_heads(g[rows_q], heads, len(w))
                                             @ vh.swapaxes(-1, -2)) * c
                          for rows_q, _, _, vh, w in groups]
        return memo[1]

    return _node(
        _join([_merge_heads(w @ vh) for *_, vh, w in groups]), (q, k, v),
        (lambda g: _join([_merge_heads(s @ kh)
                          for s, (_, _, kh, _, _) in zip(grad_scores(g), groups)]),
         lambda g: _join([_merge_heads(s.swapaxes(-1, -2) @ qh)
                          for s, (_, qh, _, _, _) in zip(grad_scores(g), groups)]),
         lambda g: _join([_merge_heads(w.swapaxes(-1, -2) @ _split_heads(g[rows_q], heads, len(w)))
                          for rows_q, _, _, _, w in groups])),
    )


def attention_weights(q: Tensor, k: Tensor) -> Tensor:
    """The softmax weight matrix of single-head :func:`attention`."""
    if q.shape[1] != k.shape[1]:
        raise InvalidInput(
            f"attention: query dim {q.shape} does not match key dim {k.shape}"
        )
    w, c = _scaled_scores(q.data, k.data)

    def grad_scores(g):
        return _softmax_last_grad(w, g) * c

    return _node(w, (q, k), (lambda g: grad_scores(g) @ k.data,
                             lambda g: grad_scores(g).T @ q.data))


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
    Inside :func:`reading` each parameter is instead :func:`read` of its
    name, uncopied and checked before anything is allocated, so a corrupt
    architecture record fails at its first mis-shaped tensor.
    """

    def __init__(self, seed: int = 0):
        self.rng = np.random.default_rng(seed)
        self.params: dict[str, Tensor] = {}

    def make(self, name: str, fan_in: int, shape: tuple[int, int]) -> Tensor:
        bound = 1.0 / np.sqrt(fan_in)
        return self._add(name, shape, lambda: self.rng.uniform(-bound, bound, size=shape))

    def make_const(self, name: str, shape: tuple[int, int], fill: float) -> Tensor:
        return self._add(name, shape, lambda: np.full(shape, fill))

    def _add(self, name: str, shape: tuple[int, int], draw) -> Tensor:
        tensor = _leaf(draw() if _MODE.source is None else read(name, shape), True)
        self.params[name] = tensor
        return tensor

    def linear(self, name: str, d_in: int, d_out: int) -> tuple[Tensor, Tensor]:
        return (self.make(f"{name}.weight", d_in, (d_in, d_out)),
                self.make_const(f"{name}.bias", (1, d_out), 0.0))

    def layer_norm(self, name: str, dim: int) -> tuple[Tensor, Tensor]:
        return (self.make_const(f"{name}.gain", (1, dim), 1.0),
                self.make_const(f"{name}.bias", (1, dim), 0.0))

    def feed_forward(self, name: str, dim: int, hidden: int) -> tuple[tuple, tuple]:
        return self.linear(f"{name}.w1", dim, hidden), self.linear(f"{name}.w2", hidden, dim)


@contextmanager
def reading(state: dict[str, np.ndarray]):
    """Let every :class:`ParamStore` and :func:`read` in this thread take tensors from ``state``.

    ``state`` maps names to arrays as :func:`load_tensors` gives them. The
    block receives the set of names not read yet. The previous mode comes
    back on exit, also when the block raises.
    """
    previous = _MODE.source, _MODE.unread
    _MODE.source, _MODE.unread = state, set(state)
    try:
        yield _MODE.unread
    finally:
        _MODE.source, _MODE.unread = previous


def read(name: str, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """The tensor ``name`` of the :func:`reading` state, uncopied, now marked read.

    It must be present, of exactly ``shape`` when one is given, and finite.
    """
    array = _MODE.source.get(name)
    if array is None:
        raise InvalidInput(f"parameter file missing tensor {name}")
    if shape is not None and array.shape != shape:
        raise InvalidInput(f"{name}: shape {array.shape} does not match model {shape}")
    if not np.all(np.isfinite(array)):
        raise InvalidInput(f"{name}: tensor data must be finite")
    _MODE.unread.discard(name)
    return array


def linear(x: Tensor, layer: tuple[Tensor, Tensor]) -> Tensor:
    """``x @ weight + bias`` of a :meth:`ParamStore.linear` pair, as one operation.

    The bias is added in place into the product, the same IEEE add as
    ``add_bias(matmul(x, weight), bias)``, so only the result is kept and the
    three gradients are that pair's expressions.
    """
    weight, bias = layer
    if x.shape[1] != weight.shape[0]:
        raise InvalidInput(f"matmul: inner dims disagree, {x.shape} @ {weight.shape}")
    out = x.data @ weight.data
    rows, d = out.shape
    if bias.shape != (1, d):
        raise InvalidInput(f"add_bias: bias shape {bias.shape} does not broadcast onto {out.shape}")
    out += bias.data
    return _node(out, (x, weight, bias),
                 (lambda g: g @ weight.data.T, lambda g: x.data.T @ g,
                  lambda g: g.reshape(rows, 1, d).sum(axis=0)))


def feed_forward(x: Tensor, first: tuple[Tensor, Tensor], second: tuple[Tensor, Tensor]) -> Tensor:
    """Position-wise ``second(gelu(first(x)))`` of two :func:`linear` layers."""
    return linear(gelu(linear(x, first)), second)


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
            p.data -= learning_rate * p.grad
    return loss.item()


def save_tensors(path: str | Path, tensors: dict[str, np.ndarray | Tensor]) -> None:
    """Flat binary parameter file: magic, version, count, then per tensor
    (name length, name, rank, dims, float64 little-endian values).

    Every header is packed before the file opens; the values then go to the
    open file one tensor at a time, with no whole-file buffer.
    """
    blocks = []
    for name, value in tensors.items():
        array = np.asarray(value.data if isinstance(value, Tensor) else value)
        encoded = name.encode("utf-8")
        blocks.append((struct.pack(f"<I{len(encoded)}sI{array.ndim}I", len(encoded), encoded,
                                   array.ndim, *array.shape), array))
    with open(path, "wb") as file:
        file.write(PARAM_MAGIC + struct.pack("<II", PARAM_VERSION, len(blocks)))
        for header, array in blocks:
            file.write(header)
            file.write(np.ascontiguousarray(array, dtype="<f8"))


def cast(name: str, array: np.ndarray, dtype) -> np.ndarray:
    """``array`` as ``dtype``, uncopied if it is already.

    A finite value too large for ``dtype`` raises :class:`InvalidInput`
    naming ``name``; a value that was not finite stays so, for :func:`read`
    to reject.
    """
    with np.errstate(over="ignore"):
        out = array.astype(dtype, copy=False)
    if out is not array and not np.all(np.isfinite(out)) and np.all(np.isfinite(array)):
        raise InvalidInput(f"{name}: value {np.abs(array).max():g} overflows {out.dtype}")
    return out


def load_tensors(path: str | Path, dtype=np.float64, keep=()) -> dict[str, np.ndarray]:
    """Inverse of :func:`save_tensors`, read one tensor at a time into its own array.

    Every tensor but those named in ``keep`` is :func:`cast` to ``dtype`` as
    it is read. A truncated, padded or corrupt file raises
    :class:`InvalidInput` naming ``path``, and a tensor whose dims need more
    bytes than the file has left is rejected before anything is allocated.
    """
    with open(path, "rb") as file:
        left = os.fstat(file.fileno()).st_size

        def take(size: int, what: str, make=bytearray):
            """The next ``size`` bytes in ``make(size)``, allocated only if the file holds them."""
            nonlocal left
            buffer = make(size) if size <= left else None
            if buffer is None or file.readinto(buffer) != size:
                raise InvalidInput(f"{path}: truncated or corrupt parameter file "
                                   f"({what} needs {size} bytes, {left} left)")
            left -= size
            return buffer

        header = take(12, "the header") if left >= 12 else b""
        if header[:4] != PARAM_MAGIC:
            raise InvalidInput(f"{path}: not a parameter file (bad magic or short header)")
        version, count = struct.unpack_from("<II", header, 4)
        if version != PARAM_VERSION:
            raise InvalidInput(f"{path}: unsupported parameter format version {version}")
        out: dict[str, np.ndarray] = {}
        for index in range(count):
            (name_len,) = struct.unpack("<I", take(4, f"tensor {index}"))
            try:
                name = take(name_len, f"tensor {index}'s name").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise InvalidInput(f"{path}: truncated or corrupt parameter file ({exc})") from exc
            (rank,) = struct.unpack("<I", take(4, name))
            dims = struct.unpack(f"<{rank}I", take(4 * rank, name))
            values = take(8 * math.prod(dims), name, lambda _: np.empty(dims, "<f8"))
            out[name] = values if name in keep else cast(f"{path}: {name}", values, dtype)
    if left:
        raise InvalidInput(f"{path}: {left} unexpected bytes after the last tensor")
    return out


def save(path: str | Path, params: dict[str, Tensor], records: dict[str, np.ndarray]) -> None:
    """Write ``params``, then ``records``, refusing before any byte a value no loader accepts."""
    state = {name: t.data for name, t in params.items()} | records
    for name, array in state.items():
        if not np.all(np.isfinite(array)):
            raise InvalidInput(f"{path}: refusing to write {name}: tensor data must be finite")
    save_tensors(path, state)


def load(path: str | Path, build, **read_as):
    """``build()`` inside :func:`reading` of the file at ``path``.

    ``read_as`` (``dtype`` and ``keep``) goes to :func:`load_tensors`. The
    file must hold no tensor ``build`` did not read. A malformed file raises
    :class:`InvalidInput` naming ``path``.
    """
    state = load_tensors(path, **read_as)
    try:
        with reading(state) as unread:
            built = build()
        if unread:
            raise InvalidInput(f"unexpected tensor {', '.join(sorted(unread))}")
    except InvalidInput as exc:
        raise InvalidInput(f"{path}: {exc}") from exc
    return built
