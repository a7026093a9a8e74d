"""Minimal dense-network engine: exact forward/backward passes in numpy.

Networks are plain stacks of affine layers with relu hidden layers and a
linear output. Everything is float64 and pure-value: a network only changes
through an explicit apply call, so target-network clones stay frozen until
they are re-copied.

A network holds its parameters in one flat array, `params`, laid out like
the body of its checkpoint file: for each layer in order, the weights
row-major (dims[i+1] x dims[i]), then the biases (dims[i+1],). `weights` and
`biases` are per-layer views into it. A gradient is a `DenseNet` too, laid
out like its net. Copying, averaging, stepping, hashing, saving and loading
a net are each one operation on that array.

Checkpoint file layout (little endian), version 1:

    bytes 0..3   magic b"DNET"
    uint32       format version (1)
    uint32       activation code (0 = relu, the only one)
    uint32       number of dims D
    int64[D]     layer dims, input first
    then `params`: float64[param_count(dims)]
"""

from __future__ import annotations

import hashlib
import os
import struct
from typing import Iterable, Optional, Sequence

import numpy as np


def param_count(dims: Sequence[int]) -> int:
    """Parameters of a net of `dims`: per layer, out x in weights and out biases."""
    return sum(o * (i + 1) for i, o in zip(dims, dims[1:]))


class DenseNet:
    """Weights (out x in) and biases per layer, as views into one flat `params`.

    A gradient is a `DenseNet` of its net's dims: `backward` writes into one
    in place, so a trainer keeps one per trained net (`zero_grads`) and
    reuses it every step; each backward of that net overwrites what the
    previous one returned.
    """

    def __init__(self, dims: Sequence[int], params: Optional[np.ndarray] = None):
        dims = tuple(int(d) for d in dims)
        if len(dims) < 2 or min(dims) < 1:
            raise ValueError(f"dims must list at least input and output sizes >= 1, got {dims}")
        size = param_count(dims)
        if params is None:
            params = np.zeros(size)
        elif not (
            isinstance(params, np.ndarray)
            and params.dtype == np.float64
            and params.shape == (size,)
            and params.flags.c_contiguous
        ):
            raise ValueError(f"params must be one C-contiguous float64 array of {size} values")
        self.dims, self.params, self.weights, self.biases = dims, params, [], []
        start = 0
        for fan_in, fan_out in zip(dims, dims[1:]):
            end = start + fan_out * fan_in
            self.weights.append(params[start:end].reshape(fan_out, fan_in))
            self.biases.append(params[end : end + fan_out])
            start = end + fan_out


def zero_grads(net: DenseNet) -> DenseNet:
    """A zero gradient per parameter of `net`, for `backward` to write into."""
    return DenseNet(net.dims)


def init_net(dims: Sequence[int], seed_or_rng) -> DenseNet:
    """Glorot-uniform weights, zero biases."""
    net = DenseNet(dims)
    rng = (
        seed_or_rng
        if isinstance(seed_or_rng, np.random.Generator)
        else np.random.default_rng(seed_or_rng)
    )
    for w in net.weights:
        fan_out, fan_in = w.shape
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w[...] = rng.uniform(-bound, bound, w.shape)
    return net


# Narrower last layers evaluate a selected-output pass densely and then gather:
# below this width one matrix product costs less than gathering weight rows
# and scattering their gradients (measured at batch 32-64, fan-in 80, 1 BLAS
# thread).
GATHER_MIN_OUTPUTS = 64


def _check_cols(cols, rows: int, width: int) -> np.ndarray:
    cols = np.asarray(cols)
    if cols.shape != (rows,) or cols.dtype.kind not in "iu":
        raise ValueError(f"cols must hold one integer output index per batch row ({rows})")
    if rows and (cols.min() < 0 or cols.max() >= width):
        raise ValueError(f"cols must lie in [0, {width})")
    return cols


def _matvec(w: np.ndarray, a: np.ndarray) -> np.ndarray:
    """w times the vector `a`, or times each row of a stack `a`.

    numpy runs a stack as one gemv call per row, the call that a single
    vector gets, so each row of the result has that vector's bits.
    """
    return np.matmul(w, a[..., None])[..., 0]


def forward(
    net: DenseNet, x: np.ndarray, cols=None, stack: bool = False
) -> tuple[np.ndarray, list]:
    """Run the network; returns (output, cache) with cache feeding backward.

    Accepts a single input vector or a (batch, in) matrix; the output matches
    the input's leading shape. A vector runs as matrix-vector products, which
    give the same bits as a one-row batch at a fraction of its call overhead
    (action selection runs one vector per agent and TS). With `stack`, each
    row of a (n, in) input runs as such a vector, so row i of the output has
    the bits of `forward(net, x[i])`: greedy evaluation advances n episodes
    with one call per layer. The cache holds each layer's input: `x`, then
    every hidden activation. With `cols`, one output index per row of a
    batch, the last layer computes only the selected outputs and the result
    is y[i] = out[i, cols[i]], shape (batch,). Training losses that read one
    output per sample use it; the dense pass is the reference.
    """
    x = np.asarray(x, dtype=float)
    vectors = stack or x.ndim == 1
    if x.shape[-1] != net.dims[0]:
        raise ValueError(f"input dim {x.shape[-1]} does not match net input {net.dims[0]}")
    cache = [x]
    a = x
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        a = _matvec(w, a) if vectors else a @ w.T
        a += b
        cache.append(np.maximum(a, 0.0, out=a))  # relu, in place
    w, b = net.weights[-1], net.biases[-1]
    if cols is not None:
        if vectors:
            raise ValueError("cols needs a batch input")
        cols = _check_cols(cols, a.shape[0], w.shape[0])
    if cols is None or w.shape[0] < GATHER_MIN_OUTPUTS:
        z = _matvec(w, a) if vectors else a @ w.T
        z += b
        if cols is not None:
            z = z[np.arange(len(cols)), cols]
    else:
        z = np.einsum("ij,ij->i", a, w[cols])
        z += b[cols]
    return z, cache


def _check_dims(net: DenseNet, grads: DenseNet) -> None:
    if grads.dims != net.dims:
        raise ValueError(f"gradient dims {grads.dims} do not match the network's {net.dims}")


def backward(
    net: DenseNet,
    cache: list,
    output_gradient: np.ndarray,
    cols=None,
    grads: Optional[DenseNet] = None,
) -> tuple[DenseNet, np.ndarray]:
    """Exact reverse-mode gradients plus the gradient w.r.t. the input.

    `output_gradient` carries dL/dy per sample; parameter gradients come back
    summed over the batch, the input gradient per sample. With `cols`, as
    given to `forward`, it holds one value per row: dL/dy[i] of the selected
    output out[i, cols[i]]. The cache of a single input vector serves as a
    one-row batch.

    The parameter gradients are written into `grads`, a `DenseNet` of the
    net's dims, and `grads` itself is returned; without it a fresh
    `zero_grads(net)` is written. A trainer passes the one it keeps per net,
    so a step allocates no gradient arrays: a fresh weight gradient of
    the 256-wide joint head (164 KB) lies above glibc's mmap threshold and
    would be page-faulted in on every step.
    """
    dout = np.asarray(output_gradient, dtype=float)
    if len(cache) != len(net.weights):
        raise ValueError("cache does not match network depth")
    if grads is None:
        grads = zero_grads(net)
    else:
        _check_dims(net, grads)
    d_weights, d_biases = grads.weights, grads.biases
    if cache[0].ndim == 1:
        cache = [a.reshape(1, -1) for a in cache]
    a_in = cache[-1]
    w = net.weights[-1]
    fan_out, fan_in = w.shape
    if cols is not None:
        if dout.shape != (a_in.shape[0],):
            raise ValueError("output gradient shape mismatch")
        cols = _check_cols(cols, a_in.shape[0], fan_out)
        if fan_out < GATHER_MIN_OUTPUTS:
            dense = np.zeros((len(cols), fan_out))
            dense[np.arange(len(cols)), cols] = dout
            dout, cols = dense, None
    if cols is None:
        single = dout.ndim == 1
        dz = dout.reshape(1, -1) if single else dout
        if dz.shape != (a_in.shape[0], fan_out):
            raise ValueError("output gradient shape mismatch")
        np.matmul(dz.T, a_in, out=d_weights[-1])
        dz.sum(axis=0, out=d_biases[-1])
        da = dz @ w
    else:
        single = False
        # add.at sums the rows of repeated columns, in row order.
        flat = (cols[:, None] * fan_in + np.arange(fan_in)).ravel()
        d_weights[-1].fill(0.0)
        np.add.at(d_weights[-1].reshape(-1), flat, (dout[:, None] * a_in).ravel())
        d_biases[-1].fill(0.0)
        np.add.at(d_biases[-1], cols, dout)
        da = dout[:, None] * w[cols]
    for i in range(len(net.weights) - 2, -1, -1):
        # relu's derivative from its output: a > 0 holds exactly where z > 0.
        dz = da * (cache[i + 1] > 0.0)
        np.matmul(dz.T, cache[i], out=d_weights[i])
        dz.sum(axis=0, out=d_biases[i])
        da = dz @ net.weights[i]
    return grads, (da[0] if single else da)


def td_loss(pred: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """The mean squared TD error of `pred` against `targets`, and its gradient
    with respect to `pred` for `backward`; a non-finite loss raises RuntimeError."""
    err = pred - targets
    loss = float(np.mean(err * err))
    if not np.isfinite(loss):
        raise RuntimeError("non-finite training loss")
    return loss, 2.0 * err / len(err)


def _clip_scale(norm: float, max_norm: float) -> float:
    """Factor that brings `norm` down to `max_norm`; an infinite bound never clips.

    `max_norm` may be a Python integer of any size, as a config may hold one
    (`np.isfinite` rejects those above int64): `>` compares it exactly.
    """
    if not max_norm > 0.0:
        raise ValueError(f"max_norm must be > 0, got {max_norm}")
    if norm > max_norm:
        return max_norm / norm
    return 1.0


def _joint_norm(grad_sets: Iterable[DenseNet]) -> float:
    """The L2 norm of all `grad_sets` together: one dot product per layer
    array, summed in `params` order (w0, b0, w1, b1, ...) and set after set;
    one dot over the whole array would round differently."""
    total = 0.0
    for g in grad_sets:
        for w, b in zip(g.weights, g.biases):
            for arr in (w.ravel(), b):
                total += float(np.dot(arr, arr))
    return float(np.sqrt(total))


def sgd_step(
    updates: Sequence[tuple[DenseNet, DenseNet]], lr: float, max_norm: float = np.inf
) -> float:
    """One plain gradient step of several (net, gradient) pairs, jointly
    clipped to `max_norm`.

    The dims of every pair and the finiteness of the joint gradient norm are
    checked before the first write, so a rejected step leaves every net
    unchanged. A finite squared norm implies every entry is finite (nan/inf
    propagate); a norm that overflows is rejected too. The clip scale is
    folded into the step size. Returns the pre-clip norm.
    """
    for net, grads in updates:
        _check_dims(net, grads)
    norm = _joint_norm(grads for _, grads in updates)
    if not np.isfinite(norm):
        raise ValueError("non-finite gradient")
    step = lr * _clip_scale(norm, max_norm)
    for net, grads in updates:
        net.params -= step * grads.params
    return norm


def sgd_apply(net: DenseNet, grads: DenseNet, lr: float) -> None:
    """In-place plain gradient step of one net; rejects non-finite gradients."""
    sgd_step([(net, grads)], lr)


def clip_global_norm(grad_sets: Sequence[DenseNet], max_norm: float) -> float:
    """Jointly rescale gradients in place so their joint norm is <= max_norm.

    Returns the pre-clip norm, the one `sgd_step` returns for the same
    gradients. An infinite max_norm disables clipping.
    """
    norm = _joint_norm(grad_sets)
    scale = _clip_scale(norm, max_norm)
    if scale != 1.0:
        for g in grad_sets:
            g.params *= scale
    return norm


def clone(net: DenseNet) -> DenseNet:
    return DenseNet(net.dims, net.params.copy())


def copy_into_target(main: DenseNet, target: DenseNet) -> DenseNet:
    """Overwrite the target's parameters with bit-equal copies of the main's."""
    if main.dims != target.dims:
        raise ValueError("architecture mismatch between main and target")
    target.params[...] = main.params
    return target


def net_fingerprint(net: DenseNet) -> str:
    """Hash of all parameters; equal iff the parameters are bit-equal."""
    return hashlib.sha256(net.params).hexdigest()


# --------------------------------------------------------------------------
# Episode schedules
# --------------------------------------------------------------------------

def linear_schedule(start: float, end: float, length: int, episode: int) -> float:
    """Linear decay from `start` at episode 1 to `end` at episode `length`, then flat."""
    if episode < 1:
        raise ValueError("episode is 1-based")
    if length <= 1:
        return end if episode > 1 else start
    frac = min(1.0, (episode - 1) / (length - 1))
    return start + (end - start) * frac


# --------------------------------------------------------------------------
# Checkpoint format
# --------------------------------------------------------------------------

_MAGIC = b"DNET"
_VERSION = 1


def save_net(path, net: DenseNet) -> None:
    dims = net.dims
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<III", _VERSION, 0, len(dims)))
        fh.write(np.asarray(dims, dtype="<i8").tobytes())
        fh.write(net.params.astype("<f8", copy=False))


def load_net(path) -> DenseNet:
    """Read a `save_net` file; malformed content raises ValueError naming the file.

    The activation code, the dims, the exact file length and the finiteness
    of every parameter are checked before a net is built. The parameters are
    read straight into the net's `params`.
    """
    head = len(_MAGIC) + 12
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        header = fh.read(head)
        if len(header) < head or header[: len(_MAGIC)] != _MAGIC:
            raise ValueError(f"{path}: not a DNET checkpoint")
        version, act_code, ndims = struct.unpack_from("<III", header, len(_MAGIC))
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        if act_code != 0:
            raise ValueError(f"{path}: unknown activation code {act_code}")
        if not 2 <= ndims <= (size - head) // 8:
            raise ValueError(f"{path}: {ndims} layer dims do not fit a {size}-byte file")
        dims = np.frombuffer(fh.read(8 * ndims), "<i8").tolist()
        if min(dims) < 1:
            raise ValueError(f"{path}: layer dims {dims} must be >= 1")
        need = head + 8 * ndims + 8 * param_count(dims)
        if size != need:
            raise ValueError(f"{path}: holds {size} bytes, layer dims {dims} need {need}")
        params = np.empty(param_count(dims), "<f8")
        if fh.readinto(params) != params.nbytes:
            raise ValueError(f"{path}: file ended early")
        if not np.isfinite(params).all():
            raise ValueError(f"{path}: non-finite parameters")
    return DenseNet(dims, params)
