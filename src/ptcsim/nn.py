"""Plain-numpy neural network layers with exact backpropagation.

Just enough machinery for desk-scale experiments: conv/linear layers whose
matrix products can be routed through the photonic hardware model, ReLU,
2x2 average pooling, flatten, softmax cross-entropy, symmetric fake
quantization with straight-through gradients, and an Adam optimizer.  No
external ML framework is involved.

Convolutions are evaluated as matrix products on the im2col unfolding, so
a conv layer's weights live as a (C_out, C_in*K*K) matrix — exactly the
2-D shape the sparsity partitioner and the hardware mapper consume.

Activations and gradients are laid out batch innermost, (C, H, W, N) in
memory, and pass between layers as (N, C, H, W) transposed views of it, so
a conv's patch matrix (C*K*K, H*W*N) is a free reshape of the unfolding.
Layers accept any memory order and give the same values for each.
"""

from __future__ import annotations

from concurrent.futures import Executor, wait
from dataclasses import dataclass

import numpy as np

from .devices import DeviceModelError


def fake_quant_symmetric(w: np.ndarray, bits: int | None) -> np.ndarray:
    """Symmetric per-tensor fake quantization for signed weights.

    Scale anchors the largest magnitude at full code, so nothing clips and
    the straight-through gradient is exactly the identity.
    """
    if bits is None:
        return w
    m = float(np.max(np.abs(w))) if w.size else 0.0
    if m == 0.0:
        return w
    scale = m / (2 ** (bits - 1) - 1)
    return np.round(w / scale) * scale


def fake_quant_unsigned(x: np.ndarray, bits: int | None) -> np.ndarray:
    """Per-tensor fake quantization for non-negative activations."""
    if bits is None:
        return x
    m = float(np.max(x)) if x.size else 0.0
    if m <= 0.0:
        return x
    scale = m / (2 ** bits - 1)
    return np.round(x / scale) * scale


def im2col(x: np.ndarray, k: int, pad: int) -> np.ndarray:
    """(N, C, H, W) -> (N, C*k*k, H*W) patch matrix for stride-1 conv.

    The image is zero-padded batch innermost, (C, H+2p, W+2p, N), and its
    k x k windows are copied once into a (C, k, k, H_out, W_out, N) array,
    returned as a transposed view.  So ``cols.transpose(1, 2, 0).reshape(
    C*k*k, H_out*W_out*N)`` -- the matrix a conv layer multiplies, columns
    in (position, sample) order -- needs no second copy.
    """
    n, c, h, w = x.shape
    xp = np.zeros((c, h + 2 * pad, w + 2 * pad, n), dtype=x.dtype)
    xp[:, pad:pad + h, pad:pad + w] = x.transpose(1, 2, 3, 0)
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(1, 2))
    six = np.ascontiguousarray(win.transpose(0, 4, 5, 1, 2, 3))
    return six.reshape(c * k * k, -1, n).transpose(2, 0, 1)


def col2im(cols: np.ndarray, x_shape: tuple, k: int, pad: int) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add patches back onto the image.

    The scatter runs in the (C*k*k, H*W, N) memory order :func:`im2col`
    returns, batch innermost, so each of its k*k shifted adds moves whole
    rows of samples at once; any other layout is copied into it first.
    Each add is clipped to the image, so the result is an (N, C, H, W)
    view of a (C, H, W, N) array with no padding to strip.
    """
    n, c, h, w = x_shape
    h_out = h + 2 * pad - k + 1
    w_out = w + 2 * pad - k + 1
    six = cols.transpose(1, 2, 0).reshape(c, k, k, h_out, w_out, n)
    dx = np.zeros((c, h, w, n), dtype=cols.dtype)
    for i in range(k):
        r0, r1 = max(0, pad - i), min(h_out, h + pad - i)
        for j in range(k):
            s0, s1 = max(0, pad - j), min(w_out, w + pad - j)
            dx[:, r0 + i - pad:r1 + i - pad, s0 + j - pad:s1 + j - pad] += \
                six[:, i, j, r0:r1, s0:s1]
    return dx.transpose(3, 0, 1, 2)


def _now(job) -> None:
    job()


@dataclass
class Param:
    name: str
    value: np.ndarray
    grad: np.ndarray


class Layer:
    """Base class; a training forward saves what backward needs in ``_cache``."""

    _cache = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray, input_grad: bool = True):
        """Fill the parameter gradients from d loss / d output and return
        d loss / d input, or None when ``input_grad`` is False."""
        raise NotImplementedError

    def params(self) -> list[Param]:
        return []

    def _saved(self):
        if self._cache is None:
            raise DeviceModelError(f"{getattr(self, 'name', type(self).__name__)}"
                                   ".backward needs a forward with train=True first")
        return self._cache


class _MatmulLayer(Layer):
    """Shared plumbing for layers realized as a 2-D weight matrix.

    ``photonic`` may be set to a callable (w2d, x2d) -> y2d to route the
    product through the hardware simulator at evaluation time; ``None``
    means exact arithmetic.  Gradients always use exact arithmetic with the
    quantized operands (straight-through).

    ``backward`` hands its weight-gradient products (``dw``, ``db``), as
    one job, to ``defer``, which by default runs it at once (see
    :meth:`Sequential.backward`).
    """

    name: str
    w: np.ndarray
    b: np.ndarray
    dw: np.ndarray
    db: np.ndarray
    w_bits: int | None
    in_bits: int | None

    def __init__(self) -> None:
        self.photonic = None
        # How many product vectors one input sample costs (im2col positions
        # for a conv, 1 for a linear); recorded on forward, read by the
        # power/latency scheduler.
        self.vectors_per_sample = 0

    def _product(self, wq: np.ndarray, x2d: np.ndarray) -> np.ndarray:
        if self.photonic is not None:
            return self.photonic(wq, x2d)
        return wq @ x2d

    def params(self) -> list[Param]:
        return [Param(f"{self.name}.w", self.w, self.dw),
                Param(f"{self.name}.b", self.b, self.db)]


class Conv2d(_MatmulLayer):
    """k x k convolution, stride 1, evaluated as one GEMM on a patch matrix.

    Forward quantizes the activations and then unfolds them:
    ``x2d = im2col(q(x))`` laid out (C_in*k*k, N*H_out*W_out), and
    ``y = q(W) @ x2d``.  Quantizing before unfolding is exact, not an
    approximation: ``fake_quant_unsigned`` scales by the tensor maximum,
    and at stride 1 every pixel lies in some window while padding only
    adds zeros, so ``max(im2col(x)) == max(x)`` whenever ``max(x) > 0``
    (both leave the input unchanged when ``max(x) <= 0``).  The patches
    are therefore the same numbers either way, at 1/k^2 of the rounding
    work.

    ``x2d`` is (C_in*k*k, H_out*W_out*N), its columns in (position,
    sample) order, and the output is the product plus bias, returned as an
    (N, C_out, H_out, W_out) view of it.  A training forward caches ``x2d``
    and ``q(W)``; backward is BLAS products on the gradient read in the
    same order as ``g2d`` (C_out, H_out*W_out*N), a free reshape of a
    batch-innermost gradient: ``dW = g2d @ x2d.T``, ``db = g2d.sum(1)``
    and ``dx = col2im(q(W).T @ g2d)``.
    """

    def __init__(self, c_in: int, c_out: int, k: int, pad: int,
                 rng: np.random.Generator, name: str,
                 w_bits: int | None = None, in_bits: int | None = None):
        super().__init__()
        self.c_in, self.c_out, self.k, self.pad = c_in, c_out, k, pad
        self.name = name
        fan_in = c_in * k * k
        limit = np.sqrt(6.0 / fan_in)
        self.w = rng.uniform(-limit, limit, size=(c_out, fan_in))
        self.b = np.zeros(c_out)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)
        self.w_bits, self.in_bits = w_bits, in_bits

    def forward(self, x, train: bool = False):
        if x.ndim != 4 or x.shape[1] != self.c_in:
            raise DeviceModelError(
                f"{self.name} expects input of shape (N, {self.c_in}, H, W), "
                f"got {x.shape}")
        n, _, h, w_img = x.shape
        h_out = h + 2 * self.pad - self.k + 1
        w_out = w_img + 2 * self.pad - self.k + 1
        if h_out < 1 or w_out < 1:
            raise DeviceModelError(
                f"{self.name} expects images of at least "
                f"{self.k - 2 * self.pad}x{self.k - 2 * self.pad} "
                f"(kernel {self.k}, pad {self.pad}), got {h}x{w_img}")
        cols = im2col(fake_quant_unsigned(x, self.in_bits), self.k, self.pad)
        wq = fake_quant_symmetric(self.w, self.w_bits)
        l_out = h_out * w_out
        self.vectors_per_sample = l_out
        x2d = cols.transpose(1, 2, 0).reshape(cols.shape[1], l_out * n)
        y2d = self._product(wq, x2d) + self.b[:, None]
        if train:
            self._cache = (x.shape, x2d, wq)
        return y2d.reshape(self.c_out, h_out, w_out, n).transpose(3, 0, 1, 2)

    def backward(self, grad, input_grad: bool = True, defer=_now):
        x_shape, x2d, wq = self._saved()
        n = x_shape[0]
        g2d = grad.transpose(1, 2, 3, 0).reshape(self.c_out, -1)

        def job():
            self.dw[...] = g2d @ x2d.T
            self.db[...] = g2d.sum(axis=1)

        defer(job)
        if not input_grad:
            return None
        dcols = (wq.T @ g2d).reshape(wq.shape[1], -1, n)
        return col2im(dcols.transpose(2, 0, 1), x_shape, self.k, self.pad)


class Linear(_MatmulLayer):
    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator,
                 name: str, w_bits: int | None = None, in_bits: int | None = None):
        super().__init__()
        self.d_in, self.d_out = d_in, d_out
        self.name = name
        limit = np.sqrt(6.0 / d_in)
        self.w = rng.uniform(-limit, limit, size=(d_out, d_in))
        self.b = np.zeros(d_out)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)
        self.w_bits, self.in_bits = w_bits, in_bits

    def forward(self, x, train: bool = False):
        if x.ndim != 2 or x.shape[1] != self.d_in:
            raise DeviceModelError(
                f"{self.name} expects input of shape (N, {self.d_in}), "
                f"got {x.shape}")
        self.vectors_per_sample = 1
        # A C-contiguous (D_in, N) operand whatever the input's memory
        # order: BLAS products on other orders can differ in the last bits.
        x2d = np.ascontiguousarray(fake_quant_unsigned(x, self.in_bits).T)
        wq = fake_quant_symmetric(self.w, self.w_bits)
        y = self._product(wq, x2d).T + self.b
        if train:
            self._cache = (x2d, wq)
        return y

    def backward(self, grad, input_grad: bool = True, defer=_now):
        x2d, wq = self._saved()

        def job():
            self.dw[...] = grad.T @ x2d.T
            self.db[...] = grad.sum(axis=0)

        defer(job)
        return (wq.T @ grad.T).T if input_grad else None


class ReLU(Layer):
    def forward(self, x, train: bool = False):
        if train:
            self._cache = x > 0
        return np.maximum(x, 0.0)

    def backward(self, grad, input_grad: bool = True):
        mask = self._saved()
        return grad * mask if input_grad else None


class AvgPool2d(Layer):
    """2x2 average pooling, stride 2 (inputs must have even H and W).
    Backward returns a batch-innermost gradient."""

    def forward(self, x, train: bool = False):
        n, c, h, w = x.shape
        if h % 2 or w % 2:
            raise DeviceModelError("AvgPool2d needs even spatial dimensions")
        if train:
            self._cache = x.shape
        # Four strided slices, summed pairwise: several times faster than a
        # two-axis mean, and the same numbers at the desk CNN's shapes.
        top = x[:, :, 0::2, 0::2] + x[:, :, 0::2, 1::2]
        bottom = x[:, :, 1::2, 0::2] + x[:, :, 1::2, 1::2]
        return (top + bottom) / 4.0

    def backward(self, grad, input_grad: bool = True):
        n, c, h, w = self._saved()
        if not input_grad:
            return None
        g = np.broadcast_to((grad.transpose(1, 2, 3, 0) / 4.0)[:, :, None, :, None],
                            (c, h // 2, 2, w // 2, 2, n))
        return g.reshape(c, h, w, n).transpose(3, 0, 1, 2)


class Flatten(Layer):
    """(N, ...) -> (N, D), a free view of a batch-innermost input."""

    def forward(self, x, train: bool = False):
        if train:
            self._cache = x.shape
        return np.moveaxis(x, 0, -1).reshape(-1, x.shape[0]).T

    def backward(self, grad, input_grad: bool = True):
        shape = self._saved()
        if not input_grad:
            return None
        g = np.ascontiguousarray(grad.T).reshape(shape[1:] + shape[:1])
        return np.moveaxis(g, -1, 0)


class Sequential:
    def __init__(self, layers: list[Layer]):
        self.layers = layers

    def forward(self, x, train: bool = False):
        for layer in self.layers:
            x = layer.forward(x, train=train)
        return x

    def backward(self, grad, pool: Executor | None = None) -> None:
        """Fill every parameter gradient from d loss / d output.  Nothing
        reads the model input's gradient, so the first layer skips it.

        With ``pool``, each conv/linear layer but the first (which has no
        input gradient to overlap with) submits its weight-gradient
        products, ``dw`` and ``db``, to it, and the calling thread goes on
        down the input-gradient chain (``q(W).T @ g``, ``col2im``, ReLU,
        pooling).  All jobs are waited for, and the first error in one is
        raised, before this returns.  A job reads only its layer's output
        gradient and the input cached by forward, which nothing writes
        before the next forward, and writes only ``dw`` and ``db``, which
        nothing reads before this returns.  The products and operands are
        the same, so the gradients equal the serial call's bit for bit.
        """
        jobs = []
        defer = _now if pool is None else (lambda job: jobs.append(pool.submit(job)))
        try:
            for i in range(len(self.layers) - 1, -1, -1):
                layer = self.layers[i]
                if i > 0 and isinstance(layer, _MatmulLayer):
                    grad = layer.backward(grad, defer=defer)
                else:
                    grad = layer.backward(grad, input_grad=i > 0)
        finally:
            wait(jobs)
        for job in jobs:
            job.result()

    def params(self) -> list[Param]:
        out: list[Param] = []
        for layer in self.layers:
            out.extend(layer.params())
        return out

    def matmul_layers(self) -> list[_MatmulLayer]:
        return [l for l in self.layers if isinstance(l, _MatmulLayer)]


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray
                          ) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient w.r.t. logits."""
    z = logits - logits.max(axis=1, keepdims=True)
    log_p = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    n = logits.shape[0]
    loss = -float(log_p[np.arange(n), labels].mean())
    grad = np.exp(log_p)
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


class Adam:
    def __init__(self, params: list[Param], lr: float = 2e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        self.params = params
        self.lr, self.betas, self.eps = lr, betas, eps
        self._m = [np.zeros_like(p.value) for p in params]
        self._v = [np.zeros_like(p.value) for p in params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        b1, b2 = self.betas
        for p, m, v in zip(self.params, self._m, self._v):
            m += (1 - b1) * (p.grad - m)
            v += (1 - b2) * (p.grad ** 2 - v)
            m_hat = m / (1 - b1 ** self._t)
            v_hat = v / (1 - b2 ** self._t)
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def build_desk_convnet(rng: np.random.Generator,
                       quant: tuple[int | None, int | None] = (8, 6)
                       ) -> tuple[Sequential, list[int]]:
    """Small CNN for 8x8 single-channel images, 10 classes.

    Returns the model and the indices (into ``model.layers``) of the layers
    that take structured sparsity masks — the interior convolutions.  The
    first conv and the final linear stay dense.
    """
    b_w, b_in = quant
    layers: list[Layer] = [
        Conv2d(1, 8, 3, 1, rng, "conv1", b_w, b_in),
        ReLU(),
        Conv2d(8, 16, 3, 1, rng, "conv2", b_w, b_in),
        ReLU(),
        AvgPool2d(),
        Conv2d(16, 16, 3, 1, rng, "conv3", b_w, b_in),
        ReLU(),
        AvgPool2d(),
        Flatten(),
        Linear(64, 10, rng, "fc", b_w, b_in),
    ]
    return Sequential(layers), [2, 5]


def build_toy_mlp(rng: np.random.Generator, d_in: int, hidden: int,
                  classes: int, quant: tuple[int | None, int | None] = (8, 6)
                  ) -> tuple[Sequential, list[int]]:
    """Two-hidden-layer MLP; only the middle layer is sparsified."""
    b_w, b_in = quant
    layers: list[Layer] = [
        Linear(d_in, hidden, rng, "fc1", b_w, b_in),
        ReLU(),
        Linear(hidden, hidden, rng, "fc2", b_w, b_in),
        ReLU(),
        Linear(hidden, classes, rng, "fc3", b_w, b_in),
    ]
    return Sequential(layers), [2]
