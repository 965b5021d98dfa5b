"""Exactness checks for the numpy NN stack: quant, conv, gradients, Adam."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ptcsim.core import derive_rng
from ptcsim.devices import DeviceModelError
from ptcsim.nn import (
    Adam,
    AvgPool2d,
    Conv2d,
    Flatten,
    Linear,
    ReLU,
    Sequential,
    build_desk_convnet,
    build_toy_mlp,
    col2im,
    fake_quant_symmetric,
    fake_quant_unsigned,
    im2col,
    softmax_cross_entropy,
)


def test_fake_quant_symmetric_grid_and_anchor():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(6, 7))
    wq = fake_quant_symmetric(w, 8)
    scale = np.max(np.abs(w)) / 127
    # values land on the integer grid, the extreme value exactly at full code
    assert np.allclose(wq / scale, np.round(wq / scale), atol=1e-9)
    assert np.max(np.abs(wq)) == pytest.approx(np.max(np.abs(w)))
    assert np.max(np.abs(wq - w)) <= scale / 2 + 1e-12
    assert fake_quant_symmetric(w, None) is w
    z = np.zeros((3, 3))
    assert np.array_equal(fake_quant_symmetric(z, 4), z)
    # quantizing twice is a fixed point
    assert np.allclose(fake_quant_symmetric(wq, 8), wq, atol=1e-12)


def test_fake_quant_unsigned():
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 3, size=(4, 5))
    xq = fake_quant_unsigned(x, 6)
    scale = x.max() / 63
    assert np.allclose(xq / scale, np.round(xq / scale), atol=1e-9)
    assert xq.max() == pytest.approx(x.max())
    assert np.all(xq >= 0)
    assert fake_quant_unsigned(x, None) is x
    assert np.array_equal(fake_quant_unsigned(np.zeros(3), 6), np.zeros(3))


# ---------------------------------------------------------------------------
# im2col / conv correctness
# ---------------------------------------------------------------------------

def _reference_conv(x, w4, b, pad):
    """Direct nested-loop cross-correlation, stride 1."""
    n, c_in, h, w_img = x.shape
    c_out, _, k, _ = w4.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    h_out = h + 2 * pad - k + 1
    w_out = w_img + 2 * pad - k + 1
    y = np.zeros((n, c_out, h_out, w_out))
    for ni in range(n):
        for o in range(c_out):
            for p in range(h_out):
                for q in range(w_out):
                    y[ni, o, p, q] = (
                        np.sum(w4[o] * xp[ni, :, p:p + k, q:q + k]) + b[o])
    return y


def test_conv2d_matches_direct_correlation():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 2, 4, 5))
    conv = Conv2d(2, 3, 3, 1, rng, "c")
    conv.b = rng.normal(size=3)
    w4 = conv.w.reshape(3, 2, 3, 3)
    assert np.allclose(conv.forward(x), _reference_conv(x, w4, conv.b, 1),
                       rtol=1e-12, atol=1e-12)
    assert conv.vectors_per_sample == 4 * 5


def test_im2col_matches_loop_unfolding():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 3, 5, 4))
    for k, pad in ((1, 0), (3, 0), (3, 1), (5, 2)):
        h_out, w_out = 5 + 2 * pad - k + 1, 4 + 2 * pad - k + 1
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        ref = np.empty((2, 3, k, k, h_out, w_out))
        for i in range(k):
            for j in range(k):
                ref[:, :, i, j] = xp[:, :, i:i + h_out, j:j + w_out]
        cols = im2col(x, k, pad)
        assert cols.shape == (2, 3 * k * k, h_out * w_out)
        assert np.array_equal(cols, ref.reshape(cols.shape))
        assert np.array_equal(col2im(ref.reshape(cols.shape), x.shape, k, pad),
                              _reference_col2im(ref.reshape(cols.shape),
                                                x.shape, k, pad))


def test_col2im_is_the_adjoint_of_im2col():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 3, 5, 4))
    cols = rng.normal(size=im2col(x, 3, 1).shape)
    lhs = float(np.sum(im2col(x, 3, 1) * cols))
    rhs = float(np.sum(x * col2im(cols, x.shape, 3, 1)))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def _reference_col2im(cols, x_shape, k, pad):
    """Loop scatter-add: the adjoint of im2col, one window offset at a time."""
    n, c, h, w = x_shape
    h_out, w_out = h + 2 * pad - k + 1, w + 2 * pad - k + 1
    six = cols.reshape(n, c, k, k, h_out, w_out)
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad))
    for i in range(k):
        for j in range(k):
            xp[:, :, i:i + h_out, j:j + w_out] += six[:, :, i, j]
    return xp[:, :, pad:pad + h, pad:pad + w]


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("pad", [0, 1, 2])
def test_quantize_then_unfold_equals_unfold_then_quantize(k, pad):
    # Conv2d quantizes the image before unfolding it; at stride 1 every
    # pixel lies in some window and padding adds only zeros, so both orders
    # see the same maximum and give the same patches, bit for bit.
    x = np.random.default_rng(10 * k + pad).normal(size=(2, 3, 5, 6))
    inputs = {"non-negative": np.abs(x), "mixed": x,
              "all-negative": -np.abs(x), "zero": np.zeros_like(x)}
    for kind, xi in inputs.items():
        for bits in (6, 3):
            assert np.array_equal(
                im2col(fake_quant_unsigned(xi, bits), k, pad),
                fake_quant_unsigned(im2col(xi, k, pad), bits)), (kind, bits)


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("pad", [0, 1, 2])
def test_conv2d_gradients_match_finite_differences(k, pad):
    # Quantization off, so L = sum(r * conv(x)) is bilinear in (w, x) and
    # central differences are exact up to rounding.
    rng = np.random.default_rng(20 * k + pad)
    conv = Conv2d(2, 3, k, pad, rng, "c", None, None)
    conv.b = rng.normal(size=3)
    x = rng.normal(size=(2, 2, 5, 6))
    r = rng.normal(size=conv.forward(x, train=True).shape)
    dx = conv.backward(r)

    def loss():
        return float(np.sum(r * conv.forward(x)))

    eps = 1e-6
    for value, grad, name in ((conv.w, conv.dw, "w"), (conv.b, conv.db, "b"),
                              (x, dx, "x")):
        flat, gflat = value.reshape(-1), grad.reshape(-1)
        for idx in range(flat.size):
            keep = flat[idx]
            flat[idx] = keep + eps
            up = loss()
            flat[idx] = keep - eps
            dn = loss()
            flat[idx] = keep
            assert gflat[idx] == pytest.approx((up - dn) / (2 * eps),
                                               rel=1e-6, abs=1e-8), \
                f"{name}[{idx}]"


@pytest.mark.parametrize("k,pad", [(3, 1), (5, 2), (3, 0), (1, 0)])
def test_conv2d_backward_matches_einsum_reference(k, pad):
    # With quantization on, backward is three BLAS products on the cached
    # quantized operands; the einsum formulas below are the reference.
    rng = np.random.default_rng(30 + k + pad)
    conv = Conv2d(3, 4, k, pad, rng, "c", 8, 6)
    x = rng.normal(size=(3, 3, 6, 5))
    y = conv.forward(x, train=True)
    g = rng.normal(size=y.shape)
    dx = conv.backward(g)

    x_shape, x2d, wq = conv._cache
    assert x_shape == x.shape
    cols = fake_quant_unsigned(im2col(x, k, pad), 6)
    # x2d's columns run in (position, sample) order, the batch innermost.
    assert np.array_equal(x2d, cols.transpose(1, 2, 0).reshape(x2d.shape))
    assert np.array_equal(wq, fake_quant_symmetric(conv.w, 8))

    g3 = g.reshape(3, 4, -1)
    np.testing.assert_allclose(conv.dw, np.einsum("nol,nfl->of", g3, cols),
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(conv.db, g3.sum(axis=(0, 2)),
                               rtol=1e-12, atol=1e-12)
    dcols = np.einsum("of,nol->nfl", wq, g3)
    np.testing.assert_allclose(dx, _reference_col2im(dcols, x.shape, k, pad),
                               rtol=1e-12, atol=1e-12)


def test_photonic_hook_replaces_the_matrix_product():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 6))
    lin = Linear(6, 4, rng, "fc")
    baseline = lin.forward(x)
    calls = []

    def hook(w2d, x2d):
        calls.append((w2d.shape, x2d.shape))
        return w2d @ x2d

    lin.photonic = hook
    assert np.array_equal(lin.forward(x), baseline)
    assert calls == [((4, 6), (6, 3))]


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def _loss(model, x, labels):
    logits = model.forward(x)
    loss, _ = softmax_cross_entropy(logits, labels)
    return loss


def test_backprop_matches_finite_differences():
    rng = np.random.default_rng(5)
    model = Sequential([
        Conv2d(1, 2, 3, 1, rng, "c1", None, None),
        ReLU(),
        AvgPool2d(),
        Flatten(),
        Linear(8, 3, rng, "fc", None, None),
    ])
    x = rng.normal(size=(2, 1, 4, 4))
    labels = np.array([0, 2])

    logits = model.forward(x, train=True)
    loss, grad = softmax_cross_entropy(logits, labels)
    model.backward(grad)

    eps = 1e-6
    for p in model.params():
        flat = p.value.reshape(-1)
        gflat = p.grad.reshape(-1)
        for idx in range(flat.size):
            keep = flat[idx]
            flat[idx] = keep + eps
            up = _loss(model, x, labels)
            flat[idx] = keep - eps
            dn = _loss(model, x, labels)
            flat[idx] = keep
            numeric = (up - dn) / (2 * eps)
            assert gflat[idx] == pytest.approx(numeric, rel=1e-4, abs=1e-7), \
                f"{p.name}[{idx}]"
    assert loss > 0.0


def test_layers_reject_out_of_domain_input():
    rng = np.random.default_rng(8)
    conv = Conv2d(2, 3, 3, 0, rng, "conv")
    with pytest.raises(DeviceModelError, match="conv expects images of at "
                                               "least 3x3"):
        conv.forward(np.zeros((1, 2, 2, 2)))
    with pytest.raises(DeviceModelError,
                       match=r"conv expects input of shape \(N, 2, H, W\)"):
        conv.forward(np.zeros((1, 3, 4, 4)))
    with pytest.raises(DeviceModelError, match="conv expects input of shape"):
        conv.forward(np.zeros((2, 4, 4)))
    lin = Linear(6, 4, rng, "fc")
    with pytest.raises(DeviceModelError,
                       match=r"fc expects input of shape \(N, 6\)"):
        lin.forward(np.zeros((3, 5)))
    with pytest.raises(DeviceModelError, match="fc expects input of shape"):
        lin.forward(np.zeros(6))
    # backward needs what a training forward saves
    for layer, x in ((conv, np.zeros((1, 2, 4, 4))), (lin, np.zeros((1, 6)))):
        with pytest.raises(DeviceModelError, match="forward with train=True"):
            layer.backward(np.zeros(1))
        y = layer.forward(x)
        with pytest.raises(DeviceModelError, match="forward with train=True"):
            layer.backward(np.zeros_like(y))
        layer.forward(x, train=True)
        assert layer.backward(np.zeros_like(y)).shape == x.shape


def test_shape_layers_keep_only_training_state():
    # Backward before any forward names the layer; an evaluation forward on
    # another batch between a training forward and its backward changes
    # nothing.
    x2 = np.arange(32.0).reshape(2, 1, 4, 4) - 16.0
    for layer in (ReLU(), AvgPool2d(), Flatten()):
        name = type(layer).__name__
        with pytest.raises(DeviceModelError,
                           match=f"{name}.backward needs a forward with train=True"):
            layer.backward(np.zeros(1))
        y2 = layer.forward(x2, train=True)
        layer.forward(x2[:1])
        g = layer.backward(np.ones_like(y2))
        assert g.shape == x2.shape
        if isinstance(layer, ReLU):
            assert np.array_equal(g, (x2 > 0).astype(float))


def test_softmax_cross_entropy_oracle():
    logits = np.array([[2.0, 0.5, -1.0], [0.0, 0.0, 0.0]])
    labels = np.array([0, 2])
    loss, grad = softmax_cross_entropy(logits, labels)
    p0 = np.exp(logits[0]) / np.exp(logits[0]).sum()
    expected = -(np.log(p0[0]) + np.log(1 / 3)) / 2
    assert loss == pytest.approx(expected, rel=1e-12)
    # gradient rows sum to zero and match (p - onehot)/n
    assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-12)
    assert grad[0, 0] == pytest.approx((p0[0] - 1) / 2, rel=1e-12)
    assert grad[1, 2] == pytest.approx((1 / 3 - 1) / 2, rel=1e-12)


def test_relu_and_pool_backward():
    relu = ReLU()
    x = np.array([[-1.0, 2.0], [0.0, 3.0]])
    relu.forward(x, train=True)
    g = relu.backward(np.ones_like(x))
    assert np.array_equal(g, [[0.0, 1.0], [0.0, 1.0]])

    pool = AvgPool2d()
    x = np.arange(16.0).reshape(1, 1, 4, 4)
    y = pool.forward(x, train=True)
    assert y[0, 0, 0, 0] == pytest.approx((0 + 1 + 4 + 5) / 4)
    back = pool.backward(np.ones((1, 1, 2, 2)))
    assert np.allclose(back, 0.25)
    with pytest.raises(DeviceModelError, match="even"):
        pool.forward(np.zeros((1, 1, 3, 4)))


def test_adam_matches_reference_implementation():
    rng = np.random.default_rng(6)
    v0 = rng.normal(size=(3, 2))
    from ptcsim.nn import Param
    p = Param("w", v0.copy(), np.zeros_like(v0))
    opt = Adam([p], lr=1e-2)

    ref = v0.copy()
    m = np.zeros_like(ref)
    v = np.zeros_like(ref)
    for t in range(1, 6):
        g = rng.normal(size=ref.shape)
        p.grad[...] = g
        opt.step()
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g ** 2
        m_hat = m / (1 - 0.9 ** t)
        v_hat = v / (1 - 0.999 ** t)
        ref -= 1e-2 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert np.allclose(p.value, ref, rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------------------
# memory layout: batch innermost
# ---------------------------------------------------------------------------

def _batch_innermost(a):
    return a.transpose(1, 2, 3, 0).flags.c_contiguous


def _three_forms(x):
    """One input as a C-contiguous array, a batch-innermost view and a
    strided slice of a larger array: the same values, three memory orders."""
    inner = np.moveaxis(np.ascontiguousarray(np.moveaxis(x, 0, -1)), -1, 0)
    big = np.full(tuple(2 * d for d in x.shape), np.nan)
    strided = big[(slice(None, None, 2),) * x.ndim]
    strided[...] = x
    assert _batch_innermost(inner) if x.ndim == 4 else inner.T.flags.c_contiguous
    return {"contiguous": np.ascontiguousarray(x), "batch-innermost": inner,
            "strided": strided}


@pytest.mark.parametrize("make,shape", [
    (lambda rng: Conv2d(3, 4, 3, 1, rng, "conv", 8, 6), (5, 3, 6, 4)),
    (lambda rng: ReLU(), (5, 3, 6, 4)),
    (lambda rng: AvgPool2d(), (5, 3, 6, 4)),
    (lambda rng: Flatten(), (5, 3, 6, 4)),
    # 64 inputs: there the BLAS product's bits depend on the operand order.
    (lambda rng: Linear(64, 10, rng, "fc", 8, 6), (5, 64)),
])
def test_layers_give_the_same_values_in_every_memory_order(make, shape):
    rng = np.random.default_rng(40)
    x = rng.normal(size=shape)
    results = []
    for form, xf in _three_forms(x).items():
        layer = make(np.random.default_rng(41))
        y = layer.forward(xf, train=True)
        g = np.random.default_rng(42).normal(size=y.shape)
        dx = layer.backward(g)
        grads = [p.grad.copy() for p in layer.params()]
        results.append((y, dx, grads))
        if isinstance(layer, Conv2d):
            assert _batch_innermost(y), form
        if isinstance(layer, (Conv2d, AvgPool2d)):
            assert _batch_innermost(dx), form
    y0, dx0, grads0 = results[0]
    for y, dx, grads in results[1:]:
        assert np.array_equal(y, y0)
        assert np.array_equal(dx, dx0)
        assert all(np.array_equal(a, b) for a, b in zip(grads, grads0))


@pytest.mark.parametrize("shape", [(4, 6), (4, 3, 5), (4, 3, 2, 2)])
def test_flatten_round_trips_any_rank(shape):
    x = np.random.default_rng(43).normal(size=shape)
    flat = Flatten()
    y = flat.forward(x, train=True)
    assert np.array_equal(y, x.reshape(shape[0], -1))
    back = flat.backward(y)
    assert back.shape == shape and np.array_equal(back, x)


def _reference_step(model, x, labels):
    """The desk CNN's training forward and backward on C-contiguous NCHW
    arrays: loop unfolding in (sample, position) order, einsum gradients.
    Returns the per-layer outputs and the parameter gradients."""
    outs, caches = [], []
    h = x
    for layer in model.layers:
        if isinstance(layer, Conv2d):
            n, c, hh, ww = h.shape
            k, pad = layer.k, layer.pad
            ho, wo = hh + 2 * pad - k + 1, ww + 2 * pad - k + 1
            xp = np.pad(fake_quant_unsigned(h, layer.in_bits),
                        ((0, 0), (0, 0), (pad, pad), (pad, pad)))
            cols = np.empty((n, c, k, k, ho, wo))
            for i in range(k):
                for j in range(k):
                    cols[:, :, i, j] = xp[:, :, i:i + ho, j:j + wo]
            cols = cols.reshape(n, c * k * k, ho * wo)
            wq = fake_quant_symmetric(layer.w, layer.w_bits)
            x2d = cols.transpose(1, 0, 2).reshape(c * k * k, n * ho * wo)
            y = (wq @ x2d + layer.b[:, None]).reshape(-1, n, ho, wo)
            caches.append((h.shape, cols, wq))
            h = np.ascontiguousarray(y.transpose(1, 0, 2, 3))
        elif isinstance(layer, ReLU):
            caches.append(h > 0)
            h = np.maximum(h, 0.0)
        elif isinstance(layer, AvgPool2d):
            caches.append(h.shape)
            h = (h[:, :, 0::2, 0::2] + h[:, :, 0::2, 1::2]
                 + (h[:, :, 1::2, 0::2] + h[:, :, 1::2, 1::2])) / 4.0
        elif isinstance(layer, Flatten):
            caches.append(h.shape)
            h = h.reshape(h.shape[0], -1)
        else:
            xq = fake_quant_unsigned(h, layer.in_bits)
            wq = fake_quant_symmetric(layer.w, layer.w_bits)
            caches.append((xq, wq))
            h = (wq @ np.ascontiguousarray(xq.T)).T + layer.b
        outs.append(h)
    _, g = softmax_cross_entropy(h, labels)
    grads = {}
    for layer, cache in zip(model.layers[::-1], caches[::-1]):
        if isinstance(layer, Conv2d):
            x_shape, cols, wq = cache
            g3 = g.reshape(x_shape[0], layer.c_out, -1)
            grads[layer.name] = (np.einsum("nol,nfl->of", g3, cols),
                                 g3.sum(axis=(0, 2)))
            g = _reference_col2im(np.einsum("of,nol->nfl", wq, g3), x_shape,
                                  layer.k, layer.pad)
        elif isinstance(layer, ReLU):
            g = g * cache
        elif isinstance(layer, AvgPool2d):
            g = np.repeat(np.repeat(g / 4.0, 2, axis=2), 2, axis=3)
        elif isinstance(layer, Flatten):
            g = g.reshape(cache)
        else:
            xq, wq = cache
            grads[layer.name] = (g.T @ xq, g.sum(axis=0))
            g = g @ wq
    return outs, grads


def test_desk_cnn_step_matches_the_nchw_reference():
    model, _ = build_desk_convnet(derive_rng(0, 10))
    rng = np.random.default_rng(44)
    x = rng.uniform(0, 1, size=(6, 1, 8, 8))
    labels = rng.integers(0, 10, size=6)
    ref_outs, ref_grads = _reference_step(model, x, labels)

    h = x
    for layer, ref in zip(model.layers, ref_outs):
        h = layer.forward(h, train=True)
        assert np.array_equal(h, ref), type(layer).__name__
        if isinstance(layer, Conv2d):
            assert _batch_innermost(h)
    _, g = softmax_cross_entropy(h, labels)
    model.backward(g)
    for layer in model.matmul_layers():
        dw, db = ref_grads[layer.name]
        np.testing.assert_allclose(layer.dw, dw, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(layer.db, db, rtol=1e-12, atol=1e-12)


def _spy_backward(model) -> list:
    """Record every layer's returned input gradient, in call order."""
    seen = []
    for layer in model.layers:
        def spy(*args, _backward=layer.backward, **kwargs):
            seen.append(_backward(*args, **kwargs))
            return seen[-1]
        layer.backward = spy
    return seen


def _desk_step():
    model, _ = build_desk_convnet(derive_rng(0, 10))
    x = np.random.default_rng(45).uniform(0, 1, size=(7, 1, 8, 8))
    return model, x, np.arange(7) % 10


def _mlp_step():
    model, _ = build_toy_mlp(derive_rng(1), 12, 16, 3)
    x = np.random.default_rng(46).normal(size=(9, 12))
    return model, x, np.arange(9) % 3


@pytest.mark.parametrize("make", [_desk_step, _mlp_step])
def test_split_backward_matches_the_serial_call(make):
    model, x, labels = make()
    _, g = softmax_cross_entropy(model.forward(x, train=True), labels)
    seen = _spy_backward(model)
    model.backward(g)
    layers = model.matmul_layers()
    serial = [(l.dw.copy(), l.db.copy()) for l in layers]
    serial_grads = list(seen)
    assert serial_grads[-1] is None and len(serial_grads) == len(model.layers)
    # One worker, as train uses, and more workers than cores, jobs then
    # running side by side, with thread switches forced often.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 4, 1, 4):
            seen.clear()
            for layer in layers:
                layer.dw[...] = np.nan
                layer.db[...] = np.nan
            with ThreadPoolExecutor(max_workers=workers) as pool:
                model.backward(g, pool)
            for layer, (dw, db) in zip(layers, serial):
                assert np.array_equal(layer.dw, dw), (workers, layer.name)
                assert np.array_equal(layer.db, db), (workers, layer.name)
            assert len(seen) == len(serial_grads) and seen[-1] is None
            for got, want in zip(seen[:-1], serial_grads[:-1]):
                assert np.array_equal(got, want)
    finally:
        sys.setswitchinterval(interval)


def test_split_backward_raises_an_error_from_a_deferred_job():
    model, x, labels = _desk_step()
    _, g = softmax_cross_entropy(model.forward(x, train=True), labels)
    model.backward(g)
    conv3 = model.layers[5]
    want = conv3.dw.copy()
    conv3.dw[...] = np.nan
    fc = model.layers[-1]
    fc.dw = np.zeros((1, 3))          # the fc job cannot broadcast into it
    with ThreadPoolExecutor(max_workers=1) as pool:
        with pytest.raises(ValueError, match="broadcast"):
            model.backward(g, pool)
    # the raise waited for the jobs after the failing one
    assert np.array_equal(conv3.dw, want)


# ---------------------------------------------------------------------------
# model builders
# ---------------------------------------------------------------------------

def test_desk_convnet_shapes_and_sparse_layers():
    model, sparse = build_desk_convnet(derive_rng(0, 10))
    assert sparse == [2, 5]
    x = np.random.default_rng(0).uniform(0, 1, size=(4, 1, 8, 8))
    assert model.forward(x).shape == (4, 10)
    names = [l.name for l in model.matmul_layers()]
    assert names == ["conv1", "conv2", "conv3", "fc"]
    # interior convs (the sparsified ones) have 2-D weights shaped for chunks
    assert model.layers[2].w.shape == (16, 72)
    assert model.layers[5].w.shape == (16, 144)
    # identical seed path -> identical initialization
    again, _ = build_desk_convnet(derive_rng(0, 10))
    assert np.array_equal(model.layers[0].w, again.layers[0].w)


def test_toy_mlp_shapes():
    model, sparse = build_toy_mlp(derive_rng(1), 12, 16, 3)
    assert sparse == [2]
    x = np.random.default_rng(1).normal(size=(5, 12))
    assert model.forward(x).shape == (5, 3)
