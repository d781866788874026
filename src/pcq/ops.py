"""Differentiable array operations: each returns a Tensor wired with a backward closure.

Layout conventions: feature maps are [C, H, W], embedding sequences [T, D],
vectors [N]. Convolutions use cross-correlation semantics. All ops follow the
dtype of their inputs, so the same graph runs in float32 for training and in
float64 for finite-difference verification.

How the convolutions are computed:

- Dense ``conv2d`` (``groups == 1``) and ``conv1d`` are one GEMM each way
  (im2col): a transient column matrix [C_in*kh*kw, Ho*Wo] is copied out of the
  (padded) input and multiplied by the flattened kernel. Backward rebuilds the
  columns from the input the closure already holds, does one GEMM for the
  weight gradient and one for the column gradient, and scatters the latter
  back with one strided add per kernel tap (col2im). Column matrices are never
  kept on the graph. A 1x1 stride-1 unpadded conv multiplies the input
  reshaped to [C_in, H*W] directly.
- Depthwise ``conv2d`` (``groups == C_in == C_out``) has no GEMM to form; it
  loops over the kernel taps, one multiply-add per tap, over blocks of
  channels small enough (``DEPTHWISE_BLOCK_BYTES``) that the tap temporaries
  stay in cache. im2col would take kh*kw times the map's memory. Depthwise
  needs stride 1, so its backward reuses the forward tap loop: the input
  gradient is that loop run over ``gy`` in a zero border with the kernel
  flipped, written straight into a fresh [C, H, W] buffer, and the weight
  gradient's per-tap contractions run in the same channel-block pass.
- Other groupings are not supported.

Backward closures hand the gradients they allocate themselves to their
inputs without a copy (``accumulate_grad(g, owned=True)``, see
:mod:`pcq.tensor`); a gradient that is ``gy`` or a view of it is copied.
"""

from functools import lru_cache

import numpy as np

from .errors import InvalidInput, ShapeError
from .tensor import Tensor, make_node

# target size of one channel block of the depthwise tap loop: about one
# channel plane of a 300x200 float32 map, well inside a core's L2 cache
DEPTHWISE_BLOCK_BYTES = 256 * 1024


# ---------------------------------------------------------------------------
# convolutions


def _windows2d(xp: np.ndarray, kh: int, kw: int, ho: int, wo: int, stride: int, dilation: int):
    """[C, kh, kw, Ho, Wo] view of every kernel tap's strided window of a padded map.

    The windows of different taps overlap, so write through one tap at a time.
    """
    sc, sh, sw = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp, shape=(xp.shape[0], kh, kw, ho, wo),
        strides=(sc, dilation * sh, dilation * sw, stride * sh, stride * sw))


def conv2d(x: Tensor, w: Tensor, stride: int = 1, padding: int = 0,
           dilation: int = 1, groups: int = 1) -> Tensor:
    """2-D cross-correlation over a [C_in, H, W] map with a [C_out, C_in/groups, kh, kw] kernel.

    ``groups`` must be 1 (dense) or C_in with C_out == C_in (depthwise, stride 1 only).
    """
    if x.ndim != 3 or w.ndim != 4:
        raise ShapeError(f"conv2d expects rank-3 input and rank-4 weight, got {x.shape} and {w.shape}")
    c_in, h, wd = x.shape
    c_out, c_in_g, kh, kw = w.shape
    if groups == 1:
        if c_in_g != c_in:
            raise ShapeError(f"weight expects {c_in_g} input channels, got {c_in}")
    elif not (groups == c_in == c_out and c_in_g == 1):
        raise ShapeError(f"conv2d supports groups=1 or depthwise (groups == C_in == C_out), "
                         f"got groups={groups} for {c_in}->{c_out} channels")
    elif stride != 1:
        raise ShapeError(f"depthwise conv2d supports stride 1 only, got stride {stride}")
    ho = (h + 2 * padding - dilation * (kh - 1) - 1) // stride + 1
    wo = (wd + 2 * padding - dilation * (kw - 1) - 1) // stride + 1
    if ho < 1 or wo < 1:
        raise ShapeError(f"conv2d output would be empty for input {x.shape}")
    xp = np.pad(x.data, ((0, 0), (padding, padding), (padding, padding))) if padding else x.data
    if groups == 1:
        return _dense_conv2d(x, w, xp, ho, wo, stride, padding, dilation)
    return _depthwise_conv2d(x, w, xp, ho, wo, padding, dilation)


def _dense_conv2d(x, w, xp, ho, wo, stride, padding, dilation):
    c_in, h, wd = x.shape
    c_out, _, kh, kw = w.shape
    pointwise = kh == kw == 1 and stride == 1 and padding == 0

    def columns():
        if pointwise:
            return x.data.reshape(c_in, h * wd)
        win = _windows2d(xp, kh, kw, ho, wo, stride, dilation)
        return np.ascontiguousarray(win).reshape(c_in * kh * kw, ho * wo)

    w2 = w.data.reshape(c_out, -1)
    out = (w2 @ columns()).reshape(c_out, ho, wo)

    def backward(gy):
        gy2 = gy.reshape(c_out, ho * wo)
        if w.requires_grad:
            w.accumulate_grad((gy2 @ columns().T).reshape(w.shape), owned=True)
        if x.requires_grad:
            gcols = w2.T @ gy2
            if pointwise:
                x.accumulate_grad(gcols.reshape(x.shape), owned=True)
                return
            gcols = gcols.reshape(c_in, kh, kw, ho, wo)
            gxp = np.zeros_like(xp)
            gwin = _windows2d(gxp, kh, kw, ho, wo, stride, dilation)
            for di in range(kh):
                for dj in range(kw):
                    gwin[:, di, dj] += gcols[:, di, dj]
            x.accumulate_grad(gxp[:, padding: padding + h, padding: padding + wd])

    return make_node(out, (x, w), backward)


def _channel_blocks(c: int, plane_bytes: int):
    """Contiguous channel slices of about DEPTHWISE_BLOCK_BYTES each."""
    step = max(1, DEPTHWISE_BLOCK_BYTES // plane_bytes)
    return [slice(c0, min(c0 + step, c)) for c0 in range(0, c, step)]


def _depthwise_taps(win, wt, blk, ob, tb):
    """ob = sum over taps t of win[blk, t] * wt[blk, t], one multiply-add per tap."""
    kw = win.shape[2]
    for t in range(wt.shape[1]):
        di, dj = divmod(t, kw)
        if t == 0:
            np.multiply(win[blk, di, dj], wt[blk, t], out=ob)
        else:
            ob += np.multiply(win[blk, di, dj], wt[blk, t], out=tb)


def _bordered(gy: np.ndarray, top: int, left: int, height: int, width: int) -> np.ndarray:
    """gy placed at (top, left) in a zero [C, height, width] map; a negative offset crops gy."""
    (r0, r1, sr), (c0, c1, sc) = _span(top, gy.shape[1], height), _span(left, gy.shape[2], width)
    out = np.empty((gy.shape[0], height, width), dtype=gy.dtype)
    out[:, :r0] = 0
    out[:, r1:] = 0
    out[:, r0:r1, :c0] = 0
    out[:, r0:r1, c1:] = 0
    out[:, r0:r1, c0:c1] = gy[:, sr: sr + r1 - r0, sc: sc + c1 - c0]
    return out


def _span(offset: int, n: int, size: int):
    """(first, end) rows written and the first row read when n rows land at offset in size rows."""
    dst, src = max(offset, 0), max(-offset, 0)
    return dst, dst + min(n - src, size - dst), src


def _depthwise_conv2d(x, w, xp, ho, wo, padding, dilation):
    c, h, wd = x.shape
    _, _, kh, kw = w.shape
    wt = w.data[:, 0].reshape(c, kh * kw, 1, 1)   # per-channel tap coefficients
    blocks = _channel_blocks(c, max(ho * wo, h * wd) * x.dtype.itemsize)
    win = _windows2d(xp, kh, kw, ho, wo, 1, dilation)

    out = np.empty((c, ho, wo), dtype=x.dtype)
    tmp = np.empty((blocks[0].stop, ho, wo), dtype=x.dtype)
    for blk in blocks:
        _depthwise_taps(win, wt, blk, out[blk], tmp[: blk.stop - blk.start])

    def backward(gy):
        # the input gradient is the forward tap loop over gy in a zero border,
        # with the kernel flipped (taps in reverse order)
        if x.requires_grad:
            gyb = _bordered(gy, dilation * (kh - 1) - padding, dilation * (kw - 1) - padding,
                            h + dilation * (kh - 1), wd + dilation * (kw - 1))
            gwin = _windows2d(gyb, kh, kw, h, wd, 1, dilation)
            gx = np.empty_like(x.data)
            tmp = np.empty((blocks[0].stop, h, wd), dtype=x.dtype)
        if w.requires_grad:
            gw = np.empty((c, kh * kw), dtype=w.dtype)
        for blk in blocks:
            if x.requires_grad:
                _depthwise_taps(gwin, wt[:, ::-1], blk, gx[blk], tmp[: blk.stop - blk.start])
            if w.requires_grad:
                for t in range(kh * kw):
                    gw[blk, t] = np.einsum("chw,chw->c", gy[blk], win[blk, t // kw, t % kw])
        if x.requires_grad:
            x.accumulate_grad(gx, owned=True)
        if w.requires_grad:
            w.accumulate_grad(gw.reshape(w.shape), owned=True)

    return make_node(out, (x, w), backward)


def depthwise_conv3x3(x: Tensor, w: Tensor, dilation: int = 1) -> Tensor:
    """Per-channel 3x3 conv (groups == C), padding chosen to preserve H and W."""
    return conv2d(x, w, stride=1, padding=dilation, dilation=dilation, groups=x.shape[0])


def conv1d(x: Tensor, w: Tensor, stride: int = 1) -> Tensor:
    """1-D cross-correlation over a [C_in, L] sequence with a [C_out, C_in, k] kernel."""
    if x.ndim != 2 or w.ndim != 3:
        raise ShapeError(f"conv1d expects rank-2 input and rank-3 weight, got {x.shape} and {w.shape}")
    c_in, length = x.shape
    c_out, c_in_w, k = w.shape
    if c_in_w != c_in:
        raise ShapeError(f"weight expects {c_in_w} input channels, got {c_in}")
    lo = (length - k) // stride + 1
    if lo < 1:
        raise ShapeError(f"conv1d output would be empty for input length {length}")

    def columns():
        sc, sl = x.data.strides
        win = np.lib.stride_tricks.as_strided(x.data, shape=(c_in, k, lo),
                                              strides=(sc, sl, stride * sl), writeable=False)
        return np.ascontiguousarray(win).reshape(c_in * k, lo)

    w2 = w.data.reshape(c_out, c_in * k)
    out = w2 @ columns()

    def backward(gy):
        if w.requires_grad:
            w.accumulate_grad((gy @ columns().T).reshape(w.shape))
        if x.requires_grad:
            gcols = (w2.T @ gy).reshape(c_in, k, lo)
            gx = np.zeros_like(x.data)
            for t in range(k):
                gx[:, t: t + (lo - 1) * stride + 1: stride] += gcols[:, t]
            x.accumulate_grad(gx)

    return make_node(out, (x, w), backward)


# ---------------------------------------------------------------------------
# resampling and pooling


@lru_cache(maxsize=64)
def _interp_matrix(in_size: int, out_size: int, dtype: np.dtype) -> np.ndarray:
    """Read-only [out, in] linear-interpolation matrix with half-pixel centres (align_corners=False)."""
    src = (np.arange(out_size) + 0.5) * in_size / out_size - 0.5
    src = np.clip(src, 0.0, in_size - 1)
    lo = np.floor(src).astype(np.int64)
    hi = np.minimum(lo + 1, in_size - 1)
    frac = src - lo
    m = np.zeros((out_size, in_size))
    rows = np.arange(out_size)
    np.add.at(m, (rows, lo), 1.0 - frac)
    np.add.at(m, (rows, hi), frac)
    m = m.astype(dtype)
    m.flags.writeable = False
    return m


def bilinear_resize(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Bilinear interpolation of a [C, H, W] map to [C, out_h, out_w] (align_corners=False)."""
    if x.ndim != 3:
        raise ShapeError(f"bilinear_resize expects a rank-3 map, got {x.shape}")
    if out_h < 1 or out_w < 1:
        raise ShapeError("target size must be >= 1")
    _, h, w = x.shape
    rm = _interp_matrix(h, out_h, x.dtype)
    cm = _interp_matrix(w, out_w, x.dtype)
    out = rm @ x.data @ cm.T

    def backward(gy):
        if x.requires_grad:
            x.accumulate_grad(rm.T @ gy @ cm)

    return make_node(out, (x,), backward)


@lru_cache(maxsize=64)
def _pool_matrix(in_size: int, out_size: int):
    """Row-stochastic bin-average matrix [out, in] with floor/ceil bin edges."""
    m = np.zeros((out_size, in_size))
    for i in range(out_size):
        lo = (i * in_size) // out_size
        hi = -((-(i + 1) * in_size) // out_size)  # ceil
        m[i, lo:hi] = 1.0 / (hi - lo)
    return m


def adaptive_avg_pool(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Average pooling of a [C, H, W] map onto a fixed [out_h, out_w] grid of integer bins."""
    if x.ndim != 3:
        raise ShapeError(f"adaptive_avg_pool expects a rank-3 map, got {x.shape}")
    _, h, w = x.shape
    if out_h > h or out_w > w:
        raise ShapeError(f"adaptive_avg_pool cannot upsample {h}x{w} to {out_h}x{out_w}")
    rm = _pool_matrix(h, out_h).astype(x.dtype)
    cm = _pool_matrix(w, out_w).astype(x.dtype)
    out = np.einsum("qw,cpw->cpq", cm, np.einsum("ph,chw->cpw", rm, x.data))

    def backward(gy):
        if x.requires_grad:
            gx = np.einsum("ph,cpw->chw", rm, np.einsum("qw,cpq->cpw", cm, gy))
            x.accumulate_grad(gx)

    return make_node(out, (x,), backward)


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean of each channel map: [C, H, W] -> [C]."""
    if x.ndim != 3:
        raise ShapeError(f"global_avg_pool expects a rank-3 map, got {x.shape}")
    _, h, w = x.shape
    out = x.data.mean(axis=(1, 2), dtype=np.float64).astype(x.dtype)

    def backward(gy):
        if x.requires_grad:
            gx = np.empty_like(x.data)
            gx[...] = (gy / (h * w))[:, None, None]
            x.accumulate_grad(gx, owned=True)

    return make_node(out, (x,), backward)


def max_pool2x2(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2; trailing odd rows/columns are dropped (floor)."""
    if x.ndim != 3:
        raise ShapeError(f"max_pool2x2 expects a rank-3 map, got {x.shape}")
    _, h, w = x.shape
    ho, wo = h // 2, w // 2
    if ho < 1 or wo < 1:
        raise ShapeError(f"map {h}x{w} too small for 2x2 pooling")
    # window corners in row-major order: (0,0), (0,1), (1,0), (1,1)
    corners = [(r, c) for r in (0, 1) for c in (0, 1)]

    def view(arr, r, c):
        return arr[:, r: 2 * ho: 2, c: 2 * wo: 2]

    d = x.data
    out = np.maximum(np.maximum(view(d, 0, 0), view(d, 0, 1)), np.maximum(view(d, 1, 0), view(d, 1, 1)))

    def backward(gy):
        if x.requires_grad:
            gx = np.zeros_like(d)
            free = np.ones(out.shape, dtype=bool)   # windows whose max is not yet routed
            for r, c in corners:
                hit = view(d, r, c) == out
                hit &= free
                free &= ~hit
                np.multiply(gy, hit, out=view(gx, r, c))   # the first corner equal to the max wins ties
            x.accumulate_grad(gx, owned=True)

    return make_node(out, (x,), backward)


# ---------------------------------------------------------------------------
# dense, activations, elementwise


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Affine map: [N] -> [M] with weight [M, N], or row-wise [T, N] -> [T, M]."""
    if w.ndim != 2:
        raise ShapeError(f"linear weight must be rank 2, got {w.shape}")
    m, n = w.shape
    if x.shape[-1] != n:
        raise ShapeError(f"linear expects {n} input features, got {x.shape}")
    if x.ndim == 1:
        out = w.data @ x.data
    elif x.ndim == 2:
        out = x.data @ w.data.T
    else:
        raise ShapeError(f"linear input must be rank 1 or 2, got {x.shape}")
    if b is not None:
        if b.shape != (m,):
            raise ShapeError(f"bias must have shape ({m},), got {b.shape}")
        out = out + b.data

    def backward(gy):
        if x.ndim == 1:
            if w.requires_grad:
                w.accumulate_grad(np.outer(gy, x.data))
            if x.requires_grad:
                x.accumulate_grad(w.data.T @ gy)
            if b is not None and b.requires_grad:
                b.accumulate_grad(gy)
        else:
            if w.requires_grad:
                w.accumulate_grad(gy.T @ x.data)
            if x.requires_grad:
                x.accumulate_grad(gy @ w.data)
            if b is not None and b.requires_grad:
                b.accumulate_grad(gy.sum(axis=0))

    parents = (x, w) if b is None else (x, w, b)
    return make_node(out, parents, backward)


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0)

    def backward(gy):
        if x.requires_grad:
            x.accumulate_grad(gy * (out > 0), owned=True)

    return make_node(out, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    d = x.data
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ez = np.exp(d[~pos])
    out[~pos] = ez / (1.0 + ez)

    def backward(gy):
        if x.requires_grad:
            x.accumulate_grad(gy * out * (1.0 - out))

    return make_node(out, (x,), backward)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum gradient over axes that were broadcast to reach g's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _mul_grad(gy: np.ndarray, other: np.ndarray, shape) -> np.ndarray:
    """Fresh gradient of one factor of a product: gy * other, summed over its broadcast axes.

    A map's [C, 1, 1] or [1, H, W] factor (the SE gate, the pooled query) takes
    one contraction instead of a full-size product and a sum.
    """
    if gy.ndim == 3 and other.shape == gy.shape:
        if shape == (gy.shape[0], 1, 1):
            return np.einsum("chw,chw->c", gy, other).reshape(shape)
        if shape == (1,) + gy.shape[1:]:
            return np.einsum("chw,chw->hw", gy, other).reshape(shape)
    return _unbroadcast(gy * other, shape)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product with numpy broadcasting (e.g. [C,H,W] * [C,1,1] or * [1,H,W])."""
    try:
        out = a.data * b.data
    except ValueError as exc:
        raise ShapeError(f"cannot broadcast {a.shape} with {b.shape}") from exc

    def backward(gy):
        if a.requires_grad:
            a.accumulate_grad(_mul_grad(gy, b.data, a.shape), owned=True)
        if b.requires_grad:
            b.accumulate_grad(_mul_grad(gy, a.data, b.shape), owned=True)

    return make_node(out, (a, b), backward)


def scale(x: Tensor, s: float) -> Tensor:
    out = x.data * x.dtype.type(s)

    def backward(gy):
        if x.requires_grad:
            x.accumulate_grad(gy * x.dtype.type(s))

    return make_node(out, (x,), backward)


def concat(tensors) -> Tensor:
    """Concatenate along axis 0 (channels for maps, features for vectors)."""
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat of an empty list")
    tails = {t.shape[1:] for t in tensors}
    if len(tails) != 1:
        raise ShapeError(f"concat requires matching trailing dims, got {[t.shape for t in tensors]}")
    out = np.concatenate([t.data for t in tensors], axis=0)
    sizes = [t.shape[0] for t in tensors]

    def backward(gy):
        off = 0
        for t, n in zip(tensors, sizes):
            if t.requires_grad:
                t.accumulate_grad(gy[off: off + n])
            off += n

    return make_node(out, tuple(tensors), backward)


def slice_channels(x: Tensor, start: int, stop: int) -> Tensor:
    out = x.data[start:stop].copy()

    def backward(gy):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            gx[start:stop] = gy
            x.accumulate_grad(gx)

    return make_node(out, (x,), backward)


def mean_channels(x: Tensor) -> Tensor:
    """Mean over the channel axis of a [C, H, W] map, keeping one channel."""
    if x.ndim != 3:
        raise ShapeError(f"mean_channels expects a rank-3 map, got {x.shape}")
    c = x.shape[0]
    out = x.data.mean(axis=0, keepdims=True)

    def backward(gy):
        if x.requires_grad:
            x.accumulate_grad(np.broadcast_to(gy / c, x.shape).astype(x.dtype))

    return make_node(out, (x,), backward)


def reshape(x: Tensor, shape) -> Tensor:
    out = x.data.reshape(shape)

    def backward(gy):
        if x.requires_grad:
            x.accumulate_grad(gy.reshape(x.shape))

    return make_node(out, (x,), backward)


def transpose2d(x: Tensor) -> Tensor:
    if x.ndim != 2:
        raise ShapeError(f"transpose2d expects rank 2, got {x.shape}")
    out = x.data.T.copy()

    def backward(gy):
        if x.requires_grad:
            x.accumulate_grad(gy.T.copy())

    return make_node(out, (x,), backward)


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity when not training or p == 0."""
    if not 0.0 <= p < 1.0:
        raise InvalidInput(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    mask = (rng.random(x.shape) >= p).astype(x.dtype) / x.dtype.type(1.0 - p)
    out = x.data * mask

    def backward(gy):
        if x.requires_grad:
            x.accumulate_grad(gy * mask)

    return make_node(out, (x,), backward)


def softmax_cross_entropy(logits: Tensor, label: int) -> Tensor:
    """Cross-entropy of softmax(logits) against an integer label, max-subtracted for stability."""
    if logits.ndim != 1:
        raise ShapeError(f"logits must be rank 1, got {logits.shape}")
    k = logits.shape[0]
    if not 0 <= int(label) < k:
        raise InvalidInput(f"label {label} outside [0, {k})")
    label = int(label)
    z = logits.data - logits.data.max()
    ez = np.exp(z)
    probs = ez / ez.sum()
    loss = np.log(ez.sum()) - z[label]

    def backward(gy):
        if logits.requires_grad:
            g = probs.copy()
            g[label] -= 1.0
            logits.accumulate_grad(g * gy.reshape(()))

    return make_node(np.asarray(loss, dtype=logits.dtype).reshape(()), (logits,), backward)


def softmax_probs(logits: np.ndarray) -> np.ndarray:
    """Plain numpy softmax used for clip-level aggregation of segment scores."""
    z = logits - logits.max()
    ez = np.exp(z)
    return ez / ez.sum()
